"""Automorphism algebra: certified inverses, composition, abelianization,
and the batched orbit step `cyclic_images`; compose and the inverse
check, which run as batches, against one word at a time."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outwalk._wordkernel import BATCH_CAP, ImageTable
from outwalk.free_group import Word, WordBudgetExceeded, cyclic_reduce, parse_word, reduce
from outwalk.automorphisms import (
    Automorphism,
    InverseCheckError,
    abelianization,
    apply,
    automorphism_to_str,
    compose,
    cyclic_images,
    images,
    identity_automorphism,
    inversion,
    invert,
    left_multiplier,
    parse_automorphism,
    permutation,
    right_multiplier,
)
from outwalk.matrix_oracle import IntMatrix
from outwalk.walk_engine import sample_path

FIB = "a->ab; b->a | a->b; b->Ba"


def oracle_apply(images_by_letter, word, rank):
    """Substitute then reduce with the naive list oracle."""
    out = []
    for l in word:
        img = images_by_letter[l] if l > 0 else [-x for x in reversed(images_by_letter[-l])]
        out.extend(img)
    return reduce(out, rank).letters.tolist()


def random_library(rank):
    lib = [identity_automorphism(rank)]
    for i in range(1, rank + 1):
        lib.append(inversion(rank, i))
        for j in range(1, rank + 1):
            if i != j:
                lib.append(right_multiplier(rank, i, j))
                lib.append(right_multiplier(rank, i, -j))
                lib.append(left_multiplier(rank, i, j))
    return lib


def product_strategy(rank, max_factors=5):
    lib = random_library(rank)
    return st.lists(
        st.integers(min_value=0, max_value=len(lib) - 1), min_size=1, max_size=max_factors
    ).map(lambda ids: _compose_all(lib, ids, rank))


def _compose_all(lib, ids, rank):
    out = identity_automorphism(rank)
    for i in ids:
        out = compose(out, lib[i])
    return out


def test_identity_apply():
    i3 = identity_automorphism(3)
    w = parse_word("abCab", 3)
    assert apply(i3, w) == w


def test_apply_substitution_example():
    phi = parse_automorphism(FIB)
    # a -> ab, b -> a applied to "aB" gives "abA"
    got = apply(phi, parse_word("aB", 2))
    assert got.letters.tolist() == [1, 2, -1]
    assert oracle_apply({1: [1, 2], 2: [1]}, [1, -2], 2) == [1, 2, -1]


def test_apply_fibonacci_lengths():
    phi = parse_automorphism(FIB)
    w = parse_word("a", 2)
    lengths = []
    for _ in range(8):
        lengths.append(len(w))
        w = apply(phi, w)
    assert lengths == [1, 2, 3, 5, 8, 13, 21, 34]


def test_apply_budget():
    phi = parse_automorphism(FIB)
    w = parse_word("a", 2)
    with pytest.raises(WordBudgetExceeded):
        for _ in range(40):
            w = apply(phi, w, budget=500)


def test_compose_convention():
    # compose(phi, psi) applies psi first
    phi = parse_automorphism(FIB)
    sq = compose(phi, phi)
    assert [w.letters.tolist() for w in sq.images] == [[1, 2, 1], [1, 2]]


def test_compose_with_inverse_is_identity():
    phi = parse_automorphism(FIB)
    assert compose(phi, invert(phi)) == identity_automorphism(2)
    assert compose(invert(phi), phi) == identity_automorphism(2)


def test_invert_examples():
    phi = parse_automorphism(FIB)
    assert invert(invert(phi)) == phi
    assert [w.letters.tolist() for w in invert(phi).images] == [[2], [-2, 1]]
    ident = identity_automorphism(4)
    assert invert(ident) == ident


@settings(max_examples=60)
@given(product_strategy(3), product_strategy(3), st.lists(
    st.integers(min_value=-3, max_value=3).filter(bool), max_size=12))
def test_compose_is_action(phi, psi, raw):
    w = reduce(raw, 3)
    assert apply(compose(phi, psi), w) == apply(phi, apply(psi, w))


@settings(max_examples=60)
@given(product_strategy(3))
def test_certified_inverse_on_generators(phi):
    for i in range(1, 4):
        x = Word.generator(i, 3)
        assert apply(phi, apply(invert(phi), x)) == x
        assert apply(invert(phi), apply(phi, x)) == x


@settings(max_examples=40)
@given(product_strategy(2), product_strategy(2))
def test_abelianization_antihomomorphism(phi, psi):
    # rows index mapped generators, so composition reverses the product
    assert abelianization(compose(phi, psi)) == mat_mul_oracle(
        abelianization(psi), abelianization(phi)
    )


def mat_mul_oracle(a, b):
    n = a.n
    return IntMatrix(
        tuple(
            tuple(sum(a.entries[i][k] * b.entries[k][j] for k in range(n)) for j in range(n))
            for i in range(n)
        )
    )


def test_abelianization_examples():
    assert abelianization(identity_automorphism(3)) == IntMatrix.identity(3)
    fib = parse_automorphism(FIB)
    assert abelianization(fib) == IntMatrix([[1, 1], [1, 0]])
    tw = parse_automorphism("a->aB; b->b | a->ab; b->b")
    assert abelianization(tw) == IntMatrix([[1, -1], [0, 1]])


@settings(max_examples=40)
@given(product_strategy(3), st.lists(
    st.integers(min_value=-3, max_value=3).filter(bool), max_size=10),
    st.lists(st.integers(min_value=-3, max_value=3).filter(bool), max_size=3))
def test_conjugacy_length_is_class_function(phi, raw, conj):
    g = reduce(raw, 3)
    conjugated = reduce(list(conj) + g.letters.tolist() + [-c for c in reversed(conj)], 3)
    assert len(cyclic_reduce(apply(phi, g))) == len(cyclic_reduce(apply(phi, conjugated)))


def test_parse_automorphism_good():
    phi = parse_automorphism(FIB)
    assert phi.rank == 2
    assert automorphism_to_str(phi) == "a->ab; b->a | a->b; b->Ba"
    ident = parse_automorphism("a->a; b->b | a->a; b->b")
    assert ident == identity_automorphism(2)


def test_parse_automorphism_rejects_non_inverse():
    with pytest.raises(InverseCheckError):
        parse_automorphism("a->ab; b->a | a->a; b->b")


def test_inverse_check_order():
    # generator by generator, back through the inverse before forth: a
    # goes back to a, but forth to b
    with pytest.raises(InverseCheckError, match="^images fail on generator 1"):
        parse_automorphism("a->b; b->a | a->a; b->a")
    with pytest.raises(InverseCheckError, match="^inverse images fail on generator 1"):
        parse_automorphism("a->ab; b->b | a->a; b->b")


def test_parse_automorphism_rejects_bad_grammar():
    from outwalk.free_group import ParseError

    with pytest.raises(ParseError):
        parse_automorphism("a->ab; b->a")  # missing inverse side
    with pytest.raises(ParseError):
        parse_automorphism("a->ab | a->aB; b->b")  # missing generator
    with pytest.raises(ParseError):
        parse_automorphism("a->ab; a->a | a->aB; b->b")  # duplicate


def test_builders():
    r = right_multiplier(3, 1, 2)
    assert [w.letters.tolist() for w in r.images] == [[1, 2], [2], [3]]
    lmul = left_multiplier(3, 2, 3)
    assert lmul.images[1].letters.tolist() == [3, 2]
    inv1 = inversion(2, 1)
    assert compose(inv1, inv1) == identity_automorphism(2)
    perm = permutation(3, [2, 3, 1])
    assert [w.letters.tolist() for w in perm.images] == [[2], [3], [1]]
    assert compose(perm, compose(perm, perm)) == identity_automorphism(3)
    signed = permutation(2, [2, 1], signs=[-1, 1])
    assert [w.letters.tolist() for w in signed.images] == [[-2], [1]]
    signed.verify()


def test_automorphism_requires_nonempty_images():
    w = Word.generator(1, 2)
    with pytest.raises(ValueError):
        Automorphism((w, Word.identity(2)), (w, w), 2)


def random_cyclic(seed: int, size: int, rank: int = 3):
    """A random cyclically reduced word of at most `size` letters."""
    rng = np.random.default_rng(seed)
    # letter codes 0..2R-1, code c + R (mod 2R) inverse to c; a step of
    # R+1..3R-1 never lands on the inverse of the previous letter
    steps = rng.integers(rank + 1, 3 * rank, size)
    codes = (int(rng.integers(2 * rank)) + np.cumsum(steps)) % (2 * rank)
    letters = np.where(codes < rank, codes + 1, rank - codes - 1).astype(np.int8)
    return cyclic_reduce(Word(letters, rank))


def one_at_a_time(phi, words, budget=None) -> list:
    return [cyclic_reduce(apply(phi, w.as_word(), budget=budget)) for w in words]


@pytest.fixture(scope="module")
def walk_inverses(niel):
    """Phi_n^{-1} of NIEL walks at n = 16 and 32: long image blocks."""
    return [inv for pid in range(2) for n, _, inv in sample_path(niel, 5, pid, 32) if n in (16, 32)]


# word sizes around a few letters, past SMALL, and on both sides of the cap
word_sizes = st.one_of(st.integers(0, 4), st.integers(5, 600),
                       st.integers(BATCH_CAP - 3, BATCH_CAP + 3))


@settings(max_examples=25, deadline=None)
@given(data=st.data(), count=st.sampled_from([0, 1, 9]), seed=st.integers(0, 2**32))
def test_cyclic_images_on_nielsen_moves(niel, data, count, seed):
    # one- and two-letter images: long batches take the vectorized regime
    phi = data.draw(st.sampled_from(niel.support))
    sizes = data.draw(st.lists(word_sizes, min_size=count, max_size=count))
    words = [random_cyclic(seed + k, size) for k, size in enumerate(sizes)]
    assert cyclic_images(phi, words) == one_at_a_time(phi, words)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), count=st.sampled_from([0, 1, 9]), seed=st.integers(0, 2**32))
def test_cyclic_images_on_walk_inverses(walk_inverses, data, count, seed):
    # Phi_n^{-1} has long image blocks: the block stack, deep trims
    phi = data.draw(st.sampled_from(walk_inverses))
    sizes = data.draw(st.lists(st.integers(0, 40), min_size=count, max_size=count))
    words = [random_cyclic(seed + k, size) for k, size in enumerate(sizes)]
    assert cyclic_images(phi, words) == one_at_a_time(phi, words)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32))
def test_cyclic_images_budget_is_per_word(walk_inverses, data, seed):
    # the first word over the budget, in input order, raises with its own
    # raw count, as in the loop over words; a budget every word fits,
    # however far below the batch total, raises nothing
    phi = data.draw(st.sampled_from(walk_inverses))
    words = [random_cyclic(seed + k, data.draw(st.integers(1, 30))) for k in range(9)]
    totals = [int(phi._table.lens[w.letters].sum()) for w in words]
    budget = data.draw(st.integers(min(totals) - 1, max(totals)))
    over = [t for t in totals if t > budget]
    if over:
        with pytest.raises(WordBudgetExceeded) as err:
            cyclic_images(phi, words, budget=budget)
        with pytest.raises(WordBudgetExceeded) as want:
            one_at_a_time(phi, words, budget)
        assert err.value.needed == want.value.needed == over[0]
    else:
        assert cyclic_images(phi, words, budget=budget) == one_at_a_time(phi, words, budget)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), count=st.sampled_from([0, 1, 3, 9]), seed=st.integers(0, 2**32))
def test_images_equal_apply_one_word_at_a_time(niel, walk_inverses, data, count, seed):
    # the reduced (not cyclically reduced) images drift tracks, batched;
    # the budget holds per word, the first word over it raising
    phi = data.draw(st.sampled_from(list(niel.support) + walk_inverses))
    sizes = data.draw(st.lists(word_sizes if phi in niel.support else st.integers(0, 40),
                               min_size=count, max_size=count))
    words = [random_cyclic(seed + k, size).as_word() for k, size in enumerate(sizes)]
    assert images(phi, words) == [apply(phi, w) for w in words]
    totals = [int(phi._table.lens[w.letters].sum()) for w in words]
    if totals:
        budget = data.draw(st.integers(min(totals) - 1, max(totals)))
        over = [t for t in totals if t > budget]
        if over:
            with pytest.raises(WordBudgetExceeded) as err:
                images(phi, words, budget=budget)
            assert err.value.needed == over[0]
        else:
            assert images(phi, words, budget=budget) == [apply(phi, w) for w in words]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_compose_equals_one_word_at_a_time(niel, walk_inverses, data):
    # the reference substitutes word by word, phi's images of psi's
    # images, then psi's inverse images of phi's inverse images; under a
    # budget the first of those words over it raises with its raw count
    short = [inv for inv in walk_inverses if inv.size() < 400]
    phi = data.draw(st.sampled_from(list(niel.support) + short))
    psi = data.draw(st.sampled_from(list(niel.support) + short))
    inv_table = ImageTable([w.letters for w in psi.inverse_images])
    pairs = ([(phi._table, w) for w in psi.images]
             + [(inv_table, w) for w in phi.inverse_images])
    got = compose(phi, psi)
    assert ([w.letters.tolist() for w in (*got.images, *got.inverse_images)]
            == [table.substitute(w.letters).tolist() for table, w in pairs])
    totals = [int(table.lens[w.letters].sum()) for table, w in pairs]
    budget = data.draw(st.integers(min(totals) - 1, max(totals)))
    over = [t for t in totals if t > budget]
    if over:
        with pytest.raises(WordBudgetExceeded) as err:
            compose(phi, psi, budget=budget)
        assert err.value.needed == over[0]
    else:
        assert compose(phi, psi, budget=budget) == got


def test_compose_raises_for_images_before_inverse_images():
    # phi(psi(b)) = phi(baaa) has 7 raw letters, psi^{-1}(phi^{-1}(a)) =
    # psi^{-1}(aB) 5: under a budget of 4 both exceed, and the images raise
    phi = parse_automorphism("a->ab; b->b | a->aB; b->b")
    psi = parse_automorphism("a->a; b->baaa | a->a; b->bAAA")
    with pytest.raises(WordBudgetExceeded) as err:
        compose(phi, psi, budget=4)
    assert (err.value.needed, err.value.budget) == (7, 4)
    with pytest.raises(WordBudgetExceeded) as err:
        compose(invert(psi), invert(phi), budget=4)
    assert err.value.needed == 5


def test_word_steps_read_an_iterator_of_words_once():
    # the rank check must not use the words up before they are mapped
    phi = right_multiplier(3, 1, -2)
    gens = [Word.generator(i, 3) for i in (1, 2, 3)]
    want = images(phi, gens)
    assert [w.letters.tolist() for w in want] == [[1, -2], [2], [3]]
    assert images(phi, iter(gens)) == want
    classes = [cyclic_reduce(w) for w in gens]
    assert cyclic_images(phi, iter(classes)) == cyclic_images(phi, classes) == one_at_a_time(
        phi, classes)


def test_cyclic_images_in_rank_127():
    # no letter is left for a separator, so every word runs alone; the
    # letter 127 is a generator here and must come out as one
    phi = right_multiplier(127, 127, -1)
    words = [cyclic_reduce(Word(np.array(w, dtype=np.int8), 127))
             for w in ([127], [127, 2, 127], [1, -127, 3], [5])]
    assert cyclic_images(phi, words) == one_at_a_time(phi, words)
    images = [w.letters.tolist() for w in cyclic_images(phi, words)]
    assert images[:2] == [[127, -1], [127, -1, 2, 127, -1]]
