"""Automorphism algebra: certified inverses, composition, abelianization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outwalk.free_group import Word, WordBudgetExceeded, cyclic_reduce, parse_word, reduce
from outwalk.automorphisms import (
    Automorphism,
    InverseCheckError,
    abelianization,
    apply,
    automorphism_to_str,
    compose,
    identity_automorphism,
    inversion,
    invert,
    left_multiplier,
    parse_automorphism,
    permutation,
    right_multiplier,
)
from outwalk.matrix_oracle import IntMatrix

FIB = "a->ab; b->a | a->b; b->Ba"


def oracle_apply(images_by_letter, word, rank):
    """Substitute then reduce with the naive list oracle."""
    out = []
    for l in word:
        img = images_by_letter[l] if l > 0 else [-x for x in reversed(images_by_letter[-l])]
        out.extend(img)
    return reduce(out, rank).as_tuple()


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
    assert got.as_tuple() == (1, 2, -1)
    assert oracle_apply({1: [1, 2], 2: [1]}, [1, -2], 2) == (1, 2, -1)


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
    assert [w.as_tuple() for w in sq.images] == [(1, 2, 1), (1, 2)]


def test_compose_with_inverse_is_identity():
    phi = parse_automorphism(FIB)
    assert compose(phi, invert(phi)) == identity_automorphism(2)
    assert compose(invert(phi), phi) == identity_automorphism(2)


def test_invert_examples():
    phi = parse_automorphism(FIB)
    assert invert(invert(phi)) == phi
    assert [w.as_tuple() for w in invert(phi).images] == [(2,), (-2, 1)]
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
    conjugated = reduce(list(conj) + list(g.as_tuple()) + [-c for c in reversed(conj)], 3)
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
    assert [w.as_tuple() for w in r.images] == [(1, 2), (2,), (3,)]
    lmul = left_multiplier(3, 2, 3)
    assert lmul.images[1].as_tuple() == (3, 2)
    inv1 = inversion(2, 1)
    assert compose(inv1, inv1) == identity_automorphism(2)
    perm = permutation(3, [2, 3, 1])
    assert [w.as_tuple() for w in perm.images] == [(2,), (3,), (1,)]
    assert compose(perm, compose(perm, perm)) == identity_automorphism(3)
    signed = permutation(2, [2, 1], signs=[-1, 1])
    assert [w.as_tuple() for w in signed.images] == [(-2,), (1,)]
    signed.verify()


def test_automorphism_requires_nonempty_images():
    w = Word.generator(1, 2)
    with pytest.raises(ValueError):
        Automorphism((w, Word.identity(2)), (w, w), 2)
