"""Word arithmetic against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outwalk.free_group import (
    CyclicWord,
    ParseError,
    SeedClash,
    Word,
    cyclic_reduce,
    parse_word,
    reduce,
    seed_classes,
    word_to_str,
)
from outwalk._wordkernel import SMALL, ImageTable, stack_reduce


def oracle_reduce(seq):
    """Reference reducer: repeatedly delete the first inverse pair."""
    seq = list(seq)
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] == -seq[i + 1]:
                del seq[i: i + 2]
                changed = True
                break
    return seq


def oracle_conjugacy_length(seq, rank, conj_len=3):
    """Minimal cyclic length over conjugates u w u^-1 with |u| <= conj_len."""
    import itertools

    def cyc_len(w):
        w = oracle_reduce(w)
        while len(w) >= 2 and w[0] == -w[-1]:
            w = w[1:-1]
        return len(w)

    letters = [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)]
    best = cyc_len(seq)
    for k in range(1, conj_len + 1):
        for u in itertools.product(letters, repeat=k):
            conj = list(u) + list(seq) + [-x for x in reversed(u)]
            best = min(best, cyc_len(conj))
    return best


letters_st = st.lists(
    st.integers(min_value=-3, max_value=3).filter(lambda x: x != 0), max_size=60
)


def test_reduce_examples():
    assert reduce([1, -1], 2).letters.tolist() == []
    assert reduce([1, 2, -2, 1], 2).letters.tolist() == [1, 1]
    # "a B b A c" -> "c", frozen from the stack oracle
    raw = [1, -2, 2, -1, 3]
    assert oracle_reduce(raw) == [3]
    assert reduce(raw, 3).letters.tolist() == [3]


def test_reduce_rejects_bad_letters():
    with pytest.raises(ValueError):
        reduce([4], 3)
    with pytest.raises(ValueError):
        reduce([0], 3)


@pytest.mark.parametrize("make", [
    lambda: Word(np.array([1, -128], dtype=np.int8), 3),
    lambda: CyclicWord([-128], 2),
    lambda: reduce([-128, 1], 3),
    lambda: reduce([-4], 3),
], ids=["word", "cyclic-word", "reduce", "reduce-past-rank"])
def test_a_letter_below_minus_rank_is_refused(make):
    # the int8 letter -128 has no positive counterpart: its absolute
    # value is -128 again, so only a signed range check refuses it
    with pytest.raises(ValueError, match="out of range"):
        make()


@given(letters_st)
def test_reduce_matches_oracle(seq):
    assert reduce(seq, 3).letters.tolist() == oracle_reduce(seq)


@given(letters_st)
def test_reduce_idempotent(seq):
    w = reduce(seq, 3)
    assert reduce(w.letters, 3) == w


@given(letters_st, letters_st)
def test_concat_length_bound(a, b):
    u, v = reduce(a, 3), reduce(b, 3)
    assert len(reduce(np.concatenate([u.letters, v.letters]), 3)) <= len(u) + len(v)


def test_vectorized_reduce_matches_stack_on_long_words():
    # images of one or two letters: substituting a long word takes the
    # vectorized pair deletion
    images = [np.array(b, dtype=np.int8) for b in ([1, 2], [-1, 2], [3])]
    table = ImageTable(images)
    rng = np.random.Generator(np.random.Philox(key=np.array([5, 0], dtype=np.uint64)))
    for _ in range(20):
        raw = rng.integers(1, 4, size=4000) * rng.choice([-1, 1], size=4000)
        word = np.array(stack_reduce(raw.tolist()), dtype=np.int8)
        blocks = [images[abs(x) - 1].tolist() if x > 0 else (-images[-x - 1][::-1]).tolist()
                  for x in word.tolist()]
        assert SMALL < sum(map(len, blocks)) < 4 * word.size
        want = stack_reduce([y for b in blocks for y in b])
        assert table.substitute(word).tolist() == want


def test_telescoping_reduction():
    # a -> a b^k sends a B^k to a b^k B^k = a: the one seam cancels k deep;
    # a B A telescopes through three long blocks in the block stack
    k = 3000
    table = ImageTable([np.array([1] + [2] * k, dtype=np.int8), np.array([2], dtype=np.int8)])
    assert table.substitute(np.array([1] + [-2] * k, dtype=np.int8)).tolist() == [1]
    assert table.substitute(np.array([1, -2, -1], dtype=np.int8)).tolist() == [1, -2, -1]
    assert len(reduce([1] * k + [-1] * k, 2)) == 0


def test_cyclic_reduce_examples():
    # b a B is conjugate to a
    w = parse_word("baB", 2)
    assert cyclic_reduce(w).letters.tolist() == [1]
    # already cyclically reduced
    assert len(cyclic_reduce(parse_word("ab", 2))) == 2
    # peeling matched ends: A b b a -> b b
    got = cyclic_reduce(parse_word("Abba", 2))
    assert got.letters.tolist() == [2, 2]
    assert oracle_conjugacy_length([-1, 2, 2, 1], 2) == 2
    # A b a b is already cyclically reduced at length 4 (no shorter conjugate)
    assert len(cyclic_reduce(parse_word("Abab", 2))) == 4
    assert oracle_conjugacy_length([-1, 2, 1, 2], 2) == 4


@pytest.mark.parametrize("texts, index, first", [
    (["ab", "aA"], 1, None),
    (["1"], 0, None),
    (["ab", "c", "bcB", "a"], 2, 1),
    (["aCb", "bA", "baC"], 2, 0),
])
def test_seed_classes_name_the_first_clash(texts, index, first):
    # one rule for config seeds and conjugacy_growth_experiment: each word
    # names a nontrivial class, read as its least rotation, none twice
    words = [parse_word(t, 3) for t in texts]
    assert [word_to_str(g) for g in seed_classes(words[:index])] == [
        word_to_str(cyclic_reduce(w)) for w in words[:index]]
    with pytest.raises(SeedClash) as clash:
        seed_classes(words)
    assert (clash.value.index, clash.value.first) == (index, first)
    assert clash.value.word == cyclic_reduce(words[index])


@given(letters_st, st.integers(min_value=-3, max_value=3).filter(lambda x: x != 0))
def test_cyclic_reduce_conjugation_invariant(seq, c):
    w = reduce(seq, 3)
    conj = reduce([c] + w.letters.tolist() + [-c], 3)
    assert len(cyclic_reduce(conj)) == len(cyclic_reduce(w))


@given(letters_st)
def test_cyclic_length_at_most_word_length(seq):
    w = reduce(seq, 3)
    assert len(cyclic_reduce(w)) <= len(w)


@given(letters_st)
def test_cyclic_reduce_matches_conjugacy_oracle(seq):
    w = reduce(seq, 3)
    assert len(cyclic_reduce(w)) == oracle_conjugacy_length(w.letters.tolist(), 3, conj_len=2)


def test_parse_and_print_roundtrip():
    for text in ["1", "a", "aB", "abcABC", "aabAA"]:
        w = parse_word(text, 3)
        assert parse_word(word_to_str(w), 3) == w
    assert parse_word("1", 2) == Word.identity(2)
    assert parse_word("a A", 2) == Word.identity(2)  # whitespace tolerated, reduces


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_word("a-b", 2)
    with pytest.raises(ParseError):
        parse_word("d", 3)  # beyond rank


def test_word_construction_validates():
    with pytest.raises(ValueError):
        Word(np.array([1, -1], dtype=np.int8), 2)  # not reduced
    with pytest.raises(ValueError):
        CyclicWord(np.array([1, 2, -1], dtype=np.int8), 2)  # not cyclically reduced
    assert len(Word.identity(2)) == 0


def test_a_word_and_a_cyclic_word_stay_apart():
    # the two types share their letters, length and hash, never equality
    w = parse_word("abC", 3)
    g = CyclicWord(w.letters, 3)
    assert len(w) == len(g) == 3 and hash(w) == hash(g)
    assert w != g and g != w and not w == g
    assert g.as_word() == w and cyclic_reduce(w) == g
    assert {w, g} == {w, g.as_word(), g} and len({w, g}) == 2
    assert Word(w.letters, 4) != w and CyclicWord(g.letters, 4) != g
    assert repr(w) == "Word('abC', rank=3)"
    assert repr(g) == "CyclicWord('abC', rank=3)"
    assert repr(Word.identity(2)) == "Word('1', rank=2)"
    assert repr(CyclicWord(np.array([], dtype=np.int8), 2)) == "CyclicWord('1', rank=2)"
