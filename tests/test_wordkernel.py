"""`ImageTable.substitute` in both of its regimes against `stack_reduce`.

The block stack takes words whose images have long blocks, the
vectorized pair deletion long words over short blocks; every case here
compares the result with the stack reduction of the raw concatenation
of image blocks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outwalk._wordkernel import SMALL, ImageTable, WordBudgetExceeded, stack_reduce
from outwalk.automorphisms import compose
from outwalk.walk_engine import sample_path

# word sizes on both sides of SMALL, with the few-letter words that
# substitutions into composed products see
sizes = st.one_of(st.integers(0, 4), st.integers(5, 3 * SMALL))


def random_reduced(seed: int, size: int, rank: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < size:
        x = int(rng.integers(1, rank + 1)) * int(rng.choice([-1, 1]))
        if not out or out[-1] != -x:
            out.append(x)
    return np.array(out, dtype=np.int8)


def raw_concatenation(images, word) -> list:
    """The image blocks of word's letters, concatenated unreduced."""
    raw = []
    for x in word.tolist():
        block = images[abs(x) - 1].tolist()
        raw += block if x > 0 else [-y for y in reversed(block)]
    return raw


def check(images, word):
    want = stack_reduce(raw_concatenation(images, word))
    got = ImageTable(images).substitute(word, budget=10**9)
    assert got.dtype == np.int8
    assert got.tolist() == want


def letters(*ws):
    return [np.array(w, dtype=np.int8) for w in ws]


@pytest.fixture(scope="module")
def nielsen_products(niel):
    """Nielsen moves and products of two or three of them: short blocks."""
    moves = niel.support
    out = list(moves)
    for i in range(0, len(moves), 5):
        out.append(compose(moves[i], moves[(7 * i + 3) % len(moves)]))
        out.append(compose(out[-1], moves[(11 * i + 1) % len(moves)]))
    return out


@pytest.fixture(scope="module")
def walk_maps(niel):
    """(Phi_n, Phi_n^{-1}) of NIEL walks at n = 16, 24 and 32: long blocks."""
    return [
        (phi, inv)
        for pid in range(3)
        for n, phi, inv in sample_path(niel, 5, pid, 32)
        if n in (16, 24, 32)
    ]


@settings(max_examples=80, deadline=None)
@given(data=st.data(), size=sizes, seed=st.integers(0, 2**32))
def test_substitute_on_nielsen_tables(nielsen_products, data, size, seed):
    phi = data.draw(st.sampled_from(nielsen_products))
    check([w.letters for w in phi.images], random_reduced(seed, size))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), size=sizes, seed=st.integers(0, 2**32))
def test_substitute_on_walk_inverse_tables(walk_maps, data, size, seed):
    phi, inv = data.draw(st.sampled_from(walk_maps))
    images = [w.letters for w in inv.images]
    word = random_reduced(seed, size)
    check(images, word)
    # Phi_n^{-1}(Phi_n(u)) = u telescopes through every seam; u is kept
    # short since the raw concatenation has about |u| |Phi_n| |Phi_n^{-1}|
    # letters
    u = word[:3]
    image = ImageTable([w.letters for w in phi.images]).substitute(u, budget=10**9)
    check(images, image)
    assert ImageTable(images).substitute(image, budget=10**9).tolist() == u.tolist()


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 4 * SMALL), size=sizes, seed=st.integers(0, 2**32))
def test_substitute_deep_cancellation_over_short_blocks(k, size, seed):
    # a -> a, b -> A, c -> c sends c a^k b^k c to c a^k A^k c: the seam
    # cancels k deep, which takes the vectorized regime k passes
    images = letters([1], [-1], [3])
    check(images, np.array([3] + [1] * k + [2] * k + [3], dtype=np.int8))
    check(images, random_reduced(seed, size))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), size=sizes, seed=st.integers(0, 2**32),
       slack=st.integers(-2, 2))
def test_budget_raised_exactly_when_raw_total_exceeds_it(walk_maps, data, size, seed,
                                                         slack):
    phi, inv = data.draw(st.sampled_from(walk_maps))
    images = [w.letters for w in data.draw(st.sampled_from([phi, inv])).images]
    word = random_reduced(seed, size)
    total = len(raw_concatenation(images, word))
    budget = max(0, total + slack)
    table = ImageTable(images)
    if total > budget:
        with pytest.raises(WordBudgetExceeded) as err:
            table.substitute(word, budget)
        assert (err.value.needed, err.value.budget) == (total, budget)
    else:
        assert table.substitute(word, budget).tolist() == stack_reduce(
            raw_concatenation(images, word))


def test_few_long_blocks_telescope():
    # a -> a b^k: a B A maps to a b^k . B . B^k A = a B A, and a b A to a b A
    k = 3 * SMALL
    images = letters([1] + [2] * k, [2])
    for word in ([1, -2, -1], [1, 2, -1]):
        check(images, np.array(word, dtype=np.int8))
        assert ImageTable(images).substitute(np.array(word, dtype=np.int8), 10**9).size == 3
