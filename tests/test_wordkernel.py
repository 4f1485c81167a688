"""`ImageTable.substitute` in both of its regimes against `stack_reduce`,
`lockstep_substitute`, the one batched entry point above it and the one
place the letter budget is checked, against one word at a time on each
map's own table, and `cyclic_trim` and the cyclic lengths of products,
read by `common_prefix`, against the stack reduction and a
letter-by-letter peel; the cyclic length of a class's image read off the
generator images, against `cyclic_images`.

The block stack takes words under tables with a long block, the
vectorized pair deletion long words under tables of short blocks; every
case here compares the result with the stack reduction of the raw
concatenation of image blocks.  Seams across several of the windows
that the block stack measures them by come from tables of powers of
walk inverses and from seams built to a given depth; both reach the
table's seam cache and its fallback, the windows of the prefix past the
letters of the previous block that it still holds.  A batch must give each
word the image it gets alone, hold the budget per word, and never let
its separator out.  Words go in and images come out as bytes, one byte
per int8 letter; the tests pass their int8 arrays as bytes and read the
images back as arrays.  A group of one on a map's own table is how
`automorphisms` maps words; many groups over a stacked table must each
get the images that their own map's table gives them, and a group with
a word over the budget must get the WordBudgetExceeded of its first
such word before any letter of it reaches the kernel.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outwalk import _wordkernel
from outwalk._wordkernel import (
    BATCH_CAP,
    NUMPY_INVERSE,
    SMALL,
    WINDOW,
    ImageTable,
    WordBudgetExceeded,
    class_length,
    common_prefix,
    cyclic_length,
    cyclic_trim,
    inverse_bytes,
    lockstep_orbits,
    lockstep_substitute,
    product_cyclic_length,
    stack_reduce,
)
from outwalk.automorphisms import Automorphism, MapStack, compose, cyclic_images, images
from outwalk.free_group import CyclicWord, Word, as_bytes, reduce
from outwalk.walk_engine import sample_path

from conftest import nielsen_measure

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
    got = ImageTable(images).substitute(word)
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
    image = ImageTable([w.letters for w in phi.images]).substitute(u)
    check(images, image)
    assert ImageTable(images).substitute(image).tolist() == u.tolist()


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
    psi = data.draw(st.sampled_from([phi, inv]))
    table = [w.letters for w in psi.images]
    word = random_reduced(seed, size)
    total = len(raw_concatenation(table, word))
    budget = max(0, total + slack)
    [got] = lockstep(psi._table, [0], [[word]], budget)
    if total > budget:
        assert (got.needed, got.budget) == (total, budget)
        with pytest.raises(WordBudgetExceeded) as err:
            images(psi, [Word(word, 3)], budget=budget)
        assert (err.value.needed, err.value.budget) == (total, budget)
    else:
        assert [a.tolist() for a in got] == [stack_reduce(raw_concatenation(table, word))]


def test_few_long_blocks_telescope():
    # a -> a b^k: a B A maps to a b^k . B . B^k A = a B A, and a b A to a b A
    k = 3 * SMALL
    images = letters([1] + [2] * k, [2])
    for word in ([1, -2, -1], [1, 2, -1]):
        check(images, np.array(word, dtype=np.int8))
        assert ImageTable(images).substitute(np.array(word, dtype=np.int8)).size == 3


def test_long_blocks_never_take_pair_deletion(monkeypatch):
    # a -> a b^k, b -> b sends a B^k to a b^k B^k = a: one seam k deep,
    # which pair deletion peels one layer per pass; a table with a block
    # past SHORT_BLOCK letters takes the block stack whatever the word
    k = 10_000
    passes = []
    pair_pass = _wordkernel._pair_pass

    def counted(buf, left):
        passes.append(len(buf))
        return pair_pass(buf, left)

    monkeypatch.setattr(_wordkernel, "_pair_pass", counted)
    check(letters([1] + [2] * k, [2]), np.array([1] + [-2] * k, dtype=np.int8))
    assert len(passes) <= 2


def cascade(k: int, left: int = 1, right: int = 1) -> list:
    """c a^k b^k c, with left and right c's at its ends, which a -> a,
    b -> A, c -> c sends to c a^k A^k c: a seam k deep, peeled one pair
    per pass, and with no c the whole word cancels."""
    return [3] * left + [1] * k + [2] * k + [3] * right


# short-block tables: a -> a, b -> A, c -> c cascades (`cascade`) and
# sends (a b)^r to (a A)^r, a run of 2r - 1 consecutive inverse pairs;
# under a -> ab, b -> B, c -> c the block B of each b cancels whole, and
# a -> aCb, b -> Bc, c -> A sends a b c to aCb Bc A, which cancels whole
SHORT_TABLES = [[[1], [-1], [3]], [[1, 2], [-2], [3]], [[1, -3, 2], [-2, 3], [-1]]]


@st.composite
def short_block_words(draw):
    """A reduced word for `SHORT_TABLES`: a cascade at a depth on either
    side of SMALL, with or without its end letters, a run of alternating
    letters of odd or even length inside random context, or a random
    word."""
    shape = draw(st.sampled_from(["cascade", "run", "random"]))
    if shape == "cascade":
        return cascade(draw(st.integers(1, 2 * SMALL)), *draw(st.tuples(st.integers(0, 1),
                                                                       st.integers(0, 1))))
    if shape == "random":
        return random_reduced(draw(st.integers(0, 2**32)), draw(sizes)).tolist()
    run = [1, 2] * draw(st.integers(0, SMALL)) + draw(st.sampled_from([[], [1]]))
    head, tail = draw(st.integers(0, 2**32)), draw(st.integers(0, 2**32))
    return stack_reduce(random_reduced(head, 5).tolist() + [3] + run + [3]
                        + random_reduced(tail, 5).tolist())


@settings(max_examples=80, deadline=None)
@given(images=st.sampled_from(SHORT_TABLES),
       words=st.lists(short_block_words(), min_size=1, max_size=4), at=st.integers(0, 4))
def test_pair_deletion_on_separated_batches(images, words, at):
    # a batch joined by the separator, sized past SMALL so that it takes
    # pair deletion, comes out as the stack reduction of its raw image;
    # a short batch takes a random word at a drawn place
    table = ImageTable(letters(*images))
    if sum(len(w) + 1 for w in words) <= SMALL + 1:
        words.insert(at, random_reduced(at, SMALL + 1).tolist())
    batch = np.array([x for w in words for x in [table.sep] + w][1:], dtype=np.int8)
    blocks = letters(*images, [_wordkernel.SEP])  # the separator is letter R + 1
    assert table.rows is not None and batch.size > SMALL
    got = table.substitute(batch)
    assert got.dtype == np.int8
    assert got.tolist() == stack_reduce(raw_concatenation(blocks, batch))


def test_pair_passes_compare_only_their_joints(monkeypatch):
    # every pass after the first compares only the joints the last pass
    # made, one per pass here, not the whole word again
    k = 3 * SMALL
    compared = []
    pair_pass = _wordkernel._pair_pass

    def counted(buf, left):
        compared.append(len(buf) - 1 if left is None else left.size)
        return pair_pass(buf, left)

    monkeypatch.setattr(_wordkernel, "_pair_pass", counted)
    check(letters(*SHORT_TABLES[0]), np.array(cascade(k), dtype=np.int8))
    assert compared[0] == 2 * k + 1
    assert len(compared) == k + 1
    assert sum(compared[1:]) <= 2 * k


@pytest.fixture(scope="module")
def walk_powers(niel):
    """(phi, the images of phi^j) for phi = Phi_n^{-1} of NIEL walks at
    n = 8 and 12, j = 2, 3: the tables a bracket orbit substitutes the
    short words phi(x_i) into, whose seams cancel up to thousands of
    letters deep."""
    out = []
    for pid in range(3):
        for n, _, inv in sample_path(niel, 5, pid, 12):
            if n in (8, 12):
                power = inv
                for _ in (2, 3):
                    power = compose(power, inv)
                    out.append((inv, [w.letters for w in power.images]))
    return out


def seam_depths(images, word) -> list:
    """How deep each image block of word cancels into the reduced image
    of the letters before it."""
    out, depths = [], []
    for x in word.tolist():
        block = images[abs(x) - 1].tolist()
        block = block if x > 0 else [-y for y in reversed(block)]
        k = 0
        while k < len(block) and out and out[-1] == -block[k]:
            out.pop()
            k += 1
        out += block[k:]
        depths.append(k)
    return depths


def seam_reads(monkeypatch, images, word) -> tuple:
    """(seams the cache answers, (kept, depth) of each seam measured on
    past the kept letters of the previous block) when a fresh table of
    the images substitutes the word."""
    fallbacks = []
    common_suffix = _wordkernel.common_suffix

    def spy(x, y, k):
        depth = common_suffix(x, y, k)
        if isinstance(x, bytearray):  # the prefix, not a cached block
            fallbacks.append((k, depth))
        return depth

    with monkeypatch.context() as m:
        m.setattr(_wordkernel, "common_suffix", spy)
        ImageTable(images).substitute(word)
    seams = sum(d > 0 for d in seam_depths(images, word))
    return seams - len(fallbacks), fallbacks


def test_walk_power_seams_pass_the_first_window(walk_powers, monkeypatch):
    # the data of the test below reach seams inside the first window of
    # `common_suffix`, past it and past the doubled window after it; the
    # cache answers some and the windows of the prefix measure others,
    # some of those deeper than the kept letters of the previous block
    depths = [d for phi, table in walk_powers for w in phi.images
              for d in seam_depths(table, w.letters)]
    assert any(0 < d <= WINDOW for d in depths)
    assert any(WINDOW < d <= 3 * WINDOW for d in depths)
    assert max(depths) > 7 * WINDOW
    reads = [seam_reads(monkeypatch, table, w.letters)
             for phi, table in walk_powers for w in phi.images]
    assert sum(hits for hits, _ in reads) > 0
    fallbacks = [kd for _, fb in reads for kd in fb]
    assert any(depth > kept > 0 for kept, depth in fallbacks)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), size=st.integers(0, 24), seed=st.integers(0, 2**32))
def test_substitute_on_walk_power_tables(walk_powers, data, size, seed):
    phi, table = data.draw(st.sampled_from(walk_powers))
    for w in phi.images:
        check(table, w.letters)
    check(table, random_reduced(seed, size))


def test_threads_sharing_a_table_fill_its_seam_cache_alike(walk_powers):
    # threads that share a table may fill one cache entry at once, and
    # each fill is the same seam: every thread gets the images, and the
    # table the cache, that one thread alone gets from a fresh table
    words = [w.letters for phi, _ in walk_powers for w in phi.images]
    tables = [table for _, table in walk_powers]
    alone = [ImageTable(table) for table in tables]
    want = [[t.substitute(w).tolist() for w in words] for t in alone]
    shared = [ImageTable(table) for table in tables]
    got = {}

    def work(i):
        got[i] = [[t.substitute(w).tolist() for w in words] for t in shared]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == {i: want for i in range(4)}
    assert ([[b[4] for b in t.py_blocks] for t in shared]
            == [[b[4] for b in t.py_blocks] for t in alone])


def test_a_stacked_table_stays_linear_in_its_maps():
    # the fifth powers of the 224 Nielsen moves of F_8, blocks of up to
    # six letters for the block stack, take 32 slots each; a seam cache
    # with an entry for every slot of the table would hold 7168^2 of them.
    # Only slots of one map meet, so each slot's cache holds slots of its
    # own map alone, at most 32, and none before a word goes through
    powers = []
    for phi in nielsen_measure(8).support:
        power = phi
        for _ in range(4):
            power = compose(power, phi)
        powers.append(power)
    stack = MapStack(powers)
    table = stack._table
    stride = table.stride
    assert (stride, table.lens.size) == (32, 224 * stride)
    assert not any(b[4] for b in table.py_blocks)
    maps = list(range(224))
    words = [Word._wrap(random_reduced(m, 100 + m % 50, rank=8), 8) for m in maps]
    out = stack.byte_images(maps, [as_bytes([w]) for w in words])
    assert out == [as_bytes(images(stack.phis[m], [w])) for m, w in zip(maps, words)]
    caches = [b[4] for b in table.py_blocks]
    assert sum(map(len, caches)) > 0
    assert all(a // stride == b // stride for b, cache in enumerate(caches) for a in cache)


@pytest.mark.parametrize("left, right", [(5, 5), (0, 5), (5, 0)])
@pytest.mark.parametrize("depth", [1, 2, WINDOW - 1, WINDOW, WINDOW + 1, 3 * WINDOW - 1,
                                   3 * WINDOW, 3 * WINDOW + 1, 5000])
def test_seam_cancels_exactly_its_depth(depth, left, right, monkeypatch):
    # a -> r g, b -> g^{-1} s sends a b to r s: the seam cancels |g| deep,
    # all of what came before it when r is empty, the whole block when s
    # is.  The windows of `common_suffix` end at WINDOW and 3 WINDOW
    # letters.  The seam of the slot pair (a, b) is |g|: the cache answers
    # it below the |r g| letters kept of block a, and with r empty, where
    # all of block a is in the seam, the windows of the prefix go on
    # past it
    g = random_reduced(depth, depth, rank=2).tolist()
    r, s = [3] * left, [3] * right
    images = [np.array(r + g, dtype=np.int8),
              np.array([-x for x in reversed(g)] + s, dtype=np.int8), letters([3])[0]]
    for word in ([1, 2], [3, 1, 2, 3], [1, 2, 1, 2]):
        check(images, np.array(word, dtype=np.int8))
    assert ImageTable(images).substitute(np.array([1, 2], dtype=np.int8)).tolist() == r + s
    hits, fallbacks = seam_reads(monkeypatch, images, np.array([3, 1, 2, 3], dtype=np.int8))
    assert (hits, fallbacks) == ((1, []) if left else (0, [(depth, depth)]))


def test_seam_cache_holds_only_inside_the_kept_letters(monkeypatch):
    # a -> r g, b -> g^{-1} s, c -> x s^{-1} r^{-1}, d -> x^{-1} a: the
    # cached seam of (a, b) is |g|.  In a b block a is kept whole, |r g|
    # letters, and the cache answers.  In c a b the cache answers (c, a),
    # whose seam is r; block a then keeps |g| letters, so the seam of
    # (a, b) reads on past them through s^{-1} into c's block: block b
    # cancels whole, and c a b maps to x.  Of it nothing is kept, so the
    # seam of d into x is measured by windows of the prefix alone
    g = random_reduced(7, 3 * WINDOW, rank=2).tolist()
    r, s, x = [3, 4] * WINDOW, [4, 3] * 5, [-4]
    inv = lambda w: [-y for y in reversed(w)]
    images = [np.array(w, dtype=np.int8)
              for w in (r + g, inv(g) + s, x + inv(s) + inv(r), inv(x) + [1])]
    word = np.array([1, 2, 3, 1, 2, 4], dtype=np.int8)
    check(images, word)
    hits, fallbacks = seam_reads(monkeypatch, images, word)
    assert (hits, fallbacks) == (2, [(len(g), len(g) + len(s)), (0, 1)])


def peel(letters) -> list:
    """Cyclic trim of a reduced letter list, one matched pair of ends at
    a time: the reference for `cyclic_trim`."""
    i, j = 0, len(letters)
    while j - i >= 2 and letters[i] == -letters[j - 1]:
        i, j = i + 1, j - 1
    return letters[i:j]


def one_at_a_time(table, words) -> list:
    return [table.substitute(w).tolist() for w in words]


def lockstep(table, maps, groups, budget) -> list:
    """`lockstep_substitute` on groups of int8 arrays, passed as bytes:
    each group's images, which come out as bytes, as int8 arrays again."""
    out = lockstep_substitute(table, maps, [[w.tobytes() for w in ws] for ws in groups], budget)
    for item in out:
        if not isinstance(item, WordBudgetExceeded):
            assert all(type(b) is bytes for b in item)
    return [item if isinstance(item, WordBudgetExceeded)
            else [np.frombuffer(b, dtype=np.int8) for b in item] for item in out]


def group_of_one(table, words, budget=10**9):
    """The item of words as a group of one on map 0 of the table."""
    return lockstep(table, [0], [words], budget)[0]


def as_words(words) -> list:
    return [Word(w, 3) for w in words]


def raw_total(table, word) -> int:
    return int(table.lens[word].sum())


@pytest.mark.parametrize("slack", [-1, 0, 1])
def test_a_long_lone_word_meets_the_budget_exactly(niel, slack):
    # a lone word's raw size is summed a BATCH_CAP of slots at a time
    table = niel.support[5]._table
    word = random_reduced(11, 3 * BATCH_CAP + 7)
    total = raw_total(table, word)
    [got] = lockstep(table, [0], [[word]], total + slack)
    if slack < 0:
        assert (got.needed, got.budget) == (total, total + slack)
    else:
        assert [a.tolist() for a in got] == one_at_a_time(table, [word])


def test_batch_over_budget_only_in_total_does_not_raise(niel):
    # every word's raw image fits the budget; the nine together do not
    phi = niel.support[0]
    table = phi._table
    words = [random_reduced(seed, 300) for seed in range(9)]
    budget = max(raw_total(table, w) for w in words)
    assert sum(raw_total(table, w) for w in words) > budget
    got = images(phi, as_words(words), budget=budget)
    assert [w.letters.tolist() for w in got] == one_at_a_time(table, words)


@pytest.mark.parametrize("over", [[4], [2, 6], [8]])
def test_batch_raises_for_the_first_word_over_budget(niel, over):
    phi = niel.support[0]
    table = phi._table
    words = [random_reduced(k, 300 if k in over else 40) for k in range(9)]
    budget = max(raw_total(table, w) for k, w in enumerate(words) if k not in over)
    cut = group_of_one(table, words, budget)
    assert (cut.needed, cut.budget) == (raw_total(table, words[over[0]]), budget)
    with pytest.raises(WordBudgetExceeded) as err:
        images(phi, as_words(words), budget=budget)
    assert (err.value.needed, err.value.budget) == (cut.needed, budget)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32),
       sizes=st.lists(st.one_of(st.integers(0, 3), st.integers(4, 400)), max_size=12))
def test_separator_never_leaves_a_batch(nielsen_products, walk_maps, data, seed, sizes):
    # empty words put separators next to each other; both regimes run,
    # short-block tables through pair deletion
    phi = data.draw(st.sampled_from(nielsen_products + [inv for _, inv in walk_maps]))
    words = [random_reduced(seed + k, size) for k, size in enumerate([0, 0] + sizes + [0, 0])]
    got = group_of_one(phi._table, words)
    assert all(np.abs(a).max(initial=0) <= 3 for a in got)
    assert [a.tolist() for a in got] == one_at_a_time(phi._table, words)


def test_batch_splits_at_the_cap(niel):
    # words below the cap share a call, one past it runs alone, and the
    # images are those of one word at a time either way
    table = niel.support[5]._table
    calls = []

    class Counting(ImageTable):
        def substitute(self, word):
            calls.append(word.size)
            return super().substitute(word)

    counting = Counting([w.letters for w in niel.support[5].images])
    words = ([random_reduced(k, 100) for k in range(3)] + [random_reduced(9, BATCH_CAP)]
             + [random_reduced(k, 100) for k in range(3, 6)])
    got = group_of_one(counting, words)
    assert calls == [302, BATCH_CAP, 302]
    assert [a.tolist() for a in got] == one_at_a_time(table, words)


def test_a_lone_word_reaches_the_kernel_as_a_view_of_its_bytes(niel, monkeypatch):
    # a word that runs alone on a one-map table enters `substitute` with no
    # copy, and its image leaves as bytes, its one copy; a batch is cut
    # at its separators into the images that each word gets alone
    seen = []
    substitute = ImageTable.substitute

    def spy(self, word):
        seen.append(word)
        return substitute(self, word)

    monkeypatch.setattr(ImageTable, "substitute", spy)
    table = niel.support[5]._table
    word = random_reduced(3, BATCH_CAP + 5).tobytes()
    [[image]] = lockstep_substitute(table, [0], [[word]], 10**9)
    assert len(seen) == 1 and seen[0].base is word and seen[0].dtype == np.int8
    words = [random_reduced(k, 50).tobytes() for k in range(4)]
    [images] = lockstep_substitute(table, [0], [words], 10**9)
    assert len(seen) == 2
    monkeypatch.setattr(ImageTable, "substitute", substitute)
    for w, got in zip([word] + words, [image] + images):
        assert type(got) is bytes
        assert got == table.substitute(np.frombuffer(w, dtype=np.int8)).tobytes()


def stacked(maps) -> ImageTable:
    """One table of every map, map m in slots m * stride on."""
    return ImageTable(*[[w.letters for w in phi.images] for phi in maps])


def own_table_images(phi, words, budget):
    """The images of words under phi's own table, one word at a time, or
    (needed, budget) of the first word whose raw image exceeds the budget."""
    over = [n for n in (raw_total(phi._table, w) for w in words) if n > budget]
    return (over[0], budget) if over else one_at_a_time(phi._table, words)


def as_lists(item):
    """A lockstep item as `own_table_images` gives it."""
    if isinstance(item, WordBudgetExceeded):
        return (item.needed, item.budget)
    return [a.tolist() for a in item]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32), short_only=st.booleans(),
       groups=st.lists(st.lists(st.one_of(st.integers(0, 3), st.integers(4, 300)),
                                min_size=1, max_size=4), min_size=1, max_size=8))
def test_lockstep_gives_each_group_its_own_maps_images(nielsen_products, walk_maps, data, seed,
                                                       short_only, groups):
    # short-block tables only take pair deletion once a batch passes SMALL;
    # with a walk inverse among the maps every batch takes the block stack
    maps = nielsen_products + ([] if short_only else [inv for _, inv in walk_maps])
    picks = [data.draw(st.integers(0, len(maps) - 1)) for _ in groups]
    words = [[random_reduced(seed + 7 * p + k, size) for k, size in enumerate(g)]
             for p, g in enumerate(groups)]
    raws = sorted(raw_total(maps[m]._table, w) for m, ws in zip(picks, words) for w in ws)
    budget = data.draw(st.sampled_from(raws + [10**9]))
    got = lockstep(stacked(maps), picks, words, budget)
    want = [own_table_images(maps[m], ws, budget) for m, ws in zip(picks, words)]
    assert [as_lists(g) for g in got] == want


@pytest.mark.parametrize("cap, batches", [(BATCH_CAP, 1), (1000, 3), (1, 15)])
def test_lockstep_splits_at_the_cap_between_words(niel, monkeypatch, cap, batches):
    # a batch takes words while its input stays under the cap, whatever
    # group they belong to, and the separators cut it back into words
    monkeypatch.setattr(_wordkernel, "BATCH_CAP", cap)
    calls = []
    substitute = ImageTable.substitute

    def spy(self, word):
        calls.append(word.size)
        return substitute(self, word)

    monkeypatch.setattr(ImageTable, "substitute", spy)
    maps = list(niel.support)
    picks = [3, 3, 17, 0, 23]
    words = [[random_reduced(10 * p + k, 40 + 90 * k) for k in range(3)] for p in range(5)]
    got = lockstep(stacked(maps), picks, words, 10**9)
    # words of 40, 130 and 220 letters in turn: under a cap of 1000 the
    # batches take 8, 6 and 1 of them, one separator between two words
    assert len(calls) == batches
    assert sum(calls) == sum(w.size for ws in words for w in ws) + 15 - batches
    monkeypatch.setattr(ImageTable, "substitute", substitute)
    assert ([as_lists(g) for g in got]
            == [own_table_images(maps[m], ws, 10**9) for m, ws in zip(picks, words)])


def test_lockstep_drops_a_cut_group_before_substituting(niel, monkeypatch):
    # group 1 has one word over the budget: it gets that word's
    # WordBudgetExceeded, and not one of its letters enters the kernel;
    # the other groups share one call
    calls = []
    substitute = ImageTable.substitute

    def spy(self, word):
        calls.append(word.size)
        return substitute(self, word)

    monkeypatch.setattr(ImageTable, "substitute", spy)
    maps = list(niel.support)
    picks = [1, 2, 3, 4]
    words = [[random_reduced(10 * p + k, 300 if (p, k) == (1, 2) else 50) for k in range(3)]
             for p in range(4)]
    budget = max(raw_total(maps[m]._table, w)
                 for p, (m, ws) in enumerate(zip(picks, words)) for w in ws if p != 1)
    needed = raw_total(maps[2]._table, words[1][2])
    assert needed > budget
    got = lockstep(stacked(maps), picks, words, budget)
    assert calls == [3 * (3 * 50) + 8]
    monkeypatch.setattr(ImageTable, "substitute", substitute)
    assert as_lists(got[1]) == (needed, budget)
    assert ([as_lists(g) for g in got]
            == [own_table_images(maps[m], ws, budget) for m, ws in zip(picks, words)])


@pytest.mark.parametrize("cut", [(0, 0), (2, 1), (3, 1), (4, 2)])
def test_a_budget_check_builds_each_batch_once(niel, monkeypatch, cut):
    # under a cap of 1000 the fifteen words run in three batches; the
    # check builds the slots of each once and reads each word's raw size
    # once.  The cut group's words leave a batch from its first places,
    # from its last (the words 6 and 12, 13), from its middle (9-11), and
    # the last batch whole (word 14)
    monkeypatch.setattr(_wordkernel, "BATCH_CAP", 1000)
    built, read = [], []
    slots, raw_sizes = _wordkernel._slots, _wordkernel._raw_sizes

    def slots_spy(table, owners, words):
        built.append(len(words))
        return slots(table, owners, words)

    def raw_sizes_spy(table, word_slots, sizes):
        read.append(len(sizes))
        return raw_sizes(table, word_slots, sizes)

    monkeypatch.setattr(_wordkernel, "_slots", slots_spy)
    monkeypatch.setattr(_wordkernel, "_raw_sizes", raw_sizes_spy)
    maps = list(niel.support)
    picks = [3, 3, 17, 0, 23]
    words = [[random_reduced(10 * p + k, 400 if (p, k) == cut else 40 + 90 * k)
              for k in range(3)] for p in range(5)]
    budget = max(raw_total(maps[m]._table, w)
                 for p, (m, ws) in enumerate(zip(picks, words)) for w in ws if p != cut[0])
    got = lockstep(stacked(maps), picks, words, budget)
    assert isinstance(got[cut[0]], WordBudgetExceeded)
    assert len(built) == len(read) > 1
    assert sum(built) == sum(read) == 15
    assert ([as_lists(g) for g in got]
            == [own_table_images(maps[m], ws, budget) for m, ws in zip(picks, words)])


def scheduled(items, first, last, grow=None, drop=None):
    """The steps, as (k, names of the group), and the outputs of
    `lockstep_orbits` over items (name, size), under a fake step that
    multiplies the size of item name by grow[name], drops the items
    named in drop[k] at step k and outputs (k, name) for each item that
    goes on."""
    grow, drop, steps = grow or {}, drop or {}, []

    def step(k, group):
        steps.append((k, [name for name, _ in group]))
        group = [(name, size * grow.get(name, 1)) for name, size in group
                 if name not in drop.get(k, ())]
        return group, [(k, name) for name, _ in group]

    outputs = list(lockstep_orbits(items, lambda item: item[1], step, first, last))
    return steps, outputs


def test_an_item_at_the_cap_leaves_the_group():
    steps, outputs = scheduled([("a", 0), ("b", BATCH_CAP - 1), ("c", BATCH_CAP)], 1, 2)
    assert steps == [(1, ["c"]), (2, ["c"]), (1, ["a", "b"]), (2, ["a", "b"])]
    assert outputs == [(1, "c"), (2, "c"), (1, "a"), (1, "b"), (2, "a"), (2, "b")]


def test_a_lone_item_runs_through_last_before_the_group_steps_again():
    # b reaches the cap at its first step; from then on it runs alone,
    # and the other items wait at k = 2 until it is through k = 4
    steps, _ = scheduled([("a", 1), ("b", BATCH_CAP // 2), ("c", 1)], 1, 4, grow={"b": 2})
    assert steps == [(1, ["a", "b", "c"]), (2, ["b"]), (3, ["b"]), (4, ["b"]),
                     (2, ["a", "c"]), (3, ["a", "c"]), (4, ["a", "c"])]


def test_a_dropped_item_is_never_stepped_again():
    # b is dropped inside the group, and c on its lone run, which then ends
    items = [("a", 1), ("b", 1), ("c", BATCH_CAP)]
    steps, outputs = scheduled(items, 1, 4, drop={2: {"b", "c"}})
    assert steps == [(1, ["c"]), (2, ["c"]), (1, ["a", "b"]), (2, ["a", "b"]), (3, ["a"]),
                     (4, ["a"])]
    assert outputs == [(1, "c"), (1, "a"), (1, "b"), (2, "a"), (3, "a"), (4, "a")]
    # a group whose every item is dropped ends
    assert scheduled(items[:2], 1, 4, drop={1: {"a", "b"}})[0] == [(1, ["a", "b"])]


@pytest.mark.parametrize("first, last", [(1, 1), (3, 5), (4, 3)])
def test_steps_run_from_first_through_last(first, last):
    steps, _ = scheduled([("a", 1), ("b", BATCH_CAP)], first, last)
    ks = list(range(first, last + 1))
    assert steps == [(k, ["b"]) for k in ks] + [(k, ["a"]) for k in ks]


def test_no_item_steps_nothing():
    assert scheduled([], 1, 10) == ([], [])


@pytest.mark.parametrize("depth", [1, 63, 64, 65, 300, 1023, 1024, 1025, 3077])
def test_batch_trims_deep_conjugates(depth):
    # x -> u x u^{-1} maps every cyclic word c to u c u^{-1}, which the
    # trim peels back |u| deep, across many windows for long u
    u = random_reduced(depth, depth).tolist()
    images = [np.array(stack_reduce(u + [i] + [-x for x in reversed(u)]), dtype=np.int8)
              for i in (1, 2, 3)]
    table = ImageTable(images)
    words = [np.array(w, dtype=np.int8) for w in ([1], [1, 2], [3, -1, 2], [2, 2, -3, 1])]
    got = [cyclic_trim(a) for a in group_of_one(table, words)]
    assert [a.tolist() for a in got] == [peel(a) for a in one_at_a_time(table, words)]
    assert [a.size for a in got] == [w.size for w in words]


@pytest.mark.parametrize("shared", [0, 1, WINDOW - 1, WINDOW, WINDOW + 1, 3 * WINDOW,
                                    1023, 1024, 1025, 3077])
def test_common_prefix_across_window_edges(shared):
    # u = p x s and v = p y t with x != y: the prefix is p, also of the
    # inverses of the inverse words, from the start or from any offset
    # into p, at any cap
    p = random_reduced(shared, shared).tolist()
    x = 1 if not p or abs(p[-1]) != 1 else 2
    u = np.array(p + [x] + random_reduced(1, 2048).tolist(), dtype=np.int8)
    v = np.array(p + [-x] + random_reduced(2, 50).tolist(), dtype=np.int8)
    assert stack_reduce(u.tolist()) == u.tolist() and stack_reduce(v.tolist()) == v.tolist()
    pu, pv = u.tobytes(), v.tobytes()
    for cap in (shared - 1, shared, shared + 1, v.size):
        if cap >= 0:
            assert common_prefix(pu, pv, cap) == min(shared, cap)
    # the inverse words, inverted, are u and v again
    iu = inverse_bytes(np.array(u[::-1] * -1).tobytes())
    iv = inverse_bytes(np.array(v[::-1] * -1).tobytes())
    assert common_prefix(iu, iv, v.size) == shared
    for offset in {0, shared // 2, shared}:
        assert common_prefix(pu, pv, v.size - offset, offset, offset) == shared - offset


def prefix_by_letters(x, y, cap: int, i: int, j: int) -> int:
    """The common prefix of x from letter i and y from letter j, up to
    cap letters, one letter at a time: the reference for `common_prefix`."""
    n = 0
    while n < cap and x[i + n] == y[j + n]:
        n += 1
    return n


def suffix_by_letters(x, y, k: int) -> int:
    """The common suffix of x and y, given that it is at least k, one
    letter at a time: the reference for `_wordkernel.common_suffix`."""
    while k < min(len(x), len(y)) and x[-k - 1] == y[-k - 1]:
        k += 1
    return k


# the doubled windows from letter 0 end at multiples of WINDOW, and under
# a cap past their end a window that differs halves down to WINDOW
# letters at multiples of WINDOW, so shared lengths fall one letter
# before, at and after each of them; 33 WINDOW + 1 lies in the window
# that ends at 63 WINDOW
EDGES = [max(0, k * WINDOW + e) for k in range(34) for e in (-1, 0, 1)]
FAR = 63 * WINDOW


def sharing(rng, i: int, j: int, shared: int, ends: str, tail: int) -> tuple:
    """x = s p a t and y = r p b u, with |s| = i, |r| = j, |p| = shared,
    bytes a != b and tails t, u of up to tail bytes, or with p ending x
    or y."""
    some = lambda n: rng.integers(0, 256, n, dtype=np.uint8).tobytes()
    a = int(rng.integers(0, 256))
    b = (a + int(rng.integers(1, 256))) % 256
    p = some(shared)
    x = some(i) + p + (b"" if ends == "x" else bytes([a]) + some(int(rng.integers(0, tail + 1))))
    y = some(j) + p + (b"" if ends == "y" else bytes([b]) + some(int(rng.integers(0, tail + 1))))
    return x, y


def check_prefix_and_suffix(x, y, cap: int, i: int, j: int, k: int, shared: int):
    # from |s| and |r| the prefix is p at any cap, and the suffix of the
    # reversed tails is p reversed from any known part k of it
    for xs in (x, bytearray(x)):
        assert common_prefix(xs, y, cap, i, j) == prefix_by_letters(x, y, cap, i, j)
        assert prefix_by_letters(x, y, cap, i, j) == min(shared, cap)
    tx, ty = x[i:][::-1], y[j:][::-1]
    for xs in (tx, bytearray(tx)):
        assert _wordkernel.common_suffix(xs, ty, k) == suffix_by_letters(tx, ty, k) == shared


@settings(max_examples=200, deadline=None)
@given(data=st.data(), shared=st.sampled_from(EDGES), seed=st.integers(0, 2**32),
       ends=st.sampled_from(["neither", "x", "y"]), tail=st.sampled_from([200, FAR]))
def test_common_prefix_and_suffix_against_the_letters(data, shared, seed, ends, tail):
    # random offsets, caps below, at and above the shared length, and
    # short tails, which end the windows early, or long ones
    rng = np.random.default_rng(seed)
    i, j = data.draw(st.integers(0, 70)), data.draw(st.integers(0, 70))
    x, y = sharing(rng, i, j, shared, ends, tail)
    room = min(len(x) - i, len(y) - j)
    cap = data.draw(st.one_of(st.integers(max(0, shared - 3), min(room, shared + 3)),
                              st.just(room)))
    check_prefix_and_suffix(x, y, cap, i, j, data.draw(st.integers(0, shared)), shared)


@pytest.mark.parametrize("i, j", [(0, 0), (5, 70)])
def test_common_prefix_and_suffix_at_every_window_edge(i, j):
    # every shared length of EDGES under a cap past the window that
    # holds it, so that the window halves down at each edge
    rng = np.random.default_rng(i + j)
    for shared in EDGES:
        x, y = sharing(rng, i, j, shared, "neither", 0)
        x, y = x + bytes(FAR), y + bytes(FAR)
        check_prefix_and_suffix(x, y, min(len(x) - i, len(y) - j), i, j, 0, shared)


@given(word=st.binary(max_size=300))
def test_inverse_bytes_is_an_involution(word):
    inv = inverse_bytes(word)
    assert inverse_bytes(inv) == word
    # the int8 letters reversed, each negated (-128 is its own negation)
    letters = np.frombuffer(word, dtype=np.int8)
    assert np.frombuffer(inv, dtype=np.int8).tolist() == (-letters[::-1]).tolist()


@pytest.mark.parametrize("length", [NUMPY_INVERSE - 1, NUMPY_INVERSE, NUMPY_INVERSE + 1,
                                    4 * NUMPY_INVERSE])
def test_inverse_bytes_on_both_sides_of_numpy(length):
    # every byte value, 0x80 (-128, its own negation) and the separator's
    # 0x7F among them, on both sides of the length where numpy takes over
    word = bytes((7 * i + length) % 256 for i in range(length))
    assert set(word) == set(range(256))
    inv = inverse_bytes(word)
    assert type(inv) is bytes
    assert inv == bytes(-x & 0xFF for x in reversed(word))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), core=st.integers(0, 6),
       ends=st.one_of(st.integers(0, 4), st.integers(WINDOW - 2, 3072)))
def test_cyclic_trim_against_the_peel(seed, core, ends):
    # u c u^{-1}, reduced: the peel runs about |u| deep, across many
    # windows for long u
    u = random_reduced(seed, ends).tolist()
    c = random_reduced(seed + 1, core).tolist()
    w = np.array(stack_reduce(u + c + [-x for x in reversed(u)]), dtype=np.int8)
    got = cyclic_trim(w)
    assert got.tolist() == peel(w.tolist())
    if got.size == w.size:
        assert got is w


def product_by_stack(u, v) -> int:
    return len(peel(stack_reduce(u.tolist() + v.tolist())))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32), sizes=st.lists(st.integers(0, 3072), min_size=4,
                                                  max_size=4),
       shape=st.sampled_from(["free", "shared head", "v ends in u", "u ends in v^-1"]))
def test_product_cyclic_length_against_the_stack(seed, sizes, shape):
    # shared heads and tails make the seam and the peel long, and one
    # piece running out sends the peel into the rest of the other
    c, s, t, r = (random_reduced(seed + k, n).tolist() for k, n in enumerate(sizes))
    if shape == "free":
        u, v = s, t
    elif shape == "shared head":
        u, v = c + s, c + t
    elif shape == "v ends in u":
        u, v = s, c + s
    else:
        u, v = c + r, [-x for x in reversed(r)]
    u = np.array(stack_reduce(u), dtype=np.int8)
    v = np.array(stack_reduce(v), dtype=np.int8)
    v_inv = np.array(v[::-1] * -1)
    bu, bv = u.tobytes(), v.tobytes()
    pu, pu_inv, pv, pv_inv = bu, inverse_bytes(bu), bv, inverse_bytes(bv)
    assert cyclic_length(pu, pu_inv) == len(peel(u.tolist()))
    assert product_cyclic_length(pu, pu_inv, pv, pv_inv) == product_by_stack(u, v)
    assert product_cyclic_length(pu, pu_inv, pv_inv, pv) == product_by_stack(u, v_inv)
    assert product_cyclic_length(pv, pv_inv, pu, pu_inv) == product_by_stack(v, u)


def random_class(seed: int, size: int) -> list:
    """A cyclically reduced word of size letters in rank 3."""
    w = random_reduced(seed, size).tolist()
    if size > 1 and w[0] == -w[-1]:
        # a last letter that cancels neither neighbour
        w[-1] = next(x for x in (1, -1, 2, -2, 3, -3) if x not in (-w[-2], -w[0]))
    return w


def conjugation(w: list, moved) -> Automorphism:
    """x_i -> w x_i w^{-1} for the generators i in moved, with w a word in
    the others when they are not all moved, and the others fixed; its
    inverse conjugates by w^{-1}."""
    w_inv = [-x for x in reversed(w)]
    sides = [[reduce(a + [i] + b if i in moved else [i], 3) for i in (1, 2, 3)]
             for a, b in ((w, w_inv), (w_inv, w))]
    return Automorphism(tuple(sides[0]), tuple(sides[1]), 3)


@settings(max_examples=120, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32), size=st.integers(1, 20),
       source=st.sampled_from(["nielsen", "conjugation", "walk"]))
def test_class_length_against_cyclic_images(nielsen_products, walk_maps, data, seed, size,
                                            source):
    # Phi(g) is the product of the generator images Phi(x_l)^{+-1} over
    # the letters l of g.  Under a conjugation by a long w the images'
    # ends cancel w whole, and a piece x_j that the map fixes cancels
    # whole into the w or w^{-1} next to it
    if source == "nielsen":
        phi = data.draw(st.sampled_from(nielsen_products))
    elif source == "walk":
        phi = data.draw(st.sampled_from([m for pair in walk_maps for m in pair]))
    else:
        moved = data.draw(st.sampled_from([{1}, {2}, {1, 3}, {1, 2, 3}]))
        w = random_reduced(seed + 1, data.draw(st.integers(1, 3072)), 3)
        kept = [i for i in (1, 2, 3) if i not in moved]
        if kept:
            # the letters of w: the fixed generators only
            w = w[np.isin(np.abs(w), kept)]
        phi = conjugation(stack_reduce(w.tolist()), moved)
    g = random_class(seed, size)
    readings = [(b, inverse_bytes(b)) for b in as_bytes(phi.images)]
    got = class_length(readings, g)
    assert got == len(cyclic_images(phi, [CyclicWord(np.array(g, dtype=np.int8), 3)])[0])
    pieces = [readings[x - 1] if x > 0 else readings[-x - 1][::-1] for x in g]
    if size == 1:
        assert got == cyclic_length(*pieces[0])
    if size == 2:
        assert got == product_cyclic_length(*pieces[0], *pieces[1])


@pytest.mark.parametrize("k", [2, WINDOW + 1, 3072])
@pytest.mark.parametrize("w, g", [([-3, -2], [3, 1, 2]), ([-3, 2], [2, 1, -3])])
def test_class_length_peels_down_to_one_piece(w, g, k):
    # under a -> w C^k a c^k w^{-1}, with w = C B or C b, the pieces of
    # c a b, or of b a C, that the map fixes cancel whole: one at the seam
    # with w or w^{-1}, the other in the peel of the ends.  That leaves one
    # interval of the middle piece, C^k a c^k b c or C b C^k a c^k, whose
    # own ends peel once more
    phi = conjugation(w + [-3] * k, {1})
    readings = [(b, inverse_bytes(b)) for b in as_bytes(phi.images)]
    want = len(cyclic_images(phi, [CyclicWord(np.array(g, dtype=np.int8), 3)])[0])
    assert class_length(readings, g) == want == 2 * k + 1
