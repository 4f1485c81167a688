"""Low-level kernel for free-group words.

A word is a sequence of nonzero letters: +i is the i-th generator, -i
its inverse (1-based), each one int8.  Between kernel calls a reduced
word is carried as `bytes`, one byte per int8 letter (its two's
complement): the word orbits track their words so, the cyclic
lengths read them, and `lockstep_substitute` takes and returns them.
Inside a call a batch of words is one int8 array read off its bytes by one
`np.frombuffer`, and `ImageTable.substitute` and `cyclic_trim` take and
return int8 arrays.  The public types in :mod:`outwalk.free_group` wrap
int8 arrays, and `automorphisms` converts at that boundary.

Raw user input is reduced by `stack_reduce`, the pure-Python stack that
also serves as the reference in tests.  Substitution gets a reduced word
and reduced image blocks, so letters cancel only at block seams, and by
Cooper's bounded-cancellation lemma never deeper than a constant of the
map.  `ImageTable.substitute` picks one of two regimes from its input:

* a block stack, the default: each block cancels against the end of
  the reduced prefix and is appended whole, so long blocks cost one
  `extend` each.  The seam is the common suffix of the prefix and the
  inverse block, removed with one `del`.  Seams are measured by
  comparing byte windows (`common_suffix`, as `common_prefix` does),
  and the table caches the seam of each slot pair (a, b) it meets, the
  common suffix of block a and inverse block b: a property of the map,
  as deep as the long blocks of a power phi^(k-1) cancel (Cooper's
  bounded cancellation constant grows with k), and met again at every
  a b of the word.  Slot b's cache holds
  only the slots a of its own map, since a separator never cancels, so
  a table of many maps stays linear in them.  The stack tracks how
  many letters of the previous block are still at the end of the
  prefix.  A cached seam shorter than that is the cancellation itself;
  otherwise the prefix reaches past the block's letters into what came
  before, and the seam goes on from there by windows of the prefix.
  Threads that share a table may fill one cache entry at once, with
  equal values;
* vectorized pair deletion for words of more than `SMALL` letters
  under a table whose blocks all have at most `SHORT_BLOCK` letters,
  where the Python loop would run once per letter (the word's length
  stands for its raw image's, which is no shorter, since the image of
  a generator under an automorphism and the separator are never
  empty): the blocks are the rows of one zero-padded int8
  matrix, so the raw image is one row gather, its bytes with the zero
  pads dropped by one `bytes.translate`.  Then passes delete
  non-overlapping adjacent inverse pairs (`_pair_pass`): each zeros the
  pairs it deletes and drops them with one more translate.  The first
  pass compares every adjacent pair; a pass leaves inverse pairs only
  at the joints where it deleted one, so each later pass compares only
  the joints of the pass before, and the passes end when one leaves no
  joint.  A pass peels one layer of every seam at once, so the passes
  that delete number the deepest seam cancellation, and past the first
  pass the work is the number of joints, not the word's length.  A
  long block can cancel as deep as it is long (a -> a b^k
  sends a B^k to a b^k B^k), one pass per letter, which is why the
  regime looks at the longest block of the table and not at the word.

Free reduction is confluent, so both regimes give the same normal form.

An orbit step maps a handful of words at once, and per word the cost is
numpy call overhead, not letters.  So `lockstep_substitute` is the one
entry point above `substitute`, and the one place the letter budget is
checked: it joins the bytes of the words with the byte of a separator
letter between them, reads each batch as one int8 array and runs it
through one `substitute` call, and cuts the bytes of the substituted
batch at its `SEP` bytes with one `bytes.split` (a batch of one word is
not cut).  So no numpy array is built or wrapped per word on either
side of the call.  Its words come in
groups, each read in a map of the table; every word operation of
`automorphisms` on one map (compose, apply, the inverse check, the orbit
step of a lone path) is a group of one on that map's own table.  Many
groups step at once, each through its own map: walk paths through the
support (`MapStack`), and through a map of their own (`own_images`)
the s_n(x_i) of a Gromov step through each path's Phi_{n-1} and the
phi(x_i) of a bracket's power step through each phi^(k-1).  One table
stacks the maps (`ImageTable(*maps)`): map m takes the slots from m *
stride on, stride the least power of two of at least 2R+2, so that a
letter's slot in its map is its two's-complement bits below the
stride, one bitwise and with no division.  The separator is letter R+1,
the slot that is also slot -(R+1) of a map; it maps to `SEP`, a letter
no generator of rank below 127 uses, so neither regime ever cancels it
and no word cancels into its neighbour.  On a one-map table the int8
letters are their own slots; on a stacked one each word is read as
slots of its group's map.  A batch takes words while its input stays
under `BATCH_CAP` letters, and a longer word runs alone: long words gain
nothing from sharing a call, and an uncapped batch would hold the
temporaries of all its words at once.

The budget holds for each word's raw image, the sum of its slots' block
lengths, not for the batch, so batching never moves a cut-off.  A group
with a word over the budget is dropped before substituting, and its
item is the WordBudgetExceeded of its first such word, so the budget
cuts exactly the groups that a call per group would raise on.

The ends that a cyclic trim peels off a reduced word u are the common
prefix of u and u^{-1} (`cyclic_trim`, `cyclic_length`).  The
conjugacy length of a product u v of reduced words needs no product:
the seam cancels the common prefix of u^{-1} and v, and the ends then
peel as the common prefix of u and v^{-1} (`product_cyclic_length`).
Nor does that of a longer product of reduced pieces, such as the image
Phi^{-1}(g) of a class g, the product of the generator images u_l^{+-1}
over the letters l of g (`class_length`): the pieces reduce as a stack
of intervals, each seam cancelling the common prefix of the top
interval's inverse and the next piece, and the ends of the result peel
interval by interval, down to the trim of one.  Its one- and two-piece
cases are `cyclic_length` and `product_cyclic_length`.  All read a
word u as the byte pair (u, u^{-1}), the inverse built by
`inverse_bytes`: a reversed slice mapped through `NEG` by
`bytes.translate`, or from `NUMPY_INVERSE` letters on a numpy negation
of the reversed int8 view, which is cheaper per letter and byte for byte
the same.  Every seam and peel is a `common_prefix` of two byte
strings, which compares windows with `bytes ==`, a memcmp: no Python
loop runs per letter, however long the words.
"""

from __future__ import annotations

import numpy as np

DTYPE = np.int8

# Words of up to this many letters always take the block stack:
# below it numpy's per-call overhead outweighs the per-letter loop.
SMALL = 192

# Only tables whose blocks all have at most this many letters take the
# vectorized regime; see the module docstring.
SHORT_BLOCK = 4

# The letter that separator slots map to, as a letter and as a byte, and
# the input-letter cap of a batch and of a lockstep item (`lockstep_orbits`).
SEP = 127
SEP_BYTE = bytes([SEP])
BATCH_CAP = 1 << 15

# `common_prefix` and `common_suffix` compare windows of WINDOW letters,
# doubling up to WINDOW_MAX, and halve a window that differs down to at
# most WINDOW letters.  NEG maps the byte of each int8 letter to that of
# its inverse.
WINDOW = 64
WINDOW_MAX = 1 << 20
NEG = bytes(-x & 0xFF for x in range(256))

# `inverse_bytes` inverts words of at least this many letters by numpy:
# about 0.3 ns a letter plus 1 us a call, against 1.3-1.6 ns a letter
# for a reversed slice and `bytes.translate`, which are even at about
# 900-1,000 letters (2 CPUs, Python 3.11.7, numpy 2.4.6).
NUMPY_INVERSE = 1000


class WordBudgetExceeded(RuntimeError):
    """A word operation would exceed the configured letter budget."""

    def __init__(self, needed: int, budget: int):
        super().__init__(f"word would need {needed} letters, budget is {budget}")
        self.needed = needed
        self.budget = budget


def as_array(letters) -> np.ndarray:
    arr = np.asarray(letters, dtype=DTYPE)
    if arr.ndim != 1:
        raise ValueError("letters must be one-dimensional")
    return arr


def stack_reduce(letters) -> list:
    """Freely reduce a letter sequence with an explicit stack."""
    out = []
    push = out.append
    pop = out.pop
    for x in letters:
        if out and out[-1] == -x:
            pop()
        else:
            push(x)
    return out


def is_reduced(arr: np.ndarray) -> bool:
    if arr.size < 2:
        return True
    return not bool((arr[:-1] == -arr[1:]).any())


def _pair_pass(word: bytes, left):
    """One pass of vectorized pair deletion over the int8 letters of word.

    Letters l and l + 1 are compared for each l of left, ascending, or for
    every l when left is None.  The inverse pairs found that do not
    overlap are zeroed in a copy and dropped with one `bytes.translate`
    (on bytes, not bytearray, whose translate is slower): inside a run of
    consecutive pairs (x X x ...) only every other pair goes.  Returns
    the shorter word and its joints, the l where a letter before a
    deleted pair now meets one after it, ascending: a pass leaves inverse
    pairs only there, so the next pass compares only them.  With no pair
    found, returns the word and no joint.
    """
    arr = np.frombuffer(word, dtype=DTYPE)
    if left is None:
        hits = np.flatnonzero(arr[:-1] == -arr[1:])
    else:
        hits = left[arr[left] == -arr[left + 1]]
    if hits.size > 1:
        step = hits[1:] - hits[:-1]
        if step.min() == 1:
            new_run = np.empty(hits.size, dtype=bool)
            new_run[0] = True
            np.not_equal(step, 1, out=new_run[1:])
            starts = np.flatnonzero(new_run)
            first = np.repeat(hits[starts], np.diff(np.append(starts, hits.size)))
            hits = hits[((hits - first) & 1) == 0]
    if hits.size == 0:
        return word, hits
    buf = bytearray(word)
    arr = np.frombuffer(buf, dtype=DTYPE)
    arr[hits] = 0
    arr[hits + 1] = 0
    word = bytes(buf).translate(None, b"\0")
    # the letter after the i-th deleted pair moves to hits[i] - 2i; pairs
    # deleted side by side share that place, and one at either end of
    # the word leaves no joint
    after = hits - np.arange(0, 2 * hits.size, 2)
    keep = np.empty(after.size, dtype=bool)
    keep[0] = after[0] > 0
    np.not_equal(after[1:], after[:-1], out=keep[1:])
    after = after[keep]
    if after.size and after[-1] == len(word):
        after = after[:-1]
    return word, after - 1


def reduce_array(arr: np.ndarray) -> np.ndarray:
    """Freely reduce an arbitrary letter array."""
    return np.array(stack_reduce(arr.tolist()), dtype=DTYPE)


class ImageTable:
    """Per-letter image words of one or more maps, in gather-friendly form.

    Slot l holds the image of letter l, negative l counting from the end
    as in Python and numpy indexing: slots 1..R hold the images of the R
    generators, slots -R..-1 their inverses, slot 0 an empty block, slot
    R+1 the separator `SEP`, and the slots between, if any, empty
    blocks.  A map takes `stride` slots, the least power of two of at
    least 2R+2, so the slot of a letter is its two's-complement bits
    below the stride.  A table of several maps of one rank stacks them:
    letter l of map m takes slot m * stride + (l & (stride - 1)), so the
    slots of map 0 are those of a one-map table.
    """

    def __init__(self, *maps: list[bytes]):
        # maps[m][i] (0-based i) holds the image of generator i+1 under map
        # m, as bytes or any buffer of int8 letters
        rank = len(maps[0])
        self.sep = rank + 1
        self.stride = 1 << (2 * rank + 1).bit_length()
        self.sep_byte = bytes([self.sep]) if self.sep <= SEP else None
        # per slot, the block as bytes: slot -l of a map holds the inverse
        # of its slot l, the reversed bytes of the block, each negated
        pad = [b""] * (self.stride - 2 * rank - 2)
        raw = []
        for images in maps:
            fwd = [bytes(img) for img in images]
            raw += [b""] + fwd + [SEP_BYTE] + pad + [inverse_bytes(b) for b in reversed(fwd)]
        sizes = [len(b) for b in raw]
        self.lens = np.array(sizes, dtype=np.int64)
        self.longest = max(sizes)
        # blocks as the rows of one zero-padded matrix when every block is
        # short: substituting is then one row gather and dropping the zeros
        self.rows = None
        if self.longest <= SHORT_BLOCK:
            self.rows = np.frombuffer(b"".join([b.ljust(self.longest, b"\0") for b in raw]),
                                      dtype=DTYPE).reshape(len(raw), self.longest)
        # per slot, for the block stack on bytearrays: the block and its
        # length, the byte that cancels its first letter (256, which no
        # byte equals, for the empty block; the separator's, -SEP, no word
        # holds), the inverse block, whose suffixes are what the block
        # cancels, and the slot's seam cache: slot b's maps a slot a, once
        # met before it, to the seam of the pair (a, b).  Only slots of one
        # map meet, a word at a time, so a cache holds at most `stride`
        # entries and a table stays linear in its maps
        mask = self.stride - 1
        self.py_blocks = [(raw[l], sizes[l], NEG[raw[l][0]] if sizes[l] else 256,
                           raw[l & ~mask | -l & mask], {}) for l in range(len(raw))]

    def substitute(self, word: np.ndarray) -> np.ndarray:
        """Apply the substitution to a reduced word and reduce the result.

        The word may be a batch of reduced words separated by the letter
        `sep`; each comes out reduced, with `SEP` between them, as an int8
        array in either regime (see the module docstring).  No budget
        applies here: `lockstep_substitute` checks it before calling.
        """
        if self.rows is not None and word.size > SMALL:
            # the raw image: the gathered rows, their zero pads dropped
            out, left = _pair_pass(self.rows.take(word, axis=0).tobytes().translate(None, b"\0"),
                                   None)
            while left.size:
                out, left = _pair_pass(out, left)
            return np.frombuffer(out, dtype=DTYPE)
        out = bytearray()
        extend = out.extend
        blocks = self.py_blocks
        # kept: the letters of the previous slot's block still at the end of out
        prev = kept = 0
        for letter in word.tolist():
            block, size, head, inverse, seams = blocks[letter]
            if out and out[-1] == head:
                # the seam cancels the common suffix of out and the inverse
                # block; the cached seam of the slot pair, when shorter than
                # kept, is that suffix
                k = seams.get(prev) if kept else 0
                if k is None:
                    k = seams[prev] = common_suffix(blocks[prev][0], inverse, 0)
                if k >= kept:
                    k = common_suffix(out, inverse, kept)
                del out[-k:]
                extend(block[k:])
                kept = size - k
            else:
                extend(block)
                kept = size
            prev = letter
        return np.frombuffer(out, dtype=DTYPE)


def inverse_bytes(word: bytes) -> bytes:
    """The inverse of a word given as bytes: its letters reversed, each
    negated, byte by byte as `NEG` maps them (int8 negation wraps -128
    to itself, as NEG does 0x80); words of at least `NUMPY_INVERSE`
    letters by numpy."""
    if len(word) < NUMPY_INVERSE:
        return word[::-1].translate(NEG)
    return np.negative(np.frombuffer(word, dtype=DTYPE)[::-1]).tobytes()


def common_prefix(x: bytes, y: bytes, cap: int, i: int = 0, j: int = 0) -> int:
    """Length of the longest common prefix of the byte strings x from its
    letter i and y from its letter j, up to cap letters; cap takes
    neither past its end.

    Unequal first letters end it at once.  Else windows are compared by
    `==`, doubling from WINDOW up to WINDOW_MAX letters, and the one that
    differs is halved down to at most WINDOW letters, where the highest
    set bit of the xor of the two, read as big-endian integers, lies in
    the first byte where they differ.
    """
    if cap < 1 or x[i] != y[j]:
        return 0
    # conditionals, not min(): the call would cost about as much as a
    # short window's compare
    p, w = 0, WINDOW
    q = w if w < cap else cap
    while p < cap and x[i + p:i + q] == y[j + p:j + q]:
        p = q
        if w < WINDOW_MAX:
            w *= 2
        q = p + w if p + w < cap else cap
    while q - p > WINDOW:
        h = (p + q) // 2
        if x[i + p:i + h] == y[j + p:j + h]:
            p = h
        else:
            q = h
    d = int.from_bytes(x[i + p:i + q], "big") ^ int.from_bytes(y[j + p:j + q], "big")
    return q - (d.bit_length() + 7) // 8


def common_suffix(x, y, k: int) -> int:
    """Length of the longest common suffix of the byte strings x and y,
    given that it is at least k: the windows of `common_prefix` from the
    ends, where the lowest set bit of the xor lies in the last byte
    where they differ.  The loops are written twice, since one search
    shared through slice closures ran the reads 20-25 % slower.
    """
    a, b = len(x), len(y)
    m = min(a, b)
    if k >= m or x[a - k - 1] != y[b - k - 1]:
        return k
    p, w = k, WINDOW
    q = p + w if p + w < m else m
    while p < m and x[a - q:a - p] == y[b - q:b - p]:
        p = q
        if w < WINDOW_MAX:
            w *= 2
        q = p + w if p + w < m else m
    while q - p > WINDOW:
        h = (p + q) // 2
        if x[a - h:a - p] == y[b - h:b - p]:
            p = h
        else:
            q = h
    d = int.from_bytes(x[a - q:a - p], "big") ^ int.from_bytes(y[b - q:b - p], "big")
    return p + ((d & -d).bit_length() - 1) // 8 if d else m


def lockstep_orbits(items, size, step, first: int, last: int):
    """Step the orbits of a list of items in lockstep for k = first..last,
    and yield the outputs of each step in order.

    step(k, group) steps a group of items once and returns the items
    that go on and the step's outputs.  Before each step of a group, an
    item with size(item) >= BATCH_CAP leaves it and runs alone through
    last, or until its step drops it, before the group's next step:
    long words gain nothing from sharing a kernel call, and only one
    long item is held at a time.
    """

    def run(group, k):
        while k <= last:
            if len(group) > 1:
                short = []
                for item in group:
                    if size(item) >= BATCH_CAP:
                        yield from run([item], k)
                    else:
                        short.append(item)
                group = short
            if not group:
                return
            group, outputs = step(k, group)
            yield from outputs
            k += 1

    return run(items, first)


def lockstep_substitute(table: ImageTable, maps: list, groups: list, budget: int) -> list:
    """Reduced images of groups of reduced words, the words of group p
    through map maps[p] of the table, from one `substitute` call per
    separated batch of all groups' words (see the module docstring).

    Words are bytes, one byte per int8 letter; any buffer of int8
    letters (the array of a `free_group.Word`) reads the same.  Returns
    the images of each group as bytes or, for a group with a word whose
    raw image exceeds the budget, the WordBudgetExceeded of its first
    such word; such a group is dropped before substituting.
    """
    words = [w for ws in groups for w in ws]
    owners = [m for m, ws in zip(maps, groups) for _ in ws]
    sizes = [len(w) for w in words]
    batches = _batches(table, sizes)
    slots = (_slots(table, owners[a:b], words[a:b]) for a, b in batches)
    cut = [None] * len(groups)
    if words and max(sizes) * table.longest > budget:
        slots = list(slots)
        raw = iter([n for s, (a, b) in zip(slots, batches)
                    for n in _raw_sizes(table, s, sizes[a:b])])
        for p, ws in enumerate(groups):
            over = [n for n in [next(raw) for _ in ws] if n > budget]
            cut[p] = WordBudgetExceeded(over[0], budget) if over else None
        if any(cut):
            kept = [c is None for c, ws in zip(cut, groups) for _ in ws]
            slots = [_kept(s, kept[a:b], sizes[a:b]) for s, (a, b) in zip(slots, batches)]
    out = []
    for s, (a, b) in zip(slots, batches):
        if s is not None:
            batch = table.substitute(s).tobytes()
            out += [batch] if b - a == 1 else batch.split(SEP_BYTE)
    images = iter(out)
    return [c if c is not None else [next(images) for _ in ws] for c, ws in zip(cut, groups)]


def _slots(table: ImageTable, owners: list, words: list) -> np.ndarray:
    """The words of a batch, their bytes joined by the byte of the
    separator letter R+1 and read as one int8 array, as slots of the
    table: word i read in map owners[i].  On a one-map table the int8
    letters are their own slots and pass as they are, a lone word with
    no copy; on a stacked one the slots take the narrowest unsigned dtype
    that holds them."""
    arr = np.frombuffer(words[0] if len(words) == 1 else table.sep_byte.join(words), dtype=DTYPE)
    if table.lens.size == table.stride:
        return arr
    dtype = np.min_scalar_type(table.lens.size - 1)
    # the two's-complement bits of an int8 letter are its uint8 view
    slots = (arr.view(np.uint8) & (table.stride - 1)).astype(dtype, copy=False)
    counts = [len(w) + 1 for w in words]
    counts[-1] -= 1
    slots += np.repeat(np.array(owners, dtype=dtype) * table.stride, counts)
    return slots


def _kept(slots: np.ndarray, kept: list, sizes: list):
    """The slots of a batch of words of these sizes with only the words
    that `kept` marks, or None when it marks none."""
    if all(kept) or not any(kept):
        return slots if kept[0] else None
    # each word goes with the separator before it, the first word with a
    # stand-in letter; the one that leads the kept slots is cut off
    return np.concatenate([slots[:1], slots])[np.repeat(kept, [n + 1 for n in sizes])][1:]


def _raw_sizes(table: ImageTable, slots: np.ndarray, sizes: list) -> list:
    """The raw image size of each word of a batch of words of these sizes:
    the block lengths of its slots, summed up to its separator.  A lone
    word, which may be long, is summed BATCH_CAP slots at a time, so no
    temporary holds an int64 per letter of it."""
    if len(sizes) == 1:
        return [sum(int(table.lens.take(slots[a:a + BATCH_CAP]).sum())
                    for a in range(0, slots.size, BATCH_CAP))]
    lens = table.lens.take(slots)
    # each word is summed with the one-letter separator after it; one more
    # after the last word gives an empty last word a segment too
    starts = np.cumsum([0] + [size + 1 for size in sizes[:-1]])
    return (np.add.reduceat(np.append(lens, 1), starts) - 1).tolist()


def _batches(table: ImageTable, sizes: list) -> list:
    """(first, end) word index ranges of the separated batches of words of
    these sizes: a batch takes words while its input, separators included,
    stays under BATCH_CAP letters; at rank 127 every word runs alone."""
    cap = BATCH_CAP if table.sep <= SEP else 0
    firsts, size = [], cap
    for i, w in enumerate(sizes):
        if size + w >= cap:
            firsts.append(i)
            size = 0
        size += w + 1
    return list(zip(firsts, firsts[1:] + [len(sizes)]))


def cyclic_trim(arr: np.ndarray) -> np.ndarray:
    """Peel matched ends off a reduced word until cyclically reduced.

    The ends peeled are the common prefix of the word and its inverse,
    as `cyclic_length` reads them; most words have unmatched ends and
    leave at the first check.
    """
    if arr.size < 2 or arr[0] != -arr[-1]:
        return arr
    word = arr.tobytes()
    t = common_prefix(word, inverse_bytes(word), arr.size // 2)
    return arr[t:arr.size - t]


def cyclic_length(u: bytes, u_inv: bytes) -> int:
    """Length of the cyclically reduced conjugate of a reduced word u,
    given as the bytes of u and of its inverse.

    The ends peeled are the common prefix of u and its inverse, which
    stops short of the middle of a reduced word.
    """
    return len(u) - 2 * common_prefix(u, u_inv, len(u) // 2)


def product_cyclic_length(u: bytes, u_inv: bytes, v: bytes, v_inv: bytes) -> int:
    """Cyclic length of the reduced product u v of two reduced words,
    each given as its bytes and those of its inverse, without forming it.

    The seam cancels the common prefix of u^{-1} and v, leaving w = u'v'
    with u' the first a letters of u and v' the last b of v.  Letter p
    of w^{-1} is letter p of v^{-1} for p < b, and letter p of w is
    letter p of u for p < a, so the ends of w peel as the common prefix
    of u and v^{-1} until one piece is used up.  Past that the peel
    runs inside the rest of the longer piece, a segment of u or v,
    which is the cyclic trim of that segment.
    """
    k = common_prefix(u_inv, v, min(len(u), len(v)))
    a, b = len(u) - k, len(v) - k
    c = min(a, b)
    t = common_prefix(u, v_inv, c)
    if t < c:
        return a + b - 2 * t
    if a <= b:
        # w peeled by a is v[k:k+b-a], whose inverse is v^{-1}[a:]
        return b - a - 2 * common_prefix(v, v_inv, (b - a) // 2, k, a)
    # w peeled by b is u[b:a], whose inverse is u^{-1}[k:]
    return a - b - 2 * common_prefix(u, u_inv, (a - b) // 2, b, k)


def class_length(readings, letters) -> int:
    """Cyclic length of the reduced product of the pieces u_l^{+-1} over
    the letters l of a seed, without forming it: readings[i] is the pair
    (u, u^{-1}) of bytes of the reduced word u_{i+1} and its inverse, and
    letter -(i+1) reads that pair swapped.

    One and two pieces are `cyclic_length` and `product_cyclic_length`.
    More reduce as a stack of intervals of the pieces: each seam cancels
    the common prefix of the top interval's inverse and the next piece,
    and an interval used up pops.  The ends of the reduced product then
    peel as the common prefix of its first interval and the inverse of
    its last, an interval used up leaving, down to the cyclic trim of
    the one interval left.  Whole pieces may cancel (x -> w x w^{-1});
    each `common_prefix` call ends a seam or the peel, or uses up an
    interval, so a seed of k letters takes O(k) calls.
    """
    pieces = [readings[l - 1] if l > 0 else readings[-l - 1][::-1] for l in letters]
    if len(pieces) == 1:
        return cyclic_length(*pieces[0])
    if len(pieces) == 2:
        return product_cyclic_length(*pieces[0], *pieces[1])
    # an interval [u, u^{-1}, a, b] holds letters a..b-1 of u, and its
    # inverse letters |u|-b..|u|-a-1 of u^{-1}
    stack = []
    for u, u_inv in pieces:
        a, b = 0, len(u)
        while stack and a < b:
            t, t_inv, c, d = top = stack[-1]
            k = common_prefix(t_inv, u, min(d - c, b - a), len(t) - d, a)
            a += k
            if k < d - c:
                top[3] = d - k
                break
            stack.pop()
        if a < b:
            stack.append([u, u_inv, a, b])
    first, last = 0, len(stack) - 1
    while first < last:
        head, tail = stack[first], stack[last]
        u, _, a, b = head
        v, v_inv, c, d = tail
        cap = min(b - a, d - c)
        t = common_prefix(u, v_inv, cap, a, len(v) - d)
        head[2], tail[3] = a + t, d - t
        if t < cap:
            return sum(b - a for _, _, a, b in stack[first:last + 1])
        first += a + t == b
        last -= d - t == c
    u, u_inv, a, b = stack[first]
    return b - a - 2 * common_prefix(u, u_inv, (b - a) // 2, a, len(u) - b)
