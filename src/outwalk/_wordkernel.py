"""Low-level array kernel for free-group words.

A word is a 1-D numpy int8 array of nonzero letters: +i is the i-th
generator, -i its inverse (1-based).  Everything here operates on raw
arrays; the public types in :mod:`outwalk.free_group` wrap them.

Raw user input is reduced by `stack_reduce`, the pure-Python stack that
also serves as the reference in tests.  Substitution gets a reduced word
and reduced image blocks, so letters cancel only at block seams, and by
Cooper's bounded-cancellation lemma never deeper than a constant of the
map.  `ImageTable.substitute` picks one of two regimes from its input:

* a block stack, the default: each block pops what its head cancels off
  the reduced prefix and is appended whole, so long blocks cost one
  `extend` each;
* vectorized pair deletion for long words over short blocks, where the
  Python loop would run once per letter: one gather, then passes that
  delete non-overlapping adjacent inverse pairs until none is left.  A
  pass peels one layer of every seam at once, so the pass count is the
  deepest seam cancellation, small for short-image maps.

Free reduction is confluent, so both regimes give the same normal form.

An orbit step maps a handful of cyclic words at once, and per word the
cost is numpy call overhead, not letters.  `cyclic_substitute` therefore
runs a batch: the words concatenated with a separator letter between
them, through one `substitute` call, then one set of vectorized
end-peeling passes that trims every word to the representative
`cyclic_trim` gives.  The separator is letter R+1 of a rank-R table, the
slot that is also slot -(R+1); it maps to `SEP`, a letter no generator
of rank below 127 uses, so neither regime ever cancels it and no word
cancels into its neighbour.  The budget holds for each word's raw image,
not for the batch, so batching never moves a cut-off.  A batch takes
words while its input stays under `BATCH_CAP` letters, and a longer word
runs alone: long words gain nothing from sharing a call, and an uncapped
batch would hold the int64 index temporaries of all its words at once.
"""

from __future__ import annotations

import numpy as np

DTYPE = np.int8

# Substitutions of up to this many letters always take the block stack:
# below it numpy's per-call overhead outweighs the per-letter loop.
SMALL = 192

# The letter that separator slots map to, and the input-letter cap of a
# batch; see the module docstring.
SEP = 127
BATCH_CAP = 1 << 15


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


def empty() -> np.ndarray:
    return np.empty(0, dtype=DTYPE)


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


def _delete_pairs_pass(arr: np.ndarray):
    """One vectorized pass removing non-overlapping adjacent inverse pairs."""
    hits = np.flatnonzero(arr[:-1] == -arr[1:])
    if hits.size == 0:
        return arr, False
    if hits.size == 1:
        sel = hits
    else:
        # inside a run of consecutive hit indices only every other pair
        # can be removed simultaneously
        new_run = np.empty(hits.size, dtype=bool)
        new_run[0] = True
        np.not_equal(hits[1:], hits[:-1] + 1, out=new_run[1:])
        starts = np.flatnonzero(new_run)
        counts = np.diff(np.append(starts, hits.size))
        first = np.repeat(hits[starts], counts)
        sel = hits[((hits - first) & 1) == 0]
    keep = np.ones(arr.size, dtype=bool)
    keep[sel] = False
    keep[sel + 1] = False
    return arr[keep], True


def reduce_array(arr: np.ndarray) -> np.ndarray:
    """Freely reduce an arbitrary letter array."""
    return np.array(stack_reduce(arr.tolist()), dtype=DTYPE)


def invert_array(arr: np.ndarray) -> np.ndarray:
    return (-arr[::-1]).copy()


class ImageTable:
    """Per-letter image words of an automorphism, in gather-friendly form.

    Slot l holds the image of letter l, negative l counting from the end
    as in Python and numpy indexing: slots 1..R hold the images of the R
    generators, slots -R..-1 their inverses, slot 0 an empty block, and
    slot R+1, which is also slot -(R+1), the separator `SEP`.
    """

    def __init__(self, images: list[np.ndarray]):
        # images: index i (0-based) holds the image of generator i+1
        self.sep = len(images) + 1
        blocks = ([empty()] + list(images) + [np.array([SEP], dtype=DTYPE)]
                  + [invert_array(img) for img in reversed(images)])
        self.lens = np.array([b.size for b in blocks], dtype=np.int64)
        self.starts = np.zeros(len(blocks), dtype=np.int64)
        np.cumsum(self.lens[:-1], out=self.starts[1:])
        self.flat = np.concatenate(blocks)
        # int8 letters as bytes, each block with its letters negated (the
        # letters that cancel them), so the block stack runs on bytearrays
        self.py_blocks = [(b.tobytes(), (-b).tobytes()) for b in blocks]

    def substitute(self, word: np.ndarray, budget: int) -> np.ndarray:
        """Apply the substitution to a reduced word and reduce the result.

        The word may be a batch of reduced words separated by the letter
        `sep`; each comes out reduced, with `SEP` between them.  Raises
        WordBudgetExceeded for the first word whose raw image has more
        letters than the budget.
        """
        lens = self.lens[word]
        total = int(lens.sum())
        if total > budget:
            self._check_budget(word, lens, budget)
        if total > SMALL and total < 4 * word.size:
            # output letter j of block k reads flat[starts[word[k]] + j - offset_k]
            offsets = np.cumsum(lens) - lens
            src = np.arange(total, dtype=np.int64)
            src += np.repeat(self.starts[word] - offsets, lens)
            arr, changed = self.flat[src], True
            while changed:
                arr, changed = _delete_pairs_pass(arr)
            return arr
        out = bytearray()
        pop, extend = out.pop, out.extend
        blocks = self.py_blocks
        for letter in word.tolist():
            block, cancels = blocks[letter]
            k = 0
            for x in cancels:
                if not out or out[-1] != x:
                    break
                pop()
                k += 1
            extend(block[k:] if k else block)
        return np.frombuffer(out, dtype=DTYPE)

    def _check_budget(self, word, lens, budget):
        """Raise for the first separated word whose raw image exceeds the budget."""
        cuts = np.flatnonzero(word == self.sep)
        raw = np.concatenate(([0], np.cumsum(lens)))
        raw = raw[np.append(cuts, word.size)] - raw[np.concatenate(([0], cuts + 1))]
        over = np.flatnonzero(raw > budget)
        if over.size:
            raise WordBudgetExceeded(int(raw[over[0]]), budget)


def cyclic_trim(arr: np.ndarray) -> np.ndarray:
    """Peel matched ends off a reduced word until cyclically reduced."""
    i, j = 0, arr.size
    while j - i >= 2 and arr[i] == -arr[j - 1]:
        i += 1
        j -= 1
    return arr[i:j] if (i or j != arr.size) else arr


def _trim_segments(arr: np.ndarray, i: np.ndarray, j: np.ndarray):
    """Peel matched ends off every segment arr[i:j] of a reduced array
    until each is cyclically reduced, as `cyclic_trim` does one word.

    Most segments have unmatched ends and leave at the first check.  A
    pass compares up to w letters at both ends of every segment still
    open and peels each up to its first mismatch; a segment that matched
    its whole window stays open, and w doubles.
    """
    live, w = np.flatnonzero(j - i >= 2), 64
    live = live[arr[i[live]] == -arr[j[live] - 1]]
    while live.size:
        li, lj = i[live], j[live]
        n = np.minimum((lj - li) // 2, w)
        first = np.cumsum(n) - n
        t = np.arange(first[-1] + n[-1]) - np.repeat(first, n)
        bad = arr[np.repeat(li, n) + t] != -arr[np.repeat(lj - 1, n) - t]
        depth = np.minimum.reduceat(np.where(bad, t, np.repeat(n, n)), first)
        i[live] = li + depth
        j[live] = lj - depth
        live = live[(depth == n) & (lj - li - 2 * depth >= 2)]
        w *= 2
    return i, j


def cyclic_substitute(table: ImageTable, words: list, budget: int) -> list:
    """Cyclically reduced images of reduced words, one `substitute` call
    per batch of consecutive words (see the module docstring).

    Words of rank 127 leave no letter for the separator and run alone.
    Raises WordBudgetExceeded for the first word, in input order, whose
    raw image exceeds the budget.
    """
    cap = BATCH_CAP if table.sep <= SEP else 0
    batches, size = [], cap
    for w in words:
        if size + w.size >= cap:
            batches.append([])
            size = 0
        batches[-1].append(w)
        size += w.size + 1
    out = []
    for batch in batches:
        if len(batch) == 1:
            arr = table.substitute(batch[0], budget)
            cuts = np.empty(0, dtype=np.int64)
        else:
            parts = [np.array([table.sep], dtype=DTYPE)] * (2 * len(batch) - 1)
            parts[::2] = batch
            arr = table.substitute(np.concatenate(parts), budget)
            cuts = np.flatnonzero(arr == SEP)
        i, j = _trim_segments(arr, np.concatenate(([0], cuts + 1)), np.append(cuts, arr.size))
        out += [arr[a:b] for a, b in zip(i.tolist(), j.tolist())]
    return out
