"""Low-level array kernel for free-group words.

A word is a 1-D numpy int8 array of nonzero letters: +i is the i-th
generator, -i its inverse (1-based).  Everything here operates on raw
arrays; the public types in :mod:`outwalk.free_group` wrap them.

Two code paths are kept deliberately:

* a pure-Python stack reducer (`stack_reduce`), simple enough to serve as
  the reference implementation in tests, and fast for short words;
* vectorized numpy routines for long words, where free reduction is done
  by repeated deletion of non-overlapping adjacent inverse pairs.  Free
  reduction is confluent, so any deletion order yields the same normal
  form.
"""

from __future__ import annotations

import numpy as np

DTYPE = np.int8

# Below this many letters the pure-Python path tends to win on overhead.
SMALL = 192

# Vectorized reduction gives up after this many passes and falls back to
# the stack reducer (only deep telescopic cancellation gets there).
MAX_PASSES = 64


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
    if arr.size <= SMALL:
        return np.array(stack_reduce(arr.tolist()), dtype=DTYPE)
    for _ in range(MAX_PASSES):
        if arr.size < 2:
            return arr
        arr, changed = _delete_pairs_pass(arr)
        if not changed:
            return arr
    return np.array(stack_reduce(arr.tolist()), dtype=DTYPE)


def invert_array(arr: np.ndarray) -> np.ndarray:
    return (-arr[::-1]).copy()


def concat_reduced(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Concatenate two already reduced words.

    Cancellation happens only at the seam, so the maximal matching prefix
    of v against the inverted suffix of u is found in one vector compare.
    """
    m = min(u.size, v.size)
    t = 0
    if m:
        mismatch = u[u.size - m:][::-1] != -v[:m]
        t = m if not mismatch.any() else int(mismatch.argmax())
    if t == 0:
        out = np.empty(u.size + v.size, dtype=DTYPE)
        out[: u.size] = u
        out[u.size:] = v
        return out
    return np.concatenate([u[: u.size - t], v[t:]])


class ImageTable:
    """Per-letter image words of an automorphism, in gather-friendly form.

    Slot layout: letter l maps to slot l + R for l < 0 and l + R - 1 for
    l > 0, covering 0..2R-1.
    """

    def __init__(self, images: list[np.ndarray], rank: int):
        # images: index i (0-based) holds the image of generator i+1
        self.rank = rank
        blocks = [invert_array(img) for img in reversed(images)] + list(images)
        self.lens = np.array([b.size for b in blocks], dtype=np.int64)
        self.starts = np.zeros(len(blocks), dtype=np.int64)
        np.cumsum(self.lens[:-1], out=self.starts[1:])
        self.flat = (
            np.concatenate(blocks) if any(b.size for b in blocks) else empty()
        )
        self.py_blocks = [b.tolist() for b in blocks]

    def substitute(self, word: np.ndarray, budget: int) -> np.ndarray:
        """Apply the substitution to a reduced word and reduce the result."""
        if word.size == 0:
            return empty()
        slots = word.astype(np.int64)
        np.add(slots, self.rank, out=slots)
        slots[word > 0] -= 1
        lens = self.lens[slots]
        total = int(lens.sum())
        if total > budget:
            raise WordBudgetExceeded(total, budget)
        if total <= SMALL:
            out = []
            push = out.append
            pop = out.pop
            blocks = self.py_blocks
            for s in slots.tolist():
                for x in blocks[s]:
                    if out and out[-1] == -x:
                        pop()
                    else:
                        push(x)
            return np.array(out, dtype=DTYPE)
        if word.size <= 4:
            # few long blocks: seam matching handles deep cancellation
            s0 = slots[0]
            acc = self.flat[self.starts[s0]: self.starts[s0] + lens[0]]
            for k in range(1, slots.size):
                s = slots[k]
                acc = concat_reduced(
                    acc, self.flat[self.starts[s]: self.starts[s] + lens[k]]
                )
            return acc
        ends = np.cumsum(lens)
        out_block_start = np.repeat(ends - lens, lens)
        pos = np.arange(total, dtype=np.int64) - out_block_start
        src = np.repeat(self.starts[slots], lens) + pos
        return reduce_array(self.flat[src])


def cyclic_trim(arr: np.ndarray) -> np.ndarray:
    """Peel matched ends off a reduced word until cyclically reduced."""
    i, j = 0, arr.size
    while j - i >= 2 and arr[i] == -arr[j - 1]:
        i += 1
        j -= 1
    return arr[i:j] if (i or j != arr.size) else arr
