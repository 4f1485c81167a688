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
"""

from __future__ import annotations

import numpy as np

DTYPE = np.int8

# Substitutions of up to this many letters always take the block stack:
# below it numpy's per-call overhead outweighs the per-letter loop.
SMALL = 192


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
    generators, slots -R..-1 their inverses, and slot 0 an empty block.
    """

    def __init__(self, images: list[np.ndarray]):
        # images: index i (0-based) holds the image of generator i+1
        blocks = [empty()] + list(images) + [invert_array(img) for img in reversed(images)]
        self.lens = np.array([b.size for b in blocks], dtype=np.int64)
        self.starts = np.zeros(len(blocks), dtype=np.int64)
        np.cumsum(self.lens[:-1], out=self.starts[1:])
        self.flat = np.concatenate(blocks)
        # int8 letters as bytes, each block with its letters negated (the
        # letters that cancel them), so the block stack runs on bytearrays
        self.py_blocks = [(b.tobytes(), (-b).tobytes()) for b in blocks]

    def substitute(self, word: np.ndarray, budget: int) -> np.ndarray:
        """Apply the substitution to a reduced word and reduce the result."""
        lens = self.lens[word]
        total = int(lens.sum())
        if total > budget:
            raise WordBudgetExceeded(total, budget)
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


def cyclic_trim(arr: np.ndarray) -> np.ndarray:
    """Peel matched ends off a reduced word until cyclically reduced."""
    i, j = 0, arr.size
    while j - i >= 2 and arr[i] == -arr[j - 1]:
        i += 1
        j -= 1
    return arr[i:j] if (i or j != arr.size) else arr
