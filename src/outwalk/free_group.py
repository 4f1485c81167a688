"""Words in a finitely generated free group, kept freely reduced.

Letters are nonzero signed integers: +i denotes the i-th generator, -i
its inverse, with 1 <= i <= rank.  The text grammar uses lowercase
letters a, b, c, ... for generators, uppercase for inverses, and "1" for
the empty word.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._wordkernel import (
    DTYPE,
    WordBudgetExceeded,
    as_array,
    cyclic_trim,
    is_reduced,
    reduce_array,
)

__all__ = [
    "Word",
    "CyclicWord",
    "as_bytes",
    "WordBudgetExceeded",
    "ParseError",
    "reduce",
    "cyclic_reduce",
    "least_rotation",
    "SeedClash",
    "seed_classes",
    "parse_word",
    "word_to_str",
]


class ParseError(ValueError):
    pass


def _check_letters(arr: np.ndarray, rank: int) -> None:
    if rank < 1:
        raise ValueError(f"rank must be positive, got {rank}")
    if arr.size and not -rank <= int(arr.min()) <= int(arr.max()) <= rank:
        raise ValueError(f"letter index out of range for rank {rank}")
    if arr.size and not arr.all():
        raise ValueError("letter 0 is not allowed")


@dataclass(frozen=True, eq=False, repr=False)
class _Letters:
    """What `Word` and `CyclicWord` share: letters and a rank, compared
    by type, rank and letters."""

    letters: np.ndarray
    rank: int

    @classmethod
    def _wrap(cls, arr: np.ndarray, rank: int):
        # internal fast path: arr is already reduced and in range
        obj = object.__new__(cls)
        arr.flags.writeable = False
        object.__setattr__(obj, "letters", arr)
        object.__setattr__(obj, "rank", rank)
        return obj

    def __len__(self) -> int:
        return int(self.letters.size)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.rank == other.rank and self.letters.tobytes() == other.letters.tobytes()

    def __hash__(self) -> int:
        return hash((self.rank, self.letters.tobytes()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({word_to_str(self)!r}, rank={self.rank})"


@dataclass(frozen=True, eq=False, repr=False)
class Word(_Letters):
    """A freely reduced word."""

    def __post_init__(self):
        arr = as_array(self.letters)
        _check_letters(arr, self.rank)
        if not is_reduced(arr):
            raise ValueError("word is not freely reduced; use reduce()")
        arr.flags.writeable = False
        object.__setattr__(self, "letters", arr)

    @classmethod
    def identity(cls, rank: int) -> "Word":
        return cls._wrap(np.empty(0, dtype=DTYPE), rank)

    @classmethod
    def generator(cls, i: int, rank: int) -> "Word":
        return cls._wrap(np.array([i], dtype=DTYPE), rank)


@dataclass(frozen=True, eq=False, repr=False)
class CyclicWord(_Letters):
    """A cyclically reduced conjugacy-class representative.

    len() of a CyclicWord is the conjugacy length of the class.
    """

    def __post_init__(self):
        arr = as_array(self.letters)
        _check_letters(arr, self.rank)
        if not is_reduced(arr):
            raise ValueError("cyclic word is not freely reduced")
        if arr.size >= 2 and arr[0] == -arr[-1]:
            raise ValueError("cyclic word is not cyclically reduced")
        arr.flags.writeable = False
        object.__setattr__(self, "letters", arr)

    def as_word(self) -> Word:
        return Word._wrap(self.letters, self.rank)


def reduce(raw, rank: int) -> Word:
    """Freely reduce a raw letter sequence.  Idempotent."""
    arr = as_array(raw)
    _check_letters(arr, rank)
    return Word._wrap(reduce_array(arr), rank)


def as_bytes(words) -> list:
    """The letters of each word as bytes, one byte per int8 letter: the
    form in which the kernel and the word orbits carry words between
    kernel calls."""
    return [w.letters.tobytes() for w in words]


def cyclic_reduce(w: Word) -> CyclicWord:
    """Cyclically reduced representative of the conjugacy class of w."""
    return CyclicWord._wrap(cyclic_trim(w.letters).copy(), w.rank)


def least_rotation(g: CyclicWord) -> bytes:
    """The least rotation of g's letters, as bytes.

    Cyclically reduced words are conjugate exactly when one is a
    rotation of the other, so this names the conjugacy class of g.
    Linear time: when start i loses to start j after k equal letters,
    each of the starts i..i+k loses to the start as far past j, so the
    search skips them all.
    """
    s = g.letters.tobytes()
    n, d = len(s), s + s
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = d[i + k], d[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i, j = j, max(j + 1, i + k + 1)
        else:
            j += k + 1
        k = 0
    return d[i:i + n]


class SeedClash(ValueError):
    """Seed word `index` is trivial (`first` None) or of the conjugacy
    class of the earlier seed word `first`; `word` is its cyclic
    reduction."""

    def __init__(self, index: int, word: CyclicWord, first: int | None = None):
        super().__init__(f"seed {index} is trivial" if first is None
                         else f"seed {index} is conjugate to seed {first}")
        self.index, self.word, self.first = index, word, first


def seed_classes(words) -> list:
    """The cyclic reductions of words, read in order, which must be
    nontrivial and of distinct conjugacy classes (the same least
    rotation); SeedClash names the first word that is not.  A seed of a
    conjugacy experiment names one class, and two of one class would
    write the same rows twice."""
    out, classes = [], {}
    for i, w in enumerate(words):
        g = cyclic_reduce(w)
        if len(g) == 0:
            raise SeedClash(i, g)
        first = classes.setdefault(least_rotation(g), i)
        if first != i:
            raise SeedClash(i, g, first)
        out.append(g)
    return out


def _char_to_letter(ch: str) -> int:
    if "a" <= ch <= "z":
        return ord(ch) - ord("a") + 1
    if "A" <= ch <= "Z":
        return -(ord(ch) - ord("A") + 1)
    raise ParseError(f"invalid letter {ch!r}")


def _letter_to_char(l: int) -> str:
    return chr(ord("a") + l - 1) if l > 0 else chr(ord("A") - l - 1)


def parse_word(text: str, rank: int) -> Word:
    """Parse a word; lowercase = generator, uppercase = inverse, "1" = empty."""
    s = "".join(text.split())
    if s == "1" or s == "":
        return Word.identity(rank)
    letters = []
    for ch in s:
        l = _char_to_letter(ch)
        if abs(l) > rank:
            raise ParseError(f"letter {ch!r} exceeds rank {rank}")
        letters.append(l)
    return reduce(letters, rank)


def word_to_str(w) -> str:
    return "".join(_letter_to_char(int(x)) for x in w.letters) or "1"
