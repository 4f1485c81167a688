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
    invert_array,
    is_reduced,
    reduce_array,
    stack_reduce,
)

__all__ = [
    "Word",
    "CyclicWord",
    "WordBudgetExceeded",
    "ParseError",
    "reduce",
    "cyclic_reduce",
    "concat",
    "invert_word",
    "parse_word",
    "word_to_str",
]

DEFAULT_LETTER_BUDGET = 10**8


class ParseError(ValueError):
    pass


def _check_letters(arr: np.ndarray, rank: int) -> None:
    if rank < 1:
        raise ValueError(f"rank must be positive, got {rank}")
    if arr.size and int(np.abs(arr).max()) > rank:
        raise ValueError(f"letter index out of range for rank {rank}")
    if arr.size and not arr.all():
        raise ValueError("letter 0 is not allowed")


@dataclass(frozen=True, eq=False)
class Word:
    """A freely reduced word."""

    letters: np.ndarray
    rank: int

    def __post_init__(self):
        arr = as_array(self.letters)
        _check_letters(arr, self.rank)
        if not is_reduced(arr):
            raise ValueError("word is not freely reduced; use reduce()")
        arr.flags.writeable = False
        object.__setattr__(self, "letters", arr)

    @classmethod
    def _wrap(cls, arr: np.ndarray, rank: int) -> "Word":
        # internal fast path: arr is already reduced and in range
        obj = object.__new__(cls)
        arr.flags.writeable = False
        object.__setattr__(obj, "letters", arr)
        object.__setattr__(obj, "rank", rank)
        return obj

    @classmethod
    def identity(cls, rank: int) -> "Word":
        return cls._wrap(np.empty(0, dtype=DTYPE), rank)

    @classmethod
    def generator(cls, i: int, rank: int) -> "Word":
        return cls._wrap(np.array([i], dtype=DTYPE), rank)

    def __len__(self) -> int:
        return int(self.letters.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self.rank == other.rank and self.letters.tobytes() == other.letters.tobytes()

    def __hash__(self) -> int:
        return hash((self.rank, self.letters.tobytes()))

    def __repr__(self) -> str:
        return f"Word({word_to_str(self)!r}, rank={self.rank})"

    def as_tuple(self) -> tuple:
        return tuple(int(x) for x in self.letters)


@dataclass(frozen=True, eq=False)
class CyclicWord:
    """A cyclically reduced conjugacy-class representative.

    len() of a CyclicWord is the conjugacy length of the class.
    """

    letters: np.ndarray
    rank: int

    def __post_init__(self):
        arr = as_array(self.letters)
        _check_letters(arr, self.rank)
        if not is_reduced(arr):
            raise ValueError("cyclic word is not freely reduced")
        if arr.size >= 2 and arr[0] == -arr[-1]:
            raise ValueError("cyclic word is not cyclically reduced")
        arr.flags.writeable = False
        object.__setattr__(self, "letters", arr)

    @classmethod
    def _wrap(cls, arr: np.ndarray, rank: int) -> "CyclicWord":
        obj = object.__new__(cls)
        arr.flags.writeable = False
        object.__setattr__(obj, "letters", arr)
        object.__setattr__(obj, "rank", rank)
        return obj

    def __len__(self) -> int:
        return int(self.letters.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CyclicWord):
            return NotImplemented
        return self.rank == other.rank and self.letters.tobytes() == other.letters.tobytes()

    def __hash__(self) -> int:
        return hash((self.rank, self.letters.tobytes()))

    def __repr__(self) -> str:
        s = "".join(_letter_to_char(int(x)) for x in self.letters) or "1"
        return f"CyclicWord({s!r}, rank={self.rank})"

    def as_word(self) -> Word:
        return Word._wrap(self.letters, self.rank)

    def as_tuple(self) -> tuple:
        return tuple(int(x) for x in self.letters)


def reduce(raw, rank: int) -> Word:
    """Freely reduce a raw letter sequence.  Idempotent."""
    arr = as_array(raw)
    _check_letters(arr, rank)
    return Word._wrap(reduce_array(arr), rank)


def cyclic_reduce(w: Word) -> CyclicWord:
    """Cyclically reduced representative of the conjugacy class of w."""
    return CyclicWord._wrap(cyclic_trim(w.letters).copy(), w.rank)


def concat(u: Word, v: Word) -> Word:
    if u.rank != v.rank:
        raise ValueError("rank mismatch")
    return reduce(np.concatenate([u.letters, v.letters]), u.rank)


def invert_word(w: Word) -> Word:
    return Word._wrap(invert_array(w.letters), w.rank)


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
