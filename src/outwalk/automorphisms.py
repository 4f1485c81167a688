"""Free-group automorphisms given by generator images plus certified inverses.

Computing the inverse of an arbitrary automorphism needs Whitehead-style
machinery that this package deliberately avoids: an Automorphism always
carries both the images and the inverse images, and the pair is verified
on every user-facing construction (apply the map then its claimed inverse
to every generator and demand the identity).

Composition convention: compose(phi, psi) applies psi first, i.e. maps
x to phi(psi(x)).  Abelianization rows are indexed by the mapped
generator, so it reverses order: abelianization(compose(phi, psi)) ==
abelianization(psi) @ abelianization(phi).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._wordkernel import DTYPE, ImageTable
from .free_group import (
    DEFAULT_LETTER_BUDGET,
    ParseError,
    Word,
    cyclic_reduce,
    parse_word,
    word_to_str,
)
from .matrix_oracle import IntMatrix

__all__ = [
    "Automorphism",
    "InverseCheckError",
    "apply",
    "cyclic_images",
    "compose",
    "invert",
    "abelianization",
    "parse_automorphism",
    "automorphism_to_str",
    "identity_automorphism",
    "right_multiplier",
    "left_multiplier",
    "inversion",
    "permutation",
]

class InverseCheckError(ValueError):
    """The supplied inverse images do not invert the map."""


@dataclass(frozen=True, eq=False)
class Automorphism:
    images: tuple
    inverse_images: tuple
    rank: int

    def __post_init__(self):
        r = self.rank
        if len(self.images) != r or len(self.inverse_images) != r:
            raise ValueError("need one image per generator on both sides")
        for w in (*self.images, *self.inverse_images):
            if not isinstance(w, Word) or w.rank != r:
                raise ValueError("images must be Words of matching rank")
            if len(w) == 0:
                raise ValueError("generator images must be nonempty")

    @cached_property
    def _table(self) -> ImageTable:
        return ImageTable([w.letters for w in self.images], self.rank)

    @cached_property
    def _inv_table(self) -> ImageTable:
        return ImageTable([w.letters for w in self.inverse_images], self.rank)

    def verify(self) -> None:
        """Check the inverse certificate on all generators, both ways."""
        budget = 4 * max(
            1,
            sum(len(w) for w in self.images) * max(len(w) for w in self.inverse_images),
            sum(len(w) for w in self.inverse_images) * max(len(w) for w in self.images),
        )
        for i in range(1, self.rank + 1):
            gen = np.array([i], dtype=DTYPE)
            back = self._inv_table.substitute(self._table.substitute(gen, budget), budget)
            if back.size != 1 or back[0] != i:
                raise InverseCheckError(
                    f"inverse images fail on generator {i}: not an inverse pair"
                )
            forth = self._table.substitute(self._inv_table.substitute(gen, budget), budget)
            if forth.size != 1 or forth[0] != i:
                raise InverseCheckError(
                    f"images fail on generator {i}: not an inverse pair"
                )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Automorphism):
            return NotImplemented
        return self.rank == other.rank and self.images == other.images

    def __hash__(self) -> int:
        return hash((self.rank, self.images))

    def __repr__(self) -> str:
        return f"Automorphism({automorphism_to_str(self)!r})"

    def size(self) -> int:
        return sum(len(w) for w in self.images)


def apply(phi: Automorphism, w: Word, *, budget: int | None = None) -> Word:
    """Image of w under phi, freely reduced."""
    if phi.rank != w.rank:
        raise ValueError("rank mismatch")
    b = DEFAULT_LETTER_BUDGET if budget is None else budget
    return Word._wrap(phi._table.substitute(w.letters, b), w.rank)


def cyclic_images(phi: Automorphism, words, *, budget: int | None = None) -> list:
    """Cyclically reduced images of the conjugacy classes words under phi.

    Conjugacy length is a class function, so iterating this along a
    sequence of maps tracks |phi_k ... phi_1(g)| exactly while keeping
    every tracked word as short as its class.  Raises WordBudgetExceeded
    when a substitution needs more letters than the budget.
    """
    return [cyclic_reduce(apply(phi, w.as_word(), budget=budget)) for w in words]


def compose(phi: Automorphism, psi: Automorphism, *, budget: int | None = None) -> Automorphism:
    """phi after psi: x maps to phi(psi(x))."""
    if phi.rank != psi.rank:
        raise ValueError("rank mismatch")
    b = DEFAULT_LETTER_BUDGET if budget is None else budget
    r = phi.rank
    images = tuple(
        Word._wrap(phi._table.substitute(w.letters, b), r) for w in psi.images
    )
    inverse_images = tuple(
        Word._wrap(psi._inv_table.substitute(w.letters, b), r) for w in phi.inverse_images
    )
    return Automorphism(images, inverse_images, r)


def invert(phi: Automorphism) -> Automorphism:
    return Automorphism(phi.inverse_images, phi.images, phi.rank)


def abelianization(phi: Automorphism) -> IntMatrix:
    """Signed letter counts: row i counts generators in the image of x_{i+1}."""
    r = phi.rank
    rows = []
    for w in phi.images:
        counts = np.bincount(w.letters.astype(np.int64) + r, minlength=2 * r + 1)
        rows.append(tuple(int(counts[r + j] - counts[r - j]) for j in range(1, r + 1)))
    return IntMatrix(tuple(rows))


def identity_automorphism(rank: int) -> Automorphism:
    gens = tuple(Word.generator(i, rank) for i in range(1, rank + 1))
    return Automorphism(gens, gens, rank)


def _with_image(rank: int, i: int, img: list, inv_img: list) -> Automorphism:
    images = [Word.generator(j, rank) for j in range(1, rank + 1)]
    invs = list(images)
    images[i - 1] = Word(np.array(img, dtype=DTYPE), rank)
    invs[i - 1] = Word(np.array(inv_img, dtype=DTYPE), rank)
    return Automorphism(tuple(images), tuple(invs), rank)


def right_multiplier(rank: int, i: int, j: int) -> Automorphism:
    """Elementary map x_i -> x_i x_j (j may be negative for an inverse letter)."""
    if not (1 <= i <= rank and 1 <= abs(j) <= rank) or abs(j) == i:
        raise ValueError("need distinct generator indices")
    return _with_image(rank, i, [i, j], [i, -j])


def left_multiplier(rank: int, i: int, j: int) -> Automorphism:
    """Elementary map x_i -> x_j x_i."""
    if not (1 <= i <= rank and 1 <= abs(j) <= rank) or abs(j) == i:
        raise ValueError("need distinct generator indices")
    return _with_image(rank, i, [j, i], [-j, i])


def inversion(rank: int, i: int) -> Automorphism:
    """x_i -> x_i^{-1}; an involution."""
    if not 1 <= i <= rank:
        raise ValueError("generator index out of range")
    return _with_image(rank, i, [-i], [-i])


def permutation(rank: int, perm, signs=None) -> Automorphism:
    """Signed basis permutation: x_i -> x_{perm[i-1]}^{signs[i-1]}.

    perm is a permutation of 1..rank (1-based); signs, if given, are +-1.
    """
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(1, rank + 1)):
        raise ValueError("perm must be a permutation of 1..rank")
    signs = tuple(1 for _ in perm) if signs is None else tuple(int(s) for s in signs)
    if len(signs) != rank or any(s not in (-1, 1) for s in signs):
        raise ValueError("signs must be +-1 per generator")
    images = [None] * rank
    invs = [None] * rank
    for i in range(rank):
        images[i] = Word(np.array([signs[i] * perm[i]], dtype=DTYPE), rank)
        invs[perm[i] - 1] = Word(np.array([signs[i] * (i + 1)], dtype=DTYPE), rank)
    return Automorphism(tuple(images), tuple(invs), rank)


def parse_automorphism(text: str, rank: int | None = None) -> Automorphism:
    """Parse "a-><word>; b-><word>; ... | <inverse images>" and verify it.

    The rank is inferred from the number of assignments unless given.
    """
    if "|" not in text:
        raise ParseError("automorphism needs '|' separating map and inverse")
    fwd_text, inv_text = text.split("|", 1)
    fwd = _parse_assignments(fwd_text, rank)
    inv = _parse_assignments(inv_text, rank if rank is not None else len(fwd))
    if len(fwd) != len(inv):
        raise ParseError("map and inverse must assign the same generators")
    r = len(fwd)
    phi = Automorphism(tuple(fwd), tuple(inv), r)
    phi.verify()
    return phi


def _parse_assignments(text: str, rank: int | None) -> list:
    parts = [p for p in (s.strip() for s in text.split(";")) if p]
    if not parts:
        raise ParseError("empty assignment list")
    r = rank if rank is not None else len(parts)
    seen = {}
    for part in parts:
        if "->" not in part:
            raise ParseError(f"missing '->' in {part!r}")
        lhs, rhs = part.split("->", 1)
        lhs = lhs.strip()
        if len(lhs) != 1 or not ("a" <= lhs <= "z"):
            raise ParseError(f"left side must be a single generator, got {lhs!r}")
        idx = ord(lhs) - ord("a") + 1
        if idx > r:
            raise ParseError(f"generator {lhs!r} exceeds rank {r}")
        if idx in seen:
            raise ParseError(f"generator {lhs!r} assigned twice")
        seen[idx] = parse_word(rhs, r)
    if sorted(seen) != list(range(1, r + 1)):
        missing = [chr(ord("a") + i - 1) for i in range(1, r + 1) if i not in seen]
        raise ParseError(f"missing assignments for {', '.join(missing)}")
    return [seen[i] for i in range(1, r + 1)]


def automorphism_to_str(phi: Automorphism) -> str:
    def side(words):
        return "; ".join(
            f"{chr(ord('a') + i)}->{word_to_str(w)}" for i, w in enumerate(words)
        )

    return f"{side(phi.images)} | {side(phi.inverse_images)}"
