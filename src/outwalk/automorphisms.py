"""Free-group automorphisms given by generator images plus certified inverses.

Computing the inverse of an arbitrary automorphism needs Whitehead-style
machinery that this package deliberately avoids: an Automorphism always
carries both the images and the inverse images, and the pair is verified
on every user-facing construction (apply the map then its claimed inverse
to every generator and demand the identity).

Every word operation here goes through the kernel's one batch entry,
`_wordkernel.lockstep_substitute`, which alone applies the letter
budget.  `images` is a group of one on a map's own table: `apply` maps
one word with it, `compose` two groups, the inverse check two round
trips, and `cyclic_images` one group followed by a cyclic trim of each
image, which only `spectral.stretch_ratio` calls: no walk steps it.
`MapStack` steps many states at once, each a group through its own map
of a tuple, by its two steps `byte_images` and `compose`, and
`own_images` many groups, each through the map of its own generator
images.

The kernel carries words as bytes, one byte per int8 letter, and so do
the word orbits between steps: `MapStack` and `own_images` take and give
bytes.  `Word` is the public wrapper only: `images`, `apply`, `compose`
and `cyclic_images` take and give `Word`s and `CyclicWord`s, a Word's
array goes into the kernel as the buffer it is, and each image comes
out as a Word whose array views the image's bytes (`np.frombuffer`),
with no copy.

Composition convention: compose(phi, psi) applies psi first, i.e. maps
x to phi(psi(x)).  Abelianization rows are indexed by the mapped
generator, so it reverses order: abelianization(compose(phi, psi)) ==
abelianization(psi) @ abelianization(phi).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._wordkernel import DTYPE, ImageTable, cyclic_trim, lockstep_substitute
from .defaults import DEFAULT_LETTER_BUDGET
from .free_group import (
    CyclicWord,
    ParseError,
    Word,
    WordBudgetExceeded,
    parse_word,
    word_to_str,
)
from .matrix_oracle import IntMatrix

__all__ = [
    "Automorphism",
    "InverseCheckError",
    "MapStack",
    "apply",
    "images",
    "own_images",
    "cyclic_images",
    "compose",
    "invert",
    "letter_counts",
    "abelianization",
    "image_abelianization",
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
        return ImageTable([w.letters for w in self.images])

    def verify(self) -> None:
        """Check the inverse certificate on all generators, both ways:
        each generator back through the inverse, then forth.

        No budget applies: a round trip's raw size is at most the total
        size of one side times the longest word of the other.
        """
        inv = invert(self)
        gens = [Word.generator(i, self.rank) for i in range(1, self.rank + 1)]
        back = images(inv, images(self, gens, budget=sys.maxsize), budget=sys.maxsize)
        forth = images(self, images(inv, gens, budget=sys.maxsize), budget=sys.maxsize)
        for i, (gen, b, f) in enumerate(zip(gens, back, forth), 1):
            if b != gen:
                raise InverseCheckError(
                    f"inverse images fail on generator {i}: not an inverse pair"
                )
            if f != gen:
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
    return images(phi, [w], budget=budget)[0]


def images(phi: Automorphism, words, *, budget: int | None = None) -> list:
    """Reduced images of the words under phi, from one kernel call per
    batch, a group of one on phi's table.  Raises WordBudgetExceeded for
    the first word, in input order, whose substitution needs more letters
    than the budget.
    """
    words = list(words)
    if any(w.rank != phi.rank for w in words):
        raise ValueError("rank mismatch")
    [out] = lockstep_substitute(phi._table, [0], [[w.letters for w in words]], _budget(budget))
    if isinstance(out, WordBudgetExceeded):
        raise out
    return _words(out, phi.rank)


def own_images(tables, groups, *, budget: int | None = None) -> list:
    """The images of the words groups[p] under the map whose generator
    images are tables[p], each group through its own map, from one
    `lockstep_substitute` call over the one table that stacks them all;
    None for a group with a word over the budget.  Words, images and
    table blocks are bytes."""
    table = ImageTable(*tables)
    return _groups(lockstep_substitute(table, list(range(len(tables))), groups, _budget(budget)))


def _budget(budget: int | None) -> int:
    return DEFAULT_LETTER_BUDGET if budget is None else budget


def _groups(out) -> list:
    """The items of `lockstep_substitute` with a cut group as None."""
    return [None if isinstance(images, WordBudgetExceeded) else images for images in out]


def _words(images, rank: int) -> list:
    """Images as bytes, as Words whose arrays view those bytes."""
    return [Word._wrap(np.frombuffer(b, dtype=DTYPE), rank) for b in images]


def cyclic_images(phi: Automorphism, words, *, budget: int | None = None) -> list:
    """Cyclically reduced images of the conjugacy classes words under phi.

    Conjugacy length is a class function, so iterating this along a
    sequence of maps tracks |phi_k ... phi_1(g)| exactly while keeping
    every tracked word as short as its class.  The words go through the
    kernel as one group, as in `images`, and each image is then trimmed
    (`_wordkernel.cyclic_trim`), so it equals
    cyclic_reduce(apply(phi, w.as_word())).  Raises
    WordBudgetExceeded for the first word, in input order, whose
    substitution needs more letters than the budget.
    """
    return [CyclicWord._wrap(cyclic_trim(w.letters), phi.rank)
            for w in images(phi, words, budget=budget)]


def compose(phi: Automorphism, psi: Automorphism, *, budget: int | None = None) -> Automorphism:
    """phi after psi: x maps to phi(psi(x)), and its inverse x to
    psi^{-1}(phi^{-1}(x)), two batches (`images`).  Raises
    WordBudgetExceeded for the first word over the budget, images before
    inverse images."""
    return Automorphism(tuple(images(phi, psi.images, budget=budget)),
                        tuple(images(invert(psi), phi.inverse_images, budget=budget)),
                        phi.rank)


class MapStack:
    """A tuple of automorphisms of one rank, through which many tracked
    states step at once: state p through phis[maps[p]].

    A state is a list of words as bytes, and a step gives the new states,
    None for one whose step passes the letter budget where the one-map
    step (`images`, `compose`) raises; a `compose` state holds a map's
    generator images, then its inverse's.
    A word step is one `lockstep_substitute` call, each state a group:
    many states share one kernel table of every map
    (`_wordkernel.ImageTable` with one slot range per map), so that the
    words of all of them go through one kernel call per separated batch.
    A single state goes through its map's own table, as `images` maps
    it, whose int8 letters index the table as they are: a long word
    alone then builds no slot array, a copy of the word in the narrowest
    dtype that holds the stack's slots (uint8 for the 192 of the rank-3
    NIEL stack) plus map offsets, and is read off its bytes with no
    copy.  `compose` is two such calls for all states.
    """

    def __init__(self, phis):
        self.phis = tuple(phis)

    @cached_property
    def _table(self) -> ImageTable:
        return ImageTable(*[[w.letters for w in phi.images] for phi in self.phis])

    def byte_images(self, maps, states, *, budget: int | None = None) -> list:
        """The images of each state's words through phis[m]."""
        table, maps = (self.phis[maps[0]]._table, [0]) if len(states) == 1 else (self._table, maps)
        return _groups(lockstep_substitute(table, maps, states, _budget(budget)))

    def compose(self, maps, states, *, budget: int | None = None) -> list:
        """States [psi(x_i)..., psi^{-1}(x_i)...] to those of compose(phis[m],
        psi): a `byte_images` step, then each psi^{-1} as its own map."""
        r = self.phis[0].rank
        fwd = self.byte_images(maps, [state[:r] for state in states], budget=budget)
        inv = own_images([state[r:] for state in states],
                         [[w.letters for w in self.phis[m].inverse_images] for m in maps],
                         budget=budget)
        return [None if a is None or b is None else a + b for a, b in zip(fwd, inv)]


def invert(phi: Automorphism) -> Automorphism:
    return Automorphism(phi.inverse_images, phi.images, phi.rank)


def letter_counts(w: bytes, rank: int) -> list:
    """[(occurrences of x_j, occurrences of x_j^{-1}) for j = 1..rank] in
    the word w given as bytes (or any buffer of int8 letters), from one
    count of its bytes: x_j is byte j and x_j^{-1} byte 256 - j."""
    counts = np.bincount(np.frombuffer(w, dtype=np.uint8), minlength=256).tolist()
    return [(counts[j], counts[-j]) for j in range(1, rank + 1)]


def abelianization(phi: Automorphism) -> IntMatrix:
    """Signed letter counts: row i counts generators in the image of x_{i+1}."""
    return image_abelianization([w.letters for w in phi.images])


def image_abelianization(images) -> IntMatrix:
    """The abelianization of the map x_{i+1} -> images[i], from the signed
    letter counts of its generator images, given as bytes."""
    rank = len(images)
    return IntMatrix(tuple(tuple(p - q for p, q in letter_counts(w, rank)) for w in images))


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
