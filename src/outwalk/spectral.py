"""Certified brackets and point estimates for the stretch factor.

log lambda(phi), the exponential growth rate of conjugacy lengths under
iteration, is pinched between two unconditional bounds:

* lower: log of the spectral radius of the abelianization (abelianized
  lengths never exceed conjugacy lengths), exact in rank 2, a certified
  trace bound in higher rank, and never below 0 (`spectral_radii`);
* upper: the translation inequality l(phi) <= d(phi.y, y) applied to
  powers gives log lambda <= dist(phi^k) / k for every k, and the bound
  is nonincreasing along doubling by subadditivity.

The point estimate is the last log length ratio |phi^k(c)| / |phi^{k-1}(c)|
of a seed loop c.  Both bounds hold with no irreducibility hypothesis.

Powers of phi are never composed.  A bracket needs only the N
generator images phi(x_i) (`bracket_images`; walks pass the images they
track).  One orbit of reduced generator images gives at every step the
conjugacy lengths of the N^2 candidate loops c under phi^k
(`outer_metric.candidate_lengths`): dist(phi^k) and the ratios of every
candidate at once.  The orbit is associated as
phi^k(x_i) = phi^(k-1)(phi(x_i)): the previous step's images form the
substitution table (`automorphisms.endomorphism_images`), and the N
short words phi(x_i) are its input, so each step feeds the kernel a few
letters and copies long blocks whole.  The letter budget keeps the rule
of the other association, substituting phi into phi^(k-1)(x_i): the raw
size of step k for x_i is the unsigned letter counts of phi^(k-1)(x_i)
dotted with the lengths |phi(x_j)|.  The orbit stops at the first step
whose raw size exceeds the budget, and a bracket then reports the steps
it completed.

A bracket takes its lower bound from the caller: `bracket` passes
`stretch_lower(phi)`, and a walk step brackets the abelianizations of
all its paths in one `spectral_radii` batch (`stretch_lowers`), which
gives each matrix the bracket it gets alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from .free_group import DEFAULT_LETTER_BUDGET, CyclicWord, WordBudgetExceeded
from .automorphisms import (Automorphism, cyclic_images, endomorphism_images,
                            image_abelianization, letter_counts)
from .matrix_oracle import BitBudgetExceeded, spectral_radii
from .outer_metric import candidate_lengths, candidates, log_stretch

__all__ = [
    "StretchBracket",
    "stretch_lower",
    "stretch_lowers",
    "stretch_ratio",
    "bracket",
    "bracket_images",
]

CONVERGE_TOL = 1e-3  # on logs; experiments read results at 1e-2 resolution

DEFAULT_K_MAX = 12  # standalone; walk experiments pass their own, default 4

BRACKET_TOL = 1e-9


@dataclass(frozen=True)
class StretchBracket:
    """lower <= log lambda <= upper, with a ratio point estimate.

    point lands inside [lower - tol, upper + tol] once converged; that is
    asserted by the test suite at 1e-2 rather than here, since the point
    is an estimate, not a bound.
    """

    lower: float
    upper: float
    point: float
    k_used: int
    converged: bool

    def __post_init__(self):
        if self.lower > self.upper + BRACKET_TOL:
            raise ValueError(f"bracket out of order: {self.lower} > {self.upper}")


def stretch_lower(phi: Automorphism) -> float:
    """Certified lower bound: log spectral radius of the abelianization,
    as `stretch_lowers` gives it for a batch of one."""
    return stretch_lowers([phi.images])[0]


def stretch_lowers(image_sets) -> list:
    """The lower bound of each map given by its generator images: the
    log spectral radius of its abelianization, from one `spectral_radii`
    batch of them.

    Exact in rank 2; the Gelfand trace bound otherwise, which
    `spectral_radii` raises to 0 where it reads below, since an
    invertible integer matrix has rho >= 1.  Raises the
    BitBudgetExceeded of the first matrix that passes the bit budget.
    """
    out = []
    for br in spectral_radii([image_abelianization(images) for images in image_sets]):
        if isinstance(br, BitBudgetExceeded):
            raise br
        out.append(br.lower)
    return out


def _orbit(step, words, steps: int):
    """Yield w_k = step(w_{k-1}), w_0 = words, for k = 1..steps.

    Stops at the first step that raises WordBudgetExceeded; at k = 1 that
    raises, since nothing is known about the map yet.
    """
    for k in range(steps):
        try:
            words = step(words)
        except WordBudgetExceeded:
            if k == 0:
                raise
            return
        yield words


def _power_step(images, budget: int, words) -> list:
    """phi^k(x_i) = phi^(k-1)(phi(x_i)) from words[i] = phi^(k-1)(x_i),
    for the map phi with generator images `images`; words None stands
    for phi^0, the identity, and gives phi^1 = images.

    Raises WordBudgetExceeded for the first i whose raw size, the
    unsigned letter counts of words[i] dotted with |phi(x_j)|, exceeds
    the budget: the size of substituting phi into words[i], which is
    |phi(x_i)| at k = 1.
    """
    sizes = [len(w) for w in images]
    if words is None:
        over = [size for size in sizes if size > budget]
        if over:
            raise WordBudgetExceeded(over[0], budget)
        return list(images)
    longest = max(sizes)
    for w in words:
        if len(w) * longest <= budget:
            continue  # the raw size is at most that; no need to count
        raw = sum((p + q) * size for (p, q), size in zip(letter_counts(w), sizes))
        if raw > budget:
            raise WordBudgetExceeded(raw, budget)
    return endomorphism_images(words, images)


def _point(lengths: list, complete: bool) -> tuple[float, bool]:
    """The largest last log length ratio (the first on ties) over the
    orbit lengths[0..k] and whether it converged.

    It converged when the orbit ran all its steps and the ratio moved by
    less than CONVERGE_TOL over the last one.
    """
    ratios = [[math.log(b / a) for a, b in zip(u, v)] for u, v in zip(lengths, lengths[1:])]
    last = ratios[-1]
    i = max(range(len(last)), key=last.__getitem__)
    return last[i], complete and abs(last[i] - ratios[-2][i]) < CONVERGE_TOL


def stretch_ratio(
    phi: Automorphism, seed: CyclicWord, k_max: int, *, budget: int | None = None
) -> tuple[float, bool]:
    """Iterate the seed loop and return (last log length ratio, converged).

    When the budget cuts the orbit off after k >= 1 steps, the ratio of
    step k is returned with converged = False; when not even phi(seed)
    fits, WordBudgetExceeded is raised.
    """
    if len(seed) == 0:
        raise ValueError("seed must be nontrivial")
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    orbit = _orbit(partial(cyclic_images, phi, budget=budget), [seed], k_max)
    lengths = [[len(seed)]] + [[len(w)] for [w] in orbit]
    return _point(lengths, len(lengths) > k_max)


def bracket(
    phi: Automorphism,
    k_max: int = DEFAULT_K_MAX,
    *,
    budget: int | None = None,
) -> StretchBracket:
    """Assemble lower/upper/point for log lambda(phi).

    One orbit of the generator images runs max(2, k_max) steps.  The
    upper bound is the best dist(phi^k)/k over k = 1..k_max; the point
    estimate is the largest last log ratio over the candidate loops,
    which tracks the dominant growth stratum.  When the letter budget
    cuts the orbit off, both use the steps completed, and k_used records
    how many of them entered the upper bound.
    """
    return bracket_images(phi.images, k_max, lower=stretch_lower(phi), budget=budget)


def bracket_images(images, k_max: int = DEFAULT_K_MAX, *, lower: float,
                   budget: int | None = None) -> StretchBracket:
    """`bracket` of the map phi given by its reduced generator images
    images[i] = phi(x_i), whose orbit it runs, and the lower bound
    `stretch_lower(phi)`, which it takes as given."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    rank = len(images)
    loops = candidates(rank)
    steps = max(2, k_max)
    b = DEFAULT_LETTER_BUDGET if budget is None else budget
    orbit = _orbit(partial(_power_step, images, b), None, steps)
    lengths = [[len(c) for c in loops]] + [candidate_lengths(words) for words in orbit]
    k_used = min(len(lengths) - 1, k_max)
    upper = min(log_stretch(loops, lengths[k]) / k for k in range(1, k_used + 1))
    point, converged = _point(lengths, len(lengths) > steps)
    return StretchBracket(lower, upper, point, k_used, converged)
