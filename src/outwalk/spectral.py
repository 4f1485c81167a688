"""Certified brackets and point estimates for the stretch factor.

log lambda(phi), the exponential growth rate of conjugacy lengths under
iteration, is pinched between two unconditional bounds:

* lower: log of the spectral radius of the abelianization (abelianized
  lengths never exceed conjugacy lengths), exact in rank 2, a certified
  trace bound in higher rank, and never below 0 since lambda >= 1;
* upper: the translation inequality l(phi) <= d(phi.y, y) applied to
  powers gives log lambda <= dist(phi^k) / k for every k, and the bound
  is nonincreasing along doubling by subadditivity.

The point estimate is the last log length ratio |phi^k(c)| / |phi^{k-1}(c)|
of a seed loop c.  Both bounds hold with no irreducibility hypothesis.

Powers of phi are never composed.  One orbit of the N generator
images, k -> phi^k(x_i) reduced (`automorphisms.images`), gives at every
step the conjugacy lengths of the N^2 candidate loops c under phi^k
(`outer_metric.candidate_lengths`): dist(phi^k) and the ratios of every
candidate at once.  The letter budget applies to each substitution of a
generator image: the orbit stops at the first step that needs more
letters, and a bracket then reports the steps it completed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .free_group import CyclicWord, WordBudgetExceeded
from .automorphisms import (Automorphism, abelianization, cyclic_images,
                            identity_automorphism, images)
from .matrix_oracle import spectral_radius
from .outer_metric import candidate_lengths, candidates, log_stretch

__all__ = [
    "StretchBracket",
    "stretch_lower",
    "stretch_ratio",
    "bracket",
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

    def contains_point(self, tol: float = 1e-2) -> bool:
        return self.lower - tol <= self.point <= self.upper + tol


def stretch_lower(phi: Automorphism) -> float:
    """Certified lower bound: log spectral radius of the abelianization.

    Exact in rank 2; the Gelfand trace bound otherwise, which can be
    negative or -inf when every trace it sees is small.  lambda >= 1, so
    the bound is clamped at 0, itself a certified lower bound.
    """
    br = spectral_radius(abelianization(phi))
    return max(0.0, br.exact if br.exact is not None else br.lower)


def _orbit(step, phi: Automorphism, words, steps: int, budget: int | None):
    """Yield w_k = step(phi, w_{k-1}), w_0 = words, for k = 1..steps; step is
    `images` or `cyclic_images`.

    Stops at the first step whose substitution exceeds the letter budget;
    at k = 1 that raises, since nothing is known about phi yet.
    """
    for k in range(steps):
        try:
            words = step(phi, words, budget=budget)
        except WordBudgetExceeded:
            if k == 0:
                raise
            return
        yield words


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
    orbit = _orbit(cyclic_images, phi, [seed], k_max, budget)
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
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    loops = candidates(phi.rank).loops
    steps = max(2, k_max)
    orbit = _orbit(images, phi, identity_automorphism(phi.rank).images, steps, budget)
    lengths = [[len(c) for c in loops]] + [candidate_lengths(words) for words in orbit]
    k_used = min(len(lengths) - 1, k_max)
    upper = min(log_stretch(loops, lengths[k]) / k for k in range(1, k_used + 1))
    point, converged = _point(lengths, len(lengths) > steps)
    return StretchBracket(stretch_lower(phi), upper, point, k_used, converged)
