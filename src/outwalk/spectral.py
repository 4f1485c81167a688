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

Powers of phi are never composed.  One orbit of the candidate loops,
k -> phi^k(c) cyclically reduced (`automorphisms.cyclic_images`), gives
dist(phi^k) at every step and the ratios of every seed at once.  The
letter budget applies to each substitution of a tracked word: the orbit
stops at the first step that needs more letters, and a bracket then
reports the steps it completed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .free_group import CyclicWord, WordBudgetExceeded
from .automorphisms import Automorphism, abelianization, cyclic_images
from .matrix_oracle import spectral_radius
from .outer_metric import candidates, log_stretch

__all__ = [
    "StretchBracket",
    "stretch_upper",
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


def stretch_upper(phi: Automorphism, k: int, *, budget: int | None = None) -> float:
    """dist(phi^k) / k; an upper bound for log lambda(phi) for every k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    loops = candidates(phi.rank).loops
    images = loops
    for _ in range(k):
        images = cyclic_images(phi, images, budget=budget)
    return log_stretch(loops, map(len, images)) / k


def stretch_lower(phi: Automorphism) -> float:
    """Certified lower bound: log spectral radius of the abelianization.

    Exact in rank 2; the Gelfand trace bound otherwise, which can be
    negative or -inf when every trace it sees is small.  lambda >= 1, so
    the bound is clamped at 0, itself a certified lower bound.
    """
    br = spectral_radius(abelianization(phi))
    return max(0.0, br.exact if br.exact is not None else br.lower)


def _orbit(phi: Automorphism, words, steps: int, budget: int | None):
    """Yield phi^k(words), cyclically reduced, with the log length ratios
    log |phi^k(w)| / |phi^{k-1}(w)|, for k = 1..steps.

    Stops at the first step whose substitution exceeds the letter budget;
    at k = 1 that raises, since nothing is known about phi yet.
    """
    for k in range(steps):
        try:
            images = cyclic_images(phi, words, budget=budget)
        except WordBudgetExceeded:
            if k == 0:
                raise
            return
        yield images, [math.log(len(b) / len(a)) for a, b in zip(words, images)]
        words = images


def _point(ratios: list, prev: list | None, complete: bool) -> tuple[float, bool]:
    """The largest last log ratio (the first on ties) and whether it converged.

    It converged when the orbit ran all its steps and the ratio moved by
    less than CONVERGE_TOL over the last one.
    """
    i = max(range(len(ratios)), key=ratios.__getitem__)
    return ratios[i], complete and abs(ratios[i] - prev[i]) < CONVERGE_TOL


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
    k, ratios, prev = 0, None, None
    for k, (_, step_ratios) in enumerate(_orbit(phi, [seed], k_max, budget), 1):
        prev, ratios = ratios, step_ratios
    return _point(ratios, prev, k == k_max)


def bracket(
    phi: Automorphism,
    k_max: int = DEFAULT_K_MAX,
    *,
    budget: int | None = None,
) -> StretchBracket:
    """Assemble lower/upper/point for log lambda(phi).

    One orbit of the candidate loops runs max(2, k_max) steps.  The
    upper bound is the best dist(phi^k)/k over k = 1..k_max; the point
    estimate is the largest last log ratio over the loops, which tracks
    the dominant growth stratum.  When the letter budget cuts the orbit
    off, both use the steps completed, and k_used records how many of
    them entered the upper bound.
    """
    lower = stretch_lower(phi)
    loops = candidates(phi.rank).loops
    steps = max(2, k_max)
    upper = math.inf
    k, ratios, prev = 0, None, None
    for k, (images, step_ratios) in enumerate(_orbit(phi, loops, steps, budget), 1):
        if k <= k_max:
            upper = min(upper, log_stretch(loops, map(len, images)) / k)
        prev, ratios = ratios, step_ratios
    point, converged = _point(ratios, prev, k == steps)
    return StretchBracket(lower, upper, point, min(k, k_max), converged)
