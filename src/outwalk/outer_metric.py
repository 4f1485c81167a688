"""Lipschitz metric on the rose orbit of outer space.

Every distance used here reduces to the one-argument function
dist(theta) = log max over candidate loops c of |theta(c)| / |c|, where
|.| is conjugacy length: this is the stretch of the optimal map from the
unit rose to the rose remarked by theta (covolume normalization cancels
in the ratio).  With the left action Phi . y0 = R . Phi^{-1}, pairwise
orbit distances are d(Phi.y0, Psi.y0) = dist(Psi^{-1} Phi).

The candidate loops on a rose are the petals and the figure eights; the
optimal stretch is always attained on one of them (Francaviglia-Martino,
Metric properties of Outer space, 2011), which the test suite checks
against brute force over all short cyclic words.  So dist needs only
the N^2 cyclically reduced candidate images, never theta itself:
`log_stretch` turns any such images into the exact maximal ratio, and
the estimators that follow a walk or a power orbit feed it the images
they track with `automorphisms.cyclic_images`, without composing maps.

The metric is asymmetric; Gromov products and the four-point
hyperbolicity diagnostic use the symmetrized version
d_sym(x, y) = d(x, y) + d(y, x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .free_group import CyclicWord
from .automorphisms import Automorphism, compose, cyclic_images, invert

__all__ = [
    "CandidateSet",
    "FiniteMetricSample",
    "candidates",
    "log_stretch",
    "dist",
    "sym_dist",
    "gromov_product",
    "highness_ratio",
    "four_point_delta",
]

TRIANGLE_TOL = 1e-9


@dataclass(frozen=True)
class CandidateSet:
    """Petals and figure eights on the rank-N rose: N^2 loops of length <= 2."""

    rank: int
    loops: tuple

    def __len__(self) -> int:
        return len(self.loops)


@lru_cache(maxsize=None)
def candidates(rank: int) -> CandidateSet:
    if rank < 2:
        raise ValueError("need rank >= 2")
    loops = []
    for i in range(1, rank + 1):
        loops.append(CyclicWord(np.array([i], dtype=np.int8), rank))
    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            loops.append(CyclicWord(np.array([i, j], dtype=np.int8), rank))
            loops.append(CyclicWord(np.array([i, -j], dtype=np.int8), rank))
    return CandidateSet(rank, tuple(loops))


def log_stretch(loops, images) -> float:
    """log of the largest conjugacy length ratio |image| / |loop|, at least 0.

    images[i] is the image of loops[i]; ratios are compared exactly in
    integers, so the result is the same float however it is reached.
    """
    best_num, best_den = 1, 1
    for c, img in zip(loops, images):
        num, den = len(img), len(c)
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    return math.log(best_num / best_den)


def dist(theta: Automorphism, *, budget: int | None = None) -> float:
    """Orbit distance d(R, R.theta): log of the maximal candidate stretch.

    Zero exactly when theta permutes the generators up to inversion.
    """
    loops = candidates(theta.rank).loops
    return log_stretch(loops, cyclic_images(theta, loops, budget=budget))


def sym_dist(theta: Automorphism, *, budget: int | None = None) -> float:
    """Symmetrized orbit distance; invariant under theta <-> theta^{-1}."""
    return dist(theta, budget=budget) + dist(invert(theta), budget=budget)


def gromov_product(phi: Automorphism, psi: Automorphism, *, budget: int | None = None) -> float:
    """Gromov product (phi.y0 | psi.y0) at the identity marking.

    Computed in the symmetrized orbit metric:
    (x|y) = (d_sym(y0,x) + d_sym(y0,y) - d_sym(x,y)) / 2, with
    d_sym(y0, phi.y0) = sym_dist(phi) and d_sym(phi.y0, psi.y0) =
    sym_dist(psi^{-1} phi).  Nonnegative by the triangle inequality.
    """
    a = sym_dist(phi, budget=budget)
    b = sym_dist(psi, budget=budget)
    c = sym_dist(compose(invert(psi), phi, budget=budget), budget=budget)
    return 0.5 * (a + b - c)


def highness_ratio(theta: Automorphism, probes, *, budget: int | None = None) -> float:
    """Empirical lower bound for the highness constant at theta.y0.

    For each probe psi the ratio d_sym(psi.y0, theta.y0) / d(psi.y0,
    theta.y0) is at least 1; probes at distance zero (isometric
    remarkings) are skipped.
    """
    probes = list(probes)
    if not probes:
        raise ValueError("need at least one probe")
    best = None
    inv_theta = invert(theta)
    for psi in probes:
        rel = compose(inv_theta, psi, budget=budget)
        d = dist(rel, budget=budget)
        if d == 0.0:
            continue
        ratio = (d + dist(invert(rel), budget=budget)) / d
        best = ratio if best is None else max(best, ratio)
    if best is None:
        raise ValueError("all probes are at distance zero from the base point")
    return best


@dataclass(frozen=True)
class FiniteMetricSample:
    """A finite symmetric metric space, validated on ingestion."""

    labels: tuple
    distances: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.distances, dtype=float)
        n = len(self.labels)
        if d.shape != (n, n):
            raise ValueError("distance matrix shape does not match labels")
        if not np.allclose(d, d.T, atol=TRIANGLE_TOL, rtol=0.0):
            raise ValueError("distance matrix is not symmetric")
        if np.abs(np.diag(d)).max(initial=0.0) > TRIANGLE_TOL:
            raise ValueError("diagonal must be zero")
        if d.min(initial=0.0) < -TRIANGLE_TOL:
            raise ValueError("distances must be nonnegative")
        # triangle inequality on all ordered triples
        gap = (d[:, :, None] + d[None, :, :]) - d[:, None, :]
        if gap.min(initial=0.0) < -TRIANGLE_TOL:
            i, j, k = np.unravel_index(int(gap.argmin()), gap.shape)
            raise ValueError(
                f"triangle inequality fails on ({self.labels[i]}, "
                f"{self.labels[j]}, {self.labels[k]})"
            )
        d = d.copy()
        d.flags.writeable = False
        object.__setattr__(self, "distances", d)
        object.__setattr__(self, "labels", tuple(self.labels))

    @classmethod
    def from_orbit(cls, markings, labels=None, *, budget: int | None = None) -> "FiniteMetricSample":
        """Pairwise symmetrized distances between orbit points."""
        markings = list(markings)
        n = len(markings)
        d = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                rel = compose(invert(markings[j]), markings[i], budget=budget)
                d[i, j] = d[j, i] = sym_dist(rel, budget=budget)
        if labels is None:
            labels = tuple(str(i) for i in range(n))
        return cls(tuple(labels), d)

    def __len__(self) -> int:
        return len(self.labels)


def four_point_delta(
    sample: FiniteMetricSample,
    *,
    max_exhaustive: int = 60,
    subsample: int = 2_000_000,
    seed: int = 0,
) -> float:
    """Smallest delta for which the four-point condition holds on the sample.

    The condition, over all ordered quadruples (x, y, z, w) with basepoint
    w: (x|y)_w >= min((x|z)_w, (y|z)_w) - delta.  Exhaustive up to
    max_exhaustive points, random quadruples (pinned generator) beyond.
    """
    n = len(sample)
    if n < 4:
        raise ValueError("need at least 4 points")
    d = sample.distances
    worst = 0.0
    if n <= max_exhaustive:
        for w in range(n):
            p = 0.5 * (d[w][:, None] + d[w][None, :] - d)
            for z in range(n):
                # violations of (x|y)_w >= min((x|z)_w, (y|z)_w) - delta
                m = np.minimum(p[:, z][:, None], p[z, :][None, :]) - p
                worst = max(worst, float(m.max()))
        return worst
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    quads = rng.integers(0, n, size=(subsample, 4))
    x, y, z, w = quads.T
    pxy = 0.5 * (d[w, x] + d[w, y] - d[x, y])
    pxz = 0.5 * (d[w, x] + d[w, z] - d[x, z])
    pyz = 0.5 * (d[w, y] + d[w, z] - d[y, z])
    viol = np.minimum(pxz, pyz) - pxy
    return max(0.0, float(viol.max()))
