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
generator images phi(x_i) (`brackets`; walks pass the images they
track), as bytes, the currency of `_wordkernel`, in which the power
orbits run too.  One orbit of reduced generator images gives at every
step the conjugacy lengths of the N^2 candidate loops c under phi^k
(`outer_metric.candidate_lengths`): dist(phi^k) and the ratios of every
candidate at once.  The orbit is associated as
phi^k(x_i) = phi^(k-1)(phi(x_i)): the previous step's images form the
substitution table, and the N short words phi(x_i) are its input, so
each step feeds the kernel a few letters and copies long blocks whole.
The letter budget bounds that substitution where it bounds every other,
in the kernel (`_wordkernel.lockstep_substitute`): the raw size of step
k for x_i is the sum of the block lengths |phi^(k-1)(x_j)| over the
letters of phi(x_i).  An orbit stops at the first step whose raw size
exceeds the budget, which the kernel drops, and a bracket then reports
the steps it completed.  Step 1 reads the images it is given and
substitutes nothing, so it is never cut.

`power_orbits` runs the power orbits of many maps at once, each step read
by its caller's reader: `candidate_lengths` for `brackets`, whose point
estimate reads every loop, `image_dist` for the walk's Gromov records;
`bracket` is a batch of one.  The orbits step in lockstep under
`_wordkernel.lockstep_orbits`:
power step k substitutes every map's short words phi(x_i) through its
own phi^(k-1), each a map of one stacked kernel table, in one kernel
batch (`automorphisms.own_images`, the step that also maps the inverse
images of the walk's Gromov states), so the call overhead of a step is
paid once, not once per map.  An orbit whose item size
(`power_orbits`) reaches `BATCH_CAP` letters runs alone on a table of
its own, since a stacked step holds the powers of all its maps at once.
The budget cut, the reads and the floats of each map are those it gets
alone.

`brackets` reads the lower bounds of all its maps off one
`spectral_radii` batch of their abelianizations (`stretch_lowers`),
which gives each matrix the bracket it gets alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

from .defaults import DEFAULT_K_MAX
from .free_group import CyclicWord, WordBudgetExceeded, as_bytes
from ._wordkernel import lockstep_orbits
from .automorphisms import Automorphism, cyclic_images, image_abelianization, own_images
from .matrix_oracle import spectral_radii
from .outer_metric import candidate_lengths, candidates, log_stretch

__all__ = [
    "StretchBracket",
    "stretch_lower",
    "stretch_lowers",
    "stretch_ratio",
    "bracket",
    "brackets",
    "power_orbits",
]

CONVERGE_TOL = 1e-3  # on logs; experiments read results at 1e-2 resolution

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
    return stretch_lowers([as_bytes(phi.images)])[0]


def stretch_lowers(image_sets) -> list:
    """The lower bound of each map given by its generator images, as
    bytes: the log spectral radius of its abelianization, from one
    `spectral_radii` batch of them.

    Exact in rank 2; the Gelfand trace bound otherwise, which
    `spectral_radii` raises to 0 where it reads below, since an
    invertible integer matrix has rho >= 1.  Raises the
    BitBudgetExceeded of the first matrix that passes the bit budget.
    """
    mats = [image_abelianization(images) for images in image_sets]
    return [br.lower for br in spectral_radii(mats)]


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


def power_orbits(image_sets, steps: int, budget: int | None, read) -> list:
    """What read(phi^k(x_i)) gives along the power orbit of each map phi
    given by its generator images image_sets[p], as bytes: the rows for
    k = 1, 2, ..., up to `steps` or the last step within the budget.
    Step 1 reads the images themselves.

    The orbits step in lockstep as the module docstring says, each an
    item (p, phi(x_i), phi^(k-1)(x_i)), whose size, the total length of
    the phi(x_i) times the longest |phi^(k-1)(x_j)|, bounds the raw size
    of its step.  An orbit ends where `own_images` gives its group as None.
    """
    rows, items = [], []
    for p, images in enumerate(image_sets):
        rows.append([read(images)])
        items.append((p, images, images))

    def size(item):
        _, images, words = item
        return sum(len(w) for w in images) * max(len(w) for w in words)

    def step(k, group):
        out = own_images([words for _, _, words in group],
                         [images for _, images, _ in group], budget=budget)
        group = [(p, images, words)
                 for (p, images, _), words in zip(group, out) if words is not None]
        return group, [(p, read(words)) for p, _, words in group]

    for p, row in lockstep_orbits(items, size, step, 2, steps):
        rows[p].append(row)
    return rows


def _point(lengths: list, complete: bool) -> tuple[float, bool]:
    """The largest last log length ratio (the first on ties) over the
    orbit lengths[0..k] and whether it converged.

    It converged when the orbit ran all its steps and the ratio moved by
    less than CONVERGE_TOL over the last one; an orbit that ran all its
    steps has at least two ratios.
    """
    before, after = lengths[-2], lengths[-1]
    last = [math.log(b / a) for a, b in zip(before, after)]
    i = max(range(len(last)), key=last.__getitem__)
    return last[i], complete and abs(last[i] - math.log(before[i] / lengths[-3][i])) < CONVERGE_TOL


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
    """Assemble lower/upper/point for log lambda(phi): `brackets` of the
    one map phi."""
    return brackets([as_bytes(phi.images)], k_max, budget=budget)[0]


def brackets(image_sets, k_max: int = DEFAULT_K_MAX, *, budget: int | None = None) -> list:
    """The bracket of each map phi given by its reduced generator images
    images[i] = phi(x_i), as bytes: the lower bounds from one batch of them
    (`stretch_lowers`, which raises on the bit budget), the rest from one
    lockstep run of their power orbits (`power_orbits`).

    Each orbit runs max(2, k_max) steps.  The upper bound is the best
    dist(phi^k)/k over k = 1..k_max; the point estimate is the largest
    last log ratio over the candidate loops, which tracks the dominant
    growth stratum.  When the letter budget cuts an orbit off, both use
    the steps completed, and k_used records how many of them entered the
    upper bound; step 1, which reads the images, always does.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    image_sets = list(image_sets)
    lowers = stretch_lowers(image_sets)
    steps = max(2, k_max)
    out = []
    orbits = power_orbits(image_sets, steps, budget, candidate_lengths)
    for images, lower, rows in zip(image_sets, lowers, orbits):
        loops = candidates(len(images))
        lengths = [[len(c) for c in loops]] + rows
        k_used = min(len(lengths) - 1, k_max)
        upper = min(log_stretch(loops, lengths[k]) / k for k in range(1, k_used + 1))
        point, converged = _point(lengths, len(lengths) > steps)
        out.append(StretchBracket(lower, upper, point, k_used, converged))
    return out
