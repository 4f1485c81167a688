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
track).  One orbit of reduced generator images gives at every step the
conjugacy lengths of the N^2 candidate loops c under phi^k
(`outer_metric.candidate_lengths`): dist(phi^k) and the ratios of every
candidate at once.  The orbit is associated as
phi^k(x_i) = phi^(k-1)(phi(x_i)): the previous step's images form the
substitution table, and the N short words phi(x_i) are its input, so
each step feeds the kernel a few letters and copies long blocks whole.
The letter budget keeps the rule of the other association, substituting
phi into phi^(k-1)(x_i): the raw size of step k for x_i is the unsigned
letter counts of phi^(k-1)(x_i) dotted with the lengths |phi(x_j)|.
The orbit stops at the first step whose raw size exceeds the budget,
and a bracket then reports the steps it completed.

`brackets` is the one power-orbit path, and it brackets many maps at
once: a walk step passes the tracked images of all its paths, and
`bracket` is a batch of one.  The orbits step in lockstep
(`_power_orbits`): power step k substitutes every map's short words
phi(x_i) through its own phi^(k-1), each a map of one stacked kernel
table, in one `_wordkernel.lockstep_substitute` call, so the call
overhead of a step is paid once, not once per map.  An orbit whose raw
size may pass `BATCH_CAP` letters leaves the group and runs alone, on a
table of its own, to its end before the group's next step, as a long
path does in `walk_engine._inverse_orbit`: a stacked step holds the
powers of all its maps at once.  The budget rule, the lengths read and
the floats of each map are those it gets alone.

A bracket takes its lower bound from the caller: `bracket` passes
`stretch_lower(phi)`, and a walk step brackets the abelianizations of
all its paths in one `spectral_radii` batch (`stretch_lowers`), which
gives each matrix the bracket it gets alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import partial

from .free_group import DEFAULT_LETTER_BUDGET, CyclicWord, Word, WordBudgetExceeded
from ._wordkernel import BATCH_CAP, ImageTable, lockstep_substitute
from .automorphisms import Automorphism, cyclic_images, image_abelianization, letter_counts
from .matrix_oracle import BitBudgetExceeded, spectral_radii
from .outer_metric import candidate_lengths, candidates, log_stretch

__all__ = [
    "StretchBracket",
    "stretch_lower",
    "stretch_lowers",
    "stretch_ratio",
    "bracket",
    "brackets",
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


def _power_cut(images, words, budget: int) -> int:
    """The raw size of the first x_i over the budget in the power step
    phi^k(x_i) = phi^(k-1)(phi(x_i)) of the map phi with generator images
    `images`, from words[i] = phi^(k-1)(x_i), or 0 when the step fits;
    words None stands for phi^0, the identity, whose step gives
    phi^1 = images.

    The raw size of x_i is the unsigned letter counts of words[i] dotted
    with |phi(x_j)|, the size of substituting phi into words[i], which is
    |phi(x_i)| at k = 1.
    """
    sizes = [len(w) for w in images]
    if words is None:
        return next((size for size in sizes if size > budget), 0)
    longest = max(sizes)
    for w in words:
        if len(w) * longest <= budget:
            continue  # the raw size is at most that; no need to count
        raw = sum((p + q) * size for (p, q), size in zip(letter_counts(w), sizes))
        if raw > budget:
            return raw
    return 0


def _power_orbits(image_sets, steps: int, budget: int) -> list:
    """The candidate lengths along the power orbit of each map phi given
    by its generator images image_sets[p]: the rows
    candidate_lengths(phi^k(x_i)) for k = 1, 2, ..., up to `steps` or the
    last step within the budget (`_power_cut`), or the WordBudgetExceeded
    of step 1 when phi itself passes the budget.

    The orbits run in lockstep: power step k substitutes the short words
    phi(x_i) of every live map through its own phi^(k-1), each a map of
    one stacked `ImageTable`, in one `lockstep_substitute` call.  An
    orbit whose raw size may pass BATCH_CAP, the total length of its
    words times the longest |phi(x_j)|, leaves the group and runs alone,
    on a table of its own, to its end before the group's next step, so
    at most one long orbit is held at a time.
    """
    rows, words = [], {}
    for p, images in enumerate(image_sets):
        needed = _power_cut(images, None, budget)
        rows.append(WordBudgetExceeded(needed, budget) if needed else [candidate_lengths(images)])
        if not needed:
            words[p] = images

    def advance(live, k):
        while k <= steps:
            if len(live) > 1:
                short = []
                for p in live:
                    longest = max(len(w) for w in image_sets[p])
                    if sum(len(w) for w in words[p]) * longest >= BATCH_CAP:
                        advance([p], k)
                    else:
                        short.append(p)
                live = short
            for p in live:
                if _power_cut(image_sets[p], words[p], budget):
                    del words[p]  # the orbit ends at its last step within the budget
            live = [p for p in live if p in words]
            if not live:
                return
            table = ImageTable(*[[w.letters for w in words[p]] for p in live])
            out = lockstep_substitute(table, list(range(len(live))),
                                      [[w.letters for w in image_sets[p]] for p in live],
                                      sys.maxsize)
            for p, arrs in zip(live, out):
                words[p] = [Word._wrap(a, len(image_sets[p])) for a in arrs]
                rows[p].append(candidate_lengths(words[p]))
            k += 1
        for p in live:
            del words[p]

    advance(list(words), 2)
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
    one map phi, with the lower bound `stretch_lower(phi)`.

    Raises WordBudgetExceeded when not even phi's own images fit the
    budget.
    """
    [br] = brackets([phi.images], [stretch_lower(phi)], k_max, budget=budget)
    if isinstance(br, WordBudgetExceeded):
        raise br
    return br


def brackets(image_sets, lowers, k_max: int = DEFAULT_K_MAX, *,
             budget: int | None = None) -> list:
    """The bracket of each map phi given by its reduced generator images
    images[i] = phi(x_i), with the lower bound `stretch_lower(phi)` taken
    as given from `lowers`, from one lockstep run of their power orbits
    (`_power_orbits`).

    Each orbit runs max(2, k_max) steps.  The upper bound is the best
    dist(phi^k)/k over k = 1..k_max; the point estimate is the largest
    last log ratio over the candidate loops, which tracks the dominant
    growth stratum.  When the letter budget cuts an orbit off, both use
    the steps completed, and k_used records how many of them entered the
    upper bound.  The item of a map whose own images pass the budget is
    its WordBudgetExceeded.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    image_sets = list(image_sets)
    steps = max(2, k_max)
    b = DEFAULT_LETTER_BUDGET if budget is None else budget
    out = []
    for images, lower, rows in zip(image_sets, lowers, _power_orbits(image_sets, steps, b)):
        if isinstance(rows, WordBudgetExceeded):
            out.append(rows)
            continue
        loops = candidates(len(images))
        lengths = [[len(c) for c in loops]] + rows
        k_used = min(len(lengths) - 1, k_max)
        upper = min(log_stretch(loops, lengths[k]) / k for k in range(1, k_used + 1))
        point, converged = _point(lengths, len(lengths) > steps)
        out.append(StretchBracket(lower, upper, point, k_used, converged))
    return out
