"""Random walk sampling and the experiment suite.

The walk at time n is the right product Phi_n = s_1 ... s_n of i.i.d.
increments.  With the left action on the rose orbit, d(y0, Phi_n.y0) =
dist(Phi_n^{-1}).  Drift and conjugacy growth never form Phi_n: they
track the candidate loops or the seed classes g under the inverse
increments, Phi_n^{-1}(g) = s_n^{-1}(Phi_{n-1}^{-1}(g)), cyclically
reduced, since conjugacy length is a class function.  Brackets, Gromov
products and the delta orbit need the maps themselves and run a
`WalkPath`, which composes Phi_{n+1} = Phi_n s_{n+1} once per step.

A path is cut off at the first step at which one substitution, of a
tracked word or into the composed product, needs more letters than the
letter budget; it then ends in a "truncated" row, never silently
dropped.  A budget hit inside one bracket or Gromov record marks only
that record.  Paths are independent tasks keyed by (master_seed,
path_id); results are merged in path order, so the worker count never
changes output bytes.
"""

from __future__ import annotations

import math
import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import islice

from .free_group import CyclicWord, WordBudgetExceeded
from .automorphisms import (
    Automorphism,
    compose,
    cyclic_images,
    identity_automorphism,
    invert,
)
from .matrix_oracle import (
    BitBudgetExceeded,
    DEFAULT_BIT_BUDGET,
    IntMatrix,
    guivarch_series,
    vector_growth,
)
from .outer_metric import FiniteMetricSample, candidates, four_point_delta, log_stretch
from .spectral import bracket
from .rng import categorical, cumulative, path_generator

__all__ = [
    "ProbMeasure",
    "WalkPath",
    "EstimateSeries",
    "sample_path",
    "drift_experiment",
    "conjugacy_growth_experiment",
    "spectral_experiment",
    "gromov_decay_experiment",
    "matrix_experiments",
    "delta_experiment",
    "geometric_schedule",
    "batch_means_ci",
]

WALK_K_MAX = 4  # default bracket depth inside walk experiments

WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class ProbMeasure:
    """Finite-support measure on automorphisms or integer matrices."""

    support: tuple
    weights: tuple

    def __post_init__(self):
        if not self.support:
            raise ValueError("measure support is empty")
        if len(self.support) != len(self.weights):
            raise ValueError("one weight per support atom required")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        if abs(sum(self.weights) - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights sum to {sum(self.weights)!r}, expected 1")
        first = self.support[0]
        if isinstance(first, Automorphism):
            ranks = {a.rank for a in self.support}
            if len(ranks) != 1:
                raise ValueError("support mixes ranks")
        elif isinstance(first, IntMatrix):
            dims = {m.n for m in self.support}
            if len(dims) != 1:
                raise ValueError("support mixes dimensions")
            for m in self.support:
                if m.det() not in (-1, 1):
                    raise ValueError("matrix increments must have determinant +-1")
        else:
            raise ValueError("support must hold Automorphisms or IntMatrices")

    @property
    def is_matrix(self) -> bool:
        return isinstance(self.support[0], IntMatrix)

    @property
    def rank(self) -> int:
        return self.support[0].rank if not self.is_matrix else self.support[0].n

    def cum_weights(self) -> list:
        return cumulative(self.weights)


def _increments(measure: ProbMeasure, master_seed: int, path_id: int):
    """Support indices of the increments s_1, s_2, ... of one path."""
    gen = path_generator(master_seed, path_id)
    cum = measure.cum_weights()
    while True:
        yield categorical(gen, cum)


@dataclass
class WalkPath:
    """Incremental sample path of the automorphism walk: Phi_n and its inverse."""

    measure: ProbMeasure
    master_seed: int
    path_id: int
    letter_budget: int | None = None
    n: int = 0
    truncated: bool = False
    increments: list = field(default_factory=list)

    def __post_init__(self):
        self.product = identity_automorphism(self.measure.rank)
        self.inverse_product = self.product
        self._steps = _increments(self.measure, self.master_seed, self.path_id)

    def advance(self) -> bool:
        """Draw one increment; False (and truncated) when the budget is hit."""
        if self.truncated:
            return False
        idx = next(self._steps)
        try:
            # compose(Phi_n, s) also substitutes the inverse images
            # s^{-1}(Phi_n^{-1}(x)), which are those of Phi_{n+1}^{-1}
            product = compose(self.product, self.measure.support[idx],
                              budget=self.letter_budget)
        except WordBudgetExceeded:
            self.truncated = True
            return False
        self.increments.append(idx)
        self.product = product
        self.inverse_product = invert(product)
        self.n += 1
        return True


def sample_path(measure, master_seed, path_id, n_max, *, letter_budget=None):
    """Yield (n, Phi_n, Phi_n^{-1}) for n = 1..n_max, stopping on truncation."""
    path = WalkPath(measure, master_seed, path_id, letter_budget)
    while path.n < n_max and path.advance():
        yield path.n, path.product, path.inverse_product


@dataclass
class EstimateSeries:
    """Per-path, per-time estimator records plus run metadata.

    records hold (path_id, n, estimator, value, status); summary rows use
    path_id -1.  (path_id, n, estimator) is unique.
    """

    experiment: str
    records: list
    metadata: dict

    def values(self, estimator: str, n: int | None = None, ok_only: bool = True) -> list:
        out = []
        for pid, rn, est, value, status in self.records:
            if pid < 0 or est != estimator:
                continue
            if n is not None and rn != n:
                continue
            if ok_only and status != "ok":
                continue
            out.append(value)
        return out


def geometric_schedule(n_max: int) -> list:
    ns = set()
    k = 1
    while k <= n_max:
        ns.add(k)
        k *= 2
    ns.add(n_max)
    return sorted(ns)


def batch_means_ci(values) -> float | None:
    """Half-width of a 95% batch-means interval; None below two batches."""
    p = len(values)
    nb = int(math.isqrt(p))
    if nb < 2:
        return None
    per = p // nb
    means = [
        sum(values[i * per: (i + 1) * per]) / per for i in range(nb)
    ]
    spread = statistics.stdev(means)
    return 1.96 * spread / math.sqrt(nb)


def _run_paths(paths: int, threads: int, one_path) -> list:
    """Run per-path jobs and merge rows deterministically in path order."""
    if threads <= 1:
        chunks = [one_path(pid) for pid in range(paths)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(one_path, range(paths)))
    rows = []
    for chunk in chunks:
        rows.extend(chunk)
    return rows


def _append_summaries(rows: list, schedule, estimators) -> None:
    # sentinel values (e.g. -inf "no bound") stay in per-path rows but are
    # excluded from aggregates
    by_key = {}
    for pid, n, est, value, status in rows:
        if pid >= 0 and status == "ok" and math.isfinite(value):
            by_key.setdefault((n, est), []).append(value)
    for n in schedule:
        for est in estimators:
            vals = by_key.get((n, est))
            if not vals:
                continue
            rows.append((-1, n, f"{est}.mean", sum(vals) / len(vals), "ok"))
            half = batch_means_ci(vals)
            if half is not None:
                rows.append((-1, n, f"{est}.ci95_half", half, "ok"))
            rows.append((-1, n, f"{est}.paths", float(len(vals)), "ok"))


def _truncation_row(path_id: int, n: int, estimator: str):
    return (path_id, n, estimator, float(n), "truncated")


def _inverse_orbit(measure, inverses, master_seed, path_id, words, n_max, budget):
    """Yield (n, Phi_n^{-1}(words) cyclically reduced) for n = 1..n_max, until a
    substitution exceeds the budget; inverses[i] inverts support atom i."""
    steps = _increments(measure, master_seed, path_id)
    for n in range(1, n_max + 1):
        try:
            words = cyclic_images(inverses[next(steps)], words, budget=budget)
        except WordBudgetExceeded:
            return
        yield n, words


def drift_experiment(
    measure: ProbMeasure,
    *,
    n_max: int,
    paths: int,
    master_seed: int,
    letter_budget: int | None = None,
    threads: int = 1,
) -> EstimateSeries:
    """Records (1/n) dist(Phi_n^{-1}) per path per n (the drift estimator)."""
    loops = candidates(measure.rank).loops
    inverses = [invert(a) for a in measure.support]

    def one_path(pid: int) -> list:
        rows, n = [], 0
        for n, images in _inverse_orbit(measure, inverses, master_seed, pid, loops,
                                        n_max, letter_budget):
            rows.append((pid, n, "drift", log_stretch(loops, images) / n, "ok"))
        if n < n_max:
            rows.append(_truncation_row(pid, n, "drift"))
        return rows

    rows = _run_paths(paths, threads, one_path)
    _append_summaries(rows, geometric_schedule(n_max), ["drift"])
    return EstimateSeries(
        "drift",
        rows,
        {"n_max": n_max, "paths": paths, "master_seed": master_seed},
    )


def conjugacy_growth_experiment(
    measure: ProbMeasure,
    seeds,
    *,
    n_max: int,
    paths: int,
    master_seed: int,
    letter_budget: int | None = None,
    threads: int = 1,
) -> EstimateSeries:
    """Records (1/n) log |Phi_n^{-1}(g)| for each seed conjugacy class g."""
    seeds = list(seeds)
    if any(len(g) == 0 for g in seeds):
        raise ValueError("seed classes must be nontrivial")
    names = [f"conjugacy.{_cyclic_str(g)}" for g in seeds]
    inverses = [invert(a) for a in measure.support]

    def one_path(pid: int) -> list:
        rows, n = [], 0
        for n, images in _inverse_orbit(measure, inverses, master_seed, pid, seeds,
                                        n_max, letter_budget):
            for name, w in zip(names, images):
                rows.append((pid, n, name, math.log(len(w)) / n, "ok"))
        if n < n_max:
            rows.append(_truncation_row(pid, n, names[0]))
        return rows

    rows = _run_paths(paths, threads, one_path)
    _append_summaries(rows, geometric_schedule(n_max), names)
    return EstimateSeries(
        "conjugacy",
        rows,
        {"n_max": n_max, "paths": paths, "master_seed": master_seed,
         "seeds": [_cyclic_str(g) for g in seeds]},
    )


def spectral_experiment(
    measure: ProbMeasure,
    *,
    n_max: int,
    paths: int,
    master_seed: int,
    k_max: int = WALK_K_MAX,
    letter_budget: int | None = None,
    threads: int = 1,
) -> EstimateSeries:
    """Stretch brackets of Phi_n^{-1}, normalized by n, on a geometric schedule.

    Orbit words under k-th powers blow up like lambda^k, so the bracket
    depth is downgraded per record whenever the letter budget cuts the
    orbit off; a record whose first orbit step already exceeds the budget
    is marked truncated.
    """
    schedule = set(geometric_schedule(n_max))
    estimators = ["spectral.lower", "spectral.upper", "spectral.point", "spectral.k_used"]

    def one_path(pid: int) -> list:
        rows = []
        path = WalkPath(measure, master_seed, pid, letter_budget)
        while path.n < n_max and path.advance():
            if path.n not in schedule:
                continue
            n = path.n
            try:
                br = bracket(path.inverse_product, k_max, budget=letter_budget)
            except WordBudgetExceeded:
                rows.append((pid, n, "spectral.upper", float("nan"), "truncated"))
                continue
            status = "ok" if br.k_used >= k_max else "downgraded"
            rows.append((pid, n, "spectral.lower", br.lower / n, status))
            rows.append((pid, n, "spectral.upper", br.upper / n, status))
            rows.append((pid, n, "spectral.point", br.point / n, status))
            rows.append((pid, n, "spectral.k_used", float(br.k_used), status))
        if path.truncated:
            rows.append(_truncation_row(pid, path.n, "spectral.upper"))
        return rows

    rows = _run_paths(paths, threads, one_path)
    _append_summaries(rows, sorted(schedule), estimators)
    return EstimateSeries(
        "spectral",
        rows,
        {"n_max": n_max, "paths": paths, "master_seed": master_seed, "k_max": k_max},
    )


def gromov_decay_experiment(
    measure: ProbMeasure,
    *,
    n_max: int,
    paths: int,
    master_seed: int,
    letter_budget: int | None = None,
    threads: int = 1,
) -> EstimateSeries:
    """Records (1/n) (Phi_n.y0 | Phi_n^{-1}.y0)_{y0} in the symmetrized metric.

    The product equals sym_dist(Phi_n) - sym_dist(Phi_n^2) / 2, where
    dist(Phi_n^{+-2}) comes from two orbit steps of the candidate loops.
    That is the expensive part, so records follow the geometric schedule
    and budget failures mark single records.
    """
    schedule = set(geometric_schedule(n_max))

    def one_path(pid: int) -> list:
        rows = []
        path = WalkPath(measure, master_seed, pid, letter_budget)
        while path.n < n_max and path.advance():
            if path.n not in schedule:
                continue
            n = path.n
            try:
                d1, d2 = _dist_and_square(path.product, letter_budget)
                e1, e2 = _dist_and_square(path.inverse_product, letter_budget)
            except WordBudgetExceeded:
                rows.append((pid, n, "gromov", float("nan"), "truncated"))
                continue
            rows.append((pid, n, "gromov", ((d1 + e1) - 0.5 * (d2 + e2)) / n, "ok"))
        if path.truncated:
            rows.append(_truncation_row(pid, path.n, "gromov"))
        return rows

    rows = _run_paths(paths, threads, one_path)
    _append_summaries(rows, sorted(schedule), ["gromov"])
    return EstimateSeries(
        "gromov",
        rows,
        {"n_max": n_max, "paths": paths, "master_seed": master_seed},
    )


def _dist_and_square(theta: Automorphism, budget) -> tuple[float, float]:
    """dist(theta) and dist(theta^2) from two orbit steps of the candidate loops."""
    loops = candidates(theta.rank).loops
    once = cyclic_images(theta, loops, budget=budget)
    twice = cyclic_images(theta, once, budget=budget)
    return log_stretch(loops, once), log_stretch(loops, twice)


def matrix_experiments(
    measure: ProbMeasure,
    *,
    n_max: int,
    paths: int,
    master_seed: int,
    vector=None,
    bit_budget: int = DEFAULT_BIT_BUDGET,
    threads: int = 1,
    kind: str = "matrix-guivarch",
) -> EstimateSeries:
    """Matrix-walk series in the common record schema.

    matrix-guivarch records per-n spectral radius brackets and norms of
    the exact product; matrix-furstenberg records the vector growth
    series for the given integer seed vector.
    """
    if not measure.is_matrix:
        raise ValueError("matrix experiments need a matrix measure")
    if kind == "matrix-furstenberg" and vector is None:
        raise ValueError("matrix-furstenberg needs a seed vector")

    def increments(pid: int):
        for idx in islice(_increments(measure, master_seed, pid), n_max):
            yield measure.support[idx]

    def one_path(pid: int) -> list:
        rows = []
        try:
            if kind == "matrix-guivarch":
                for n, lo, hi, norm in guivarch_series(increments(pid), bit_budget):
                    rows.append((pid, n, "guivarch.rho_lower", lo, "ok"))
                    rows.append((pid, n, "guivarch.rho_upper", hi, "ok"))
                    rows.append((pid, n, "guivarch.norm", norm, "ok"))
            else:
                for n, value in vector_growth(increments(pid), vector, bit_budget):
                    rows.append((pid, n, "furstenberg.vector", value, "ok"))
        except BitBudgetExceeded:
            last_n = rows[-1][1] if rows else 0
            rows.append((pid, last_n, "truncated_at", float(last_n), "truncated"))
        return rows

    estimators = (
        ["guivarch.rho_lower", "guivarch.rho_upper", "guivarch.norm"]
        if kind == "matrix-guivarch"
        else ["furstenberg.vector"]
    )
    rows = _run_paths(paths, threads, one_path)
    _append_summaries(rows, geometric_schedule(n_max), estimators)
    return EstimateSeries(
        kind,
        rows,
        {"n_max": n_max, "paths": paths, "master_seed": master_seed},
    )


def delta_experiment(
    measure: ProbMeasure,
    *,
    n_max: int,
    master_seed: int,
    letter_budget: int | None = None,
) -> EstimateSeries:
    """Four-point hyperbolicity defect of one orbit segment.

    Samples a single path, takes the orbit points Phi_0.y0 .. Phi_n.y0,
    and measures the four-point delta of their symmetrized distance
    matrix.  Descriptive only: the orbit metric is not claimed
    hyperbolic.
    """
    path = WalkPath(measure, master_seed, 0, letter_budget)
    markings = [path.product]
    while path.n < n_max and path.advance():
        markings.append(path.product)
    sample = FiniteMetricSample.from_orbit(markings, budget=letter_budget)
    value = four_point_delta(sample)
    rows = [(0, path.n, "four_point_delta", value, "ok")]
    if path.truncated:
        rows.append(_truncation_row(0, path.n, "four_point_delta"))
    return EstimateSeries(
        "delta",
        rows,
        {"n_max": n_max, "paths": 1, "master_seed": master_seed, "points": len(markings)},
    )


def _cyclic_str(g: CyclicWord) -> str:
    from .free_group import word_to_str

    return word_to_str(g)
