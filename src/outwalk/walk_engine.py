"""Random walk sampling, the driver of every experiment, and the matrix kinds.

Importing this module loads the matrix layer (`matrix_oracle`) and
`rng`, and no module of the word layer (`free_group`, `_wordkernel`,
`automorphisms`, `outer_metric`, `spectral`): a matrix run loads none of
them.  The word kinds live in `word_walks`, which imports them.  Here
`ProbMeasure` imports `automorphisms` only to check a support that is
not one of matrices, and `WalkPath`, the composed reference path of the
tests, imports it as it starts and steps; `_run_paths` imports
`concurrent.futures` only for more than one thread.

The driver `_series` runs every multi-path kind, and it alone applies
the cut-off rule and the merge order.  Every multi-path kind is a row
source: group_rows(path_ids) yields (path_id, n, records, done) for a
path's steps through n, each record built once, by the code that
computes its value; done marks the path's last yield.  A series holds
per-path records only: no experiment computes a summary, and `outwalk
summarize` (`cli.summarize`) is the one aggregator.  A path is cut off
at the first step at which one substitution of a tracked word needs
more letters than the letter budget (`word_walks`), or a matrix entry
more bits than the bit budget; it then ends in a row with estimator
"truncated_at", value the last completed step and status "truncated",
never silently dropped.  Paths are keyed by (master_seed, path_id),
each with its own increment stream, and run in one group of contiguous
path ids per thread (`_run_paths` runs the groups); results are merged
in path order, so the worker count never changes output bytes.

A series is a stream: its rows come in path order as the sources make
them, and are held only where that order needs it.  The driver passes
on the rows of the first path of a group not yet done as they come,
holds those of the later paths until it is, and passes on a path's
truncation row once the path is done.  So a matrix run, whose paths
run one after the other and mark their end, holds one chunk of records
(`_matrix_experiment`); a word kind's paths step in lockstep and mark
no end, so the driver holds the rows of every path of the group but
the first until the group ends; and at more than one thread each
group's rows are held until the group ends, to be merged in order.
`EstimateSeries.records` holds them all, read off the stream on first
access.

The matrix kinds hand each chunk of `running_products`, the one product
loop, to a reader (`_matrix_path`), pass on each chunk's records as the
reader makes them, and run their paths of a group one after the other.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import chain, count, islice

from .matrix_oracle import (BitBudgetExceeded, DEFAULT_BIT_BUDGET, IntMatrix, _log_int,
                            running_products, spectral_radii)
from .rng import categorical_stream, cumulative, path_generator

__all__ = [
    "ProbMeasure",
    "WalkPath",
    "EstimateSeries",
    "sample_path",
    "guivarch_experiment",
    "furstenberg_experiment",
    "geometric_schedule",
]

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
        if not all(math.isfinite(w) for w in self.weights):
            raise ValueError("weights must be finite")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        if abs(sum(self.weights) - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights sum to {sum(self.weights)!r}, expected 1")
        if isinstance(self.support[0], IntMatrix):
            atom = IntMatrix
        else:
            # only a support that is not one of matrices loads the word layer
            from .automorphisms import Automorphism as atom
        if not all(isinstance(a, atom) for a in self.support):
            raise ValueError("support must hold Automorphisms or IntMatrices")
        if atom is IntMatrix:
            dims = {m.n for m in self.support}
            if len(dims) != 1:
                raise ValueError("support mixes dimensions")
            for m in self.support:
                if m.det() not in (-1, 1):
                    raise ValueError("matrix increments must have determinant +-1")
        else:
            ranks = {a.rank for a in self.support}
            if len(ranks) != 1:
                raise ValueError("support mixes ranks")

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
    return categorical_stream(path_generator(master_seed, path_id), measure.cum_weights())


def _steps(measure: ProbMeasure, master_seed: int, path_id: int, n_max: int):
    """The increments s_1 .. s_{n_max} of one path, as support atoms."""
    for idx in islice(_increments(measure, master_seed, path_id), n_max):
        yield measure.support[idx]


@dataclass
class WalkPath:
    """Incremental sample path of the automorphism walk: Phi_n and its inverse.

    No experiment kind composes forward; this is the composed reference
    that the orbit kinds are checked against."""

    measure: ProbMeasure
    master_seed: int
    path_id: int
    letter_budget: int | None = None
    n: int = 0
    truncated: bool = False
    increments: list = field(default_factory=list)

    def __post_init__(self):
        from .automorphisms import identity_automorphism

        self.product = identity_automorphism(self.measure.rank)
        self.inverse_product = self.product
        self._steps = _increments(self.measure, self.master_seed, self.path_id)

    def advance(self) -> bool:
        """Draw one increment; False (and truncated) when the budget is hit."""
        from .automorphisms import compose, invert
        from .free_group import WordBudgetExceeded

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


class EstimateSeries:
    """Per-path, per-time estimator records of one experiment.

    records hold (path_id, n, estimator, value, status), per-path records
    only (path_id >= 0); (path_id, n, estimator) is unique.  What bounded
    the run is its resolved config, which `cli.write_series` writes.

    A series may be a stream of records (`_series`): iterating over it
    reads the stream once, holding no record, and `records` reads it
    whole, once, on first access.  A stream read by iterating is gone.
    """

    def __init__(self, experiment: str, records):
        self.experiment = experiment
        self._records = records

    @property
    def records(self) -> list:
        if self._records is None:
            raise RuntimeError(f"the {self.experiment} series was streamed")
        if not isinstance(self._records, list):
            self._records = list(self._records)
        return self._records

    def __iter__(self):
        if self._records is None or isinstance(self._records, list):
            return iter(self.records)
        stream, self._records = self._records, None
        return iter(stream)

    def values(self, estimator: str, n: int | None = None, ok_only: bool = True) -> list:
        out = []
        for pid, rn, est, value, status in self.records:
            if est != estimator:
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


def _run_paths(groups: int, threads: int, one_group):
    """The rows of one_group(g) for the path groups g = 0..groups-1, in
    group order: at one thread as each group makes them, at more from a
    thread pool, each group's rows whole once the group ends."""
    if threads <= 1:
        yield from chain.from_iterable(map(one_group, range(groups)))
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        for rows in pool.map(lambda g: list(one_group(g)), range(groups)):
            yield from rows


def _series(kind, group_rows, *, n_max, paths, threads):
    """The one driver of every multi-path experiment: a series that
    streams its rows (`EstimateSeries`).

    group_rows(pids) yields (pid, n, records, done): n is the last step
    a path of pids completed so far, records are its `EstimateSeries`
    records since the yield before, and done marks the path's last
    yield; a path that marks none is done when group_rows ends.  The
    rows of the first path of a group not yet done pass on as they
    come, those of later paths are held until it is done, and a done
    path whose last completed step is below n_max ends in one
    truncation row.  The paths run in one group of contiguous path ids
    per thread, merged in path order (`_run_paths`).  n_max and paths
    must be positive.
    """
    if n_max < 1 or paths < 1:
        raise ValueError(f"n_max and paths must be positive, got {n_max} and {paths}")
    groups = max(1, min(threads, paths))
    bounds = [paths * g // groups for g in range(groups + 1)]

    def one_group(g: int):
        pids = range(bounds[g], bounds[g + 1])
        held = {pid: [] for pid in pids}
        last = dict.fromkeys(pids, 0)
        ended = set()
        head = pids.start  # the path whose rows pass on as they come

        def close():
            # the truncation rows of the done paths from head on, and the
            # held rows of the path after each
            nonlocal head
            while head in ended:
                if last[head] < n_max:
                    # no ok row is named "truncated_at", so the key stays unique
                    yield head, last[head], "truncated_at", float(last[head]), "truncated"
                head += 1
                yield from held.pop(head, ())

        for pid, n, records, done in group_rows(pids):
            last[pid] = n
            if pid == head:
                yield from records
            else:
                held[pid] += records
            if done:
                ended.add(pid)
                yield from close()
        ended.update(pids)
        yield from close()

    return EstimateSeries(kind, _run_paths(groups, threads, one_group))


def _matrix_path(reader, pid, increments, bit_budget, start=None):
    """Yield the records of each chunk of one matrix path's
    `running_products` from `start`, as reader(records, pid, done,
    products, norms, bit_budget) appends them for the chunk, the steps
    past `done`; return the BitBudgetExceeded that cut the path, or
    None.  A reader that raises BitBudgetExceeded has appended those of
    the products before it."""
    done = 0
    try:
        for products, norms in running_products(increments, bit_budget, start):
            records = []
            try:
                reader(records, pid, done, products, norms, bit_budget)
            except BitBudgetExceeded as cut:
                yield records
                return cut
            done += len(products)
            yield records
    except BitBudgetExceeded as cut:
        return cut
    return None


def _guivarch_records(records, pid, done, products, norms, bit_budget):
    """The rho brackets of a chunk, from one `spectral_radii` batch, and its norms."""
    for n, br, norm in zip(count(done + 1), spectral_radii(products, bit_budget), norms):
        records += [(pid, n, "guivarch.rho_lower", br.lower / n, "ok"),
                    (pid, n, "guivarch.rho_upper", br.upper / n, "ok"),
                    (pid, n, "guivarch.norm", _log_int(norm) / n, "ok")]


def _furstenberg_records(records, pid, done, products, norms, bit_budget):
    """The norms only: a product here is a column block A_n ... A_1 v."""
    records += [(pid, n, "furstenberg.vector", _log_int(norm) / n, "ok")
                for n, norm in enumerate(norms, done + 1)]


def _column(vector) -> IntMatrix:
    """The column block of a nonzero integer seed vector."""
    try:
        v = [operator.index(x) for x in vector]
    except TypeError as e:
        raise ValueError(f"seed vector entries must be integers: {vector!r}") from e
    if not any(v):
        raise ValueError("seed vector must be nonzero")
    return IntMatrix._of_rows(tuple((x,) for x in v))


def _matrix_experiment(experiment, reader, measure, start=None, /, *, n_max, paths,
                       master_seed, bit_budget=DEFAULT_BIT_BUDGET, threads=1):
    """The records that reader appends along each path (`_matrix_path`),
    passed on chunk by chunk, the paths of a group one after the other;
    `start` is positional only, so that no kind takes it as a setting."""
    if not measure.is_matrix:
        raise ValueError("matrix experiments need a matrix measure")

    def group_rows(pids):
        for pid in pids:
            n = 0
            steps = _steps(measure, master_seed, pid, n_max)
            for records in _matrix_path(reader, pid, steps, bit_budget, start):
                n = records[-1][1] if records else n
                yield pid, n, records, False
            yield pid, n, [], True

    return _series(experiment, group_rows, n_max=n_max, paths=paths, threads=threads)


def guivarch_experiment(measure, **settings) -> EstimateSeries:
    """Records log rho(A_n ... A_1), bracketed, and log |A_n ... A_1|_inf over n."""
    return _matrix_experiment("matrix-guivarch", _guivarch_records, measure, **settings)


def furstenberg_experiment(measure, *, vector, **settings) -> EstimateSeries:
    """Records (1/n) log |A_n ... A_1 vector|_inf (Furstenberg-Kesten)."""
    return _matrix_experiment("matrix-furstenberg", _furstenberg_records, measure,
                              _column(vector), **settings)
