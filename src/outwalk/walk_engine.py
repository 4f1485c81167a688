"""Random walk sampling and the experiment suite.

The walk at time n is the right product Phi_n = s_1 ... s_n of i.i.d.
increments.  With the left action on the rose orbit, d(y0, Phi_n.y0) =
dist(Phi_n^{-1}).

Every multi-path kind is a row source: group_rows(path_ids) yields
(path_id, n, records) for a path's steps through n, each record built
once, by the code that computes its value.  Every word kind runs over
`_inverse_orbit`, which tracks a state under the inverse increments,
Phi_n^{-1}(w) = s_n^{-1}(Phi_{n-1}^{-1}(w)), with one step per
increment; none forms Phi_n by composing forward.  Every state is a
list of words as bytes, one byte per int8 letter, the kernel's own
currency.  Drift, conjugacy growth and brackets track the N reduced
generator images u_i = Phi_n^{-1}(x_i) (step `MapStack.byte_images`):
drift reads the distance off them at every step
(`outer_metric.image_dist`, which reads exact candidate lengths only
while their size bounds can still beat the best ratio), conjugacy
growth reads |Phi_n^{-1}(g)| of each seed class g at every step, the
cyclic length of the product of the u_l^{+-1} over the letters l of g,
without forming it (`_wordkernel.class_length`), and the brackets of a
scheduled step read their powers off them in one batch of all paths of
the step (`spectral.brackets`, whose power orbits step in lockstep).
Gromov products track drift's images followed by those of Phi_n (step
`MapStack.compose`), and a scheduled step reads dist of both maps and
their squares off their power orbits in one batch
(`spectral.power_orbits`).  The matrix kinds hand each chunk of
`running_products`, the one product loop, to a reader (`_matrix_path`).

The driver `_series` runs every multi-path kind, and it alone applies
the cut-off rule and the merge order.  A series holds per-path records
only: this module computes no summary, and `outwalk summarize`
(`cli.summarize`) is the one aggregator.  A path is cut off at the
first step at which one substitution of a tracked word (for drift,
conjugacy growth and brackets, a generator image; for Gromov products,
an image of Phi_n^{-1} or of Phi_n) needs more letters than the letter
budget, or a matrix entry more bits than the bit budget; it then ends
in a row with estimator "truncated_at", value the last completed step
and status "truncated", never silently dropped.  So every word a record
reads fits the letter budget, and a record checks no budget on it: the
budget bounds only the substitutions of its power orbits, which stop
before the first one over it.  A bracket then reports the steps it
completed, downgraded, and a Gromov record is truncated when either of
its orbits stops before step 2; either marks only that record.  Paths
are keyed by (master_seed, path_id), each with its own increment
stream, and run in one group of contiguous path ids per thread
(`_run_paths` runs the groups); results are merged in path order, so
the worker count never changes output bytes.

The word kinds step the paths of a group in lockstep (`_inverse_orbit`).
At step n every live path draws its increment, and one
`automorphisms.MapStack` step maps the tracked words of all of them,
each through its own s_n^{-1}: the kernel table stacks the inverse
support once per experiment, one slot range per map, and the words go
through the kernel in separated batches of at most `BATCH_CAP` input
letters, not in one call per path.  A path with a word whose raw image
passes the letter budget is cut and dropped before the batch is
substituted.  So the call overhead of a step is paid once per batch,
not once per path; a Gromov step is two such calls, the second through
a table that stacks the paths' own images of Phi_{n-1}
(`MapStack.compose`).  One `record` call then reads the new states of
all of them, so that a spectral or Gromov step runs their power orbits
in one batch (`spectral.power_orbits`).  The paths are scheduled by
`_wordkernel.lockstep_orbits`, as those power orbits are, and a
path whose input passes `BATCH_CAP` letters runs alone,
through its own map's table as a one-path run does, by the rule stated
there.  The matrix kinds run their paths of a group one after the
other.
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import count, islice, repeat

from .free_group import WordBudgetExceeded, word_to_str
from ._wordkernel import class_length, inverse_bytes, lockstep_orbits
from .automorphisms import Automorphism, MapStack, compose, identity_automorphism, invert
from .matrix_oracle import (BitBudgetExceeded, DEFAULT_BIT_BUDGET, IntMatrix, _log_int,
                            running_products, spectral_radii)
from .outer_metric import image_dist
from .spectral import brackets, power_orbits
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
    "guivarch_experiment",
    "furstenberg_experiment",
    "geometric_schedule",
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
        if not all(math.isfinite(w) for w in self.weights):
            raise ValueError("weights must be finite")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        if abs(sum(self.weights) - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights sum to {sum(self.weights)!r}, expected 1")
        atom = Automorphism if isinstance(self.support[0], Automorphism) else IntMatrix
        if not all(isinstance(a, atom) for a in self.support):
            raise ValueError("support must hold Automorphisms or IntMatrices")
        if atom is Automorphism:
            ranks = {a.rank for a in self.support}
            if len(ranks) != 1:
                raise ValueError("support mixes ranks")
        else:
            dims = {m.n for m in self.support}
            if len(dims) != 1:
                raise ValueError("support mixes dimensions")
            for m in self.support:
                if m.det() not in (-1, 1):
                    raise ValueError("matrix increments must have determinant +-1")

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
    """Per-path, per-time estimator records of one experiment.

    records hold (path_id, n, estimator, value, status), per-path records
    only (path_id >= 0); (path_id, n, estimator) is unique.  What bounded
    the run is its resolved config, which `cli.write_series` writes.
    """

    experiment: str
    records: list

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


def _run_paths(groups: int, threads: int, one_group) -> list:
    """Run one_group(g) for the path groups g = 0..groups-1 and merge
    their rows deterministically in group order."""
    if threads <= 1:
        chunks = [one_group(g) for g in range(groups)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(one_group, range(groups)))
    rows = []
    for chunk in chunks:
        rows.extend(chunk)
    return rows


def _series(kind, group_rows, *, n_max, paths, threads):
    """The one driver of every multi-path experiment.

    group_rows(pids) yields (pid, n, records): n is the last step a path
    of pids completed so far, and records are its `EstimateSeries`
    records since the yield before, stored as they come.  A path whose
    last completed step is below n_max ends in one truncation row.  The
    paths run in one group of contiguous path ids per thread, merged in
    path order (`_run_paths`).  n_max and paths must be positive.
    """
    if n_max < 1 or paths < 1:
        raise ValueError(f"n_max and paths must be positive, got {n_max} and {paths}")
    groups = max(1, min(threads, paths))
    bounds = [paths * g // groups for g in range(groups + 1)]

    def one_group(g: int) -> list:
        pids = range(bounds[g], bounds[g + 1])
        rows = {pid: [] for pid in pids}
        last = dict.fromkeys(pids, 0)
        for pid, n, records in group_rows(pids):
            rows[pid] += records
            last[pid] = n
        out = []
        for pid in pids:
            out.extend(rows[pid])
            if last[pid] < n_max:
                # no ok row is named "truncated_at", so the key stays unique
                out.append((pid, last[pid], "truncated_at", float(last[pid]), "truncated"))
        return out

    rows = _run_paths(groups, threads, one_group)
    return EstimateSeries(kind, rows)


def _input_letters(state) -> int:
    """Letters that a step feeds the kernel from one path's state, its
    words with a separator between two; a Gromov state's second half is
    a map of the table its step stacks (`MapStack.compose`), so that only
    one long table is held at a time."""
    return sum(map(len, state)) + len(state) - 1


def _inverse_orbit(measure, master_seed, words, step, record, *, n_max, budget):
    """Row source over the images of words under Phi_n^{-1}, all paths of
    a group in lockstep: step n maps the images of step n-1 of every live
    path through its own s_n^{-1} by step(stack, maps, states,
    budget=budget), with step a method of `MapStack` over the inverse
    support.  One record(n, pids, states) call reads the new states of
    the paths pids that the step did not cut, in order, and gives the
    records of each, yielded as (pid, n, records).  A state is a list of
    words as bytes; with `MapStack.compose` and the generators twice as
    words, the images of Phi_n^{-1}, then those of Phi_n.

    The paths step under `_wordkernel.lockstep_orbits`, each an item
    (pid, increments, state) whose size is `_input_letters(state)`.
    """
    if measure.is_matrix:
        raise ValueError("word experiments need an automorphism measure")
    stack = MapStack([invert(a) for a in measure.support])

    def advance(n, paths):
        maps = [next(steps) for _, steps, _ in paths]
        states = step(stack, maps, [state for _, _, state in paths], budget=budget)
        paths = [(pid, steps, state)
                 for (pid, steps, _), state in zip(paths, states) if state is not None]
        pids = [pid for pid, _, _ in paths]
        return paths, list(zip(pids, repeat(n), record(n, pids, [s for _, _, s in paths])))

    def group_rows(pids):
        paths = [(pid, _increments(measure, master_seed, pid), words) for pid in pids]
        return lockstep_orbits(paths, lambda path: _input_letters(path[2]), advance, 1, n_max)

    return group_rows


def _on_schedule(record, n_max):
    """The step record of `_inverse_orbit` that reads the states by
    record(n, pids, states) at the n of the geometric schedule, and gives
    no records off them at any other n."""
    schedule = set(geometric_schedule(n_max))

    def scheduled(n, pids, states):
        return record(n, pids, states) if n in schedule else [[]] * len(states)

    return scheduled


def drift_experiment(
    measure: ProbMeasure,
    *,
    n_max: int,
    paths: int,
    master_seed: int,
    letter_budget: int | None = None,
    threads: int = 1,
) -> EstimateSeries:
    """Records (1/n) dist(Phi_n^{-1}) per path per n (the drift estimator).

    The path tracks the N reduced generator images Phi_n^{-1}(x_i) as
    bytes, one batched substitution per step, and reads dist off them
    best-first
    (`outer_metric.image_dist`): the image sizes bound every candidate's
    ratio, and only candidates whose bound beats the best ratio so far
    get their exact length.  It is cut off at the first step at which
    substituting one of those images needs more letters than the letter
    budget.
    """
    gens = [bytes([i]) for i in range(1, measure.rank + 1)]

    def record(n, pids, states):
        return [[(pid, n, "drift", image_dist(s) / n, "ok")] for pid, s in zip(pids, states)]

    source = _inverse_orbit(measure, master_seed, gens, MapStack.byte_images, record,
                            n_max=n_max, budget=letter_budget)
    return _series("drift", source, n_max=n_max, paths=paths, threads=threads)


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
    """Records (1/n) log |Phi_n^{-1}(g)| for each seed conjugacy class g.

    The path tracks drift's state, the N reduced generator images
    u_i = Phi_n^{-1}(x_i) as bytes, and is cut off at drift's step.
    Phi_n^{-1}(g) is the product of the u_l^{+-1} over the letters l of
    g, and a record reads the cyclic length of that product off the
    images without forming it (`_wordkernel.class_length`), inverting
    only the images a seed reads.  The seeds must be distinct,
    nontrivial conjugacy classes, each given cyclically reduced
    (`config.seed_words` checks a config's words); a seed given twice
    raises ValueError, since its records would repeat their keys.
    """
    seeds = list(seeds)
    names = [f"conjugacy.{word_to_str(g)}" for g in seeds]
    if len(set(names)) < len(names):
        raise ValueError(f"conjugacy seeds repeat: {names}")
    letters = [g.letters.tolist() for g in seeds]
    read = {abs(x) - 1 for g in letters for x in g}
    gens = [bytes([i]) for i in range(1, measure.rank + 1)]

    def record(n, pids, states):
        records = []
        for pid, tracked in zip(pids, states):
            readings = [(w, inverse_bytes(w)) if i in read else None
                        for i, w in enumerate(tracked)]
            records.append([(pid, n, name, math.log(class_length(readings, g)) / n, "ok")
                            for name, g in zip(names, letters)])
        return records

    source = _inverse_orbit(measure, master_seed, gens, MapStack.byte_images, record,
                            n_max=n_max, budget=letter_budget)
    return _series("conjugacy", source, n_max=n_max, paths=paths, threads=threads)


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

    The path tracks the N reduced generator images Phi_n^{-1}(x_i) as
    bytes, as drift does, and is cut off at the same step; at a scheduled n the
    brackets of all paths of the step read those images in one batch
    (`spectral.brackets`, lower bounds included), each the same as the
    path's alone.  Orbit words under k-th powers blow up like lambda^k,
    so the bracket depth is downgraded per record whenever the letter
    budget cuts the orbit off.  The first orbit step is the tracked
    images themselves, so every record has one.
    """
    gens = [bytes([i]) for i in range(1, measure.rank + 1)]

    def records(pid, n, br):
        status = "ok" if br.k_used >= k_max else "downgraded"
        return [(pid, n, "spectral.lower", br.lower / n, status),
                (pid, n, "spectral.upper", br.upper / n, status),
                (pid, n, "spectral.point", br.point / n, status),
                (pid, n, "spectral.k_used", float(br.k_used), status)]

    def record(n, pids, states):
        return [records(pid, n, br)
                for pid, br in zip(pids, brackets(states, k_max, budget=letter_budget))]

    source = _inverse_orbit(measure, master_seed, gens, MapStack.byte_images,
                            _on_schedule(record, n_max),
                            n_max=n_max, budget=letter_budget)
    return _series("spectral", source, n_max=n_max, paths=paths, threads=threads)


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

    The path tracks the generator images of Phi_n^{-1}, as drift does,
    then those of Phi_n, as bytes, and is cut off at the first step at
    which one of them needs more letters than the letter budget.  A
    record is 0.5 * (a + a - c) / n, the float of the test oracle
    `gromov_product` (tests/conftest.py), with
    a = dist(Phi_n) + dist(Phi_n^{-1}) and c = dist(Phi_n^2) +
    dist(Phi_n^{-2}), read best-first (`image_dist`) off steps 1 and 2 of
    the power orbits of both halves of all states of a scheduled step,
    in one batch (`spectral.power_orbits`).  It is truncated where the
    oracle raises: when step 2 of either orbit passes the budget.
    """
    r = measure.rank
    gens = [bytes([i]) for i in range(1, r + 1)]

    def records(pid, n, orbits):
        if any(len(orbit) < 2 for orbit in orbits):
            return [(pid, n, "gromov", float("nan"), "truncated")]
        (fwd, fwd2), (bwd, bwd2) = orbits
        a = fwd + bwd
        return [(pid, n, "gromov", 0.5 * (a + a - (fwd2 + bwd2)) / n, "ok")]

    def record(n, pids, states):
        halves = [half for state in states for half in (state[r:], state[:r])]
        orbits = power_orbits(halves, 2, letter_budget, image_dist)
        return [records(pid, n, orbits[p:p + 2]) for p, pid in zip(count(0, 2), pids)]

    source = _inverse_orbit(measure, master_seed, gens * 2, MapStack.compose,
                            _on_schedule(record, n_max),
                            n_max=n_max, budget=letter_budget)
    return _series("gromov", source, n_max=n_max, paths=paths, threads=threads)


def _matrix_path(reader, pid, increments, bit_budget, start=None):
    """The records of one matrix path, and the BitBudgetExceeded that cut
    it or None.  reader(records, pid, done, products, norms, bit_budget)
    appends those of each chunk of the path's `running_products` from
    `start`, the steps past `done`; one that raises BitBudgetExceeded
    has appended those of the products before it."""
    records, done = [], 0
    try:
        for products, norms in running_products(increments, bit_budget, start):
            reader(records, pid, done, products, norms, bit_budget)
            done += len(products)
    except BitBudgetExceeded as cut:
        return records, cut
    return records, None


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


def _matrix_experiment(experiment, reader, measure, *, n_max, paths, master_seed,
                       bit_budget=DEFAULT_BIT_BUDGET, threads=1, start=None):
    """The records that reader appends along each path (`_matrix_path`)."""
    if not measure.is_matrix:
        raise ValueError("matrix experiments need a matrix measure")

    def group_rows(pids):
        for pid in pids:
            steps = _steps(measure, master_seed, pid, n_max)
            records, _ = _matrix_path(reader, pid, steps, bit_budget, start)
            yield pid, records[-1][1] if records else 0, records

    return _series(experiment, group_rows, n_max=n_max, paths=paths, threads=threads)


def guivarch_experiment(measure, **settings) -> EstimateSeries:
    """Records log rho(A_n ... A_1), bracketed, and log |A_n ... A_1|_inf over n."""
    return _matrix_experiment("matrix-guivarch", _guivarch_records, measure, **settings)


def furstenberg_experiment(measure, *, vector, **settings) -> EstimateSeries:
    """Records (1/n) log |A_n ... A_1 vector|_inf (Furstenberg-Kesten)."""
    return _matrix_experiment("matrix-furstenberg", _furstenberg_records, measure,
                              start=_column(vector), **settings)
