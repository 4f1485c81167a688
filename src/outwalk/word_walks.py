"""The experiment kinds on automorphisms, the word kinds.

Importing this module loads the word layer: `free_group`, `_wordkernel`,
`automorphisms`, `outer_metric` and `spectral`.  `walk_engine`, which
runs every kind's paths and holds the matrix kinds, imports none of them
at module level, so a matrix run loads none of them (`cli` imports this
module in set-up only for a kind on automorphisms).

The walk at time n is the right product Phi_n = s_1 ... s_n of i.i.d.
increments.  With the left action on the rose orbit, d(y0, Phi_n.y0) =
dist(Phi_n^{-1}).  Every word kind is a row source of the driver
`walk_engine._series` over `_inverse_orbit`, which tracks a state under
the inverse increments, Phi_n^{-1}(w) = s_n^{-1}(Phi_{n-1}^{-1}(w)),
with one step per increment; none forms Phi_n by composing forward.
Every state is a list of words as bytes, one byte per int8 letter, the
kernel's own currency.  Drift, conjugacy growth and brackets track the
N reduced generator images u_i = Phi_n^{-1}(x_i) (step
`MapStack.byte_images`): drift reads the distance off them at every
step (`outer_metric.image_dist`, which reads exact candidate lengths
only while their size bounds can still beat the best ratio), conjugacy
growth reads |Phi_n^{-1}(g)| of each seed class g at every step, the
cyclic length of the product of the u_l^{+-1} over the letters l of g,
without forming it (`_wordkernel.class_length`), and the brackets of a
scheduled step read their powers off them in one batch of all paths of
the step (`spectral.brackets`, whose power orbits step in lockstep).
Gromov products track drift's images followed by those of Phi_n (step
`MapStack.compose`), and a scheduled step reads dist of both maps and
their squares off their power orbits in one batch
(`spectral.power_orbits`).

A path is cut off at the first step at which one substitution of a
tracked word (for drift, conjugacy growth and brackets, a generator
image; for Gromov products, an image of Phi_n^{-1} or of Phi_n) needs
more letters than the letter budget.  So every word a record reads fits
the letter budget, and a record checks no budget on it: the budget
bounds only the substitutions of its power orbits, which stop before
the first one over it.  A bracket then reports the steps it completed,
downgraded, and a Gromov record is truncated when either of its orbits
stops before step 2; either marks only that record.

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
there.

The one-map kinds `distance` and `stretch` read one map and print their
one record (`_distance`, `_stretch`); `_conjugacy` reads a config's seed
words.  These three are runners of `cli.RUNNERS` only.
"""

from __future__ import annotations

import math
from itertools import count, repeat

from .free_group import cyclic_reduce, least_rotation, word_to_str
from ._wordkernel import class_length, inverse_bytes, lockstep_orbits
from .automorphisms import MapStack, invert
from .config import seed_words
from .outer_metric import dist, image_dist, sym_dist
from .spectral import bracket, brackets, power_orbits
from .defaults import WALK_K_MAX
from .walk_engine import EstimateSeries, ProbMeasure, _increments, _series, geometric_schedule

__all__ = [
    "drift_experiment",
    "conjugacy_growth_experiment",
    "spectral_experiment",
    "gromov_decay_experiment",
]


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
    only the images a seed reads.  The seeds must be nontrivial and each
    given cyclically reduced.  Two seeds of one conjugacy class (the
    same least rotation of their cyclic reductions, as
    `config.seed_words` keys a config's words) raise ValueError naming
    both: their records would repeat one estimator under two names, or
    repeat their keys.
    """
    seeds = list(seeds)
    classes = {}
    for i, g in enumerate(seeds):
        first = classes.setdefault(least_rotation(cyclic_reduce(g)), i)
        if first != i:
            raise ValueError(f"conjugacy seeds repeat a class: {word_to_str(seeds[first])!r} "
                             f"and {word_to_str(g)!r}")
    names = [f"conjugacy.{word_to_str(g)}" for g in seeds]
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


def _conjugacy(measure, *, words, **settings) -> EstimateSeries:
    """Conjugacy growth of a config's seed words (`config.seed_words`)."""
    return conjugacy_growth_experiment(measure, seed_words(words, measure.rank), **settings)


def _distance(measure) -> EstimateSeries:
    """The one record of a `distance` run, printed too."""
    theta = measure.support[0]
    d = dist(theta)
    s = sym_dist(theta)
    print(f"dist = {d:.6f}")
    print(f"sym = {s:.6f}")
    return EstimateSeries("distance", [(0, 0, "dist", d, "ok"),
                                       (0, 0, "sym_dist", s, "ok")])


def _stretch(measure, *, k_max, letter_budget) -> EstimateSeries:
    """The one record of a `stretch` run, printed too."""
    br = bracket(measure.support[0], k_max, budget=letter_budget)
    print(f"lower = {br.lower:.6f}")
    print(f"upper = {br.upper:.6f}")
    print(f"point = {br.point:.6f}")
    print(f"k_used = {br.k_used}")
    print(f"converged = {br.converged}")
    return EstimateSeries(
        "stretch",
        [
            (0, 0, "stretch.lower", br.lower, "ok"),
            (0, 0, "stretch.upper", br.upper, "ok"),
            (0, 0, "stretch.point", br.point, "ok"),
            (0, 0, "stretch.k_used", float(br.k_used), "ok"),
        ],
    )
