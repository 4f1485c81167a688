"""The experiment kinds on automorphisms, the word kinds.

Importing this module loads the word layer: `free_group`, `_wordkernel`,
`automorphisms`, `outer_metric` and `spectral`.  `walk_engine`, which
runs every kind's paths and holds the matrix kinds, imports none of them
at module level, so a matrix run loads none of them (`cli` imports this
module in set-up only for a kind on automorphisms).

The walk at time n is the right product Phi_n = s_1 ... s_n of i.i.d.
increments.  With the left action on the rose orbit, d(y0, Phi_n.y0) =
dist(Phi_n^{-1}).  Every word kind is one record reader over one entry,
`_word_series`, as the matrix kinds are readers over
`walk_engine._matrix_experiment`.  The entry tracks a state under the
inverse increments, Phi_n^{-1}(w) = s_n^{-1}(Phi_{n-1}^{-1}(w)), with
one step per increment, and hands the states to the kind's reader at
every step or, for a scheduled kind, at the n of the geometric
schedule only; no kind forms Phi_n by composing forward.  Every state
is a list of words as bytes, one byte per int8 letter, the kernel's own
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
`MapStack.compose`, on the generators twice), and a scheduled step
reads dist of both maps and their squares off their power orbits in
one batch (`spectral.power_orbits`).

A path is cut off at the first step at which one substitution of a
tracked word (for drift, conjugacy growth and brackets, a generator
image; for Gromov products, an image of Phi_n^{-1} or of Phi_n) needs
more letters than the letter budget.  So every word a record reads fits
the letter budget, and a record checks no budget on it: the budget
bounds only the substitutions of its power orbits, which stop before
the first one over it.  A bracket then reports the steps it completed,
downgraded, and a Gromov record is truncated when either of its orbits
stops before step 2; either marks only that record.

`_word_series` steps the paths of a group in lockstep.
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
(`MapStack.compose`).  One reader call then reads the new states of
all of them, so that a spectral or Gromov step runs their power orbits
in one batch (`spectral.power_orbits`).  The paths are scheduled by
`_wordkernel.lockstep_orbits`, as those power orbits are, and a
path whose input passes `BATCH_CAP` letters runs alone,
through its own map's table as a one-path run does, by the rule stated
there.  A path's rows mark no end: the paths of a group end together,
so the driver holds the rows of every path of the group but the first
until the group ends (`walk_engine._series`).

The one-map kinds `distance` and `stretch` read one map and print their
one record (`_distance`, `_stretch`); `_conjugacy` reads a config's seed
words.  These three are runners of `cli.RUNNERS` only.
"""

from __future__ import annotations

import math
from itertools import count, repeat

from .free_group import SeedClash, seed_classes, word_to_str
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


def _word_series(experiment, reader, measure, scheduled=False, step=None, copies=1, /, *,
                 n_max, paths, master_seed, letter_budget=None, threads=1):
    """The records that reader(n, pids, states) gives off the states of
    the paths pids at step n, one list per path, along the images of
    the generators under Phi_n^{-1}, all paths of a group in lockstep.
    What sets one kind's walk apart is positional only, so that no kind
    takes it as a setting.

    A state is a list of words as bytes, first `copies` times the
    generators.  Step n maps the states of step n-1 of every live path
    through its own s_n^{-1} by step(stack, maps, states, budget=...),
    a method of `MapStack` over the inverse support (`byte_images`
    unless given; with `MapStack.compose` and the generators twice, the
    images of Phi_n^{-1}, then those of Phi_n).  One reader call reads
    the new states of the paths that the step did not cut, in order; a
    scheduled reader reads them only at the n of the geometric schedule.
    The paths step under `_wordkernel.lockstep_orbits`, each an item
    (pid, increments, state) whose size is `_input_letters(state)`.
    """
    if measure.is_matrix:
        raise ValueError("word experiments need an automorphism measure")
    stack = MapStack([invert(a) for a in measure.support])
    step = step or MapStack.byte_images
    start = [bytes([i]) for i in range(1, measure.rank + 1)] * copies
    reads = set(geometric_schedule(n_max)) if scheduled else None

    def advance(n, paths):
        maps = [next(steps) for _, steps, _ in paths]
        states = step(stack, maps, [state for _, _, state in paths], budget=letter_budget)
        paths = [(pid, steps, state)
                 for (pid, steps, _), state in zip(paths, states) if state is not None]
        pids = [pid for pid, _, _ in paths]
        records = (reader(n, pids, [s for _, _, s in paths]) if reads is None or n in reads
                   else [[]] * len(pids))
        return paths, list(zip(pids, repeat(n), records, repeat(False)))

    def group_rows(pids):
        paths = [(pid, _increments(measure, master_seed, pid), start) for pid in pids]
        return lockstep_orbits(paths, lambda path: _input_letters(path[2]), advance, 1, n_max)

    return _series(experiment, group_rows, n_max=n_max, paths=paths, threads=threads)


def drift_experiment(measure: ProbMeasure, **settings) -> EstimateSeries:
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
    def reader(n, pids, states):
        return [[(pid, n, "drift", image_dist(s) / n, "ok")] for pid, s in zip(pids, states)]

    return _word_series("drift", reader, measure, **settings)


def conjugacy_growth_experiment(measure: ProbMeasure, seeds, **settings) -> EstimateSeries:
    """Records (1/n) log |Phi_n^{-1}(g)| for each seed conjugacy class g.

    The path tracks drift's state, the N reduced generator images
    u_i = Phi_n^{-1}(x_i) as bytes, and is cut off at drift's step.
    Phi_n^{-1}(g) is the product of the u_l^{+-1} over the letters l of
    g, and a record reads the cyclic length of that product off the
    images without forming it (`_wordkernel.class_length`), inverting
    only the images a seed reads.  The seeds must be nontrivial
    (ValueError otherwise) and each given cyclically reduced.  Two seeds
    of one conjugacy class (`free_group.seed_classes`, the rule by which
    `config.seed_words` keys a config's words) raise ValueError naming
    both: their records would repeat one estimator under two names, or
    repeat their keys.
    """
    seeds = list(seeds)
    try:
        seed_classes(seeds)
    except SeedClash as e:
        if e.first is None:
            raise ValueError("conjugacy seeds must be nontrivial") from None
        raise ValueError(f"conjugacy seeds repeat a class: {word_to_str(seeds[e.first])!r} "
                         f"and {word_to_str(seeds[e.index])!r}") from None
    names = [f"conjugacy.{word_to_str(g)}" for g in seeds]
    letters = [g.letters.tolist() for g in seeds]
    read = {abs(x) - 1 for g in letters for x in g}

    def reader(n, pids, states):
        records = []
        for pid, tracked in zip(pids, states):
            readings = [(w, inverse_bytes(w)) if i in read else None
                        for i, w in enumerate(tracked)]
            records.append([(pid, n, name, math.log(class_length(readings, g)) / n, "ok")
                            for name, g in zip(names, letters)])
        return records

    return _word_series("conjugacy", reader, measure, **settings)


def spectral_experiment(measure: ProbMeasure, *, k_max: int = WALK_K_MAX,
                        letter_budget: int | None = None, **settings) -> EstimateSeries:
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
    def records(pid, n, br):
        status = "ok" if br.k_used >= k_max else "downgraded"
        return [(pid, n, "spectral.lower", br.lower / n, status),
                (pid, n, "spectral.upper", br.upper / n, status),
                (pid, n, "spectral.point", br.point / n, status),
                (pid, n, "spectral.k_used", float(br.k_used), status)]

    def reader(n, pids, states):
        return [records(pid, n, br)
                for pid, br in zip(pids, brackets(states, k_max, budget=letter_budget))]

    return _word_series("spectral", reader, measure, True, letter_budget=letter_budget,
                        **settings)


def gromov_decay_experiment(measure: ProbMeasure, *, letter_budget: int | None = None,
                            **settings) -> EstimateSeries:
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

    def records(pid, n, orbits):
        if any(len(orbit) < 2 for orbit in orbits):
            return [(pid, n, "gromov", float("nan"), "truncated")]
        (fwd, fwd2), (bwd, bwd2) = orbits
        a = fwd + bwd
        return [(pid, n, "gromov", 0.5 * (a + a - (fwd2 + bwd2)) / n, "ok")]

    def reader(n, pids, states):
        halves = [half for state in states for half in (state[r:], state[:r])]
        orbits = power_orbits(halves, 2, letter_budget, image_dist)
        return [records(pid, n, orbits[p:p + 2]) for p, pid in zip(count(0, 2), pids)]

    return _word_series("gromov", reader, measure, True, MapStack.compose, 2,
                        letter_budget=letter_budget, **settings)


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
