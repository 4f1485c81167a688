"""Walk sampling, experiments, determinism, budget handling."""

import math
import statistics
import tracemalloc
from functools import partial
from itertools import combinations, islice

import numpy as np
import pytest

from outwalk import _wordkernel, automorphisms, cli, spectral, walk_engine, word_walks
from outwalk._wordkernel import BATCH_CAP, ImageTable
from outwalk.cli import SUMMARY_HEADER, batch_means_ci
from outwalk.config import ExperimentConfig
from outwalk.free_group import (CyclicWord, Word, WordBudgetExceeded, as_bytes, cyclic_reduce,
                                 parse_word, word_to_str)
from outwalk.automorphisms import (
    MapStack,
    abelianization,
    apply,
    compose,
    cyclic_images,
    identity_automorphism,
    images,
    invert,
    parse_automorphism,
)
from outwalk.matrix_oracle import IntMatrix
from outwalk.outer_metric import candidates, dist, image_dist, sym_dist
from outwalk.rng import DRAW_BLOCK, categorical, path_generator
from outwalk.spectral import CONVERGE_TOL, bracket, brackets, stretch_lower
from outwalk.walk_engine import (
    EstimateSeries,
    ProbMeasure,
    WalkPath,
    furstenberg_experiment,
    geometric_schedule,
    guivarch_experiment,
    sample_path,
)
from outwalk.word_walks import (
    conjugacy_growth_experiment,
    drift_experiment,
    gromov_decay_experiment,
    spectral_experiment,
)

from conftest import gromov_product

FIB = parse_automorphism("a->ab; b->a | a->b; b->Ba")
FIB_INV = invert(FIB)
LOG_GOLDEN = math.log((1 + math.sqrt(5)) / 2)

ROT = parse_automorphism("a->b; b->c; c->a | a->c; b->a; c->b")
TWIST3 = parse_automorphism("a->ab; b->b; c->c | a->aB; b->b; c->c")
F3_MEASURE = ProbMeasure((ROT, TWIST3), (0.5, 0.5))

MAT_MEASURE = ProbMeasure(
    (IntMatrix([[1, 1], [0, 1]]), IntMatrix([[1, 0], [1, 1]])), (0.5, 0.5)
)


def test_measure_validation():
    with pytest.raises(ValueError):
        ProbMeasure((), ())
    with pytest.raises(ValueError):
        ProbMeasure((FIB,), (0.9,))
    with pytest.raises(ValueError):
        ProbMeasure((FIB, ROT), (0.5, 0.5))  # rank mismatch
    with pytest.raises(ValueError):
        ProbMeasure((IntMatrix([[2, 0], [0, 1]]),), (1.0,))  # det 2
    # a support that mixes automorphisms and matrices, in either order
    unit = IntMatrix([[1, 1], [0, 1]])
    for support in ((FIB, unit), (unit, FIB)):
        with pytest.raises(ValueError, match="^support must hold Automorphisms or IntMatrices$"):
            ProbMeasure(support, (0.5, 0.5))


def test_point_mass_walk_is_power():
    measure = ProbMeasure((FIB,), (1.0,))
    steps = list(sample_path(measure, 1, 0, 5))
    phi_k = identity_automorphism(2)
    for n, prod, inv_prod in steps:
        phi_k = compose(phi_k, FIB)
        assert prod == phi_k
        assert inv_prod == invert(phi_k)


def test_same_seed_same_increments():
    a = WalkPath(F3_MEASURE, 11, 4)
    b = WalkPath(F3_MEASURE, 11, 4)
    for _ in range(30):
        a.advance()
        b.advance()
    assert a.increments == b.increments
    assert a.product == b.product


def test_a_path_reads_one_categorical_draw_per_step():
    # a path's increments read its uniforms a block at a time; across the
    # block edges they are those of one `rng.categorical` call per step
    measure = ProbMeasure((ROT, TWIST3, invert(TWIST3)), (0.2, 0.3, 0.5))
    gen, cum = path_generator(2015, 6), measure.cum_weights()
    want = [categorical(gen, cum) for _ in range(1000)]
    assert 1000 > 2 * DRAW_BLOCK and 1000 % DRAW_BLOCK
    assert list(islice(walk_engine._increments(measure, 2015, 6), 1000)) == want


def test_incremental_inverse_matches_invert():
    path = WalkPath(F3_MEASURE, 3, 0)
    for _ in range(12):
        path.advance()
        assert path.inverse_product == invert(path.product)
        assert compose(path.product, path.inverse_product) == identity_automorphism(3)


def test_budget_truncates_path():
    measure = ProbMeasure((FIB,), (1.0,))
    path = WalkPath(measure, 0, 0, letter_budget=50)
    n = 0
    while path.advance():
        n += 1
        assert n < 50
    assert path.truncated
    assert not path.advance()


def test_geometric_schedule():
    assert geometric_schedule(1) == [1]
    assert geometric_schedule(10) == [1, 2, 4, 8, 10]
    assert geometric_schedule(32) == [1, 2, 4, 8, 16, 32]


def test_batch_means_ci():
    assert batch_means_ci([1.0]) is None
    assert batch_means_ci([2.0] * 100) == pytest.approx(0.0)
    wide = [0.0, 1.0] * 50
    assert batch_means_ci(wide) is not None


def test_drift_identity_measure():
    ident = identity_automorphism(2)
    series = drift_experiment(
        ProbMeasure((ident,), (1.0,)), n_max=6, paths=2, master_seed=0
    )
    assert all(v == 0.0 for v in series.values("drift"))


def test_drift_fibonacci_point_mass():
    # point mass on the inverse: the estimator then reads dist(phi^n)
    measure = ProbMeasure((FIB_INV,), (1.0,))
    series = drift_experiment(measure, n_max=30, paths=1, master_seed=0)
    last = series.values("drift", 30)
    assert last and last[0] == pytest.approx(LOG_GOLDEN, abs=1e-2)
    # dist(phi^n) = log F(n+2): frozen Fibonacci oracle
    fib = [1, 1]
    while len(fib) < 40:
        fib.append(fib[-1] + fib[-2])
    for n in (5, 12, 30):
        got = series.values("drift", n)[0]
        assert got == pytest.approx(math.log(fib[n + 1]) / n, abs=1e-12)


def test_drift_subadditivity_along_paths():
    path = WalkPath(F3_MEASURE, 21, 2)
    dists = {0: 0.0}
    for _ in range(16):
        path.advance()
        dists[path.n] = dist(path.inverse_product)
    prefix = {}
    path2 = WalkPath(F3_MEASURE, 21, 2)
    snapshots = {0: path2.inverse_product}
    for _ in range(16):
        path2.advance()
        snapshots[path2.n] = path2.inverse_product
    for n in (2, 4, 8):
        # dist(Phi_{2n}^-1) <= dist(Phi_n^-1) + dist((Phi_n^-1 Phi_2n)^-1)
        mid, end = snapshots[n], snapshots[2 * n]
        rel = compose(end, invert(mid))
        assert dists[2 * n] <= dists[n] + dist(rel) + 1e-9


def summarized(tmp_path, series) -> dict:
    """`outwalk summarize` of the series as `outwalk run` writes it:
    {(n, estimator): (mean, effective_paths, truncated, downgraded)}, the
    mean None where no value counts."""
    series_csv, summary_csv = tmp_path / "series.csv", tmp_path / "summary.csv"
    cli.write_series(series, ExperimentConfig(kind=series.experiment), str(series_csv))
    assert cli.main(["summarize", "--in", str(series_csv), "--out", str(summary_csv)]) == 0
    lines = summary_csv.read_text().splitlines()
    assert lines[0] == SUMMARY_HEADER
    out = {}
    for line in lines[1:]:
        experiment, n, est, mean, _, _, _, *counts = line.split(",")
        assert experiment == series.experiment
        out[(int(n), est)] = (float(mean) if mean else None, *map(int, counts))
    return out


def test_drift_summary_rows(tmp_path):
    # the body holds no summary; summarize covers every n, each path once
    series = drift_experiment(F3_MEASURE, n_max=8, paths=5, master_seed=1)
    assert {r[0] for r in series.records} == set(range(5))
    summary = summarized(tmp_path, series)
    assert sorted(summary) == [(n, "drift") for n in range(1, 9)]
    for n in range(1, 9):
        values = series.values("drift", n)
        assert summary[(n, "drift")] == (sum(values) / len(values), 5, 0, 0)


def test_conjugacy_fibonacci_point_mass():
    measure = ProbMeasure((FIB_INV,), (1.0,))
    g = cyclic_reduce(parse_word("a", 2))
    series = conjugacy_growth_experiment(measure, [g], n_max=30, paths=1, master_seed=0)
    fib = [1, 1]
    while len(fib) < 40:
        fib.append(fib[-1] + fib[-2])
    for n in (3, 10, 30):
        got = series.values("conjugacy.a", n)[0]
        assert got == pytest.approx(math.log(fib[n + 1]) / n, abs=1e-12)
    assert series.values("conjugacy.a", 30)[0] == pytest.approx(LOG_GOLDEN, abs=1e-2)


def test_conjugacy_identity_measure():
    ident = identity_automorphism(2)
    g = cyclic_reduce(parse_word("ab", 2))
    series = conjugacy_growth_experiment(
        ProbMeasure((ident,), (1.0,)), [g], n_max=5, paths=1, master_seed=0
    )
    assert all(v == pytest.approx(math.log(2) / n) for n in (1, 2, 5)
               for v in series.values("conjugacy.ab", n))


def test_conjugacy_dominated_by_drift_plus_seed_length():
    g = cyclic_reduce(parse_word("ab", 3))
    c = conjugacy_growth_experiment(F3_MEASURE, [g], n_max=12, paths=4, master_seed=9)
    d = drift_experiment(F3_MEASURE, n_max=12, paths=4, master_seed=9)
    for n in (1, 3, 6, 12):
        for pid in range(4):
            cv = [r for r in c.records if r[:3] == (pid, n, "conjugacy.ab")]
            dv = [r for r in d.records if r[:3] == (pid, n, "drift")]
            assert cv and dv
            # log|g^{Phi}| <= dist + log|g|, n-normalized
            assert cv[0][3] <= dv[0][3] + math.log(2) / n + 1e-9


def test_spectral_experiment_point_mass():
    # lambda(phi^n) = lambda(phi)^n: normalized brackets pinch the same value
    measure = ProbMeasure((FIB_INV,), (1.0,))
    series = spectral_experiment(measure, n_max=8, paths=1, master_seed=0, k_max=3)
    for n in (1, 2, 4, 8):
        lo = series.values("spectral.lower", n, ok_only=False)[0]
        hi = series.values("spectral.upper", n, ok_only=False)[0]
        assert lo == pytest.approx(LOG_GOLDEN, abs=1e-9)
        assert lo <= hi + 1e-9
        assert hi <= math.log(2) + 1e-9  # dist(phi^n)/n <= log 2 here


def test_spectral_bracket_sandwich_random_measure():
    series = spectral_experiment(F3_MEASURE, n_max=10, paths=6, master_seed=5, k_max=2)
    seen = set()
    for pid, n, est, value, status in series.records:
        if pid >= 0 and est == "spectral.lower":
            hi = [r for r in series.records if r[:3] == (pid, n, "spectral.upper")]
            assert value <= hi[0][3] + 1e-9
            seen.add((pid, n))
    assert seen


def test_spectral_downgrade_on_budget():
    measure = ProbMeasure((FIB_INV,), (1.0,))
    series = spectral_experiment(
        measure, n_max=16, paths=1, master_seed=0, k_max=4, letter_budget=4000
    )
    statuses = {r[4] for r in series.records if r[0] >= 0 and r[2] == "spectral.k_used"}
    assert "downgraded" in statuses


def test_gromov_identity_and_point_mass():
    ident = identity_automorphism(2)
    series = gromov_decay_experiment(
        ProbMeasure((ident,), (1.0,)), n_max=4, paths=1, master_seed=0
    )
    assert all(v == 0.0 for v in series.values("gromov"))
    # deterministic nonidentity walk: products stay comparable to drift
    measure = ProbMeasure((TWIST3,), (1.0,))
    g = gromov_decay_experiment(measure, n_max=8, paths=1, master_seed=0)
    d = drift_experiment(measure, n_max=8, paths=1, master_seed=0)
    g8 = g.values("gromov", 8)[0]
    d8 = d.values("drift", 8)[0]
    assert g8 / d8 > 0.5  # no decay without nonelementarity


def test_matrix_guivarch_identity():
    measure = ProbMeasure((IntMatrix.identity(2),), (1.0,))
    series = guivarch_experiment(measure, n_max=5, paths=2, master_seed=0)
    assert all(v == 0.0 for v in series.values("guivarch.norm"))


def test_matrix_guivarch_hyperbolic_point_mass():
    a = IntMatrix([[2, 1], [1, 1]])
    measure = ProbMeasure((a,), (1.0,))
    series = guivarch_experiment(measure, n_max=40, paths=1, master_seed=0)
    limit = math.log((3 + math.sqrt(5)) / 2)
    for n in (1, 10, 40):
        assert series.values("guivarch.rho_lower", n)[0] == pytest.approx(limit, rel=1e-9)
    assert series.values("guivarch.norm", 40)[0] == pytest.approx(limit, abs=2e-2)


def test_matrix_furstenberg_series():
    series = furstenberg_experiment(MAT_MEASURE, vector=(1, 0), n_max=50, paths=3,
                                    master_seed=4)
    assert len(series.values("furstenberg.vector", 50)) == 3


def test_a_matrix_run_holds_one_chunk_of_records():
    # a series streams, and a matrix path passes on each chunk's records
    # as its reader makes them: 4096 steps peak above 1024 only by their
    # longer entries, about 0.3 MB, where holding the records of the 3072
    # steps more would add about 1.2 MB
    fib = ProbMeasure((IntMatrix([[0, 1], [1, 1]]), IntMatrix([[0, 1], [-1, 1]])), (0.5, 0.5))

    def peak(n_max):
        tracemalloc.start()
        try:
            rows = sum(1 for _ in guivarch_experiment(fib, n_max=n_max, paths=1, master_seed=11))
            return rows, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(600)  # the first run loads what every run shares
    (short_rows, short), (long_rows, long) = peak(1024), peak(4096)
    assert (short_rows, long_rows) == (3 * 1024, 3 * 4096)
    assert long - short < 2**19


def test_matrix_vs_abelianization_bridge():
    # row i of abelianization(phi) is the homology of phi(x_i), so
    # abelianization(phi psi) = abelianization(psi) @ abelianization(phi):
    # abelianized inverse increments, multiplied on the right, reproduce
    # abelianization(Phi_n^{-1}) exactly
    path = WalkPath(F3_MEASURE, 17, 0)
    prod = IntMatrix.identity(3)
    for _ in range(10):
        path.advance()
        s_inv = invert(F3_MEASURE.support[path.increments[-1]])
        prod = prod @ abelianization(s_inv)
        assert prod == abelianization(path.inverse_product)


AB = cyclic_reduce(parse_word("ab", 3))
BA = cyclic_reduce(parse_word("ba", 3))

# case: (runner, measure, settings over paths=2, master_seed=0, the message
# of its ValueError)
API_REFUSALS = {
    "drift-on-matrices": (drift_experiment, "sl3", dict(n_max=4), "automorphism measure"),
    "conjugacy-on-matrices": (conjugacy_growth_experiment, "sl3", dict(seeds=[AB], n_max=4),
                              "automorphism measure"),
    "spectral-on-matrices": (spectral_experiment, "sl3", dict(n_max=4), "automorphism measure"),
    "gromov-on-matrices": (gromov_decay_experiment, "sl3", dict(n_max=4), "automorphism measure"),
    "a-seed-twice": (conjugacy_growth_experiment, "niel", dict(seeds=[AB, AB], n_max=4),
                     "seeds repeat"),
    "a-class-twice": (conjugacy_growth_experiment, "niel", dict(seeds=[AB, BA], n_max=4),
                      "seeds repeat a class: 'ab' and 'ba'"),
    "a-trivial-seed": (conjugacy_growth_experiment, "niel",
                       dict(seeds=[AB, cyclic_reduce(parse_word("1", 3))], n_max=3),
                       "^conjugacy seeds must be nontrivial$"),
    "drift-n_max-0": (drift_experiment, "niel", dict(n_max=0), "must be positive"),
    "guivarch-n_max-0": (guivarch_experiment, "sl3", dict(n_max=0), "must be positive"),
    "drift-paths-0": (drift_experiment, "niel", dict(n_max=4, paths=0), "must be positive"),
    "furstenberg-paths-0": (furstenberg_experiment, "sl3",
                            dict(vector=(1, 0, 0), n_max=4, paths=0), "must be positive"),
}


@pytest.mark.parametrize("case", sorted(API_REFUSALS))
def test_the_python_api_refuses_what_the_cli_refuses(case, niel, sl3):
    # a config cannot name these runs; called directly they raised
    # AttributeError or IndexError, wrote a key twice, wrote one class
    # under two names, or gave an empty series
    runner, measure, settings, message = API_REFUSALS[case]
    with pytest.raises(ValueError, match=message):
        runner({"niel": niel, "sl3": sl3}[measure], **{"paths": 2, "master_seed": 0, **settings})


# case: (runner, measure, settings over n_max=4, paths=2, master_seed=0):
# each names a setting of the other family of kinds, or what sets one
# kind's walk apart
UNREAD_SETTINGS = {
    "drift-bit_budget": (drift_experiment, "niel", dict(bit_budget=64)),
    "drift-k_max": (drift_experiment, "niel", dict(k_max=2)),
    "conjugacy-bit_budget": (partial(conjugacy_growth_experiment, seeds=[AB]), "niel",
                             dict(bit_budget=64)),
    "spectral-bit_budget": (spectral_experiment, "niel", dict(bit_budget=64)),
    "gromov-bit_budget": (gromov_decay_experiment, "niel", dict(bit_budget=64)),
    "guivarch-letter_budget": (guivarch_experiment, "sl3", dict(letter_budget=200)),
    "furstenberg-letter_budget": (partial(furstenberg_experiment, vector=(1, 0, 0)), "sl3",
                                  dict(letter_budget=200)),
    "drift-scheduled": (drift_experiment, "niel", dict(scheduled=True)),
    "spectral-step": (spectral_experiment, "niel", dict(step=MapStack.compose)),
    "gromov-copies": (gromov_decay_experiment, "niel", dict(copies=1)),
    "guivarch-start": (guivarch_experiment, "sl3", dict(start=walk_engine._column((1, 0, 0)))),
}


@pytest.mark.parametrize("case", sorted(UNREAD_SETTINGS))
def test_an_experiment_refuses_a_setting_it_does_not_read(case, niel, sl3):
    # the word kinds pass their settings on to one entry, the matrix
    # kinds to another: a setting that neither reads is refused, not
    # dropped
    runner, measure, settings = UNREAD_SETTINGS[case]
    with pytest.raises(TypeError, match=f"'{next(iter(settings))}'"):
        runner({"niel": niel, "sl3": sl3}[measure], n_max=4, paths=2, master_seed=0, **settings)


def test_threads_do_not_change_records():
    one = drift_experiment(F3_MEASURE, n_max=10, paths=8, master_seed=2, threads=1)
    many = drift_experiment(F3_MEASURE, n_max=10, paths=8, master_seed=2, threads=8)
    assert one.records == many.records


def test_estimate_series_unique_keys():
    series = spectral_experiment(F3_MEASURE, n_max=6, paths=3, master_seed=8, k_max=2)
    keys = [(r[0], r[1], r[2]) for r in series.records]
    assert len(keys) == len(set(keys))


# kind: (runner, measure, settings) of a series whose budget cuts some
# of its paths; the measure is "niel" or "sl3"
BUDGET_HITS = {
    "drift": (drift_experiment, "niel",
              dict(n_max=40, paths=4, master_seed=5, letter_budget=2000)),
    "conjugacy": (partial(conjugacy_growth_experiment, seeds=[cyclic_reduce(parse_word("ab", 3))]),
                  "niel", dict(n_max=40, paths=4, master_seed=5, letter_budget=200)),
    "spectral": (spectral_experiment, "niel",
                 dict(n_max=16, paths=4, master_seed=1, k_max=2, letter_budget=10)),
    "gromov": (gromov_decay_experiment, "niel",
               dict(n_max=16, paths=4, master_seed=1, letter_budget=10)),
    "matrix-guivarch": (guivarch_experiment, "sl3",
                        dict(n_max=100, paths=4, master_seed=5, bit_budget=16)),
    "matrix-furstenberg": (furstenberg_experiment, "sl3",
                           dict(vector=(1, 0, 0), n_max=100, paths=4, master_seed=5,
                                bit_budget=16)),
}


def budget_hit(kind, niel, sl3, threads=1):
    """The BUDGET_HITS series of the kind, and its settings."""
    runner, measure, settings = BUDGET_HITS[kind]
    measure = {"niel": niel, "sl3": sl3}[measure]
    return runner(measure, **settings, threads=threads), settings


@pytest.mark.parametrize("kind", sorted(BUDGET_HITS))
def test_truncated_paths_keep_keys_unique(kind, niel, sl3):
    series, _ = budget_hit(kind, niel, sl3)
    cut = [r for r in series.records if r[2] == "truncated_at"]
    assert cut and all(r[3] == r[1] and r[4] == "truncated" for r in cut)
    keys = [(r[0], r[1], r[2]) for r in series.records]
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize("kind", sorted(BUDGET_HITS))
def test_a_cut_path_ends_in_its_truncation_row(kind, niel, sl3):
    # `_series` drives every multi-path kind: a path's rows run in step
    # order and end in one truncation row at its last completed step, or
    # at n_max; the paths follow in path order, and nothing else (a
    # gromov record over the budget is a truncated row of its own)
    series, settings = budget_hit(kind, niel, sl3)
    n_max, paths = settings["n_max"], settings["paths"]
    pids = [r[0] for r in series.records]
    assert pids == sorted(pids)
    assert set(pids) == set(range(paths))
    cut = 0
    for pid in range(paths):
        rows = [r[1:] for r in series.records if r[0] == pid]
        steps = [n for n, *_ in rows]
        assert steps == sorted(steps)
        last_n, est, value, status = rows[-1]
        assert all(r[1] != "truncated_at" for r in rows[:-1])
        if est == "truncated_at":
            cut += 1
            assert (value, status) == (float(last_n), "truncated") and last_n < n_max
        else:
            assert last_n == n_max
    assert 0 < cut


@pytest.mark.parametrize("kind", sorted(BUDGET_HITS))
def test_summarize_aggregates_the_ok_finite_values(tmp_path, kind, niel, sl3):
    # summarize is the one aggregator: its mean and effective_paths are the
    # mean and count of the ok, finite per-path values, summed in path order,
    # and each row accounts for every path
    series, settings = budget_hit(kind, niel, sl3)
    want = {}
    for pid, n, est, value, status in series.records:
        if status == "ok" and math.isfinite(value):
            want.setdefault((n, est), []).append(value)
    summary = summarized(tmp_path, series)
    assert want and set(want) <= set(summary)
    for key, (mean, effective, truncated, downgraded) in summary.items():
        values = want.get(key, [])
        assert effective == len(values)
        assert mean == (sum(values) / len(values) if values else None)
        assert effective + truncated + downgraded == settings["paths"]


def test_summary_counts_the_paths_the_budget_cut_first(tmp_path, niel, sl3):
    # the drift-cut golden config: the letter budget cuts the fastest paths
    # first, so past the first cut the mean is over slower paths only, and
    # the row must say how many are missing
    series, settings = budget_hit("drift", niel, sl3)
    first_cut = min(int(r[3]) for r in series.records if r[2] == "truncated_at")
    _, effective, truncated, downgraded = summarized(tmp_path, series)[(first_cut + 1, "drift")]
    assert truncated >= 1 and downgraded == 0
    assert effective + truncated == settings["paths"]


def test_guivarch_lower_bound_is_clamped_at_0(tmp_path):
    # the matrix-guivarch config of CI: on path 1 every trace the Gelfand
    # ladder sees at n = 14 and 16 is 0, and the trace bound read -inf,
    # an ok row that summarize left uncounted.  Every product of
    # unimodular increments has rho >= 1, so 0 is the certified bound.
    rows = [[[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[1, -1, 0], [0, 1, 0], [0, 0, 1]],
            [[1, 0, 0], [1, 1, 0], [0, 0, 1]], [[1, 0, 0], [-1, 1, 0], [0, 0, 1]]]
    measure = ProbMeasure(tuple(IntMatrix(r) for r in rows), (0.25,) * 4)
    paths = 2
    series = guivarch_experiment(measure, n_max=16, paths=paths, master_seed=0)
    lower = {(pid, n): value for pid, n, est, value, _ in series.records
             if est == "guivarch.rho_lower"}
    assert lower[(1, 14)] == lower[(1, 16)] == 0.0
    assert all(value >= 0.0 for value in lower.values())
    summary = summarized(tmp_path, series)
    assert summary[(16, "guivarch.rho_lower")][1:] == (paths, 0, 0)
    for _, effective, truncated, downgraded in summary.values():
        assert effective + truncated + downgraded == paths


@pytest.mark.parametrize("kind", sorted(BUDGET_HITS))
def test_threads_do_not_change_cut_records(kind, niel, sl3):
    # repr: a truncated record's nan is not equal to itself
    one, many = (budget_hit(kind, niel, sl3, threads)[0] for threads in (1, 3))
    assert list(map(repr, many.records)) == list(map(repr, one.records))


def walk_cut_steps(niel) -> dict:
    """The step at which composing each walk of the spectral and gromov
    budget configs hits the budget."""
    want = {}
    for pid in range(4):
        path = WalkPath(niel, 1, pid, letter_budget=10)
        while path.n < 16 and path.advance():
            pass
        want[pid] = path.n
    return want


def drift_cut_steps(niel) -> dict:
    """The step at which substituting a generator image of Phi_n^{-1}
    hits the budget, on the same walks."""
    series = drift_experiment(niel, n_max=16, paths=4, master_seed=1, letter_budget=10)
    return {r[0]: r[1] for r in series.records if r[2] == "truncated_at"}


SCHEDULED_CUTS = {
    "spectral": (drift_cut_steps, {0: 8, 1: 8, 2: 9, 3: 11}),
    "gromov": (walk_cut_steps, {0: 8, 1: 8, 2: 5, 3: 11}),
}


@pytest.mark.parametrize("kind", sorted(SCHEDULED_CUTS))
def test_scheduled_kinds_cut_at_the_budget_step(kind, niel, sl3):
    # records follow the geometric schedule, but a path is cut off at the
    # step at which its walk hits the budget, on the schedule or not:
    # spectral tracks the generator images of Phi_n^{-1}, as drift does,
    # and gromov tracks Phi_n^{-1} with its inverse images Phi_n, which
    # are those that composing the walk forward substitutes
    cut_steps, want = SCHEDULED_CUTS[kind]
    series, _ = budget_hit(kind, niel, sl3)
    cut = {r[0]: r[1] for r in series.records if r[2] == "truncated_at"}
    assert cut == cut_steps(niel) == want


# Lockstep parity.  `_word_series` steps every live path of a group
# together, with one kernel call per batch of all their words.  The
# references below step one path at a time: the tracked state of the kind
# mapped through s_n^{-1} by the one-state step (`images` or `compose`),
# the path cut at the first step that raises; and the composed walk of
# `sample_path`, whose Phi_n^{-1} gives the same state up to the cut.
# Each kind's records are read off either state by the same reference
# reader.  The conjugacy reference tracks drift's images, which cut the
# path, beside the seed classes, each mapped by `cyclic_images`, off
# which it reads the records.

WORD_KINDS = ("conjugacy", "drift", "gromov", "spectral")

BATCH_SEEDS = ["ab", "aCb", "abc", "aBc", "abAB", "aabC", "bcAc", "acBB", "abcABC"]


def kind_reference(kind, rank, settings, seeds=None):
    """(first state, one-state step, records(n, state), state of a composed
    Phi_n^{-1}) of a word kind, with the settings of its series."""
    budget, n_max = settings["letter_budget"], settings["n_max"]
    schedule = set(geometric_schedule(n_max))
    gens = [Word.generator(i, rank) for i in range(1, rank + 1)]
    if kind == "drift":
        return (gens, images, lambda n, ims: [("drift", image_dist(as_bytes(ims)) / n, "ok")],
                lambda inv: list(inv.images))
    if kind == "conjugacy":
        def conjugacy_step(phi, state, *, budget):
            return images(phi, state[0], budget=budget), cyclic_images(phi, state[1])

        return ((gens, seeds), conjugacy_step,
                lambda n, state: [(f"conjugacy.{word_to_str(g)}", math.log(len(w)) / n, "ok")
                                  for g, w in zip(seeds, state[1])],
                lambda inv: (list(inv.images),
                             [cyclic_reduce(apply(inv, g.as_word())) for g in seeds]))
    if kind == "spectral":
        def spectral_records(n, ims):
            if n not in schedule:
                return []
            [br] = brackets([as_bytes(ims)], settings["k_max"], budget=budget)
            status = "ok" if br.k_used >= settings["k_max"] else "downgraded"
            return [("spectral.lower", br.lower / n, status),
                    ("spectral.upper", br.upper / n, status),
                    ("spectral.point", br.point / n, status),
                    ("spectral.k_used", float(br.k_used), status)]

        return gens, images, spectral_records, lambda inv: list(inv.images)

    def gromov_records(n, inv):
        if n not in schedule:
            return []
        try:
            return [("gromov", gromov_product(invert(inv), inv, budget=budget) / n, "ok")]
        except WordBudgetExceeded:
            return [("gromov", float("nan"), "truncated")]

    return identity_automorphism(rank), compose, gromov_records, lambda inv: inv


def one_path_records(kind, measure, settings, seeds=None) -> list:
    """The records of a word-kind series with each path stepped alone."""
    state0, step, read, _ = kind_reference(kind, measure.rank, settings, seeds)
    inverses = [invert(a) for a in measure.support]
    rows = []
    for pid in range(settings["paths"]):
        state, n = state0, 0
        for idx in islice(walk_engine._increments(measure, settings["master_seed"], pid),
                          settings["n_max"]):
            try:
                state = step(inverses[idx], state, budget=settings["letter_budget"])
            except WordBudgetExceeded:
                break
            n += 1
            rows += [(pid, n, *row) for row in read(n, state)]
        if n < settings["n_max"]:
            rows.append((pid, n, "truncated_at", float(n), "truncated"))
    return rows


def assert_composed_walk_reads_the_records(kind, measure, series, settings, seeds=None):
    """Every record before a path's cut is read off the state of the
    composed Phi_n^{-1}."""
    _, _, read, composed_state = kind_reference(kind, measure.rank, settings, seeds)
    got = {}
    for pid, n, est, value, status in series.records:
        if est != "truncated_at":
            got.setdefault((pid, n), []).append(repr((est, value, status)))
    last = {pid: n for pid, n, est, _, _ in series.records if est == "truncated_at"}
    for pid in range(settings["paths"]):
        n_cut = last.get(pid, settings["n_max"])
        for n, _, inv in sample_path(measure, settings["master_seed"], pid, n_cut):
            assert got.get((pid, n), []) == [repr(r) for r in read(n, composed_state(inv))]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("kind", WORD_KINDS)
def test_lockstep_records_equal_one_path_references(kind, threads, niel, sl3):
    # the BUDGET_HITS configs: the budget cuts the paths at different steps
    series, settings = budget_hit(kind, niel, sl3, threads)
    seeds = BUDGET_HITS["conjugacy"][0].keywords["seeds"] if kind == "conjugacy" else None
    cuts = {r[1] for r in series.records if r[2] == "truncated_at"}
    assert len(cuts) > 1
    want = one_path_records(kind, niel, settings, seeds)
    assert list(map(repr, series.records)) == list(map(repr, want))
    assert_composed_walk_reads_the_records(kind, niel, series, settings, seeds)


def test_spectral_records_do_not_depend_on_the_group(niel, monkeypatch):
    # a spectral step brackets all its paths in one batch: one
    # `spectral_radii` batch of their abelianizations, and one lockstep
    # run of their power orbits, in which an orbit past BATCH_CAP leaves
    # the group and runs alone.  Each path gets the same records stepped
    # alone, as one of sixteen, and as one of eight at two threads
    batches, tables = [], []
    radii, own_images = spectral.spectral_radii, spectral.own_images

    def radii_spy(mats):
        batches.append(len(mats))
        return radii(mats)

    def own_images_spy(own_tables, groups, *, budget):
        tables.append(len(groups))
        return own_images(own_tables, groups, budget=budget)

    monkeypatch.setattr(spectral, "spectral_radii", radii_spy)
    monkeypatch.setattr(spectral, "own_images", own_images_spy)
    settings = dict(n_max=32, paths=16, k_max=4, master_seed=3, letter_budget=200_000)
    alone = [repr(r) for r in one_path_records("spectral", niel, settings)]
    for threads in (1, 2):
        batches.clear()
        tables.clear()
        series = spectral_experiment(niel, threads=threads, **settings)
        assert [repr(r) for r in series.records] == alone
        if threads == 1:
            assert set(batches) == {16}
            # orbits ran as a group of 16 and alone, after leaving it
            assert max(tables) == 16 and 1 in tables
    # the budget cuts the orbits at every k below k_max
    k_used = {r[3] for r in series.records if r[2] == "spectral.k_used" and r[4] == "downgraded"}
    assert k_used == {1.0, 2.0, 3.0}


def test_gromov_records_do_not_depend_on_the_group(niel, monkeypatch):
    # a Gromov step reads all its paths off one lockstep run of the power
    # orbits of both halves of each state, Phi_n and Phi_n^{-1}, to k = 2:
    # one `own_images` batch of the 8 orbits of 4 paths at step 2, until
    # at n = 32 every orbit passes BATCH_CAP and runs alone.  Each path
    # gets the records that `gromov_product` gives it stepped alone
    steps = []
    orbits, own_images = word_walks.power_orbits, spectral.own_images

    def orbits_spy(*args):
        steps.append([])
        return orbits(*args)

    def own_images_spy(own_tables, groups, *, budget):
        steps[-1].append(len(groups))
        return own_images(own_tables, groups, budget=budget)

    monkeypatch.setattr(word_walks, "power_orbits", orbits_spy)
    monkeypatch.setattr(spectral, "own_images", own_images_spy)
    settings = dict(n_max=32, paths=4, master_seed=3, letter_budget=None)
    alone = [repr(r) for r in one_path_records("gromov", niel, settings)]
    for threads in (1, 2):
        steps.clear()
        series = gromov_decay_experiment(niel, threads=threads, **settings)
        assert [repr(r) for r in series.records] == alone
        if threads == 1:
            assert steps == [[8]] * 5 + [[1] * 8]
    assert {r[4] for r in series.records} == {"ok"}


def test_a_figure_eight_over_the_budget_cuts_no_gromov_record():
    # the moves x1 -> x1x3 and x2 -> x2x3 of F_3: in these records a
    # figure eight of Phi_n has a raw image |u_i| + |u_j| over the budget,
    # but no record substitutes one; both squares Phi_n^{+-2} fit the
    # budget, so `orbit_dist` reads them, and the record reads ok as
    # `gromov_product` reads it
    measure = ProbMeasure((parse_automorphism("a->ac; b->b; c->c | a->aC; b->b; c->c"),
                           parse_automorphism("a->a; b->bc; c->c | a->a; b->bC; c->c")),
                          (0.5, 0.5))
    for budget, want in ((3, {(0, 2), (1, 2)}), (5, {(3, 4)})):
        settings = dict(n_max=16, paths=4, master_seed=1, letter_budget=budget)
        series = gromov_decay_experiment(measure, **settings)
        assert list(map(repr, series.records)) == list(
            map(repr, one_path_records("gromov", measure, settings)))
        by_eight = set()
        for pid, n, est, _, status in series.records:
            if est != "gromov":
                continue
            *_, (_, phi, inv) = sample_path(measure, 1, pid, n)
            try:
                gromov_product(phi, inv, budget=budget)
            except WordBudgetExceeded:
                assert status == "truncated"
                continue
            assert status == "ok"
            if any(len(u) + len(v) > budget
                   for half in (phi, inv) for u, v in combinations(half.images, 2)):
                by_eight.add((pid, n))
        assert by_eight == want


@pytest.mark.parametrize("master_seed", [973431126432672820, 12663201618514722133])
def test_no_power_step_substitutes_a_raw_image_over_the_budget(niel, monkeypatch, master_seed):
    # spectral-niel's settings: power step k substitutes each phi(x_i)
    # through the table of phi^(k-1), whose raw size, the block lengths
    # summed over its letters, the budget bounds as it bounds every
    # substitution; on these seeds a rule on the other association let
    # raw images of 219,395 and 202,047 letters through.  The kernel
    # drops a group over the budget, so only the groups that come back
    # were substituted
    letter_budget, largest, dropped = 200_000, [], []
    own_images = spectral.own_images

    def spy(tables, groups, *, budget):
        out = own_images(tables, groups, budget=budget)
        for table, words, images in zip(tables, groups, out):
            if images is None:
                dropped.append(words)
                continue
            sizes = [len(w) for w in table]
            largest.append(max(sum(sizes[abs(x) - 1] for x in np.frombuffer(w, np.int8).tolist())
                               for w in words))
        return out

    monkeypatch.setattr(spectral, "own_images", spy)
    records = spectral_experiment(niel, n_max=32, paths=16, k_max=4, master_seed=master_seed,
                                  letter_budget=letter_budget).records
    assert largest and max(largest) <= letter_budget
    assert dropped
    # the budget stopped some orbits
    assert "downgraded" in {r[4] for r in records}


# the golden drift-cut, conjugacy-cut, spectral-cut and gromov-cut configs
RECORD_BUDGETS = {
    "drift": (drift_experiment, dict(n_max=40, paths=4, master_seed=5, letter_budget=2000)),
    "conjugacy": (partial(conjugacy_growth_experiment, seeds=[cyclic_reduce(parse_word("ab", 3))]),
                  dict(n_max=40, paths=4, master_seed=5, letter_budget=200)),
    "spectral": (spectral_experiment,
                 dict(n_max=16, paths=4, master_seed=1, k_max=2, letter_budget=10)),
    "gromov": (gromov_decay_experiment,
               dict(n_max=16, paths=4, master_seed=1, letter_budget=10)),
}


@pytest.mark.parametrize("kind", sorted(RECORD_BUDGETS))
def test_every_word_a_record_reads_fits_the_budget(niel, monkeypatch, kind):
    # each tracked word was formed by a substitution within the budget, so
    # the records read only words that fit it, and check no budget on them
    word_series, states_read = word_walks._word_series, []

    def spy(experiment, reader, measure, *walk, **settings):
        def checked(n, pids, states):
            states_read.extend(states)
            assert all(len(w) <= settings["letter_budget"] for state in states for w in state)
            return reader(n, pids, states)

        return word_series(experiment, checked, measure, *walk, **settings)

    monkeypatch.setattr(word_walks, "_word_series", spy)
    runner, settings = RECORD_BUDGETS[kind]
    statuses = {r[4] for r in runner(niel, **settings).records}
    # and the budget bounded the run: it cut a path or stopped an orbit
    assert states_read and statuses != {"ok"}


def test_every_word_orbit_steps_under_lockstep_orbits(niel, monkeypatch):
    # the scheduler has one entry: the paths of every word kind step
    # under it, and so do the power orbits of `bracket` and of each
    # scheduled spectral and Gromov step (n = 1, 2 and 4)
    entered = []
    driver = _wordkernel.lockstep_orbits

    def spy(items, size, step, first, last):
        entered.append(step.__qualname__.split(".")[0])
        return driver(items, size, step, first, last)

    monkeypatch.setattr(word_walks, "lockstep_orbits", spy)
    monkeypatch.setattr(spectral, "lockstep_orbits", spy)
    seeds = [cyclic_reduce(parse_word("ab", 3))]

    def read(experiment, *args):
        # a series streams: its paths run as its records are read
        return experiment(niel, *args, n_max=4, paths=2, master_seed=0).records

    runs = {"drift": partial(read, drift_experiment),
            "conjugacy": partial(read, conjugacy_growth_experiment, seeds),
            "gromov": partial(read, gromov_decay_experiment),
            "spectral": partial(read, spectral_experiment),
            "bracket": partial(bracket, niel.support[5], 3)}
    walk = ["_word_series"]
    scheduled = walk + ["power_orbits"] * 3
    want = {"drift": walk, "conjugacy": walk, "gromov": scheduled,
            "spectral": scheduled, "bracket": ["power_orbits"]}
    for kind, run in runs.items():
        entered.clear()
        run()
        assert entered == want[kind], kind


@pytest.mark.parametrize("threads", [1, 2])
def test_a_long_path_leaves_the_batch_and_runs_alone(niel, monkeypatch, threads):
    # the `conjugacy-batch` golden config: one path's three images pass
    # the cap at n = 42 while the others stay short; it runs alone to its
    # cut, then the others go on together
    seeds = [cyclic_reduce(parse_word(t, 3)) for t in BATCH_SEEDS]
    settings = dict(n_max=80, paths=3, master_seed=7, letter_budget=200_000)
    calls = []
    step = MapStack.byte_images

    def spy(self, maps, states, *, budget=None):
        calls.append([word_walks._input_letters(state) for state in states])
        return step(self, maps, states, budget=budget)

    monkeypatch.setattr(MapStack, "byte_images", spy)
    records = conjugacy_growth_experiment(niel, seeds, **settings, threads=threads).records
    monkeypatch.setattr(MapStack, "byte_images", step)
    # a batch never holds a state past the cap; only a lone path does
    assert all(size < BATCH_CAP for call in calls if len(call) > 1 for size in call)
    alone = [i for i, call in enumerate(calls) if len(call) == 1 and call[0] >= BATCH_CAP]
    if threads == 1:
        assert alone and any(len(call) > 1 for call in calls[alone[0]:])
    cuts = sorted(r[1] for r in records if r[2] == "truncated_at")
    assert cuts == [53, 58, 69]
    want = one_path_records("conjugacy", niel, settings, seeds)
    assert list(map(repr, records)) == list(map(repr, want))


def gromov_states(niel, pids, n):
    """The tracked states Phi_n^{-1} of paths pids of master seed 3."""
    return [list(sample_path(niel, 3, pid, n))[-1][2] for pid in pids]


def state_of(psi) -> list:
    """The Gromov walk state of psi: its images, then its inverse images,
    as bytes."""
    return as_bytes((*psi.images, *psi.inverse_images))


def test_stack_compose_equals_compose_state_by_state(niel):
    # one Gromov step for six states, through four different maps
    stack = MapStack([invert(a) for a in niel.support])
    states = gromov_states(niel, range(6), 12)
    maps = [0, 5, 11, 5, 23, 17]
    got = stack.compose(maps, list(map(state_of, states)))
    want = [state_of(compose(stack.phis[m], psi)) for m, psi in zip(maps, states)]
    assert got == want and all_bytes(got)
    # a state alone goes through the same two halves
    assert stack.compose([5], [state_of(states[1])]) == [want[1]]


def test_stack_compose_cuts_a_state_on_either_half(niel):
    # at budget 25, path 2 through map 5 passes it only on its images
    # s^{-1}(Phi^{-1}(x_i)), and path 5 through map 0 only on its inverse
    # images Phi(s(x_i)); both are None, where `compose` raises, and the
    # other states step as they do alone
    budget = 25
    stack = MapStack([invert(a) for a in niel.support])
    states = gromov_states(niel, [1, 2, 3, 5, 4], 12)
    maps = [11, 5, 5, 0, 11]

    def halves_over(m, psi):
        out = []
        for half in (lambda: images(stack.phis[m], psi.images, budget=budget),
                     lambda: images(invert(psi), stack.phis[m].inverse_images, budget=budget)):
            try:
                half()
                out.append(False)
            except WordBudgetExceeded:
                out.append(True)
        return out

    assert [halves_over(m, psi) for m, psi in zip(maps, states)] == [
        [False, False], [True, False], [False, False], [False, True], [False, False]]
    got = stack.compose(maps, list(map(state_of, states)), budget=budget)
    assert [g is None for g in got] == [False, True, False, True, False]
    for i in (0, 2, 4):
        assert got[i] == state_of(compose(stack.phis[maps[i]], states[i], budget=budget))


def test_gromov_steps_all_paths_in_two_kernel_calls(niel, monkeypatch):
    # every Gromov step of a group is two `lockstep_substitute` calls, one
    # group per path in each, the images through the stack and the
    # inverse images through each path's own inverse; no path composes
    calls, steps, composed = [], [], []
    substitute, step = automorphisms.lockstep_substitute, MapStack.compose

    def substitute_spy(table, maps, groups, budget):
        if steps:
            steps[-1].append(len(groups))
        return substitute(table, maps, groups, budget)

    def step_spy(self, maps, states, *, budget=None):
        steps.append([len(states)])
        out = step(self, maps, states, budget=budget)
        calls.append(steps.pop())
        return out

    def compose_spy(*args, **kwargs):
        composed.append(args)
        return compose(*args, **kwargs)

    monkeypatch.setattr(automorphisms, "lockstep_substitute", substitute_spy)
    monkeypatch.setattr(MapStack, "compose", step_spy)
    monkeypatch.setattr(automorphisms, "compose", compose_spy)
    values = gromov_decay_experiment(niel, n_max=8, paths=4, master_seed=3).values("gromov")
    assert calls == [[4, 4, 4]] * 8
    assert not composed
    assert len(values) == 4 * len(geometric_schedule(8))


def test_a_gromov_record_reads_four_image_dists(niel, monkeypatch):
    # the record reads dist(Phi_n^{+-1}) and dist(Phi_n^{+-2}) off steps 1
    # and 2 of the power orbits of Phi_n and Phi_n^{-1}, and
    # sym_dist(Phi_n) once, since sym_dist(Phi_n^{-1}) is the same float
    reads = []
    image_dist_ = word_walks.image_dist

    def spy(images):
        reads.append(len(images))
        return image_dist_(images)

    monkeypatch.setattr(word_walks, "image_dist", spy)
    values = gromov_decay_experiment(niel, n_max=16, paths=3, master_seed=3).values("gromov")
    assert len(reads) == 4 * len(values) > 0


def no_word_in(obj) -> bool:
    """Whether no `Word` or `CyclicWord` sits anywhere in lists and tuples."""
    if isinstance(obj, (Word, CyclicWord)):
        return False
    return not isinstance(obj, (list, tuple)) or all(map(no_word_in, obj))


def all_bytes(groups) -> bool:
    return all(type(w) is bytes for ws in groups for w in ws)


@pytest.mark.parametrize("kind", ["drift", "spectral", "conjugacy", "gromov"])
def test_word_orbits_carry_bytes_between_kernel_calls(niel, monkeypatch, kind):
    # the kernel takes and gives arrays; every state of the walk orbits and
    # of the power orbits, and every image read, is bytes, with no Word
    seen = {"substitute": 0, "orbit": 0, "read": 0}
    substitute, scheduler = ImageTable.substitute, _wordkernel.lockstep_orbits

    def substitute_spy(self, word):
        out = substitute(self, word)
        assert isinstance(word, np.ndarray) and isinstance(out, np.ndarray)
        assert out.dtype == np.int8
        seen["substitute"] += 1
        return out

    def scheduler_spy(items, size, step, first, last):
        def checked(k, group):
            assert no_word_in(group)
            group, outputs = step(k, group)
            # (pid, increments, words) of a walk path, (p, phi(x_i),
            # phi^k(x_i)) of a power orbit
            assert all_bytes(item[2] for item in group) and no_word_in(group)
            seen["orbit"] += len(group)
            return group, outputs

        return scheduler(items, size, checked, first, last)

    def read_spy(read, sets=False):
        # image_dist and candidate_lengths read one set of images,
        # brackets many
        def checked(images, *args, **kwargs):
            images = list(images)
            assert all_bytes(images if sets else [images])
            seen["read"] += 1
            return read(images, *args, **kwargs)

        return checked

    monkeypatch.setattr(ImageTable, "substitute", substitute_spy)
    monkeypatch.setattr(word_walks, "lockstep_orbits", scheduler_spy)
    monkeypatch.setattr(spectral, "lockstep_orbits", scheduler_spy)
    monkeypatch.setattr(word_walks, "image_dist", read_spy(word_walks.image_dist))
    monkeypatch.setattr(word_walks, "brackets", read_spy(word_walks.brackets, sets=True))
    monkeypatch.setattr(spectral, "candidate_lengths", read_spy(spectral.candidate_lengths))
    class_length = word_walks.class_length

    def class_length_spy(readings, letters):
        # a conjugacy record reads each seed's class off the tracked
        # images and their inverses, as bytes
        assert all_bytes([[w for pair in readings if pair for w in pair]])
        seen["read"] += 1
        return class_length(readings, letters)

    monkeypatch.setattr(word_walks, "class_length", class_length_spy)
    seeds = [cyclic_reduce(parse_word(t, 3)) for t in BATCH_SEEDS]
    runs = {"drift": drift_experiment, "spectral": spectral_experiment,
            "conjugacy": partial(conjugacy_growth_experiment, seeds=seeds),
            "gromov": gromov_decay_experiment}
    series = runs[kind](niel, n_max=12, paths=4, master_seed=3)
    assert {r[4] for r in series.records} == {"ok"}
    assert min(seen.values()) > 0
    # the Word API keeps its types: images, apply, compose and
    # cyclic_images; the MapStack steps take and give bytes
    phi, psi = niel.support[5], niel.support[11]
    gens = [Word.generator(i, 3) for i in (1, 2, 3)]
    theta, stack = compose(phi, psi), MapStack([phi, psi])
    got = images(phi, gens) + [apply(phi, gens[0]), *theta.images, *theta.inverse_images]
    assert all(type(w) is Word for w in got)
    assert all(type(w) is CyclicWord for w in cyclic_images(phi, seeds))
    assert all_bytes(stack.compose([0, 1], [state_of(psi), state_of(phi)])
                     + stack.byte_images([1], [as_bytes(seeds)])
                     + stack.byte_images([0, 1], [as_bytes(gens)] * 2))


def test_cesaro_tail_monotone_in_probability():
    series = drift_experiment(F3_MEASURE, n_max=16, paths=24, master_seed=13)
    m, n2 = 8, 16
    vals_m = series.values("drift", m)
    vals_2m = series.values("drift", n2)
    mean_m = sum(vals_m) / len(vals_m)
    mean_2m = sum(vals_2m) / len(vals_2m)
    ci = batch_means_ci(vals_m) or 0.0
    assert mean_2m <= mean_m + 2 * ci + 1e-9


# Parity with the composed definitions.  The estimators track cyclic
# words along orbits; these references compose Phi_n^{-1}, the powers
# theta^k and the square Phi_n^2 as whole automorphisms, on walks where
# no budget is hit, and the records must agree exactly.

def composed_inverse_products(measure, master_seed, path_id, n_max):
    """{n: Phi_n^{-1}} from composing the inverse increments one by one."""
    path = WalkPath(measure, master_seed, path_id)
    for _ in range(n_max):
        path.advance()
    inv = identity_automorphism(measure.rank)
    out = {}
    for n, idx in enumerate(path.increments, 1):
        inv = compose(invert(measure.support[idx]), inv)
        out[n] = inv
    return out


def composed_uppers(theta, k_max):
    """[dist(theta^k) / k for k = 1..k_max] over composed powers."""
    power, out = identity_automorphism(theta.rank), []
    for k in range(1, k_max + 1):
        power = compose(power, theta)
        out.append(dist(power) / k)
    return out


def composed_bracket(theta, k_max):
    """(upper, point, converged) from composed powers and the per-seed
    iteration of apply over the candidate loops."""
    upper = min(composed_uppers(theta, k_max))
    point = None
    for seed in candidates(theta.rank):
        w, ratios = seed.as_word(), []
        for _ in range(max(2, k_max)):
            image = cyclic_reduce(apply(theta, w)).as_word()
            ratios.append(math.log(len(image) / len(w)))
            w = image
        if point is None or ratios[-1] > point:
            point, converged = ratios[-1], abs(ratios[-1] - ratios[-2]) < CONVERGE_TOL
    return upper, point, converged


def records(series, estimator):
    return {(r[0], r[1]): r[3] for r in series.records if r[0] >= 0 and r[2] == estimator}


@pytest.fixture(params=["f3", "niel"])
def walk(request, niel):
    """(measure, paths, n_max) of a walk on which no budget is hit."""
    return (F3_MEASURE, 4, 16) if request.param == "f3" else (niel, 3, 16)


def test_drift_equals_dist_of_composed_inverse(walk):
    measure, paths, n_max = walk
    drift = records(drift_experiment(measure, n_max=n_max, paths=paths, master_seed=3), "drift")
    for pid in range(paths):
        for n, inv in composed_inverse_products(measure, 3, pid, n_max).items():
            assert drift[(pid, n)] == dist(inv) / n


def test_conjugacy_equals_apply_of_composed_inverse(walk):
    measure, paths, n_max = walk
    seeds = [cyclic_reduce(parse_word(t, 3)) for t in ("ab", "aCb")]
    series = conjugacy_growth_experiment(measure, seeds, n_max=n_max, paths=paths,
                                         master_seed=3)
    for seed in seeds:
        got = records(series, f"conjugacy.{word_to_str(seed)}")
        for pid in range(paths):
            for n, inv in composed_inverse_products(measure, 3, pid, n_max).items():
                length = len(cyclic_reduce(apply(inv, seed.as_word())))
                assert got[(pid, n)] == math.log(length) / n


def test_conjugacy_inverts_only_the_images_its_seeds_read(niel, monkeypatch):
    # the lone seed ab reads the images of x_1 and x_2: each record
    # inverts each of them once, and the image of x_3 never
    inverted = []
    inverse_bytes = word_walks.inverse_bytes

    def spy(word):
        inverted.append(word)
        return inverse_bytes(word)

    monkeypatch.setattr(word_walks, "inverse_bytes", spy)
    seed = cyclic_reduce(parse_word("ab", 3))
    series = conjugacy_growth_experiment(niel, [seed], n_max=16, paths=3, master_seed=3)
    assert {r[4] for r in series.records} == {"ok"}
    images = [as_bytes(inv.images) for pid in range(3)
              for inv in composed_inverse_products(niel, 3, pid, 16).values()]
    assert len(images) == len(series.records) == 48
    assert sorted(inverted) == sorted(u[i] for u in images for i in (0, 1))


def test_spectral_equals_composed_powers(walk):
    measure, paths, n_max = walk
    k_max = 3
    series = spectral_experiment(measure, n_max=n_max, paths=paths, master_seed=3,
                                 k_max=k_max)
    assert {r[4] for r in series.records} == {"ok"}
    lower, upper, point, k_used = (records(series, f"spectral.{e}")
                                   for e in ("lower", "upper", "point", "k_used"))
    for pid in range(paths):
        for n, inv in composed_inverse_products(measure, 3, pid, n_max).items():
            if n not in geometric_schedule(n_max):
                continue
            want_upper, want_point, _ = composed_bracket(inv, k_max)
            assert lower[(pid, n)] == stretch_lower(inv) / n
            assert upper[(pid, n)] == want_upper / n
            assert point[(pid, n)] == want_point / n
            assert k_used[(pid, n)] == k_max


@pytest.mark.parametrize("budget", [2000, 20_000])
def test_spectral_records_equal_bracket_of_the_sampled_inverse(niel, budget):
    # the records read the tracked images of Phi_n^{-1}; sample_path
    # composes Phi_n^{-1}, and its budget also bounds the forward images,
    # so its walk is cut off first (path 3 at n = 27 under budget 2000)
    k_max, n_max = 3, 32
    series = spectral_experiment(niel, n_max=n_max, paths=4, master_seed=9, k_max=k_max,
                                 letter_budget=budget)
    got = {}
    for pid, n, est, value, status in series.records:
        if pid >= 0 and est.startswith("spectral."):
            got.setdefault((pid, n), []).append((est, repr(value), status))
    want = {}
    for pid in range(4):
        for n, _, inv in sample_path(niel, 9, pid, n_max, letter_budget=budget):
            if n in geometric_schedule(n_max):
                br = bracket(inv, k_max, budget=budget)
                status = "ok" if br.k_used >= k_max else "downgraded"
                want[(pid, n)] = [(f"spectral.{e}", repr(v), status) for e, v in (
                    ("lower", br.lower / n), ("upper", br.upper / n), ("point", br.point / n),
                    ("k_used", float(br.k_used)))]
    assert {key: got[key] for key in want} == want
    statuses = {status for rows in want.values() for _, _, status in rows}
    assert statuses == {"ok", "downgraded"}


@pytest.mark.parametrize("text", [
    "a->b; b->c; c->ab | a->cA; b->a; c->b",
    "a->ab; b->a | a->b; b->Ba",
    "a->a; b->b | a->a; b->b",
])
def test_bracket_equals_composed_powers(text):
    theta = parse_automorphism(text)
    for k_max in (2, 5, 9):
        br = bracket(theta, k_max)
        assert (br.upper, br.point, br.converged) == composed_bracket(theta, k_max)
        assert br.k_used == k_max


def test_gromov_equals_sym_dist_of_composed_square(walk):
    measure, paths, n_max = walk
    series = gromov_decay_experiment(measure, n_max=n_max, paths=paths, master_seed=3)
    got = records(series, "gromov")
    for pid in range(paths):
        path = WalkPath(measure, 3, pid)
        while path.n < n_max and path.advance():
            if path.n not in geometric_schedule(n_max):
                continue
            phi = path.product
            want = (sym_dist(phi) - 0.5 * sym_dist(compose(phi, phi))) / path.n
            assert got[(pid, path.n)] == want
