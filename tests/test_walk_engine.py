"""Walk sampling, experiments, determinism, budget handling."""

import math
import statistics

import pytest

from outwalk.free_group import cyclic_reduce, parse_word, word_to_str
from outwalk.automorphisms import (
    abelianization,
    apply,
    compose,
    identity_automorphism,
    invert,
    parse_automorphism,
)
from outwalk.matrix_oracle import IntMatrix
from outwalk.outer_metric import candidates, dist, sym_dist
from outwalk.spectral import CONVERGE_TOL, bracket, stretch_lower, stretch_upper
from outwalk.walk_engine import (
    EstimateSeries,
    ProbMeasure,
    WalkPath,
    batch_means_ci,
    conjugacy_growth_experiment,
    drift_experiment,
    geometric_schedule,
    gromov_decay_experiment,
    matrix_experiments,
    sample_path,
    spectral_experiment,
)

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


def test_drift_summary_rows():
    series = drift_experiment(F3_MEASURE, n_max=8, paths=5, master_seed=1)
    means = [r for r in series.records if r[0] == -1 and r[2] == "drift.mean"]
    assert {r[1] for r in means} == {1, 2, 4, 8}
    counts = [r for r in series.records if r[2] == "drift.paths"]
    assert all(r[3] == 5.0 for r in counts)


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
    series = matrix_experiments(
        measure, n_max=5, paths=2, master_seed=0, kind="matrix-guivarch"
    )
    assert all(v == 0.0 for v in series.values("guivarch.norm"))


def test_matrix_guivarch_hyperbolic_point_mass():
    a = IntMatrix([[2, 1], [1, 1]])
    measure = ProbMeasure((a,), (1.0,))
    series = matrix_experiments(
        measure, n_max=40, paths=1, master_seed=0, kind="matrix-guivarch"
    )
    limit = math.log((3 + math.sqrt(5)) / 2)
    for n in (1, 10, 40):
        assert series.values("guivarch.rho_lower", n)[0] == pytest.approx(limit, rel=1e-9)
    assert series.values("guivarch.norm", 40)[0] == pytest.approx(limit, abs=2e-2)


def test_matrix_furstenberg_series():
    series = matrix_experiments(
        MAT_MEASURE, n_max=50, paths=3, master_seed=4,
        vector=(1, 0), kind="matrix-furstenberg",
    )
    assert len(series.values("furstenberg.vector", 50)) == 3


def test_matrix_vs_abelianization_bridge():
    # transposed abelianized inverse increments, multiplied on the left,
    # reproduce abelianization(Phi_n^{-1}) exactly
    path = WalkPath(F3_MEASURE, 17, 0)
    prod = IntMatrix.identity(3)
    for _ in range(10):
        path.advance()
        s_inv = invert(F3_MEASURE.support[path.increments[-1]])
        prod = abelianization(s_inv).transpose() @ prod
        assert prod.transpose() == abelianization(path.inverse_product)


def test_threads_do_not_change_records():
    one = drift_experiment(F3_MEASURE, n_max=10, paths=8, master_seed=2, threads=1)
    many = drift_experiment(F3_MEASURE, n_max=10, paths=8, master_seed=2, threads=8)
    assert one.records == many.records


def test_estimate_series_unique_keys():
    series = spectral_experiment(F3_MEASURE, n_max=6, paths=3, master_seed=8, k_max=2)
    keys = [(r[0], r[1], r[2]) for r in series.records]
    assert len(keys) == len(set(keys))


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
    for seed in candidates(theta.rank).loops:
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
        uppers = [stretch_upper(theta, k) for k in range(1, k_max + 1)]
        assert uppers == composed_uppers(theta, k_max)


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
