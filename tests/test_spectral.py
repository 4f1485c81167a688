"""Stretch factor brackets against closed-form growth oracles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from outwalk.free_group import as_bytes, cyclic_reduce, parse_word
from outwalk.automorphisms import (
    abelianization,
    compose,
    identity_automorphism,
    inversion,
    invert,
    parse_automorphism,
    right_multiplier,
)
from outwalk import spectral, walk_engine
from outwalk.matrix_oracle import (DEFAULT_BIT_BUDGET, GELFAND_MAX_J, IntMatrix, MatrixBracket,
                                   spectral_radius)
from outwalk.outer_metric import candidate_lengths, dist
from outwalk.cli import main
from outwalk.spectral import (CONVERGE_TOL, StretchBracket, bracket, brackets, power_orbits,
                              stretch_lower, stretch_ratio)
from outwalk.walk_engine import _guivarch_records, _matrix_path, sample_path
from outwalk.word_walks import spectral_experiment

FIB = parse_automorphism("a->ab; b->a | a->b; b->Ba")
LOG_GOLDEN = math.log((1 + math.sqrt(5)) / 2)

# the standard asymmetric pair: lambda(phi) is the real root of x^3 = x + 1,
# lambda(phi^{-1}) the real root of x^3 = x^2 + 1; regression values frozen
# from those characteristic polynomials
ASYM = parse_automorphism("a->b; b->c; c->ab | a->cA; b->a; c->b")
LOG_PLASTIC = math.log(1.3247179572447460)
LOG_INV = math.log(1.4655712318767682)

# order 3 and dist > 0: dist(phi^k) / k is 0 at k = 3 and positive at 4, 5
ORDER3 = parse_automorphism("a->b; b->BA | a->BA; b->a")


def library(rank):
    lib = []
    for i in range(1, rank + 1):
        lib.append(inversion(rank, i))
        for j in range(1, rank + 1):
            if i != j:
                lib.append(right_multiplier(rank, i, j))
                lib.append(right_multiplier(rank, i, -j))
    return lib


def products(rank, max_factors=4):
    lib = library(rank)
    return st.lists(
        st.integers(min_value=0, max_value=len(lib) - 1), min_size=1, max_size=max_factors
    ).map(lambda ids: _prod(lib, ids, rank))


def _prod(lib, ids, rank):
    out = identity_automorphism(rank)
    for i in ids:
        out = compose(out, lib[i])
    return out


def power(phi, k):
    """phi composed with itself k times."""
    out = identity_automorphism(phi.rank)
    for _ in range(k):
        out = compose(out, phi)
    return out


def stretch_upper(phi, k):
    """dist(phi^k) / k, an upper bound for log lambda(phi), from the
    composed power."""
    return dist(power(phi, k)) / k


def test_stretch_upper_identity():
    ident = identity_automorphism(3)
    for k in (1, 2, 5):
        assert stretch_upper(ident, k) == 0.0


def test_stretch_upper_fibonacci():
    assert stretch_upper(FIB, 1) == pytest.approx(math.log(2))
    # word lengths follow the Fibonacci recursion: dist(phi^k) = log F(k+2)
    fib = [1, 1]
    while len(fib) < 16:
        fib.append(fib[-1] + fib[-2])
    for k in (2, 5, 12):
        assert stretch_upper(FIB, k) == pytest.approx(math.log(fib[k + 1]) / k)
    assert stretch_upper(FIB, 12) > LOG_GOLDEN


@settings(max_examples=30, deadline=None)
@given(products(3, 3), st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3))
def test_stretch_upper_fekete(phi, k, m):
    # (k+m) u_{k+m} <= k u_k + m u_m on the nose
    lhs = (k + m) * stretch_upper(phi, k + m)
    rhs = k * stretch_upper(phi, k) + m * stretch_upper(phi, m)
    assert lhs <= rhs + 1e-9


def test_stretch_upper_halving():
    for k in (1, 2, 3):
        assert stretch_upper(FIB, 2 * k) <= stretch_upper(FIB, k) + 1e-9


def composed_bracket(phi, k_max):
    """(upper, point, converged) from the candidate lengths of the composed
    powers phi^0 .. phi^max(2, k_max), as `bracket` defines them."""
    steps = max(2, k_max)
    lengths = [candidate_lengths(as_bytes(power(phi, k).images)) for k in range(steps + 1)]
    ratios = [[math.log(b / a) for a, b in zip(before, after)]
              for before, after in zip(lengths, lengths[1:])]
    upper = min(stretch_upper(phi, k) for k in range(1, k_max + 1))
    i = max(range(len(ratios[-1])), key=ratios[-1].__getitem__)
    return upper, ratios[-1][i], abs(ratios[-1][i] - ratios[-2][i]) < CONVERGE_TOL


def assert_bracket_equals_composed(phi, k_max):
    br = bracket(phi, k_max)
    assert (br.upper, br.point, br.converged) == composed_bracket(phi, k_max)
    assert br.k_used == k_max


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(lambda rank: products(rank, 6)), st.integers(1, 5))
@example(ORDER3, 5)
def test_bracket_equals_composed_powers_on_nielsen_products(phi, k_max):
    assert_bracket_equals_composed(phi, k_max)


@pytest.fixture(scope="module")
def walk_inverses_16_32(niel):
    """Phi_n^{-1} of NIEL walks at n = 16 and 32."""
    return {n: [inv for pid in range(3) for m, _, inv in sample_path(niel, 9, pid, 32) if m == n]
            for n in (16, 32)}


def test_bracket_equals_composed_powers_on_walk_inverses(walk_inverses_16_32):
    for n, k_maxes in ((16, (1, 2, 3)), (32, (1, 2))):
        for inv in walk_inverses_16_32[n]:
            for k_max in k_maxes:
                assert_bracket_equals_composed(inv, k_max)


def raw_sizes(phi, steps):
    """The largest raw image size of each substituted orbit step
    k = 2..steps, as the kernel forms it: the sum of |phi^{k-1}(x)| over
    the letters x of phi(x_i), largest over i."""
    out = []
    for k in range(2, steps + 1):
        sizes = [len(w) for w in power(phi, k - 1).images]
        out.append(max(sum(sizes[abs(x) - 1] for x in w.letters.tolist()) for w in phi.images))
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(lambda rank: products(rank, 6)), st.integers(1, 4))
def test_bracket_k_used_at_the_raw_image_sizes(phi, k_max):
    # step 1 reads phi's own images and always counts; the orbit then runs
    # the leading steps whose raw images fit the budget, and k_used counts
    # them up to k_max
    raw = raw_sizes(phi, max(2, k_max))
    for budget in (0, *(b for r in raw for b in (r - 1, r))):
        fits = 1 + next((j for j, r in enumerate(raw) if r > budget), len(raw))
        assert bracket(phi, k_max, budget=budget).k_used == min(fits, k_max)


def test_an_orbit_cut_at_k_1_reads_its_one_ratio():
    # budget 2 fits FIB's images but not its square: the point estimate
    # reads two length rows, whose one ratio row it cannot test for
    # convergence
    br = bracket(FIB, 4, budget=2)
    before, after = (candidate_lengths(as_bytes(power(FIB, k).images)) for k in (0, 1))
    assert br.k_used == 1 and not br.converged
    assert br.point == max(math.log(b / a) for a, b in zip(before, after))
    assert br.upper == pytest.approx(stretch_upper(FIB, 1))


def test_bracket_refuses_k_max_below_1():
    for k_max in (0, -3):
        with pytest.raises(ValueError, match="k_max"):
            bracket(FIB, k_max)


def test_stretch_lower_examples():
    assert stretch_lower(identity_automorphism(2)) == pytest.approx(0.0)
    assert stretch_lower(FIB) == pytest.approx(LOG_GOLDEN, abs=1e-12)
    # parabolic abelianization: valid but trivial bound
    tw = parse_automorphism("a->ab; b->b | a->aB; b->b")
    assert stretch_lower(tw) == pytest.approx(0.0)


def test_stretch_ratio_identity():
    est, conv = stretch_ratio(identity_automorphism(2), cyclic_reduce(parse_word("a", 2)), 5)
    assert est == 0.0 and conv


def test_stretch_ratio_fibonacci_seeds():
    for seed_text in ("a", "b"):
        seed = cyclic_reduce(parse_word(seed_text, 2))
        est, conv = stretch_ratio(FIB, seed, 12)
        assert conv
        assert est == pytest.approx(LOG_GOLDEN, abs=1e-3)


def test_stretch_ratio_budget_returns_unconverged():
    seed = cyclic_reduce(parse_word("a", 2))
    est, conv = stretch_ratio(FIB, seed, 40, budget=100)
    assert not conv


def test_bracket_identity():
    br = bracket(identity_automorphism(3), 4)
    assert (br.lower, br.upper, br.point) == (0.0, 0.0, 0.0)
    assert br.converged


def test_bracket_fibonacci():
    br = bracket(FIB, 12)
    assert br.lower == pytest.approx(LOG_GOLDEN, abs=1e-9)
    assert br.point == pytest.approx(LOG_GOLDEN, abs=1e-3)
    assert br.converged
    assert br.lower <= br.upper + 1e-9
    assert br.lower - 1e-2 <= br.point <= br.upper + 1e-2
    assert br.k_used == 12


def test_bracket_asymmetry_regression():
    # the stretch factor of the inverse is genuinely different
    fwd = bracket(ASYM, 30)
    bwd = bracket(invert(ASYM), 30)
    assert fwd.point == pytest.approx(LOG_PLASTIC, abs=2e-3)
    assert bwd.point == pytest.approx(LOG_INV, abs=2e-3)
    assert abs(fwd.point - bwd.point) > 0.05
    for br, truth in ((fwd, LOG_PLASTIC), (bwd, LOG_INV)):
        assert br.lower - 1e-9 <= truth <= br.upper + 1e-9


@settings(max_examples=60, deadline=None)
@given(products(3, 4))
def test_bracket_ordering_random(phi):
    br = bracket(phi, 6)
    assert br.lower <= br.upper + 1e-9


@settings(max_examples=25, deadline=None)
@given(products(2, 4))
def test_conjugation_invariance_of_lower_and_point(phi):
    conj = right_multiplier(2, 1, 2)
    conjugated = compose(conj, compose(phi, invert(conj)))
    assert stretch_lower(conjugated) == pytest.approx(stretch_lower(phi), abs=1e-9)
    b1, b2 = bracket(phi, 10), bracket(conjugated, 10)
    if b1.converged and b2.converged:
        assert b1.point == pytest.approx(b2.point, abs=5e-2)


def test_rank2_point_matches_abelianization_when_hyperbolic():
    # hyperbolic abelianization: the ratio estimate tracks rho(M_ab)
    samples = [
        "a->ab; b->a | a->b; b->Ba",
        "a->aab; b->a | a->b; b->BBa",
        "a->ab; b->aab | a->bA; b->aBa",
    ]
    for text in samples:
        phi = parse_automorphism(text)
        lower = stretch_lower(phi)
        br = bracket(phi, 14)
        assert br.converged and lower > 0.05
        assert br.point == pytest.approx(lower, rel=0.01)


def test_bracket_validates_order():
    with pytest.raises(ValueError):
        StretchBracket(1.0, 0.5, 0.7, 1, True)


def trace_bound(a):
    """The Gelfand trace bound: the best (log |tr A^k| - log n) / k, k = 1, 2, 4, ..., 64."""
    bound, power = -math.inf, a
    for j in range(GELFAND_MAX_J + 1):
        if j:
            power = power @ power
        t = abs(power.trace())
        if t:
            bound = max(bound, (math.log(t) - math.log(a.n)) / (1 << j))
    return bound


def test_stretch_lower_clamped_at_zero_on_a_niel_path(niel):
    # on this path the Gelfand trace bound of Phi_n^{-1} is log(2/3) at
    # n = 4 and -inf at n = 8; lambda >= 1 makes 0 the certified bound,
    # and spectral_radius reports it
    raw, lower = {}, {}
    for n, _, inv in sample_path(niel, 18, 0, 8):
        a = abelianization(inv)
        raw[n], lower[n] = trace_bound(a), spectral_radius(a).lower
        assert stretch_lower(inv) == lower[n] == max(0.0, raw[n])
    assert raw[4] == pytest.approx(math.log(2 / 3)) and raw[8] == -math.inf
    assert lower[4] == lower[8] == 0.0
    series = spectral_experiment(niel, n_max=8, paths=1, master_seed=18, k_max=2)
    recorded = {n: v for pid, n, est, v, _ in series.records
                if pid == 0 and est == "spectral.lower"}
    assert recorded[4] == 0.0 and recorded[8] == 0.0
    assert all(v >= 0.0 for v in recorded.values())


def test_only_spectral_radius_clamps_the_lower_bound(monkeypatch):
    # a bracket whose lower bound reads below 0 reaches every caller as it is
    fake = MatrixBracket(-1.0, 1.0)
    monkeypatch.setattr(walk_engine, "spectral_radii", lambda mats, bit_budget: [fake] * len(mats))
    monkeypatch.setattr(spectral, "spectral_radii", lambda mats: [fake] * len(mats))
    records = [r for chunk in _matrix_path(_guivarch_records, 0, [IntMatrix.identity(3)] * 5,
                                           DEFAULT_BIT_BUDGET) for r in chunk]
    lower = [value for _, _, est, value, _ in records if est == "guivarch.rho_lower"]
    assert lower == [-1.0 / n for n in range(1, 6)]
    assert stretch_lower(ASYM) == -1.0
    assert bracket(ASYM, 2).lower == -1.0


def spy_on_power_steps(monkeypatch) -> list:
    """Log (groups, stacked table, the letters of each group) per
    `own_images` call of the power orbits, one kernel batch each."""
    calls = []
    own_images = spectral.own_images

    def spy(tables, groups, *, budget):
        calls.append((len(groups), len(tables) > 1, groups))
        return own_images(tables, groups, budget=budget)

    monkeypatch.setattr(spectral, "own_images", spy)
    return calls


def test_power_orbits_step_in_lockstep(niel, monkeypatch):
    # the short orbits of a group share one `own_images` call per
    # power step, each a map of one stacked table; the long orbit passes
    # BATCH_CAP at k = 3 and runs alone, on a table of its own, through
    # k = 3 and 4 before the group's next call
    def walk_images(seed, n):
        *_, (_, _, inv) = sample_path(niel, seed, 0, n)
        return as_bytes(inv.images)

    image_sets = [walk_images(0, 4), walk_images(2, 15), walk_images(0, 8), walk_images(0, 12)]
    want = [brackets([ims], 4)[0] for ims in image_sets]
    calls = spy_on_power_steps(monkeypatch)
    assert brackets(image_sets, 4) == want
    assert [call[:2] for call in calls] == [(4, True), (1, False), (1, False), (3, True), (3, True)]
    for _, _, [words] in calls[1:3]:
        assert all(a is w for a, w in zip(words, image_sets[1]))
    # at 100 letters the kernel stops the long orbit at step 2, whose raw
    # size is 1,810, and the last short one at step 3, whose raw size is
    # 480: each enters the stacked call of the step that cuts it, and
    # comes back with the rows it gets alone
    calls.clear()
    orbits = power_orbits(image_sets, 4, 100, candidate_lengths)
    assert [call[:2] for call in calls] == [(4, True), (3, True), (2, True)]
    assert orbits == [power_orbits([ims], 4, 100, candidate_lengths)[0] for ims in image_sets]
    assert [len(rows) for rows in orbits] == [4, 1, 4, 2]


def power_step_sizes(monkeypatch) -> list:
    """Log (size, raw size) per item of each power step of the brackets:
    the size that `lockstep_orbits` reads, and the sum of |phi^(k-1)(x_j)|
    over the letters x_j of the phi(x_i), as the kernel forms it."""
    logged = []
    orbits = spectral.lockstep_orbits

    def spy(items, size, step, first, last):
        def logged_step(k, group):
            for item in group:
                _, images, words = item
                lens = [len(w) for w in words]
                letters = np.frombuffer(b"".join(images), dtype=np.int8).tolist()
                logged.append((size(item), sum(lens[abs(x) - 1] for x in letters)))
            return step(k, group)

        return orbits(items, size, logged_step, first, last)

    monkeypatch.setattr(spectral, "lockstep_orbits", spy)
    return logged


@pytest.mark.parametrize("master_seed", [6256742556232270619, 6867211471654728749])
def test_a_power_step_size_bounds_its_raw_size(niel, monkeypatch, master_seed):
    # an item whose size reaches BATCH_CAP runs alone, so the size must
    # bound the letters its step substitutes.  On these spectral-niel
    # benchmark configs the total length of the phi^(k-1)(x_i) times the
    # longest |phi(x_j)| fell below the raw size of one step: 402 < 409
    # and 129 < 132
    sizes = power_step_sizes(monkeypatch)
    # a series runs its paths as its records are read
    spectral_experiment(niel, n_max=32, paths=16, master_seed=master_seed, k_max=4,
                        letter_budget=200_000).records
    assert len(sizes) > 200
    assert all(size >= raw for size, raw in sizes)


def test_bracket_and_the_stretch_kind_are_a_batch_of_one(tmp_path, monkeypatch):
    sizes = []
    batch = spectral.brackets
    want = batch([as_bytes(ASYM.images)], 5)[0]

    def spy(image_sets, k_max, *, budget=None):
        image_sets = list(image_sets)
        sizes.append(len(image_sets))
        return batch(image_sets, k_max, budget=budget)

    monkeypatch.setattr(spectral, "brackets", spy)
    calls = spy_on_power_steps(monkeypatch)
    br = bracket(ASYM, 5)
    assert br == want
    cfg, out = tmp_path / "run.cfg", tmp_path / "run.csv"
    cfg.write_text("kind = stretch\nk_max = 5\nrank = 3\n"
                   "gen.0.map = a->b; b->c; c->ab\ngen.0.inv = a->cA; b->a; c->b\n")
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert f"stretch,0,0,stretch.upper,{br.upper!r},ok" in out.read_text().splitlines()
    assert sizes == [1, 1]
    # four power steps each, one group on the map's own table
    assert [call[:2] for call in calls] == [(1, False)] * 8
