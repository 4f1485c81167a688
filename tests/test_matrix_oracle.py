"""Exact matrix arithmetic and spectral brackets."""

import math
import random
from itertools import cycle, islice
from math import isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from outwalk import matrix_oracle, walk_engine
from outwalk.matrix_oracle import (
    CHUNK,
    DEFAULT_BIT_BUDGET,
    GELFAND_MAX_J,
    PREC,
    SHARED_SQUARE_MIN,
    BitBudgetExceeded,
    IntMatrix,
    MatrixBracket,
    log_norm,
    parse_matrix,
    spectral_radii,
    spectral_radius,
    _log_of_all,
    _row_norm,
)
from outwalk.walk_engine import (
    _column,
    _furstenberg_records,
    _guivarch_records,
    _matrix_path,
    furstenberg_experiment,
    guivarch_experiment,
)

GOLDEN = (1 + math.sqrt(5)) / 2

entry = st.integers(min_value=-6, max_value=6)


def matrix_path(reader, increments, bit_budget=DEFAULT_BIT_BUDGET, start=None):
    """The records of `_matrix_path` on explicit increments as path 0, its
    chunks joined, and the message of the BitBudgetExceeded that cut it,
    or None."""
    chunks, records = _matrix_path(reader, 0, increments, bit_budget, start), []
    while True:
        try:
            records += next(chunks)
        except StopIteration as end:
            return records, end.value and str(end.value)


def small_matrix(n, entries=entry):
    return st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(IntMatrix)


# zero stands in for the sparse entries of transvection products
big_entry = st.one_of(st.just(0), st.integers(min_value=-2**200, max_value=2**200))


def reference_ladder(a, bit_budget=math.inf):
    """(lower, upper) of the Gelfand ladder built from `@` powers, with
    the lower bound raised to 0 when A is nonsingular (then rho >= 1)."""
    lower, upper = unclamped_ladder(a, bit_budget)
    return (0.0 if lower < 0 and a.det() else lower), upper


def unclamped_ladder(a, bit_budget=math.inf):
    """(lower, upper) of the Gelfand ladder built from `@` powers."""
    lower, upper = float("-inf"), math.inf
    power = a
    for j in range(GELFAND_MAX_J + 1):
        if j:
            power = power @ power
        k = 1 << j
        if power.max_bits() > bit_budget:
            raise BitBudgetExceeded(f"A^{k} entries exceed {bit_budget} bits")
        upper = min(upper, log_norm(power) / k)
        tr = abs(power.trace())
        if tr:
            lower = max(lower, (math.log(tr) - math.log(a.n)) / k)
    return lower, upper


def power(a, k):
    """A^k as k products."""
    out = IntMatrix.identity(a.n)
    for _ in range(k):
        out = out @ a
    return out


def special_matrix(n):
    """Singular, nilpotent (chi = x^n), permutation and diagonal matrices."""
    big = st.lists(big_entry, min_size=n * n, max_size=n * n)
    rows = big.map(lambda e: [e[i * n:(i + 1) * n] for i in range(n)])
    singular = rows.map(lambda r: r[:-1] + [r[0]])
    nilpotent = rows.map(lambda r: [[x if j > i else 0 for j, x in enumerate(row)]
                                    for i, row in enumerate(r)])
    nilpotent_low = nilpotent.map(lambda r: [list(col) for col in zip(*r)])
    permutation = st.permutations(range(n)).map(
        lambda p: [[int(j == p[i]) for j in range(n)] for i in range(n)])
    diagonal = big.map(lambda e: [[e[i] if i == j else 0 for j in range(n)] for i in range(n)])
    return st.one_of(singular, nilpotent, nilpotent_low, permutation, diagonal).map(IntMatrix)


def transvections(n):
    """The n(n-1) pairs I +- E_ij of SL(n, Z), i != j."""
    out = []
    for i in range(n):
        for j in range(n):
            if i != j:
                for sign in (1, -1):
                    rows = [[int(r == c) for c in range(n)] for r in range(n)]
                    rows[i][j] = sign
                    out.append(IntMatrix(rows))
    return out


@pytest.fixture
def ladder_runs(monkeypatch):
    """Counts of exact ladders (no cut) and of ball intervals read."""
    runs = {"exact": 0, "balls": 0}
    ladder, log_of_all = matrix_oracle._ladder, matrix_oracle._log_of_all

    def spy_ladder(mats, bit_budget, prec):
        runs["exact"] += prec is None
        return ladder(mats, bit_budget, prec)

    def spy_log_of_all(lo, hi, e):
        runs["balls"] += 1
        return log_of_all(lo, hi, e)

    monkeypatch.setattr(matrix_oracle, "_ladder", spy_ladder)
    monkeypatch.setattr(matrix_oracle, "_log_of_all", spy_log_of_all)
    return runs


def test_mat_mul_examples():
    a = IntMatrix([[1, 1], [0, 1]])
    b = IntMatrix([[1, 0], [1, 1]])
    assert a @ b == IntMatrix([[2, 1], [1, 1]])
    i = IntMatrix.identity(2)
    assert a @ i == a and i @ a == a
    # a product is a well-formed matrix: tuple rows, hashable, equal to the checked one
    assert hash(a @ b) == hash(IntMatrix([[2, 1], [1, 1]]))


def sparse_matrix(n):
    """Matrices whose rows are unit rows, -1 rows, zero rows or random zero patterns."""
    unit = st.integers(0, n - 1).map(lambda j: [int(c == j) for c in range(n)])
    minus = unit.map(lambda row: [-x for x in row])
    pattern = st.lists(st.one_of(st.just(0), st.integers(-2**70, 2**70)), min_size=n, max_size=n)
    row = st.one_of(unit, minus, st.just([0] * n), pattern)
    return st.lists(row, min_size=n, max_size=n).map(IntMatrix)


@settings(max_examples=150)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    sparse_matrix(n), sparse_matrix(n),
    st.lists(st.integers(-2**70, 2**70), min_size=n, max_size=n))))
def test_sparse_products_equal_the_dense_sums(args):
    a, b, v = args
    n = a.n
    dense = IntMatrix([[sum(a.entries[i][k] * b.entries[k][j] for k in range(n))
                        for j in range(n)] for i in range(n)])
    prod = a @ b
    assert prod == dense and hash(prod) == hash(dense)
    # a column block, the right factor `running_products` carries for a vector
    image = (a @ IntMatrix._of_rows(tuple((x,) for x in v))).entries
    assert all(type(row) is tuple for row in image)
    assert image == tuple((sum(a.entries[i][k] * v[k] for k in range(n)),) for i in range(n))


def test_a_unit_row_passes_the_right_factors_row_through():
    a = IntMatrix([[1, 0, 0], [0, 0, 1], [1, -1, 0]])
    b = IntMatrix([[2**100, 3, 5], [7, 11, 13], [17, 19, 23]])
    p = a @ b
    assert p.entries[0] is b.entries[0] and p.entries[1] is b.entries[2]
    assert p.entries[2] == (2**100 - 7, -8, -8)
    v = IntMatrix._of_rows(((2**90,), (5,), (-6,)))
    assert (a @ v).entries[0] is v.entries[0]


@settings(max_examples=50)
@given(small_matrix(3), small_matrix(3), small_matrix(3))
def test_mat_mul_associative(a, b, c):
    assert (a @ b) @ c == a @ (b @ c)


@settings(max_examples=50)
@given(small_matrix(2), small_matrix(2))
def test_det_multiplicative(a, b):
    assert (a @ b).det() == a.det() * b.det()


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=3, max_value=6).flatmap(
    lambda n: st.one_of(small_matrix(n, big_entry), special_matrix(n))))
def test_spectral_radius_equals_reference_ladder_up_to_dimension_six(a):
    br = spectral_radius(a)
    assert (br.lower, br.upper) == reference_ladder(a)


@pytest.mark.parametrize("rows", [
    [[1.5, 0], [0, 1]],
    [[1.0, 0], [0, 1]],
    [["1", 0], [0, 1]],
])
def test_int_matrix_rejects_non_integer_entries(rows):
    with pytest.raises(ValueError):
        IntMatrix(rows)


def test_det_examples():
    assert IntMatrix.identity(4).det() == 1
    assert IntMatrix([[2, 1], [1, 1]]).det() == 1
    assert IntMatrix([[0, 1, 0], [0, 0, 1], [1, 1, 0]]).det() == 1
    assert IntMatrix([[1, 2], [2, 4]]).det() == 0


def test_log_norm():
    assert log_norm(IntMatrix.identity(3)) == 0.0
    assert log_norm(IntMatrix([[2, 1], [1, 1]])) == pytest.approx(math.log(3))
    assert log_norm(IntMatrix([[0, 0], [0, 0]])) == float("-inf")


@settings(max_examples=50)
@given(small_matrix(2), small_matrix(2))
def test_log_norm_submultiplicative(a, b):
    assert log_norm(a @ b) <= log_norm(a) + log_norm(b) + 1e-12


def test_spectral_radius_exact_2x2():
    assert spectral_radius(IntMatrix.identity(2)).lower == pytest.approx(0.0)
    br = spectral_radius(IntMatrix([[2, 1], [1, 1]]))
    # the closed form is the value itself
    assert br.lower == br.upper
    assert math.exp(br.lower) == pytest.approx((3 + math.sqrt(5)) / 2)
    # parabolic: double eigenvalue 1
    assert spectral_radius(IntMatrix([[1, 1], [0, 1]])).lower == pytest.approx(0.0)
    # rotation: complex pair of modulus 1
    assert spectral_radius(IntMatrix([[0, -1], [1, 0]])).lower == pytest.approx(0.0)
    # fibonacci
    fib = spectral_radius(IntMatrix([[1, 1], [1, 0]]))
    assert fib.lower == pytest.approx(math.log(GOLDEN), abs=1e-12)


def test_spectral_radius_huge_entries():
    # powers with thousand-bit entries must not overflow the log
    m = power(IntMatrix([[2, 1], [1, 1]]), 900)
    br = spectral_radius(m)
    assert br.lower == pytest.approx(900 * math.log((3 + math.sqrt(5)) / 2), rel=1e-12)


def full_root_log(t, disc):
    """log((t + sqrt(disc)) / 2) past 1000 bits, from the whole integer root."""
    return math.log(t + isqrt(disc)) - math.log(2.0)


def tie_trace(bits, mantissa):
    """A trace t for det -1 whose b = t + isqrt(t^2 + 4) = 2t, a `bits`-bit
    integer, lies halfway between two doubles; with an even 53-bit
    `mantissa` b rounds down and b + 1 up."""
    return (2 * mantissa + 1) << (bits - 55)


long_trace = st.integers(1000, 6000).flatmap(lambda bits: st.integers(2**(bits - 1), 2**bits - 1))
even_tie = st.tuples(st.integers(1001, 6000), st.integers(2**51, 2**52 - 1)).map(
    lambda p: tie_trace(p[0], 2 * p[1]))


@settings(max_examples=150, deadline=None)
@given(st.one_of(long_trace, even_tie), st.sampled_from([1, -1]), st.sampled_from([1, -1]))
def test_the_closed_form_of_a_long_2x2_matrix_is_the_log_of_the_whole_root(t, det, sign):
    # trace sign * t and determinant det: the root of the discriminant t^2 - 4 det
    a = IntMatrix([[sign * t, -det], [1, 0]])
    br = spectral_radius(a)
    assert br.lower == br.upper == full_root_log(t, t * t - 4 * det)


def test_a_long_root_is_taken_whole_only_when_its_high_bits_leave_the_double_open(monkeypatch):
    reads, roots = [], []
    log_of_all = matrix_oracle._log_of_all

    def spy_log_of_all(lo, hi, e):
        reads.append(log_of_all(lo, hi, e))
        return reads[-1]

    def spy_isqrt(x):
        roots.append(x)
        return isqrt(x)

    monkeypatch.setattr(matrix_oracle, "_log_of_all", spy_log_of_all)
    monkeypatch.setattr(matrix_oracle, "isqrt", spy_isqrt)
    tie = tie_trace(3000, 2**52)
    for t, det, certified in ((3**2000, 1, True), (tie, -1, False)):
        reads[:], roots[:] = [], []
        disc = t * t - 4 * det
        assert spectral_radius(IntMatrix([[t, -det], [1, 0]])).lower == full_root_log(t, disc)
        # one interval read; the whole root only after an interval that fixes no double
        assert len(reads) == 1 and (reads[0] is not None) == certified
        assert roots[0].bit_length() < 2 * matrix_oracle.ROOT_BITS + 2
        assert roots[1:] == ([] if certified else [disc])


def test_power_rho_consistency():
    # rho(A^k) = rho(A)^k for exact 2x2 values
    a = IntMatrix([[2, 1], [1, 1]])
    base = spectral_radius(a).lower
    for k in range(1, 6):
        assert spectral_radius(power(a, k)).lower == pytest.approx(k * base, rel=1e-12)


@settings(max_examples=50)
@given(small_matrix(2))
def test_conjugation_invariance_2x2(a):
    conj = IntMatrix([[1, 1], [0, 1]])
    conj_inv = IntMatrix([[1, -1], [0, 1]])
    left = spectral_radius(conj @ a @ conj_inv).lower
    assert left == pytest.approx(spectral_radius(a).lower, abs=1e-9)


@settings(max_examples=60)
@given(small_matrix(3))
def test_gelfand_bracket_orders(a):
    br = spectral_radius(a)
    assert br.lower <= br.upper + 1e-9
    assert br.lower <= log_norm(a) + 1e-9


def test_spectral_radius_equals_reference_ladder_on_transvection_walk(sl3):
    rng = random.Random(3)
    prod = IntMatrix.identity(3)
    for _ in range(600):
        prod = rng.choice(sl3.support) @ prod
        br = spectral_radius(prod)
        assert (br.lower, br.upper) == reference_ladder(prod)


@settings(max_examples=60)
@given(st.one_of(small_matrix(3, st.integers(-10**6, 10**6)),
                 small_matrix(4, st.integers(-10**6, 10**6))))
def test_spectral_radius_equals_reference_ladder(a):
    br = spectral_radius(a)
    assert (br.lower, br.upper) == reference_ladder(a)


@settings(max_examples=40, deadline=None)
@given(st.one_of(small_matrix(3, st.one_of(st.just(0), st.integers(-2**40, 2**40))),
                 small_matrix(4, st.one_of(st.just(0), st.integers(-2**40, 2**40)))))
def test_bit_budget_matches_reference_ladder_at_every_level(a):
    level_bits = [power(a, 1 << j).max_bits() for j in range(GELFAND_MAX_J + 1)]
    for budget in sorted({b - d for b in level_bits for d in (0, 1)}):
        try:
            expected = reference_ladder(a, budget)
        except BitBudgetExceeded as e:
            with pytest.raises(BitBudgetExceeded) as got:
                spectral_radius(a, budget)
            assert str(got.value) == str(e)
        else:
            br = spectral_radius(a, budget)
            assert (br.lower, br.upper) == expected


def test_bit_budget_bounds_the_gelfand_ladder():
    h = IntMatrix([[2, 1, 0], [1, 1, 1], [0, 1, 1]])  # det -1, rho near e
    a = power(h, 40)
    assert a.max_bits() < 100  # A fits the budget, A^64 has about 3800 bits
    with pytest.raises(BitBudgetExceeded):
        spectral_radius(a, bit_budget=1000)
    assert spectral_radius(a, bit_budget=4000) == spectral_radius(a)
    # the walk is cut off once A_n^64, not A_n, outgrows the budget
    records, message = matrix_path(_guivarch_records, [h] * 100, bit_budget=1000)
    assert message is not None
    assert 0 < records[-1][1] < 20


huge_entry = st.one_of(st.just(0), st.integers(min_value=-2**400, max_value=2**400))


@settings(max_examples=60, deadline=None)
@given(st.one_of(small_matrix(3, huge_entry), small_matrix(4, huge_entry),
                 special_matrix(3), special_matrix(4)))
def test_ball_ladder_equals_reference_ladder_on_long_entries(a):
    # A passes PREC bits when the entries have 400 bits, so A^2..A^64 are balls
    br = spectral_radius(a)
    assert (br.lower, br.upper) == reference_ladder(a)


def assert_balls_enclose(a):
    """Every ball the ladder reads for A holds the row norm and |trace| of its power.

    Returns the number of ball levels read.
    """
    reads = []
    log_of_all = matrix_oracle._log_of_all

    def spy(lo, hi, e):
        reads.append((lo << e, hi << e))
        return log_of_all(lo, hi, e)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrix_oracle, "_log_of_all", spy)
        spectral_radius(a)
    powers = [a]
    for _ in range(GELFAND_MAX_J):
        powers.append(powers[-1] @ powers[-1])
    # the first ball is the square of the first power whose row norm passes PREC bits
    first = 1 + next((j for j, p in enumerate(powers) if _row_norm(p.entries).bit_length() > PREC),
                     GELFAND_MAX_J)
    levels = list(zip(reads[::2], reads[1::2]))
    assert len(reads) % 2 == 0 and first + len(levels) <= GELFAND_MAX_J + 1
    for p, (norm, trace) in zip(powers[first:], levels):
        assert norm[0] <= _row_norm(p.entries) <= norm[1]
        assert trace[0] <= abs(p.trace()) <= trace[1]
    return len(levels)


@settings(max_examples=60, deadline=None)
@given(st.one_of(small_matrix(3, huge_entry), small_matrix(4, huge_entry)))
def test_balls_enclose_the_exact_powers(a):
    assert_balls_enclose(a)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("bits", [400, 1100])
def test_balls_enclose_the_powers_of_a_worst_case_matrix(n, bits):
    # every entry is all ones: each cut drops nearly 1, and with all signs
    # equal MD + DM reaches rad * (row sum + col sum)
    assert assert_balls_enclose(IntMatrix([[2**bits - 1] * n] * n)) == GELFAND_MAX_J


@pytest.mark.parametrize("dim", [3, 4])
def test_ball_ladder_equals_reference_ladder_on_transvection_walks(dim, ladder_runs):
    support = transvections(dim)
    rng = random.Random(dim)
    prod = IntMatrix.identity(dim)
    for n in range(1, 1201):
        prod = rng.choice(support) @ prod
        if n >= 300 and n % 60 == 0:
            br = spectral_radius(prod)
            assert (br.lower, br.upper) == reference_ladder(prod)
    assert ladder_runs["balls"] > 0
    assert ladder_runs["exact"] == 0  # the balls fixed every float


@pytest.mark.parametrize("rows", [
    # the row norm y^2 of A^2 is within 2y of a rounding tie, 2^300 (1 + 2^-53),
    # and the ball's interval is far wider
    [[isqrt(2**300 + 2**247), 0, 0], [0, 1, 0], [0, 0, 1]],
    # a 3-cycle: the trace of every A^(2^j) is 0
    [[0, 2**400, 0], [0, 0, 2**400], [2**400, 0, 0]],
    # nilpotent, past the switch at A itself: A^2 has trace 0, A^4 = 0
    [[0, 3**700, 5**500], [0, 0, 7**400], [0, 0, 0]],
    [[0, 0, 0, 0], [3**700, 0, 0, 0], [5**600, 2**1100, 0, 0], [1, 7**500, 11**400, 0]],
])
def test_undecided_balls_fall_back_to_the_exact_ladder(rows, ladder_runs):
    a = IntMatrix(rows)
    br = spectral_radius(a)
    assert ladder_runs["exact"] == 1
    assert (br.lower, br.upper) == reference_ladder(a)


@pytest.mark.parametrize("dim, seed, steps", [(3, 1, 600), (3, 2, 600), (4, 3, 1500)])
def test_bit_budget_past_the_switch_raises_at_the_reference_power(dim, seed, steps):
    support = transvections(dim)
    rng = random.Random(seed)
    a = IntMatrix.identity(dim)
    for _ in range(steps):
        a = rng.choice(support) @ a
    powers = [a]
    for _ in range(GELFAND_MAX_J):
        powers.append(powers[-1] @ powers[-1])
    norm_bits = [_row_norm(p.entries).bit_length() for p in powers]
    switch = next(j for j, b in enumerate(norm_bits) if b > PREC)  # cut before it is squared
    assert switch < GELFAND_MAX_J - 1  # at least two ball levels
    budgets = {b - d for p, nb in zip(powers[switch + 1:], norm_bits[switch + 1:])
               for b in (p.max_bits(), nb) for d in (-1, 0, 1, 2)}
    for budget in sorted(budgets):
        try:
            expected = reference_ladder(a, budget)
        except BitBudgetExceeded as e:
            with pytest.raises(BitBudgetExceeded) as got:
                spectral_radius(a, budget)
            assert str(got.value) == str(e)
        else:
            br = spectral_radius(a, budget)
            assert (br.lower, br.upper) == expected


def assert_reference(a, br, bit_budget=math.inf):
    """br, a bracket or an exception, is what reference_ladder gives for A."""
    try:
        expected = reference_ladder(a, bit_budget)
    except BitBudgetExceeded as e:
        assert isinstance(br, BitBudgetExceeded) and str(br) == str(e)
    else:
        assert (br.lower, br.upper) == expected


def batch_items(mats, bit_budget) -> list:
    """What spectral_radii yields for mats, then the BitBudgetExceeded it
    raises, if it raises one."""
    items = []
    try:
        for br in spectral_radii(mats, bit_budget):
            items.append(br)
    except BitBudgetExceeded as e:
        items.append(e)
    return items


def test_a_batch_equals_its_matrices_one_by_one(ladder_runs, monkeypatch):
    budget = 10_000
    rng = random.Random(5)
    walk = IntMatrix.identity(3)
    for _ in range(600):
        walk = rng.choice(transvections(3)) @ walk
    mats = [
        IntMatrix([[2, 1, 0], [1, 1, 1], [0, 1, 1]]),  # exact at every level
        walk,  # balls from A^4 on
        # undecided at A^2: the exact ladder decides
        IntMatrix([[isqrt(2**300 + 2**247), 0, 0], [0, 1, 0], [0, 0, 1]]),
        # the ball of A^64 may pass the budget: the exact ladder raises
        IntMatrix([[2**200 + 1, 1, 0], [0, 1, 0], [1, 0, 1]]),
        IntMatrix([[2**budget, 0, 0], [0, 1, 0], [0, 0, 1]]),  # A itself is over budget
    ]
    alone = [str(x) for a in mats for x in batch_items([a], budget)]
    assert ladder_runs["exact"] == 2
    squares = []
    shared_square = matrix_oracle._shared_square

    def spy(m):
        squares.append(len(m))
        return shared_square(m)

    monkeypatch.setattr(matrix_oracle, "_shared_square", spy)
    # each kind beside each other kind, in batches on each side of the size
    # from which the Gelfand squares share their products; the batch
    # raises at its first matrix over the budget, so the matrices over it
    # come before, and after, all the others
    for size in (10, SHARED_SQUARE_MIN - 1, 2 * SHARED_SQUARE_MIN):
        cycled = list(islice(cycle([0, 1, 2, 3, 4, 4, 3, 2, 1, 0]), size))
        for kinds in (cycled, sorted(cycled, key=lambda i: i >= 3)):
            batch = [mats[i] for i in kinds]
            exact, squares[:] = ladder_runs["exact"], []
            got = batch_items(batch, budget)
            # every item up to the first raise, which ends the batch
            assert isinstance(got[-1], BitBudgetExceeded) and kinds[len(got) - 1] >= 3
            assert ladder_runs["exact"] - exact == sum(i in (2, 3) for i in kinds[:len(got)])
            for a, br in zip(batch, got):
                assert_reference(a, br, budget)
            assert [str(x) for x in got] == [alone[i] for i in kinds[:len(got)]]
            # a square shares its products while the batch holds SHARED_SQUARE_MIN live matrices
            assert all(live >= SHARED_SQUARE_MIN for live in squares)
            assert bool(squares) == (size > SHARED_SQUARE_MIN)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 6).flatmap(lambda n: st.lists(
    st.lists(st.lists(st.one_of(st.just(0), st.integers(-2**300, 2**300)),
                      min_size=n, max_size=n), min_size=n, max_size=n),
    min_size=1, max_size=5)))
def test_the_shared_square_is_the_square(stack):
    m = np.array(stack, dtype=object)
    assert matrix_oracle._shared_square(m).tolist() == (m @ m).tolist()


def test_zero_and_nilpotent_matrices_in_a_shared_square_batch():
    rng = random.Random(7)
    walk, mats = IntMatrix.identity(3), []
    for step in range(1, 701):
        walk = rng.choice(transvections(3)) @ walk
        if step % 10 == 0:
            mats.append(walk)
    zero = IntMatrix([[0, 0, 0]] * 3)
    nilpotent = IntMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    mats.insert(3, zero)
    mats.insert(40, nilpotent)
    assert len(mats) >= SHARED_SQUARE_MIN
    got = list(spectral_radii(mats))
    for a, br in zip(mats, got):
        assert (br.lower, br.upper) == reference_ladder(a)
    # every power past N^2 is zero: both bounds read the log of norm or trace 0
    assert (got[3].lower, got[3].upper) == (got[40].lower, got[40].upper) == (-math.inf, -math.inf)


def ladder_matrix(n):
    return st.one_of(small_matrix(n), small_matrix(n, huge_entry), special_matrix(n))


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 4).flatmap(lambda n: st.tuples(ladder_matrix(n), ladder_matrix(n))),
       st.sampled_from([300, 3000, 10**6]))
def test_the_ladder_of_a_pair_is_the_pair_of_ladders(pair, budget):
    got = batch_items(list(pair), budget)
    alone = [batch_items([a], budget)[0] for a in pair]
    # the pair ends at the first matrix that raises
    assert [str(x) for x in got] == [str(x) for x in alone[:len(got)]]
    assert len(got) == 2 or isinstance(got[0], BitBudgetExceeded)
    for a, br in zip(pair, got):
        assert_reference(a, br, budget)


def reference_rows(increments, bit_budget):
    """A guivarch path one step at a time: its records and the message it ends with."""
    prod, rows = None, []
    for n, a in enumerate(increments, 1):
        prod = a if prod is None else a @ prod
        if prod.max_bits() > bit_budget:
            return rows, f"product entries exceed {bit_budget} bits at n={n}"
        if a.n <= 2:
            lower = upper = spectral_radius(prod).lower
        else:
            try:
                lower, upper = reference_ladder(prod, bit_budget)
            except BitBudgetExceeded as e:
                return rows, str(e)
        rows += [(0, n, "guivarch.rho_lower", lower / n, "ok"),
                 (0, n, "guivarch.rho_upper", upper / n, "ok"),
                 (0, n, "guivarch.norm", log_norm(prod) / n, "ok")]
    return rows, None


@pytest.mark.parametrize("chunk, chunk_bits", [(1, None), (3, None), (CHUNK, None), (CHUNK, 2000)])
@pytest.mark.parametrize("dim, steps, bit_budget", [
    (3, 400, 10**6),  # A^64 is a ball from n = 29 on
    (3, 400, 2000),  # A^64 passes the budget at n = 213
    (2, 200, 16),  # closed form: the product itself passes the budget at n = 81
])
def test_guivarch_rows_do_not_depend_on_the_chunk(chunk, chunk_bits, dim, steps, bit_budget,
                                                    monkeypatch):
    rng = random.Random(steps + dim)
    # the first `steps` increments, then enough more that a walk no budget
    # cuts closes a chunk of `chunk` products
    increments = [rng.choice(transvections(dim)) for _ in range(max(steps, chunk + 100))]
    monkeypatch.setattr(matrix_oracle, "CHUNK", chunk)
    if chunk_bits is not None:
        monkeypatch.setattr(matrix_oracle, "CHUNK_BITS", chunk_bits)
    bits_cap = matrix_oracle.CHUNK_BITS
    batches = []
    batch_ladder = matrix_oracle.spectral_radii

    def spy(mats, bit_budget):
        batches.append(mats)
        return batch_ladder(mats, bit_budget)

    monkeypatch.setattr(walk_engine, "spectral_radii", spy)
    assert matrix_path(_guivarch_records, increments, bit_budget) == reference_rows(
        increments, bit_budget)
    def entry_bits(mats):
        return sum(a.max_bits() * a.n * a.n for a in mats)

    def may_cut(a):
        # entries of A^64 have at most 64 (b + n.bit_length()) bits; the
        # closed form of a 2x2 matrix forms no power
        return a.n > 2 and (a.max_bits() + a.n.bit_length()) << GELFAND_MAX_J > bit_budget

    # a chunk closes at `chunk` products, once its entries pass the cap, or
    # after a product whose Gelfand ladder may pass the budget
    assert all(len(b) <= chunk and entry_bits(b[:-1]) <= bits_cap for b in batches)
    assert not any(may_cut(a) for b in batches for a in b[:-1])
    if dim == 2 and chunk > 1:
        # 2x2 products share a batch at any budget
        assert any(len(b) > 1 for b in batches)
    if bit_budget == 10**6:
        # no product of this walk comes near the budget
        assert batches[:-1]
        assert all(len(b) == chunk or entry_bits(b) > bits_cap for b in batches[:-1])
    if chunk_bits is not None and dim == 3 and bit_budget == 10**6:
        assert any(len(b) < chunk for b in batches[:-1])


def test_a_cut_guivarch_path_forms_no_product_past_its_cut(sl3, monkeypatch):
    # the `matrix-guivarch-ballcut` golden: on each of its 4 paths a Gelfand
    # power of the product, not the product, passes the budget mid-chunk
    counts = {"matmul": 0, "batched": 0}
    matmul, ladder = IntMatrix.__matmul__, matrix_oracle._ladder

    def spy_matmul(a, b):
        counts["matmul"] += 1
        return matmul(a, b)

    def spy_ladder(mats, bit_budget, prec):
        if prec is not None:  # not an exact rerun
            counts["batched"] += len(mats)
        return ladder(mats, bit_budget, prec)

    monkeypatch.setattr(IntMatrix, "__matmul__", spy_matmul)
    monkeypatch.setattr(matrix_oracle, "_ladder", spy_ladder)
    series = guivarch_experiment(sl3, n_max=700, paths=4, master_seed=5, bit_budget=3000)
    cuts = [n + 1 for _, n, est, _, _ in series.records if est == "truncated_at"]
    assert len(cuts) == 4 and max(cuts) < 700
    # a path's first product is its first increment: the cut is the last product formed
    assert counts["matmul"] == sum(cut - 1 for cut in cuts)
    # the batches ladder no more matrices than the products formed
    assert counts["batched"] <= counts["matmul"] + len(cuts)


def test_a_chunk_of_column_blocks_closes_only_at_its_size(sl3, monkeypatch):
    # under bit budget 24 every 3x3 block passes the bound of the A^64
    # close rule, but no Gelfand ladder reads a block: a furstenberg path
    # of n blocks comes in at most ceil(n / CHUNK) + 1 chunks, the last
    # one the chunk a cut ends
    chunks = []
    products = walk_engine.running_products

    def spy(increments, bit_budget, start=None):
        sizes = []
        chunks.append(sizes)
        for chunk in products(increments, bit_budget, start):
            sizes.append(len(chunk[0]))
            yield chunk

    monkeypatch.setattr(walk_engine, "running_products", spy)
    series = furstenberg_experiment(sl3, vector=(1, 1, 0), n_max=200, paths=4, master_seed=0,
                                    bit_budget=24)
    # the series streams: its paths run as its records are read
    assert any(r[2] == "truncated_at" for r in series.records) and len(chunks) == 4
    for sizes in chunks:
        assert len(sizes) <= -(-sum(sizes) // CHUNK) + 1


def test_guivarch_series_reads_only_the_rows_an_increment_changes(monkeypatch):
    rng = random.Random(9)
    increments = [rng.choice(transvections(3)) for _ in range(300)]
    expected = reference_rows(increments, 10**6)
    reads = []
    read_row = matrix_oracle._read_row

    def spy(row):
        reads.append(row)
        return read_row(row)

    def never(*args):
        raise AssertionError("a product read again")

    monkeypatch.setattr(matrix_oracle, "_read_row", spy)
    monkeypatch.setattr(matrix_oracle, "log_norm", never)
    monkeypatch.setattr(IntMatrix, "max_bits", never)
    assert matrix_path(_guivarch_records, increments) == expected
    # the three rows of the first product, then the one row each transvection changes
    assert len(reads) == 3 + len(increments) - 1


@settings(max_examples=300)
@given(st.integers(2**53, 2**1000), st.integers(0, 2**40), st.integers(0, 3000), st.data())
def test_log_of_all_is_the_log_of_every_integer_in_the_interval(lo, width, e, data):
    hi = lo + width
    got = _log_of_all(lo, hi, e)
    if got is not None:
        assert float(lo) == float(hi)  # both ends round to one double
        x = data.draw(st.integers(lo << e, hi << e))
        assert math.log(lo << e) == math.log(x) == math.log(hi << e) == got


def test_log_of_all_refuses_a_tie():
    # mantissa 2^52 (even), round bit 1, no bit below: lo rounds down, lo + 1 up
    tie = ((2**52 << 1) | 1) << 3
    assert float(tie) != float(tie + 1)
    assert _log_of_all(tie, tie + 1, 0) is None
    assert _log_of_all(tie + 1, tie + 2, 0) == math.log(tie + 1)


def test_log_of_all_refuses_an_interval_that_may_hold_zero():
    assert _log_of_all(0, 1, 5) is None
    assert _log_of_all(-2**60, 2**60, 0) is None
    assert _log_of_all(-1, 2**60, 0) is None


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.one_of(small_matrix(n), small_matrix(n, big_entry), special_matrix(n))))
@example(IntMatrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]))  # every trace bound reads -inf
def test_only_a_nonsingular_lower_bound_is_raised_to_zero(a):
    br = spectral_radius(a)
    if a.det():
        assert br.lower >= 0.0
    elif a.n >= 3:
        assert (br.lower, br.upper) == unclamped_ladder(a)
    else:
        # a singular matrix of size <= 2 has rho = |trace|
        t = abs(a.trace())
        assert br.lower == br.upper
        assert br.lower == (pytest.approx(math.log(t), rel=1e-12) if t else -math.inf)


def test_gelfand_bracket_contains_known_value():
    # x^3 = x + 1, plastic ratio
    m = IntMatrix([[0, 1, 0], [0, 0, 1], [1, 1, 0]])
    truth = math.log(1.3247179572447460)
    br = spectral_radius(m)
    assert br.lower - 1e-9 <= truth <= br.upper + 1e-9
    assert br.upper - br.lower < 0.05


def furstenberg_path(increments, vector, bit_budget=DEFAULT_BIT_BUDGET):
    """The records of a furstenberg path of explicit increments from the
    seed `vector`, and the message of its cut, or None."""
    return matrix_path(_furstenberg_records, increments, bit_budget, _column(vector))


def test_vector_growth_identity():
    ident = IntMatrix.identity(2)
    records, _ = furstenberg_path([ident] * 5, (1, 0))
    assert [r[3] for r in records] == [0.0] * 5


def test_vector_growth_hyperbolic():
    a = IntMatrix([[2, 1], [1, 1]])
    records, _ = furstenberg_path([a] * 200, (1, 0))
    limit = math.log((3 + math.sqrt(5)) / 2)
    assert records[-1][3] == pytest.approx(limit, abs=1e-2)


def test_vector_growth_homogeneity():
    a = IntMatrix([[2, 1], [1, 1]])
    s1 = [r[3] for r in furstenberg_path([a] * 30, (1, 0))[0]]
    s3 = [r[3] for r in furstenberg_path([a] * 30, (3, 0))[0]]
    for n, (u, v) in enumerate(zip(s1, s3), 1):
        assert v - u == pytest.approx(math.log(3) / n, abs=1e-12)


def test_vector_growth_rejects_zero():
    with pytest.raises(ValueError):
        furstenberg_path([IntMatrix.identity(2)], (0, 0))


@pytest.mark.parametrize("seed", [(1.5, 0), (1.0, 0), ("1", 0)])
def test_vector_growth_rejects_a_non_integer_seed(seed):
    # as IntMatrix refuses these entries, not truncated to (1, 0)
    with pytest.raises(ValueError, match="seed vector entries must be integers"):
        furstenberg_path([IntMatrix.identity(2)], seed)


def reference_vector_rows(increments, vector, bit_budget):
    """A furstenberg path one dense step v <- A v at a time: its records
    and the message it ends with."""
    v, rows = list(vector), []
    for n, a in enumerate(increments, 1):
        v = [sum(x * y for x, y in zip(row, v)) for row in a.entries]
        top = max(map(abs, v))
        if top.bit_length() > bit_budget:
            return rows, f"product entries exceed {bit_budget} bits at n={n}"
        rows.append((0, n, "furstenberg.vector", (math.log(top) if top else -math.inf) / n, "ok"))
    return rows, None


@pytest.mark.parametrize("chunk", [1, 3, CHUNK])
@pytest.mark.parametrize("bit_budget", [40, 10**6])  # 40 cuts every dimension mid-walk
@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_vector_growth_equals_the_dense_steps(chunk, bit_budget, dim, monkeypatch):
    rng = random.Random(dim)
    atoms = transvections(dim) if dim > 1 else [IntMatrix([[2]]), IntMatrix([[-3]])]
    increments = [rng.choice(atoms) for _ in range(max(600, chunk + 100))]
    # a zero row: the column block's row becomes (0,); in dimension 1 it
    # zeroes the vector, so there it is the last increment
    zero_row = [[0] * dim] + [[int(r == c) for c in range(dim)] for r in range(1, dim)]
    increments[6 if dim > 1 else -1] = IntMatrix(zero_row)
    vector = tuple(range(1, dim + 1))
    monkeypatch.setattr(matrix_oracle, "CHUNK", chunk)
    rows, message = furstenberg_path(increments, vector, bit_budget)
    expected = reference_vector_rows(increments, vector, bit_budget)
    assert (rows, message) == expected
    assert (message is None) == (bit_budget == 10**6)


def guivarch_rows(increments, bit_budget=DEFAULT_BIT_BUDGET):
    """The (n, lower, upper, norm) values of each step of a guivarch path
    of explicit increments, read off its records in their order, and the
    message of its cut, or None."""
    records, message = matrix_path(_guivarch_records, increments, bit_budget)
    names = ("guivarch.rho_lower", "guivarch.rho_upper", "guivarch.norm")
    steps = [records[i:i + 3] for i in range(0, len(records), 3)]
    assert all(tuple(r[2] for r in step) == names for step in steps)
    return [(step[0][1], *(r[3] for r in step)) for step in steps], message


def test_guivarch_series_identity():
    rows, _ = guivarch_rows([IntMatrix.identity(2)] * 4)
    for n, lo, hi, norm in rows:
        assert lo == hi == norm == 0.0


def test_guivarch_series_deterministic_hyperbolic():
    a = IntMatrix([[2, 1], [1, 1]])
    rows, _ = guivarch_rows([a] * 50)
    limit = math.log((3 + math.sqrt(5)) / 2)
    for n, lo, hi, norm in rows:
        assert lo == pytest.approx(limit, rel=1e-9)  # rho(A^n) = rho(A)^n exactly
        assert lo <= norm + 1e-9
    assert rows[-1][3] == pytest.approx(limit, abs=1e-2)


def test_guivarch_bit_budget():
    a = IntMatrix([[2, 1], [1, 1]])
    _, message = guivarch_rows([a] * 200, bit_budget=64)
    assert message is not None


def test_parse_matrix():
    assert parse_matrix("[[1,1],[0,1]]") == IntMatrix([[1, 1], [0, 1]])
    with pytest.raises(ValueError):
        parse_matrix("[[1,1],[0]]")
    with pytest.raises(ValueError):
        parse_matrix("[[1.5,0],[0,1]]")
    with pytest.raises(ValueError):
        parse_matrix("[[True,0],[0,1]]")
    with pytest.raises(ValueError):
        parse_matrix("nonsense")


def test_bracket_validation():
    with pytest.raises(ValueError):
        MatrixBracket(1.0, 0.0)
