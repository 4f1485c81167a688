"""Exact integer matrix walks: the linear-group ground truth.

Products are kept as arbitrary-precision integers; logarithms are taken
only at reporting time, so thousand-step products with thousand-bit
entries stay exact.  New increments multiply on the LEFT: the product at
time n is A_n ... A_1.  (The automorphism walk in
:mod:`outwalk.walk_engine` multiplies new increments on the right; the
two conventions are bridged by transposing increments, which preserves
spectral radii.)

Spectral radius brackets are reported on natural-log scale: a linear
value would overflow a double long before a 1000-step product does.

Above dimension 2 the bracket comes from the Gelfand ladder A, A^2, A^4,
..., A^64: power A^k gives log ||A^k|| / k above log rho(A) and
(log |tr A^k| - log n) / k below it.  The powers are not built by
squaring the matrix.  By Cayley-Hamilton, A^k = r_k(A) where r_k(x) is
x^k modulo the characteristic polynomial chi_A, which is monic with
integer coefficients, so r_k has integer coefficients too:

* chi_A comes from the traces of A, ..., A^n by Newton's identities,
  k c_k = -sum_{i<=k} c_{k-i} tr(A^i), whose divisions are exact;
* r_{2k} is r_k squared, n(n+1)/2 big-integer products (6 at n = 3,
  10 at n = 4), then reduced modulo chi_A with (n-1)n products by its
  small coefficients;
* A^(2^j) = sum_{d<n} c_d A^d takes (n-1)n^2 products of a big
  coefficient by an entry of a small power A^d.

A matrix square, even sharing the products M_ij M_ji, takes
n^3 - 3n(n-1)/2 big products per level (18 at n = 3, 46 at n = 4).  All arithmetic is
exact, so every power, norm and trace is the same integer as repeated
squaring gives.  The entries of A^64 have about 64 times the bits of
those of A, so the bit budget bounds the ladder too: the powers are
built one at a time, each checked before the bounds use it, and the
first whose entries exceed the budget raises BitBudgetExceeded.

The ladder has two regimes.  The powers are exact up to the first whose
row norm has more than BALL_BITS = 1024 bits.  After it, the ladder
squares a ball: integer mids m cut to their top PREC = 128 bits under
one shared exponent e, and one integer radius rad, so that every entry
of the power is within rad * 2^e of m_ij * 2^e.  Its row norm and trace
are then within n * rad * 2^e of those of m * 2^e.  Only the floats
math.log(row norm) and math.log(|trace|) are needed, and CPython's
math.log of an int reads only the int rounded half-even to 53 bits.
So a ball fixes a float when every integer of its interval rounds
alike: the interval ends share their bit length and top 54 bits, and
the lower end is not a tie (`_log_of_all`).  Then the float is the
one the exact ladder writes.  A level whose interval may hold 0, may
cross a rounding boundary, or whose row norm may exceed the bit budget
sends the whole matrix back to the exact ladder, which remains the only
other path, so both regimes write the same bracket.  A ball square
costs n^3 products of 128-bit mids, where the exact A^32 and A^64 of a
long walk have thousands of bits of which math.log reads 53.
"""

from __future__ import annotations

import ast
import math
import operator
from dataclasses import dataclass
from itertools import chain
from math import isqrt
from typing import Iterable, Iterator, Optional

__all__ = [
    "IntMatrix",
    "MatrixBracket",
    "BitBudgetExceeded",
    "log_norm",
    "spectral_radius",
    "vector_growth",
    "guivarch_series",
    "parse_matrix",
]

DEFAULT_BIT_BUDGET = 10**6

GELFAND_MAX_J = 6  # powers A^(2^j), j = 0..6

BALL_BITS = 1024  # the ladder squares balls after the first power whose row norm is longer
PREC = 128  # bits kept in the largest mid of a ball

NEG_INF = float("-inf")


class BitBudgetExceeded(RuntimeError):
    """Matrix entries grew beyond the configured bit budget."""


@dataclass(frozen=True)
class IntMatrix:
    """A square matrix of arbitrary-precision integers."""

    entries: tuple

    def __post_init__(self):
        try:
            rows = tuple(tuple(operator.index(x) for x in row) for row in self.entries)
        except TypeError as e:
            raise ValueError(f"matrix entries must be integers: {self.entries!r}") from e
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square and nonempty")
        object.__setattr__(self, "entries", rows)

    @classmethod
    def _of_rows(cls, rows: tuple) -> "IntMatrix":
        """The matrix of `rows`, a square tuple of int tuples, unchecked."""
        m = object.__new__(cls)
        object.__setattr__(m, "entries", rows)
        return m

    @property
    def n(self) -> int:
        return len(self.entries)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        b_cols = tuple(zip(*other.entries))
        return IntMatrix._of_rows(
            tuple(
                tuple(sum(map(operator.mul, row, col)) for col in b_cols)
                for row in self.entries
            )
        )

    def transpose(self) -> "IntMatrix":
        return IntMatrix._of_rows(tuple(zip(*self.entries)))

    def trace(self) -> int:
        return sum(self.entries[i][i] for i in range(self.n))

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        n = self.n
        m = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def max_bits(self) -> int:
        return _max_bits(self.entries)

    def apply(self, v: tuple) -> tuple:
        if len(v) != self.n:
            raise ValueError("vector dimension mismatch")
        return tuple(sum(a * x for a, x in zip(row, v)) for row in self.entries)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.entries]})"


def _max_bits(rows: tuple) -> int:
    return max(x.bit_length() for row in rows for x in row)


def _row_norm(rows: tuple) -> int:
    """Max absolute row sum: the l_inf to l_inf operator norm."""
    return max(sum(abs(x) for x in row) for row in rows)


def _charpoly(powers: list, cols: list) -> list:
    """q_0, ..., q_{n-1} with chi_A(x) = x^n + sum_d q_d x^d.

    `powers` holds A, ..., A^(n-1) flattened and `cols` the columns of A.
    Newton's identities on the traces p_k = tr(A^k), k = 1..n, give the
    coefficient c_k of x^(n-k): k c_k = -sum_{i=1..k} c_{k-i} p_i with
    c_0 = 1, an exact division.
    """
    n = len(cols)
    p = [sum(m[::n + 1]) for m in powers]
    p.append(sum(map(operator.mul, powers[-1], chain.from_iterable(cols))))
    c = [1]
    for k in range(1, n + 1):
        c.append(-sum(map(operator.mul, reversed(c), p)) // k)
    return c[:0:-1]  # q_d = c_(n-d)


def _square_mod(c: list, q: list) -> list:
    """The n coefficients of c(x)^2 mod x^n + sum_d q_d x^d, n = len(q)."""
    s = [0] * (2 * len(c) - 1)
    for i, ci in enumerate(c):
        if ci:
            s[2 * i] += ci * ci
            ci <<= 1
            for j in range(i + 1, len(c)):
                s[i + j] += ci * c[j]
    n = len(q)
    for top in range(len(s) - 1, n - 1, -1):
        t = s[top]
        if t:
            for d, qd in enumerate(q, top - n):
                s[d] -= t * qd
    return s[:n]


def _gelfand_powers(a: IntMatrix) -> Iterator[list]:
    """Yield A^(2^j), j = 0..GELFAND_MAX_J, flat row-major (module docstring).

    Lazy, so a caller that stops at a power over budget builds no later one.
    """
    n = a.n
    flat = [x for row in a.entries for x in row]
    yield flat
    cols = [flat[k::n] for k in range(n)]
    powers = [flat]  # A^d at index d - 1, d < n
    while len(powers) < n - 1:
        rows = zip(*[iter(powers[-1])] * n)  # n entries at a time
        powers.append([sum(map(operator.mul, row, col)) for row in rows for col in cols])
    q = _charpoly(powers, cols)
    c = [0, 1] + [0] * (n - 2)  # x; for n = 1 of degree n, reduced by the first square
    for j in range(1, GELFAND_MAX_J + 1):
        c = _square_mod(c, q)
        if 1 << j < n:
            yield powers[(1 << j) - 1]
            continue
        m = [0] * (n * n)
        m[::n + 1] = [c[0]] * n
        for cd, p in zip(c[1:], powers):
            m = [x + cd * y for x, y in zip(m, p)]
        yield m


@dataclass(frozen=True)
class MatrixBracket:
    """Certified bracket for log rho(A), natural-log scale.

    `exact` is set when the dimension is 2 (characteristic polynomial in
    closed form); then lower == exact == upper.
    """

    lower: float
    upper: float
    exact: Optional[float] = None

    def __post_init__(self):
        if self.exact is not None:
            if not (self.lower - 1e-9 <= self.exact <= self.upper + 1e-9):
                raise ValueError("bracket does not contain its exact value")
        elif self.lower > self.upper + 1e-9:
            raise ValueError("bracket lower exceeds upper")


def _log_int(x: int) -> float:
    # math.log handles integers beyond double range exactly enough
    return math.log(x) if x > 0 else NEG_INF


def log_norm(a: IntMatrix) -> float:
    """log of the max-absolute-row-sum operator norm (l_inf to l_inf)."""
    return _log_int(_row_norm(a.entries))


def _log_half_sum_sqrt(t_abs: int, disc: int) -> float:
    """log((t_abs + sqrt(disc)) / 2) for integers t_abs >= 0, disc >= 0."""
    if t_abs < 2**52 and disc < 2**52:
        num = t_abs + math.sqrt(disc)
        return math.log(num / 2.0) if num else NEG_INF
    s0 = isqrt(disc)
    b = t_abs + s0
    if b == 0:
        return NEG_INF
    if b.bit_length() <= 1000:
        # one Newton step recovers the fractional part of the root;
        # s0 >= 2**26 here, so the step error is below double resolution
        corr = (disc - s0 * s0) / (2 * s0) if s0 else 0.0
        return math.log(float(b) + corr) - math.log(2.0)
    return _log_int(b) - math.log(2.0)


def spectral_radius(a: IntMatrix, bit_budget: int = DEFAULT_BIT_BUDGET) -> MatrixBracket:
    """Bracket (or closed form, n <= 2) for the log spectral radius.

    For n >= 3, raises BitBudgetExceeded once A or one of its Gelfand
    powers has an entry beyond bit_budget bits.
    """
    n = a.n
    if n == 1:
        v = _log_int(abs(a.entries[0][0]))
        return MatrixBracket(v, v, v)
    if n == 2:
        t = a.trace()
        d = a.det()
        disc = t * t - 4 * d
        if disc >= 0:
            v = _log_half_sum_sqrt(abs(t), disc)
        else:
            v = _log_int(d) / 2.0  # complex pair, modulus sqrt(det)
        return MatrixBracket(v, v, v)
    bracket = _ladder(a, bit_budget, BALL_BITS)
    if bracket is None:  # a ball could not fix a float: the exact ladder decides
        bracket = _ladder(a, bit_budget, math.inf)
    return bracket


def _ladder(a: IntMatrix, bit_budget: int, ball_bits: float) -> Optional[MatrixBracket]:
    """The Gelfand bracket of A, n >= 3 (module docstring).

    The powers are exact up to the first whose row norm has more than
    `ball_bits` bits, and balls after it.  None when a ball cannot fix a
    float or the bit budget; with ball_bits = inf every power is exact.
    """
    n = a.n
    lower = NEG_INF
    upper = math.inf
    log_n = math.log(n)
    exact = _gelfand_powers(a)
    ball = None
    for j in range(GELFAND_MAX_J + 1):
        k = 1 << j
        if ball:
            ball = _square_ball(*ball, n)
            logs = _ball_logs(*ball, n, bit_budget)
            if logs is None:
                return None
            norm_log, tr_log = logs
        else:
            m = next(exact)
            norm = max(map(sum, zip(*[map(abs, m)] * n)))
            # |x| <= norm for every entry x, so only a long norm needs the scan
            if norm.bit_length() > bit_budget and max(x.bit_length() for x in m) > bit_budget:
                raise BitBudgetExceeded(f"A^{k} entries exceed {bit_budget} bits")
            tr = abs(sum(m[::n + 1]))
            norm_log, tr_log = _log_int(norm), _log_int(tr) if tr else None
            if norm.bit_length() > ball_bits:
                shift = max(0, max(x.bit_length() for x in m) - PREC)
                ball = [x >> shift for x in m], 1, shift
        upper = min(upper, norm_log / k)
        if tr_log is not None:
            lower = max(lower, (tr_log - log_n) / k)
    return MatrixBracket(lower, upper)


def _square_ball(m: list, rad: int, e: int, n: int) -> tuple:
    """The ball (m', rad', e') of the square of the ball (m, rad, e).

    (M + D)^2 = M^2 + MD + DM + D^2 with |D_ij| <= rad, so the error of
    M^2 is at most rad * (max abs row sum + max abs col sum) + n rad^2 per
    entry; cutting M^2 to PREC bits by a floor shift adds less than 1.
    """
    cols = [m[i::n] for i in range(n)]
    s = [sum(map(operator.mul, row, col)) for row in zip(*[iter(m)] * n) for col in cols]
    abs_rows = list(zip(*[map(abs, m)] * n))
    growth = max(map(sum, abs_rows)) + max(map(sum, zip(*abs_rows)))
    shift = max(0, max(map(int.bit_length, s)) - PREC)
    rad = ((rad * growth + n * rad * rad) >> shift) + 2
    return [x >> shift for x in s], rad, 2 * e + shift


def _ball_logs(m: list, rad: int, e: int, n: int, bit_budget: int) -> Optional[tuple]:
    """(log ||X||, log |tr X|), the same two floats for every X in the ball.

    Both the row norm and the trace of X are within n * rad * 2^e of those
    of m * 2^e.  None when the row norm may exceed bit_budget bits, or
    either interval holds integers of different logs or may hold 0.
    """
    r = n * rad
    norm = max(map(sum, zip(*[map(abs, m)] * n)))
    tr = abs(sum(m[::n + 1]))
    if (norm + r).bit_length() + e > bit_budget:
        return None
    norm_log = _log_of_all(norm - r, norm + r, e)
    tr_log = _log_of_all(tr - r, tr + r, e)
    if norm_log is None or tr_log is None:
        return None
    return norm_log, tr_log


def _log_of_all(lo: int, hi: int, e: int) -> Optional[float]:
    """math.log(x), the one float of every integer x in [lo << e, hi << e].

    CPython's math.log of an int reads only the int rounded half-even to
    53 bits (a double, or a mantissa and exponent past 2^1024).  Every
    integer in the interval rounds alike when lo and hi share their bit
    length and top 54 bits (53 mantissa bits and the round bit) and lo is
    not a tie (round bit 1, every lower bit 0).  None otherwise, so None
    whenever lo <= 0 < hi: then s <= 0 or the tops differ in sign.
    """
    s = lo.bit_length() - 54  # the bits below the round bit
    if s <= 0 or lo >> s != hi >> s or (lo >> s & 1 and not lo & ((1 << s) - 1)):
        return None
    return math.log(lo << e)


def vector_growth(
    increments: Iterable[IntMatrix], vector: tuple, bit_budget: int = DEFAULT_BIT_BUDGET
) -> Iterator[tuple]:
    """Yield (n, (1/n) log ||A_n ... A_1 vector||_inf) along a path of increments.

    Raises BitBudgetExceeded once entries outgrow the bit budget.
    """
    w = tuple(int(x) for x in vector)
    if not any(w):
        raise ValueError("seed vector must be nonzero")
    n = 0
    for a in increments:
        w = a.apply(w)
        n += 1
        top = max(abs(x) for x in w)
        if top.bit_length() > bit_budget:
            raise BitBudgetExceeded(f"vector entries exceed {bit_budget} bits at n={n}")
        yield n, _log_int(top) / n


def guivarch_series(
    increments: Iterable[IntMatrix], bit_budget: int = DEFAULT_BIT_BUDGET
) -> Iterator[tuple]:
    """Yield (n, rho_lower/n, rho_upper/n, log_norm/n) for running products.

    The product is maintained exactly; rho bounds come from
    spectral_radius (exact for 2x2).  Raises BitBudgetExceeded when the
    entries of the product or of one of its Gelfand powers outgrow the
    budget.
    """
    prod = None
    n = 0
    for a in increments:
        prod = a if prod is None else a @ prod
        n += 1
        if prod.max_bits() > bit_budget:
            raise BitBudgetExceeded(f"product entries exceed {bit_budget} bits at n={n}")
        br = spectral_radius(prod, bit_budget)
        yield n, br.lower / n, br.upper / n, log_norm(prod) / n


def parse_matrix(text: str) -> IntMatrix:
    """Parse a row-major integer matrix literal such as [[1,1],[0,1]]."""
    try:
        rows = ast.literal_eval(text.strip())
    except (ValueError, SyntaxError) as e:
        raise ValueError(f"invalid matrix literal: {text!r}") from e
    if not isinstance(rows, (list, tuple)) or not rows:
        raise ValueError(f"invalid matrix literal: {text!r}")
    for row in rows:
        if not isinstance(row, (list, tuple)) or not all(
            isinstance(x, int) for x in row
        ):
            raise ValueError(f"matrix rows must be integer lists: {text!r}")
    return IntMatrix(tuple(tuple(row) for row in rows))
