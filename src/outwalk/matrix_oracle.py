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
..., A^64, built by repeated squaring on the raw integer rows.  A square
shares products: an off-diagonal entry is

    (M^2)_ik = M_ik (M_ii + M_kk) + sum_{j not in {i, k}} M_ij M_jk,

and a diagonal entry (M^2)_ii = M_ii^2 + sum_{j != i} M_ij M_ji, where
each M_ij M_ji (i < j) is computed once and serves both (i, i) and
(j, j).  A 3x3 square takes 18 big-integer multiplications, three of
them squares, instead of 27; a 2x2 square takes 5 instead of 8.  The
entries of A^64 have about 64 times the bits of those of A, so the bit
budget bounds the ladder too: the first Gelfand power whose entries
exceed it raises BitBudgetExceeded.
"""

from __future__ import annotations

import ast
import math
import operator
from dataclasses import dataclass
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
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in b_cols)
                for row in self.entries
            )
        )

    def __pow__(self, k: int) -> "IntMatrix":
        if k < 0:
            raise ValueError("negative powers not supported")
        result = IntMatrix.identity(self.n)
        base = self
        while k:
            if k & 1:
                result = result @ base
            k >>= 1
            if k:
                base = IntMatrix(_square(base.entries))
        return result

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries)))

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


def _square(rows: tuple) -> tuple:
    """Rows of M^2 for the square matrix M given by rows of ints.

    Shares products as in the module docstring: n^3 - 3n(n-1)/2
    multiplications in place of n^3.
    """
    n = len(rows)
    diag = [row[i] * row[i] for i, row in enumerate(rows)]
    for i in range(n):
        for j in range(i + 1, n):
            p = rows[i][j] * rows[j][i]
            diag[i] += p
            diag[j] += p
    out = []
    for i, row in enumerate(rows):
        mii = row[i]
        out_row = []
        for k in range(n):
            if k == i:
                out_row.append(diag[i])
                continue
            s = row[k] * (mii + rows[k][k])
            for j in range(n):
                if j != i and j != k:
                    s += row[j] * rows[j][k]
            out_row.append(s)
        out.append(tuple(out_row))
    return tuple(out)


def _max_bits(rows: tuple) -> int:
    return max(x.bit_length() for row in rows for x in row)


def _row_norm(rows: tuple) -> int:
    """Max absolute row sum: the l_inf to l_inf operator norm."""
    return max(sum(abs(x) for x in row) for row in rows)


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
    lower = NEG_INF
    upper = math.inf
    rows = a.entries
    for j in range(GELFAND_MAX_J + 1):
        if j:
            rows = _square(rows)
        k = 1 << j
        if _max_bits(rows) > bit_budget:
            raise BitBudgetExceeded(f"A^{k} entries exceed {bit_budget} bits")
        upper = min(upper, _log_int(_row_norm(rows)) / k)
        tr = abs(sum(rows[i][i] for i in range(n)))
        if tr:
            lower = max(lower, (_log_int(tr) - math.log(n)) / k)
    return MatrixBracket(lower, upper)


def vector_growth(
    increments: Iterable[IntMatrix], v: tuple, bit_budget: int = DEFAULT_BIT_BUDGET
) -> Iterator[tuple]:
    """Yield (n, (1/n) log ||A_n ... A_1 v||_inf) along a path of increments.

    Raises BitBudgetExceeded once entries outgrow the bit budget.
    """
    w = tuple(int(x) for x in v)
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
