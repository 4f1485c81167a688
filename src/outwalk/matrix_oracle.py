"""Exact integer matrix walks: the linear-group ground truth.

Products are kept as arbitrary-precision integers; logarithms are taken
only at reporting time, so thousand-step products with thousand-bit
entries stay exact.  New increments multiply on the LEFT: the product at
time n is A_n ... A_1.  (The automorphism walk in
:mod:`outwalk.walk_engine` multiplies new increments on the right; the
two conventions are bridged by transposing increments, which preserves
spectral radii.)

A product pays only for what its left factor changes.  Each row of
A @ B is the sum of a * B[j] over the nonzero entries a = A[i][j] of the
row, and a unit row e_j hands back the row B[j] itself, the same tuple
(`IntMatrix._sparse_rows`, found once per matrix).  Increments are the
left factors, so only the support atoms pay for their patterns, and a
transvection I +- E_ij costs n multiply-adds instead of n^3 products.
`running_products`, the one product loop of both matrix kinds, keeps
the absolute sum and the longest entry of each row of its product and
reads again only the rows that the increment changed.  Started from a
column block v, it forms A_n ... A_1 v, never A_n ... A_1.

Spectral radius brackets are reported on natural-log scale: a linear
value would overflow a double long before a 1000-step product does.  Up
to dimension 2 the characteristic polynomial gives log rho(A) itself,
as a bracket with lower == upper (`_closed_form`).

Above dimension 2 the bracket comes from the Gelfand ladder A, A^2, A^4,
..., A^64: power A^k gives log ||A^k|| / k above log rho(A) and
(log |tr A^k| - log n) / k below it, raised to 0 when A is nonsingular:
its eigenvalue moduli multiply to |det| >= 1, so rho >= 1.  `_ladder`
runs the ladders of a batch together.  Each level is a few whole-batch
operations on a numpy object array of Python ints (the square P @ P,
the abs, sum and max of the row norms, the traces, the cut shifts),
then one pass over the batch that reads each matrix's two floats.  The
square of a batch of at least SHARED_SQUARE_MIN matrices shares its
symmetric products (`_shared_square`): the diagonal entries of P^2
share the n(n-1)/2 products p_ik p_ki, and the entries (i, j) and (j, i)
the sum p_ii + p_jj, so a square takes n + n(n-1)/2 + n(n-1)^2
products instead of n^3, 18 instead of 27 for n = 3.  It runs as a few
dozen whole-batch operations, which only a large batch repays; a
smaller batch runs `P @ P`.  Both give the same integers.

Every power is a ball: integer mids m under one shared exponent e and
one integer radius rad, so that every entry of the power is within
rad * 2^e of m_ij * 2^e.  A power is exact (rad = 0, e = 0) until its
row norm passes PREC = 128 bits.  Such a power is cut to PREC bits
before it is squared, and from then on the ladder squares balls:
(M + D)^2 = M^2 + MD + DM + D^2, and rad bounds the last three terms.
The row norm and the trace of a ball's power are within n * rad * 2^e
of those of m * 2^e.  Only the floats math.log(row norm) and
math.log(|trace|) are needed, and CPython's math.log of an int reads
only the int rounded half-even to 53 bits.  So a ball fixes a float
when both ends of its interval round to one double (`_log_of_all`), and
then the float is the one the exact power gives.  A ball square costs
at most n^3 products of mids of about PREC bits, where the exact A^32
and A^64 of a long walk have thousands of bits of which math.log reads
53.

The entries of A^64 have about 64 times the bits of those of A, so the
bit budget bounds the ladder too: the first exact power whose entries
exceed it raises BitBudgetExceeded, checked before the bounds use it.
A matrix whose ball interval may hold 0, may cross a rounding boundary,
or may exceed the bit budget leaves the batch, and the same body runs
on it alone with no cut: every power is then exact, the same integers
as repeated squaring gives, and the budget raises at the same power.
So the bracket is the exact ladder's whichever way it is read, and no
matrix of a batch changes another's.  `spectral_radii` is the batch
entry, `spectral_radius` its batch of one, and the Guivarc'h kind
(`walk_engine.guivarch_experiment`) takes the brackets of a chunk of
`running_products` at a time.  Each ladder level costs a few dozen
whole-batch calls whatever the batch size, so a chunk is up to CHUNK =
512 products; it closes early once its entries pass CHUNK_BITS = 2^22
bits (512 KiB), which bounds what a chunk of long products holds, or
after a product whose A^64 may pass the bit budget.
"""

from __future__ import annotations

import ast
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import count, repeat
from math import isqrt
from typing import Iterable, Iterator, Optional

import numpy as np

__all__ = [
    "IntMatrix",
    "MatrixBracket",
    "BitBudgetExceeded",
    "log_norm",
    "spectral_radius",
    "spectral_radii",
    "parse_matrix",
]

DEFAULT_BIT_BUDGET = 10**6

GELFAND_MAX_J = 6  # powers A^(2^j), j = 0..6

PREC = 128  # a power whose row norm is longer is cut to PREC bits before it is squared

ROOT_BITS = 128  # `_log_half_sum_sqrt` roots about the top ROOT_BITS bits of a long root

# running products per chunk of running_products, and a cap
# on the entry bits a chunk holds: a chunk closes once its entries pass
# CHUNK_BITS (512 KiB), where CHUNK products of 3x3 matrices near the
# default bit budget would hold about 576 MB
CHUNK = 512
CHUNK_BITS = 1 << 22

# the least batch whose Gelfand squares share their symmetric products
# (module docstring): per 3x3 matrix with 128-bit entries, `_shared_square`
# beats `m @ m` on batches of 64 and more, and loses on 32 and fewer
SHARED_SQUARE_MIN = 64

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
        """The matrix of `rows`, a square tuple of int tuples, unchecked (an
        n x k block only as the right factor of `@` in `running_products`)."""
        m = object.__new__(cls)
        object.__setattr__(m, "entries", rows)
        return m

    @property
    def n(self) -> int:
        return len(self.entries)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @cached_property
    def _sparse_rows(self) -> tuple:
        """Per row: j when the row is the unit row e_j, else its nonzero
        entries as (column, entry) pairs (module docstring)."""
        out = []
        for row in self.entries:
            terms = tuple((j, a) for j, a in enumerate(row) if a)
            out.append(terms[0][0] if len(terms) == 1 and terms[0][1] == 1 else terms)
        return tuple(out)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        rows = other.entries
        if len(self.entries) != len(rows):
            raise ValueError("dimension mismatch")
        return IntMatrix._of_rows(tuple([
            rows[t] if type(t) is int else _combine(t, rows) for t in self._sparse_rows]))

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
        return max(x.bit_length() for row in self.entries for x in row)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.entries]})"


def _combine(terms: tuple, rows: tuple) -> tuple:
    """The row sum of a * rows[j] over the (j, a) pairs of `terms`."""
    if not terms:
        return (0,) * len(rows[0])
    acc = None
    for j, a in terms:
        row = rows[j] if a == 1 else map(operator.mul, repeat(a), rows[j])
        acc = row if acc is None else map(operator.add, acc, row)
    return tuple(acc)


def _row_norm(rows: tuple) -> int:
    """Max absolute row sum: the l_inf to l_inf operator norm."""
    return max(sum(abs(x) for x in row) for row in rows)


@dataclass(frozen=True)
class MatrixBracket:
    """Certified bracket for log rho(A), natural-log scale.

    Up to dimension 2 lower == upper is log rho(A) in closed form.
    lower >= 0 for every nonsingular matrix.
    """

    lower: float
    upper: float

    def __post_init__(self):
        if self.lower > self.upper + 1e-9:
            raise ValueError("bracket lower exceeds upper")


def _log_int(x: int) -> float:
    # math.log handles integers beyond double range exactly enough
    return math.log(x) if x > 0 else NEG_INF


def log_norm(a: IntMatrix) -> float:
    """log of the max-absolute-row-sum operator norm (l_inf to l_inf)."""
    return _log_int(_row_norm(a.entries))


def _log_half_sum_sqrt(t_abs: int, disc: int) -> float:
    """log((t_abs + sqrt(disc)) / 2) for integers t_abs >= 0, disc >= 0.

    Past 1000 bits the float is math.log(b) - log 2 for b = t_abs +
    isqrt(disc), and math.log reads 53 bits of b.  isqrt(disc) >> m is
    isqrt(disc >> 2m), so the root of the high bits puts b in [lo, lo +
    2^m); when every integer there has one log (`_log_of_all`), that is
    the log of b, and the full root is taken only when it has not.
    """
    if t_abs < 2**52 and disc < 2**52:
        num = t_abs + math.sqrt(disc)
        return math.log(num / 2.0) if num else NEG_INF
    m = (disc.bit_length() >> 1) - ROOT_BITS
    if m > 0:
        lo = t_abs + (isqrt(disc >> 2 * m) << m)
        sh = lo.bit_length() - 1000
        if sh > 0:
            # shifted below 2^1024, where float() reads it
            v = _log_of_all(lo >> sh, -(-(lo + (1 << m) - 1) >> sh), sh)
            if v is not None:
                return v - math.log(2.0)
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
    """The MatrixBracket of log rho(A): lower >= 0 if A is nonsingular.

    For n >= 3, raises BitBudgetExceeded once A or one of its Gelfand
    powers has an entry beyond bit_budget bits.
    """
    return next(spectral_radii([a], bit_budget))


def spectral_radii(mats: list, bit_budget: int = DEFAULT_BIT_BUDGET) -> Iterator:
    """Yield spectral_radius of each matrix of `mats`, all of one dimension.

    Each item is the MatrixBracket of its matrix, and the first matrix
    on which spectral_radius raises BitBudgetExceeded raises it here,
    after the items before it; no matrix changes another's item.  The
    batch ladder runs at the first item, and the exact ladder of a
    matrix the balls leave undecided when its item is reached.
    """
    if not mats or mats[0].n <= 2:
        yield from map(_closed_form, mats)
        return
    for a, br in zip(mats, _ladder(mats, bit_budget, PREC)):
        br = br if br is not None else _ladder([a], bit_budget, None)[0]
        if isinstance(br, BitBudgetExceeded):
            raise br
        yield br


def _closed_form(a: IntMatrix) -> MatrixBracket:
    """The log spectral radius of a 1x1 or 2x2 matrix."""
    if a.n == 1:
        v = _log_int(abs(a.entries[0][0]))
        return MatrixBracket(v, v)
    t = a.trace()
    d = a.det()
    disc = t * t - 4 * d
    if disc >= 0:
        v = _log_half_sum_sqrt(abs(t), disc)
    else:
        v = _log_int(d) / 2.0  # complex pair, modulus sqrt(det)
    return MatrixBracket(v, v)


def _ladder(mats: list, bit_budget: int, prec: Optional[int]) -> list:
    """The Gelfand brackets of `mats`, n >= 3, as one batch (module docstring).

    Each power is a ball (m, rad, e), exact while rad = 0, and cut to
    `prec` bits before it is squared once its row norm is longer; with
    prec = None nothing is cut.  An item is None when a ball cannot fix a
    float or the bit budget, and the BitBudgetExceeded of its matrix when
    an exact power is over budget.  A ball read at a level had rad below
    its row norm at the level before, so the ends it reads stay below
    about n^2 4^prec, as `_log_of_all` needs.
    """
    n = mats[0].n
    log_n = math.log(n)
    cut = prec or math.inf
    out = [None] * len(mats)
    live = list(range(len(mats)))  # the index in `mats` of each batch row
    m = np.array([a.entries for a in mats], dtype=object)
    rad = [0] * len(mats)
    e = [0] * len(mats)
    upper = [math.inf] * len(mats)
    lower = [NEG_INF] * len(mats)
    for j in range(GELFAND_MAX_J + 1):
        k = 1 << j
        last = j == GELFAND_MAX_J
        norms = np.abs(m).sum(axis=2).max(axis=1).tolist()
        traces = m.diagonal(0, 1, 2).sum(axis=1).tolist()
        keep, shifts = [], []
        keep_i, shift = keep.append, shifts.append
        for i, x, t, rd, s in zip(count(), norms, traces, rad, e):
            if t < 0:
                t = -t
            xb = x.bit_length()
            if rd:
                # the row norm and |trace| of the power: within r << s of x << s and t << s
                r = n * rd
                hi = x + r
                if hi.bit_length() + s > bit_budget:
                    continue  # a ball that may pass the budget: undecided
                norm_log = _log_of_all(x - r, hi, s)
                tr_log = _log_of_all(t - r, t + r, s)
                if norm_log is None or tr_log is None:
                    continue
            else:
                # |y| <= x for every entry y, so only a long norm needs the scan
                if xb > bit_budget and np.abs(m[i]).max().bit_length() > bit_budget:
                    out[live[i]] = BitBudgetExceeded(f"A^{k} entries exceed {bit_budget} bits")
                    continue
                # the zero matrix and nilpotent powers have norm 0; a zero trace leaves lower
                norm_log = math.log(x) if x else NEG_INF
                tr_log = math.log(t) if t else NEG_INF
            v = norm_log / k
            if v < upper[i]:
                upper[i] = v
            v = (tr_log - log_n) / k
            if v > lower[i]:
                lower[i] = v
            keep_i(i)
            if last:
                continue
            # cut to prec bits: each mid moves by less than one unit
            sh = xb - cut if xb > cut else 0
            if sh:
                rd = -(-rd >> sh) + 1
                x = (x >> sh) + n + 1
            if rd:
                # (M + D)^2 = M^2 + MD + DM + D^2 with |D_ij| <= rd, and every
                # row and column sum of |M| is at most (n + 1) x
                rad[i] = rd * (n + 1) * x + n * rd * rd
                e[i] = 2 * (s + sh)
            shift(sh)
        if len(keep) < len(live):
            if not keep:
                return out
            live = [live[i] for i in keep]
            m = m[keep]
            rad, e = [rad[i] for i in keep], [e[i] for i in keep]
            upper, lower = [upper[i] for i in keep], [lower[i] for i in keep]
        if last:
            break
        if any(shifts):
            m = m >> np.array(shifts, dtype=object)[:, None, None]
        m = _shared_square(m) if len(live) >= SHARED_SQUARE_MIN else m @ m
    for i, lo, hi in zip(live, lower, upper):
        if lo < 0 and mats[i].det():
            lo = 0.0  # rho >= 1 (module docstring)
        out[i] = MatrixBracket(lo, hi)
    return out


def _shared_square(m: np.ndarray) -> np.ndarray:
    """m @ m for a stack m of n x n object matrices, from fewer products.

    The diagonal entries of M^2 share the products m_ik m_ki, and the
    entries (i, j) and (j, i) the sum m_ii + m_jj, so a square takes
    n + n(n-1)/2 + n(n-1)^2 products instead of n^3, each a whole-batch
    operation on the stack's column of one entry.
    """
    n = m.shape[1]
    c = m.transpose(1, 2, 0)  # c[i, j]: the entries (i, j) of the stack
    out = np.empty_like(m)
    sq = out.transpose(1, 2, 0)
    for i in range(n):
        sq[i, i] = c[i, i] * c[i, i]
    for i in range(n):
        for j in range(i + 1, n):
            p = c[i, j] * c[j, i]
            sq[i, i] += p
            sq[j, j] += p
            t = c[i, i] + c[j, j]
            sq[i, j] = c[i, j] * t
            sq[j, i] = c[j, i] * t
    for i in range(n):
        for j in range(n):
            if i != j:
                for k in range(n):
                    if k != i and k != j:
                        sq[i, j] += c[i, k] * c[k, j]
    return out


def _log_of_all(lo: int, hi: int, e: int) -> Optional[float]:
    """math.log(x), the one float of every integer x in [lo << e, hi << e].

    For lo < hi < 2^1024 with hi > 0; None when the interval may hold 0
    or integers of different logs.  CPython's math.log of an int reads
    only the int rounded half-even to 53 bits (a double, or a mantissa
    and exponent past 2^1024).  Rounding is monotone and commutes with
    the shift by e, so every integer of the interval has one log when lo
    and hi round to one double, which then is positive.
    """
    if float(lo) == float(hi):
        return math.log(lo << e)
    return None


def running_products(
    increments: Iterable[IntMatrix], bit_budget: int, start: Optional[IntMatrix] = None
) -> Iterator[tuple]:
    """Yield the running products A_n ... A_1 start in chunks (blocks, row norms).

    With start None the first product is the first increment; an n x k
    `start` gives n x k blocks, formed without A_n ... A_1.  A chunk
    holds CHUNK products, fewer past CHUNK_BITS entry bits, and without
    `start` closes after a product whose A^64 may outgrow the budget (at
    most k (b + n.bit_length()) bits in A^k for b-bit entries, n >= 3):
    no product past a Gelfand cut is formed.  Raises BitBudgetExceeded,
    after the chunk before it, at the first n where an entry outgrows
    the budget.
    """
    prod, reads = start, None
    n = 0
    chunk, norms, bits = [], [], 0
    for a in increments:
        if reads is None:
            prod = a if prod is None else a @ prod
            reads = list(map(_read_row, prod.entries))
            dim = len(prod.entries)
            cells = dim * len(prod.entries[0])
            # the close rule (b + dim.bit_length()) << GELFAND_MAX_J > bit_budget
            # as a bound on b; no ladder reads a 2x2 product or a block, and
            # every b that reaches the test is at most bit_budget
            close_bits = (bit_budget if dim <= 2 or start is not None
                          else (bit_budget >> GELFAND_MAX_J) - dim.bit_length())
        else:
            # a unit row of the increment passes a row of the product through
            prod = a @ prod
            reads = [reads[t] if type(t) is int else _read_row(row)
                     for t, row in zip(a._sparse_rows, prod.entries)]
        norm, b = map(max, zip(*reads))
        if b > bit_budget:
            yield chunk, norms
            raise BitBudgetExceeded(
                f"product entries exceed {bit_budget} bits at n={n + len(chunk) + 1}")
        chunk.append(prod)
        norms.append(norm)
        bits += b * cells
        if len(chunk) == CHUNK or bits > CHUNK_BITS or b > close_bits:
            yield chunk, norms
            n += len(chunk)
            chunk, norms, bits = [], [], 0
    yield chunk, norms


def _read_row(row: tuple) -> tuple:
    """The absolute sum of an int row and the bit length of its longest entry."""
    return sum(map(abs, row)), max(map(int.bit_length, row))


def parse_matrix(text: str) -> IntMatrix:
    """Parse a row-major integer matrix literal such as [[1,1],[0,1]]."""
    try:
        rows = ast.literal_eval(text.strip())
    except (ValueError, SyntaxError) as e:
        raise ValueError(f"invalid matrix literal: {text!r}") from e
    if not isinstance(rows, (list, tuple)) or not rows:
        raise ValueError(f"invalid matrix literal: {text!r}")
    for row in rows:
        # type, not isinstance: a bool is an int, but True is no matrix entry
        if not isinstance(row, (list, tuple)) or not all(type(x) is int for x in row):
            raise ValueError(f"matrix rows must be integer lists: {text!r}")
    return IntMatrix(tuple(tuple(row) for row in rows))
