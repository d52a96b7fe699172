"""
Exact rational feasibility solver for  A y = b,  y >= 0.

Phase-1 simplex with Bland's rule (smallest-index entering column,
smallest basic index on ratio ties), which rules out cycling.  It runs
fraction-free: the tableau is an integer matrix M with one common
denominator D, so the true tableau is M / D.  D is the determinant of
the current basis, and every entry of M, objective row included, is a
minor of the initial integer tableau (Bareiss, Edmonds).  A pivot on
(r, c) with p = M[r][c] > 0 keeps row r and replaces every other row i
by (p * M[i] - M[i][c] * M[r]) // D, a division that is exact, then
sets D = p.  The ratio test compares by cross-multiplication.

Rational input is made integral by scaling each column of A by the lcm
of its denominators, and b by the lcm of its denominators.  A positive
column scaling keeps the sign of every reduced cost and multiplies every
ratio of one ratio test by the same factor, so Bland's rule takes the
same pivots and reaches the same basis as on the unscaled rational
tableau; y is unscaled from that basis, and the Farkas vector (from the
artificial columns, which are not scaled) comes out unchanged.

Because every entry of M, and D, is a minor, one Hadamard bound on the
initial integer tableau caps them all.  It is computed once, before the
first pivot, and a system whose bound exceeds MAX_PRODUCT_BITS raises
SizeLimitError.

Outcome is two-sided:

* feasible: a solution vector y >= 0 with A y = b, and
* infeasible: a Farkas vector u with u . A_col_j <= 0 for every column j
  and u . b > 0, certifying that no nonnegative solution exists.

Both certificates are rechecked exactly, in Fraction arithmetic against
the caller's A and b, before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .core import MAX_PRODUCT_BITS, SizeLimitError

_ZERO = Fraction(0)


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    solution: tuple[Fraction, ...] | None  # y with A y = b, if feasible
    farkas: tuple[Fraction, ...] | None  # u with uA <= 0, u.b > 0, if not


def _fraction(x) -> Fraction:
    # Fraction(x) rebuilds even a Fraction; most entries already are one
    return x if type(x) is Fraction else Fraction(x)


def _hadamard_bits(rows: Sequence[Sequence[int]]) -> int:
    """Hadamard: no minor of these rows has more bits than the returned sum
    of half bit-lengths of the squared row norms."""
    return sum((sum(x * x for x in row).bit_length() + 1) // 2 for row in rows)


def _eliminate(row: list[int], prow: list[int], c: int, p: int, d: int) -> list[int]:
    """A non-pivot row after a fraction-free pivot on column c of the pivot
    row prow, with p = prow[c] and old denominator d: the division is exact."""
    f = row[c]
    if f:
        return [(p * x - f * y) // d for x, y in zip(row, prow)]
    if p == d:
        return row
    return [p * x // d for x in row]


def solve_eq_nonneg(
    a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> FeasibilityResult:
    """Find y >= 0 with A y = b, or a Farkas certificate that none exists."""
    n = len(a)
    k = len(a[0]) if n else 0
    if any(len(row) != k for row in a):
        raise ValueError("ragged constraint matrix")
    if len(b) != n:
        raise ValueError(f"rhs length {len(b)} does not match {n} rows")

    fa = [[_fraction(x) for x in row] for row in a]
    fb = [_fraction(x) for x in b]
    col_scale = [lcm(*(row[j].denominator for row in fa)) for j in range(k)]
    rhs_scale = lcm(*(x.denominator for x in fb))

    # sign-normalize rows so the rhs is nonnegative, then append one
    # artificial column per row; initial basis = artificials, D = 1
    signs = [1 if x >= 0 else -1 for x in fb]
    rows: list[list[int]] = []
    for i in range(n):
        s = signs[i]
        row = [
            s * x.numerator * (c // x.denominator) for x, c in zip(fa[i], col_scale)
        ]
        row += [1 if j == i else 0 for j in range(n)]
        row.append(s * fb[i].numerator * (rhs_scale // fb[i].denominator))
        rows.append(row)
    basis = [k + i for i in range(n)]

    # phase-1 objective: minimize the sum of artificials.  obj holds D times
    # the reduced costs (cost 0 structural, 1 artificial) followed by -D z.
    obj = [0] * (k + n + 1)
    for j in (*range(k), k + n):
        obj[j] = -sum(row[j] for row in rows)

    if _hadamard_bits(rows + [obj]) > MAX_PRODUCT_BITS:
        raise SizeLimitError(
            f"simplex tableau entry may exceed {MAX_PRODUCT_BITS} bits"
        )

    d = 1
    ncols = k + n
    while True:
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            break
        leave = -1
        for i, row in enumerate(rows):
            coef = row[enter]
            if coef > 0:
                if leave < 0:
                    leave = i
                    continue
                # row[-1] / coef  vs  rows[leave][-1] / rows[leave][enter]
                lhs = row[-1] * rows[leave][enter]
                rhs = rows[leave][-1] * coef
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            raise AssertionError("phase-1 objective cannot be unbounded")
        prow = rows[leave]
        p = prow[enter]
        for i, row in enumerate(rows):
            if i != leave:
                rows[i] = _eliminate(row, prow, enter, p, d)
        obj = _eliminate(obj, prow, enter, p, d)
        basis[leave] = enter
        d = p

    if obj[-1] == 0:
        y = [_ZERO] * k
        for row, var in zip(rows, basis):
            if var < k:
                y[var] = Fraction(row[-1] * col_scale[var], d * rhs_scale)
        support = [(j, v) for j, v in enumerate(y) if v]
        for i in range(n):
            if sum(fa[i][j] * v for j, v in support) != fb[i]:
                raise AssertionError("simplex returned an invalid solution")
        return FeasibilityResult(True, tuple(y), None)

    # infeasible: simplex multipliers pi_i = 1 - reduced cost of the
    # i-th artificial; undo the row sign flips to get the Farkas vector
    u = [Fraction(s * (d - obj[k + i]), d) for i, s in enumerate(signs)]
    for col in zip(*fa):
        if sum(ui * x for ui, x in zip(u, col) if x) > 0:
            raise AssertionError("simplex produced an invalid Farkas vector")
    if sum(ui * x for ui, x in zip(u, fb) if x) <= 0:
        raise AssertionError("simplex produced an invalid Farkas vector")
    return FeasibilityResult(False, None, tuple(u))
