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
sets D = p.  When p = D, as on most pivots of a 0/±1 matrix, the term
p * M[i][j] // D is M[i][j]: a row whose entering-column entry is 0 is
left as it is, and any other row changes, in place, only in the columns
where the pivot row is nonzero.  The ratio test compares by
cross-multiplication.

A is an integer matrix and b an integer vector, both used as they are:
a caller with a rational b scales it to integers first, which scales
every ratio of a ratio test by the same factor and so keeps Bland's
pivots.  Per call, the rows of A are sign-normalized by b and copied
into the tableau.

Because every entry of M, and D, is a minor, one Hadamard bound on the
initial integer tableau caps them all.  It is taken on every call,
before the first pivot, and a system whose bound exceeds
MAX_PRODUCT_BITS raises SizeLimitError.

Outcome is two-sided:

* feasible: a solution vector y >= 0 with A y = b, and
* infeasible: a Farkas vector u with u . A_col_j <= 0 for every column j
  and u . b > 0, certifying that no nonnegative solution exists.

Entries of A and b are ints, and a Fraction or float entry raises
TypeError.  Both certificates are rechecked exactly against the caller's
A and b before being returned, as integer identities over their common
denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .linear import MAX_PRODUCT_BITS, SizeLimitError, common_denominator

_ZERO = Fraction(0)


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    solution: tuple[Fraction, ...] | None  # y with A y = b, if feasible
    farkas: tuple[Fraction, ...] | None  # u with uA <= 0, u.b > 0, if not


def _hadamard_bits(rows: Sequence[Sequence[int]]) -> int:
    """Hadamard: no minor of these rows has more bits than the returned sum
    of half bit-lengths of the squared row norms.  A squared norm is an int
    exactly when every entry of its row is one; TypeError otherwise."""
    bits = 0
    for row in rows:
        norm2 = sum(map(mul, row, row))
        if not isinstance(norm2, int):
            raise TypeError(f"constraint matrix entries must be ints, not {type(norm2).__name__}")
        bits += (norm2.bit_length() + 1) // 2
    return bits


def _eliminate(row: list[int], nz: list, c: int, p: int, d: int) -> list[int]:
    """A non-pivot row after a fraction-free pivot on column c, with pivot
    p, old denominator d and nz the (j, y) with y != 0 in the pivot row:
    entry j becomes (p * row[j] - row[c] * y) // d, an exact division, or
    p * row[j] // d where y = 0."""
    f = row[c]
    new = [p * x // d for x in row]
    if f:
        for j, y in nz:
            new[j] = (p * row[j] - f * y) // d
    return new


def solve_eq_nonneg(a: Sequence[Sequence[int]], b: Sequence[int]) -> FeasibilityResult:
    """Find y >= 0 with A y = b, or a Farkas certificate that none exists.
    A is a matrix of ints, b a vector of ints."""
    n = len(a)
    k = len(a[0]) if a else 0
    if any(len(row) != k for row in a):
        raise ValueError("ragged constraint matrix")
    if len(b) != n:
        raise ValueError(f"rhs length {len(b)} does not match {n} rows")

    # sign-normalize rows so the rhs is nonnegative, then append one
    # artificial column per row; initial basis = artificials, D = 1
    signs = [1 if x >= 0 else -1 for x in b]
    rows: list[list[int]] = []
    for i, (arow, x, s) in enumerate(zip(a, b, signs)):
        row = list(arow) if s > 0 else [-v for v in arow]
        row += [0] * n
        row[k + i] = 1
        row.append(s * x)
        rows.append(row)
    basis = [k + i for i in range(n)]

    # phase-1 objective: minimize the sum of artificials.  obj holds D times
    # the reduced costs (cost 0 structural, 1 artificial) followed by -D z.
    obj = [-sum(col) for col in zip(*rows)] or [0]  # no rows: just -D z = 0
    obj[k : k + n] = [0] * n

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
        nz = [(j, y) for j, y in enumerate(prow) if y]
        if p == d:
            # p * x // d is x: only a row with f = row[enter] != 0 changes,
            # and only at nz, to x - f * y // d (f * y is a multiple of d)
            for row in (*rows, obj):
                f = row[enter]
                if f and row is not prow:
                    for j, y in nz:
                        row[j] -= f * y // d
        else:
            rows = [row if row is prow else _eliminate(row, nz, enter, p, d) for row in rows]
            obj = _eliminate(obj, nz, enter, p, d)
        basis[leave] = enter
        d = p

    # each certificate is rechecked as q times its identity, with q its
    # common denominator: sum_j A_ij w_j = q b_i, or u A <= 0 < u b
    if obj[-1] == 0:
        y = [_ZERO] * k
        for row, var in zip(rows, basis):
            if var < k:
                y[var] = Fraction(row[-1], d)
        w, q = common_denominator(y)
        support = [(j, v) for j, v in enumerate(w) if v]
        for arow, x in zip(a, b):
            if sum(arow[j] * v for j, v in support) != q * x:
                raise AssertionError("simplex returned an invalid solution")
        return FeasibilityResult(True, tuple(y), None)

    # infeasible: simplex multipliers pi_i = 1 - reduced cost of the
    # i-th artificial; undo the row sign flips to get the Farkas vector
    u = [Fraction(s * (d - obj[k + i]), d) for i, s in enumerate(signs)]
    w, _ = common_denominator(u)
    support = [(arow, wi) for arow, wi in zip(a, w) if wi]
    if sum(wi * x for wi, x in zip(w, b)) <= 0 or any(
        sum(arow[j] * wi for arow, wi in support) > 0 for j in range(k)
    ):
        raise AssertionError("simplex produced an invalid Farkas vector")
    return FeasibilityResult(False, None, tuple(u))
