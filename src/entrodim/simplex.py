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

Phase 1 ends at the first basis whose objective, the sum of the
artificials, is 0, or at the first basis with no negative reduced cost.
From a basis of objective 0, Bland's rule would take only degenerate
pivots: a step of length θ > 0 would make the objective negative, so
every further pivot has θ = 0 and moves no variable.  The solution y
read from the first such basis is therefore the one the full phase 1
returns.  An infeasible system never reaches objective 0, so its pivots
and its Farkas vector are those of the full phase 1.

A is an integer matrix and b an integer vector, both used as they are:
a caller with a rational b scales it to integers first, which scales
every ratio of a ratio test by the same factor and so keeps Bland's
pivots.  What a solve needs of A alone is made once, in a
PreparedMatrix: the rows as tuples, each row's squared norm and the
column sums.  A caller that solves one matrix for many right-hand
sides passes a PreparedMatrix; a plain matrix is prepared on the call.
Per call, the rows are sign-normalized by b and copied into the
tableau, and the objective row is the negated column sums plus twice
the sign-flipped rows.

Because every entry of M, and D, is a minor, one Hadamard bound on the
initial integer tableau caps them all: the sum over its rows of half
the bit length of the squared row norm, which for row i is A's cached
norm plus 1 + b_i**2.  It is taken on every call, before the first
pivot, and a system whose bound exceeds MAX_PRODUCT_BITS raises
SizeLimitError.

Outcome is two-sided:

* feasible: a solution vector y >= 0 with A y = b, and
* infeasible: a Farkas vector u with u . A_col_j <= 0 for every column j
  and u . b > 0, certifying that no nonnegative solution exists.

Entries of A and b are ints, and a Fraction or float entry raises
TypeError on every call: it makes its row's squared norm, cached or not,
something other than an int.  Both certificates are rechecked exactly against A and b
before being returned, as integer identities over their common
denominators.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from operator import mul, neg

from .linear import MAX_PRODUCT_BITS, Record, SizeLimitError, common_denominator

_ZERO = Fraction(0)


class FeasibilityResult(Record):
    """Whether A y = b has a solution y >= 0: ``solution`` is such a y
    when feasible, else ``farkas`` is a u with uA <= 0 and u.b > 0.
    ``pivots``, the phase-1 pivots taken, takes no part in == or repr."""

    _fields = ("feasible", "solution", "farkas")

    def __init__(self, feasible: bool, solution, farkas, pivots: int = 0) -> None:
        super().__init__(feasible, solution, farkas)
        object.__setattr__(self, "pivots", pivots)


def _half_bits(norm2: int) -> int:
    """A squared row norm's share of the Hadamard bound: half its bit
    length, rounded up.  The norm is an int exactly when every entry of
    its row is one; TypeError otherwise."""
    if not isinstance(norm2, int):
        raise TypeError(f"constraint matrix entries must be ints, not {type(norm2).__name__}")
    return (norm2.bit_length() + 1) // 2


class PreparedMatrix(tuple):
    """A matrix as a tuple of rows, with what every solve on it reads made
    once: the column count k, each row's squared norm (``norms``) and the
    column sums (``colsums``).  A ragged matrix is a ValueError; a norm
    that is not an int, from a Fraction or float entry, is a TypeError on
    every solve."""

    def __new__(cls, a: Sequence[Sequence[int]]) -> PreparedMatrix:
        self = super().__new__(cls, map(tuple, a))
        self.k = len(self[0]) if self else 0
        if set(map(len, self)) - {self.k}:
            raise ValueError("ragged constraint matrix")
        self.norms = [sum(map(mul, row, row)) for row in self]
        self.colsums = list(map(sum, zip(*self)))
        return self


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
    A is a PreparedMatrix or a matrix of ints, prepared on the call; b is
    a vector of ints."""
    if not isinstance(a, PreparedMatrix):
        a = PreparedMatrix(a)
    n, k = len(a), a.k
    if len(b) != n:
        raise ValueError(f"rhs length {len(b)} does not match {n} rows")

    # sign-normalize rows so the rhs is nonnegative, then append one
    # artificial column per row; initial basis = artificials, D = 1
    signs = [1 if x >= 0 else -1 for x in b]
    rows: list[list[int]] = []
    flipped = []
    for i, (arow, x, s) in enumerate(zip(a, b, signs)):
        if s > 0:
            row = list(arow)
        else:
            row = list(map(neg, arow))
            flipped.append(arow)
        row += [0] * n
        row[k + i] = 1
        row.append(s * x)
        rows.append(row)
    basis = [k + i for i in range(n)]

    # phase-1 objective: minimize the sum of artificials.  obj holds D times
    # the reduced costs (cost 0 structural, 1 artificial) followed by -D z:
    # minus the sums of the sign-normalized columns
    obj = list(map(neg, a.colsums))
    for j, f in enumerate(map(sum, zip(*flipped))):
        obj[j] += 2 * f
    obj += [0] * n
    obj.append(-sum(map(abs, b)))

    bits = _half_bits(sum(map(mul, obj, obj)))
    for norm2, x in zip(a.norms, b):
        bits += _half_bits(norm2 + 1 + x * x)
    if bits > MAX_PRODUCT_BITS:
        raise SizeLimitError(
            f"simplex tableau entry may exceed {MAX_PRODUCT_BITS} bits"
        )

    d = 1
    ncols = k + n
    pivots = 0
    while obj[-1]:
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
        pivots += 1

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
        return FeasibilityResult(True, tuple(y), None, pivots)

    # infeasible: simplex multipliers pi_i = 1 - reduced cost of the
    # i-th artificial; undo the row sign flips to get the Farkas vector
    u = [Fraction(s * (d - obj[k + i]), d) for i, s in enumerate(signs)]
    w, _ = common_denominator(u)
    support = [(arow, wi) for arow, wi in zip(a, w) if wi]
    if sum(wi * x for wi, x in zip(w, b)) <= 0 or any(
        sum(arow[j] * wi for arow, wi in support) > 0 for j in range(k)
    ):
        raise AssertionError("simplex produced an invalid Farkas vector")
    return FeasibilityResult(False, None, tuple(u), pivots)
