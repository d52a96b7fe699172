"""
Exact rational feasibility solver for  A y = b,  y >= 0.

Phase-1 simplex with Bland's rule (smallest-index entering column,
smallest basic index on ratio ties), which rules out cycling.  It runs
fraction-free: the tableau is an integer matrix M with one common
denominator D, so the true tableau is M / D.  D is the determinant of
the current basis, and every entry of M, objective row included, is a
minor of the initial integer tableau (Bareiss, Edmonds).  One loop
pivots in place on (r, c), with p = M[r][c] > 0: row r stays, entry j
of every other row i becomes (p * M[i][j] - M[i][c] * M[r][j]) // D, a
division that is exact, and D becomes p.  When p = D, as on most pivots
of a 0/±1 matrix, that is M[i][j] - M[i][c] * M[r][j] // D: only the
rows with M[i][c] != 0 change, and only where row r is nonzero.  The
ratio test compares by cross-multiplication.

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
pivots.  The rows are sign-normalized by b and copied into the tableau,
and the objective row is read from those rows: minus each structural
column's sum, 0 at the artificials, and minus the sum of |b_i| last.

Because every entry of M, and D, is a minor, one Hadamard bound on the
initial integer tableau caps them all: the sum over its rows of half
the bit length of the squared row norm, which for row i is the squared
norm of A's row plus 1 + b_i**2, read as the tableau row is built.  It
is taken on every call, before the first pivot, and a system whose
bound exceeds MAX_PRODUCT_BITS raises SizeLimitError.

The answer is a solution y >= 0 with A y = b, or a Farkas vector u
with u . A_col_j <= 0 for every column j and u . b > 0, which certifies
that none exists.  The final tableau holds it as integers over D > 0:
y = w / D, w the basic rows' right-hand sides, or u = v / D, with
v_i = s_i (D - R_i), s_i the sign of b_i and R_i the objective row's
entry at the i-th artificial.  It is rechecked exactly against A and b
in those integers, as sum_j A_ij w_j = D b_i for every row i or as
v . A_col_j <= 0 < v . b, and returned as those ints over D.

Entries of A and b are ints, and a Fraction or float entry raises
TypeError: it makes its row's squared norm something other than an int.
A ragged matrix raises ValueError.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import mul, neg

from .linear import MAX_PRODUCT_BITS, Record, SizeLimitError


class FeasibilityResult(Record):
    """Whether A y = b has a solution y >= 0: ``solution`` is such a y
    when feasible, else ``farkas`` is a u with uA <= 0 and u.b > 0, as ints
    over ``den``, the final basis's D.  ``pivots``, the phase-1 pivots
    taken, takes no part in == or repr."""

    _fields = ("feasible", "den", "solution", "farkas")

    def __init__(self, feasible: bool, den: int, solution, farkas, pivots: int = 0) -> None:
        super().__init__(feasible, den, solution, farkas)
        object.__setattr__(self, "pivots", pivots)


def _half_bits(norm2: int) -> int:
    """A squared row norm's share of the Hadamard bound: half its bit
    length, rounded up.  The norm is an int exactly when every entry of
    its row is one; TypeError otherwise."""
    if not isinstance(norm2, int):
        raise TypeError(f"constraint matrix entries must be ints, not {type(norm2).__name__}")
    return (norm2.bit_length() + 1) // 2


def solve_eq_nonneg(a: Sequence[Sequence[int]], b: Sequence[int]) -> FeasibilityResult:
    """Find y >= 0 with A y = b, or a Farkas certificate that none exists.
    A is a matrix of ints and b a vector of ints."""
    n = len(a)
    if len(b) != n:
        raise ValueError(f"rhs length {len(b)} does not match {n} rows")
    k = len(a[0]) if a else 0

    # sign-normalize rows so the rhs is nonnegative, then append one
    # artificial column per row; initial basis = artificials, D = 1.  Each
    # row's share of the Hadamard bound is its squared norm plus 1 + b_i**2
    signs = [1 if x >= 0 else -1 for x in b]
    rows: list[list[int]] = []
    bits = 0
    for i, (arow, x, s) in enumerate(zip(a, b, signs)):
        row = list(arow) if s > 0 else list(map(neg, arow))
        if len(row) != k:
            raise ValueError("ragged constraint matrix")
        bits += _half_bits(sum(map(mul, row, row)) + 1 + x * x)
        row += [0] * n
        row[k + i] = 1
        row.append(s * x)
        rows.append(row)
    basis = [k + i for i in range(n)]

    # phase-1 objective: minimize the sum of artificials.  obj holds D times
    # the reduced costs (cost 0 structural, 1 artificial) followed by -D z:
    # minus the sums of the sign-normalized columns, 0 at the artificials
    obj = list(map(neg, map(sum, zip(*rows)))) or [0]  # [0]: no rows, z = 0
    obj[k:-1] = [0] * n

    bits += _half_bits(sum(map(mul, obj, obj)))
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
        if p == d:
            # p * x // d is x: only a row with f = row[enter] != 0 changes,
            # and only at nz, to x - f * y // d (f * y is a multiple of d)
            nz = [(j, y) for j, y in enumerate(prow) if y]
            for row in (*rows, obj):
                f = row[enter]
                if f and row is not prow:
                    for j, y in nz:
                        row[j] -= f * y // d
        else:
            for row in (*rows, obj):
                if row is not prow:
                    f = row[enter]
                    row[:] = [(p * x - f * y) // d for x, y in zip(row, prow)]
        basis[leave] = enter
        d = p
        pivots += 1

    # the answer, integers over d > 0, is rechecked before it is returned
    if obj[-1] == 0:
        support = [(var, row[-1]) for row, var in zip(rows, basis) if var < k and row[-1]]
        for arow, x in zip(a, b):
            if sum(arow[j] * w for j, w in support) != d * x:
                raise AssertionError("simplex returned an invalid solution")
        y = dict(support)
        return FeasibilityResult(True, d, tuple(y.get(j, 0) for j in range(k)), None, pivots)

    # infeasible: simplex multipliers pi_i = 1 - reduced cost of the
    # i-th artificial; undo the row sign flips to get the Farkas vector
    u = [s * (d - obj[k + i]) for i, s in enumerate(signs)]
    support = [(arow, ui) for arow, ui in zip(a, u) if ui]
    if sum(map(mul, u, b)) <= 0 or any(
        sum(arow[j] * ui for arow, ui in support) > 0 for j in range(k)
    ):
        raise AssertionError("simplex produced an invalid Farkas vector")
    return FeasibilityResult(False, d, None, tuple(u), pivots)
