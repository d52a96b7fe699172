import math
import random
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import given, settings, strategies as st

from entrodim import simplex
from entrodim.cli import main
from entrodim.dsl import parse_inequality
from entrodim.linear import MAX_PRODUCT_BITS, SizeLimitError
from entrodim.shannon import ShannonCertificate, elemental_inequalities, is_shannon_type
from entrodim.simplex import FeasibilityResult, solve_eq_nonneg

# Reference: the dense Fraction-tableau phase-1 simplex with Bland's rule
# that the fraction-free solver replaced, run until no reduced cost is
# negative, and counting its pivots.  The fraction-free solver must take
# the same pivots up to the first feasible basis, where it stops, so its
# answers must equal these exactly: on a feasible system in no more
# pivots, on an infeasible one in as many.  The reference answers in
# Fractions over den 1; the solver in ints over its D, read as Fractions
# by _over_one to compare them.

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _pivot(
    rows: list[list[Fraction]],
    obj: list[Fraction],
    basis: list[int],
    r: int,
    c: int,
) -> None:
    piv = rows[r][c]
    rows[r] = [x / piv for x in rows[r]]
    prow = rows[r]
    for i, row in enumerate(rows):
        if i != r and row[c] != 0:
            f = row[c]
            rows[i] = [x - f * p for x, p in zip(row, prow)]
    if obj[c] != 0:
        f = obj[c]
        obj[:] = [x - f * p for x, p in zip(obj, prow)]
    basis[r] = c


def _check_size(rows: list[list[Fraction]]) -> None:
    for row in rows:
        for x in row:
            bits = max(x.numerator.bit_length(), x.denominator.bit_length())
            if bits > MAX_PRODUCT_BITS:
                raise SizeLimitError(
                    f"simplex tableau entry exceeds {MAX_PRODUCT_BITS} bits"
                )


def _reference_solve(
    a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]
) -> FeasibilityResult:
    """Find y >= 0 with A y = b, or a Farkas certificate that none exists."""
    n = len(a)
    k = len(a[0]) if n else 0
    if any(len(row) != k for row in a):
        raise ValueError("ragged constraint matrix")
    if len(b) != n:
        raise ValueError(f"rhs length {len(b)} does not match {n} rows")

    # sign-normalize rows so the rhs is nonnegative, then append one
    # artificial column per row; initial basis = artificials
    signs = [1 if Fraction(bi) >= 0 else -1 for bi in b]
    rows: list[list[Fraction]] = []
    for i in range(n):
        s = signs[i]
        row = [s * Fraction(x) for x in a[i]]
        row += [_ONE if j == i else _ZERO for j in range(n)]
        row.append(s * Fraction(b[i]))
        rows.append(row)
    basis = [k + i for i in range(n)]

    # phase-1 objective: minimize the sum of artificials.  obj holds the
    # reduced costs (cost 0 structural, 1 artificial) followed by -z.
    obj = [_ZERO] * (k + n + 1)
    for j in range(k):
        obj[j] = -sum(rows[i][j] for i in range(n))
    obj[-1] = -sum(rows[i][-1] for i in range(n))

    ncols = k + n
    pivots = 0
    while True:
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            break
        pivots += 1
        leave = -1
        best: Fraction | None = None
        for i in range(n):
            coef = rows[i][enter]
            if coef > 0:
                ratio = rows[i][-1] / coef
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best, leave = ratio, i
        if leave < 0:
            raise AssertionError("phase-1 objective cannot be unbounded")
        _pivot(rows, obj, basis, leave, enter)
        _check_size(rows)

    z = -obj[-1]
    if z == 0:
        y = [_ZERO] * k
        for i, var in enumerate(basis):
            if var < k:
                y[var] = rows[i][-1]
        for i in range(n):
            total = sum(Fraction(a[i][j]) * y[j] for j in range(k))
            if total != Fraction(b[i]):
                raise AssertionError("simplex returned an invalid solution")
        return FeasibilityResult(True, 1, tuple(y), None, pivots)

    # infeasible: simplex multipliers pi_i = 1 - reduced cost of the
    # i-th artificial; undo the row sign flips to get the Farkas vector
    u = [signs[i] * (1 - obj[k + i]) for i in range(n)]
    for j in range(k):
        if sum(u[i] * Fraction(a[i][j]) for i in range(n)) > 0:
            raise AssertionError("simplex produced an invalid Farkas vector")
    if sum(u[i] * Fraction(b[i]) for i in range(n)) <= 0:
        raise AssertionError("simplex produced an invalid Farkas vector")
    return FeasibilityResult(False, 1, None, tuple(u), pivots)


def _over_one(res: FeasibilityResult) -> FeasibilityResult:
    """res with its answer read as Fractions over den 1."""
    def read(xs):
        return None if xs is None else tuple(Fraction(x, res.den) for x in xs)
    return FeasibilityResult(res.feasible, 1, read(res.solution), read(res.farkas), res.pivots)


def _assert_matches_reference(a, b) -> FeasibilityResult:
    """The solver's answer, ints over its D > 0, equals the reference's, in
    no more pivots when feasible and in exactly as many when not."""
    got, want = solve_eq_nonneg(a, b), _reference_solve(a, b)
    answer = got.solution if got.feasible else got.farkas
    assert got.den > 0 and all(type(x) is int for x in answer)
    assert _over_one(got) == want
    if got.feasible:
        assert got.pivots <= want.pivots
    else:
        assert got.pivots == want.pivots
    return got


def test_feasible_square_system():
    # x + y = 3, x - y = 1  ->  x = 2, y = 1
    res = solve_eq_nonneg([[1, 1], [1, -1]], [3, 1])
    assert res.feasible
    assert res.solution == (2 * res.den, res.den)
    assert res.farkas is None


def test_feasible_underdetermined():
    res = solve_eq_nonneg([[1, 1]], [5])
    assert res.feasible
    x, y = res.solution
    assert x >= 0 and y >= 0 and x + y == 5 * res.den


def test_infeasible_with_certificate():
    # x = -1 has no nonnegative solution; u = -1 certifies it
    res = solve_eq_nonneg([[1]], [-1])
    assert not res.feasible
    assert res.solution is None
    (u,) = res.farkas
    assert u <= 0
    assert u * -1 > 0


def test_infeasible_two_rows():
    # x + y = 1 and x + y = 2 cannot both hold
    a = [[1, 1], [1, 1]]
    b = [1, 2]
    res = solve_eq_nonneg(a, b)
    assert not res.feasible
    u = res.farkas
    for j in range(2):
        assert sum(u[i] * a[i][j] for i in range(2)) <= 0
    assert sum(u[i] * b[i] for i in range(2)) > 0


def test_shape_errors():
    with pytest.raises(ValueError):
        solve_eq_nonneg([[1], [1, 2]], [1, 1])
    with pytest.raises(ValueError):
        solve_eq_nonneg([[1]], [1, 2])
    # vacuous system is trivially feasible
    assert solve_eq_nonneg([], []).solution == ()


def test_random_constructed_feasible():
    rng = random.Random(42)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 6)
        a = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        # 6 times a rational y* = k/d, d in 1..3, so that b is integral
        y_star = [rng.randint(0, 4) * (6 // rng.randint(1, 3)) for _ in range(cols)]
        b = [sum(a[i][j] * y_star[j] for j in range(cols)) for i in range(rows)]
        res = solve_eq_nonneg(a, b)
        assert res.feasible
        y = res.solution
        assert all(v >= 0 for v in y)
        for i in range(rows):
            assert sum(a[i][j] * y[j] for j in range(cols)) == b[i] * res.den


def test_random_systems_always_certified():
    # every answer, feasible or not, must carry an exact certificate
    rng = random.Random(1234)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 5)
        a = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        # 12 times a rational k/d, d in 1..4
        b = [rng.randint(-6, 6) * (12 // rng.choice((1, 1, 2, 3, 4))) for _ in range(rows)]
        res = solve_eq_nonneg(a, b)
        if res.feasible:
            y = res.solution
            assert all(v >= 0 for v in y)
            for i in range(rows):
                assert sum(a[i][j] * y[j] for j in range(cols)) == b[i] * res.den
        else:
            u = res.farkas
            for j in range(cols):
                assert sum(u[i] * a[i][j] for i in range(rows)) <= 0
            assert sum(u[i] * b[i] for i in range(rows)) > 0


def _scaled_rationals(max_value: int, denominators: tuple[int, ...]):
    """A small rational k/d times the lcm of the denominators, an int."""
    scale = math.lcm(*denominators)
    return st.builds(
        lambda k, d: k * (scale // d),
        st.integers(-max_value, max_value),
        st.sampled_from(denominators),
    )


def _small_matrices(rows: int, cols: int):
    # small integer ranges make degenerate ratio ties common
    return st.integers(1, 4).flatmap(
        lambda bound: st.lists(
            st.lists(st.integers(-bound, bound), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )


def _rhs(draw, a):
    """An integer right-hand side for a, a scaled rational one: A y for a
    nonnegative y, so feasible by construction, or drawn at random."""
    rows, cols = len(a), len(a[0])
    if draw(st.booleans()):
        y = draw(st.lists(_scaled_rationals(3, (1, 2)), min_size=cols, max_size=cols))
        return [sum(a[i][j] * abs(y[j]) for j in range(cols)) for i in range(rows)]
    return draw(st.lists(_scaled_rationals(6, (1, 2, 3, 4)), min_size=rows, max_size=rows))


@st.composite
def _systems(draw):
    a = draw(_small_matrices(draw(st.integers(1, 5)), draw(st.integers(1, 6))))
    return a, _rhs(draw, a)


@settings(max_examples=400, deadline=None)
@given(_systems())
def test_matches_reference_solver(system):
    a, b = system
    _assert_matches_reference(a, b)


@st.composite
def _matrix_and_rhs_list(draw):
    """One matrix, a random one or the cached elemental matrix for
    m = 2..4, and several right-hand sides of mixed sign for it."""
    if draw(st.booleans()):
        a = draw(_small_matrices(draw(st.integers(1, 5)), draw(st.integers(1, 6))))
    else:
        a = elemental_inequalities(draw(st.integers(2, 4))).matrix
    return a, [_rhs(draw, a) for _ in range(draw(st.integers(2, 6)))]


@settings(max_examples=200, deadline=None)
@given(_matrix_and_rhs_list())
def test_one_matrix_matches_reference_on_every_rhs(case):
    # the rows of one matrix serve every sign pattern of b
    a, rhs_list = case
    for b in rhs_list:
        _assert_matches_reference(a, b)


@st.composite
def _elemental_rhs(draw):
    m = draw(st.integers(2, 4))
    size = (1 << m) - 1
    return m, draw(st.lists(_scaled_rationals(4, (1, 2, 3)), min_size=size, max_size=size))


@settings(max_examples=60, deadline=None)
@given(_elemental_rhs())
def test_cached_elemental_system_matches_reference(case):
    m, b = case
    elems = elemental_inequalities(m)
    _assert_matches_reference(elems.matrix, b)
    _assert_matches_reference([list(row) for row in elems.matrix], b)


def test_matches_reference_on_int_input():
    # plain ints are accepted, as by the reference
    a, b = [[2, -1, 0], [1, 1, 3]], [1, -2]
    _assert_matches_reference(a, b)


def test_size_budget(monkeypatch):
    a = [[3, 1], [-1, 5]]
    b = [21, 2]
    assert solve_eq_nonneg(a, b).feasible
    monkeypatch.setattr(simplex, "MAX_PRODUCT_BITS", 4)
    with pytest.raises(SizeLimitError):
        solve_eq_nonneg(a, b)


# Shannon-type, but refuted by no point of the table nor certified by its
# peel: its check solves the LP
RENAMED = ("1/3 H(c) + 1 H(a) + 1 H(e) + 1 H(d,b,e) + 1 H(a,b,e) <= 1 H(a,b) + 1 H(a,e) "
           "+ 1/3 H(b,c) + 1 H(b,e) + 1/3 H(c,d) + 1 H(d,e)")


def test_size_budget_is_read_at_call_time(monkeypatch):
    # the m=5 matrix is built and cached before the budget shrinks; a
    # target the table decides, as every one at m <= 4, solves no LP
    target = parse_inequality(RENAMED)
    assert isinstance(is_shannon_type(target), ShannonCertificate)
    matrix = elemental_inequalities(5).matrix
    assert elemental_inequalities(5).matrix is matrix
    # each row's share of the bound counts its entry of b: half the
    # budget's bits in one entry, in its row and in the objective, is over
    big = [2 ** (MAX_PRODUCT_BITS // 2)] + [0] * (len(matrix) - 1)
    for a in (matrix, [list(row) for row in matrix]):
        with pytest.raises(SizeLimitError):
            solve_eq_nonneg(a, big)
    monkeypatch.setattr(simplex, "MAX_PRODUCT_BITS", 4)
    with pytest.raises(SizeLimitError):
        is_shannon_type(target)
    with pytest.raises(SizeLimitError):
        solve_eq_nonneg(matrix, [1] * len(matrix))
    assert elemental_inequalities(5).matrix is matrix


def test_size_budget_cli_error(monkeypatch, capsys):
    monkeypatch.setattr(simplex, "MAX_PRODUCT_BITS", 4)
    assert main(["check", RENAMED]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: SizeLimitError: ")


class _TwoFaced(tuple):
    """A matrix row that reads as ``checked`` by index, as the solver's
    recheck reads the caller's rows, but iterates as ``seen``, as the
    tableau is built: the solver solves one system and checks another."""

    def __new__(cls, seen, checked):
        self = super().__new__(cls, checked)
        self.seen = tuple(seen)
        return self

    def __iter__(self):
        return iter(self.seen)


def test_recheck_rejects_a_wrong_answer(monkeypatch):
    # an answer right for the tableau's system but wrong for the caller's
    # A and b: the solver's own integer recheck against A and b must refuse
    # it, each half of the Farkas recheck on a case of its own
    for seen, checked, b, message in [
        # solves y = (2, 1), but the checked rows give A y = (3, 3)
        ([[1, 1], [1, -1]], [[1, 1], [1, 1]], [3, 1], "invalid solution"),
        # -y = 1 has u = (1), but against the checked row u . A_col = 1 > 0
        ([[-1]], [[1]], [1], "invalid Farkas vector"),
    ]:
        assert solve_eq_nonneg(seen, b) == solve_eq_nonneg(
            [_TwoFaced(row, row) for row in seen], b)
        with pytest.raises(AssertionError, match=message):
            solve_eq_nonneg(list(map(_TwoFaced, seen, checked)), b)
    # y = -1 has u = (-1), u . b = 1; the recheck's products negated
    # make u . b = -1 <= 0, and u . A_col, summed on its own, stays -1
    res = solve_eq_nonneg([[1]], [-1])
    assert not res.feasible and res.farkas == (-1,)
    monkeypatch.setattr(simplex, "mul", lambda x, y: -x * y)
    with pytest.raises(AssertionError, match="invalid Farkas vector"):
        solve_eq_nonneg([[1]], [-1])


def test_integer_matrix_with_rational_rhs():
    # an int matrix, as shannon passes it, next to a rational right-hand
    # side scaled to ints by its common denominator, as shannon scales it
    a = [[1, 0, 1], [0, 1, -1]]
    for b in ([3, 2], [-1, 0]):
        _assert_matches_reference(a, b)


def test_non_integer_matrix_entry_is_rejected():
    # the row norms of the Hadamard bound are ints only for an int matrix
    # and an int right-hand side, which is in the same rows
    for entry in (Fraction(1, 2), Fraction(2), 0.5):
        with pytest.raises(TypeError, match="must be ints"):
            solve_eq_nonneg([[1, 0], [entry, 1]], [1, -1])
        with pytest.raises(TypeError, match="must be ints"):
            solve_eq_nonneg([[1, 0], [0, 1]], [entry, -1])


def test_a_plain_matrix_serves_every_rhs():
    # one matrix, many right-hand sides: each answer is the reference's,
    # and the matrix is left as it was
    a = [[1, -2, 0, 1], [0, 1, 1, -1], [3, 0, -1, 2]]
    before = [row[:] for row in a]
    rng = random.Random(7)
    for _ in range(40):
        b = [rng.randint(-5, 5) for _ in a]
        assert solve_eq_nonneg(a, b) == _assert_matches_reference(a, b)
    assert a == before
    with pytest.raises(ValueError, match="ragged"):
        solve_eq_nonneg([[1, 2], [3]], [1, 2])
    with pytest.raises(ValueError, match="rhs length"):
        solve_eq_nonneg(a, [1, 2])


def test_caller_matrix_is_left_unchanged():
    # the solver reads the caller's rows directly, also the rows it flips
    a = [[1, -2, 0], [0, 1, 1], [3, 0, -1]]
    before = [row[:] for row in a]
    for b in ([1, 2, 3], [-1, 2, -3], [-3, 0, 10], [0, -1, 0]):
        _assert_matches_reference(a, b)
    assert a == before


@pytest.mark.parametrize("text, pivots", [
    ("H(a,b,c,d,e) <= H(a) + H(b) + H(c) + H(d) + H(e)", 26),
    ("H(a,b,c,d,e,f) <= H(a,b,c) + H(d,e,f)", 61),
])
def test_phase_one_stops_at_the_first_feasible_basis(text, pivots):
    # the reference keeps taking degenerate pivots after the artificials
    # reach 0, 51 and 80 pivots in all here; the answer is the same
    target = parse_inequality(text)
    elems = elemental_inequalities(target.m)
    b = [target.nums.get(mask, 0) for mask in range(1, 1 << target.m)]
    got = solve_eq_nonneg(elems.matrix, b)
    want = _reference_solve(elems.matrix, b)
    assert _over_one(got) == want and got.feasible
    assert got.pivots == pivots < want.pivots
