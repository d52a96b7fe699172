import json
import math
import os
import random
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from entrodim.cantor import DimValue
from entrodim.core import mask_positions, subsets
from entrodim.splitting import (
    FiniteBody,
    Point,
    SplitResult,
    SplitSpec,
    check_unsplit_inequality,
    cube_bar_instance,
    find_split_exhaustive,
    loomis_whitney_slack,
    projection_count,
    verify_split,
    _max_count,
)

# -- the search as it was before the projection kernel, and the float
# budget rule it used before the exact one, kept as the reference for
# test_split_searches_match_their_references

#: the float tolerance of the reference rule
_REFERENCE_FLOAT_TOL = 1e-9

#: the recursive reference search refuses more than this many assignments
_REFERENCE_BOUND = 10**7


def _reference_max_count(bits: float) -> int:
    """Largest part-projection cardinality within a budget of `bits`.

    Consistent by construction with the verification test
    log2(count) <= bits + _REFERENCE_FLOAT_TOL.
    """
    if bits > 900:
        return 1 << 1000  # effectively unbounded
    cap = max(0, int(2.0 ** (bits + _REFERENCE_FLOAT_TOL)))
    while math.log2(cap + 1) <= bits + _REFERENCE_FLOAT_TOL:
        cap += 1
    while cap > 0 and math.log2(cap) > bits + _REFERENCE_FLOAT_TOL:
        cap -= 1
    return cap


def _reference_proj(point: Point, mask: int) -> Point:
    return tuple(point[i - 1] for i in mask_positions(mask))


def _reference_verify_split(
    body: FiniteBody, spec: SplitSpec, result: SplitResult
) -> bool:
    """Direct-counting recheck that the split satisfies every budget.

    Structural problems (not a partition of the body, unknown part
    label) raise; budget failure returns False.  The empty part is
    vacuously within budget — log2 of an empty projection is -inf.
    """
    if set(result.assignment) != body.points:
        raise ValueError("assignment does not cover exactly the body's points")
    for point, mask in result.assignment.items():
        if mask not in spec.levels:
            raise ValueError(f"point {point} assigned to unknown part {mask}")
    for mask in spec.levels:
        shadow = {_reference_proj(p, mask) for p, lbl in result.assignment.items()
                  if lbl == mask}
        if shadow and math.log2(len(shadow)) > spec.bits(mask) + _REFERENCE_FLOAT_TOL:
            return False
    return True


def _reference_find_split_exhaustive(
    body: FiniteBody, spec: SplitSpec
) -> SplitResult | None:
    """Complete backtracking search over all point-to-part assignments.

    Deterministic: points in sorted order, parts in ascending mask
    order, so the returned split is the lexicographically first valid
    assignment.  A part's projection count never shrinks as points are
    added, so pruning an over-budget prefix is safe.  Raises ValueError
    when |parts| ** |S| > _REFERENCE_BOUND.
    """
    parts = sorted(spec.levels)
    points = sorted(body.points)
    if len(parts) ** len(points) > _REFERENCE_BOUND:
        raise ValueError(
            f"{len(parts)}**{len(points)} assignments exceed {_REFERENCE_BOUND}"
        )
    caps = {mask: _reference_max_count(spec.bits(mask)) for mask in parts}
    shadows: dict[int, set[Point]] = {mask: set() for mask in parts}
    chosen: list[int] = []

    def dfs(i: int) -> bool:
        if i == len(points):
            return True
        for mask in parts:
            key = _reference_proj(points[i], mask)
            shadow = shadows[mask]
            fresh = key not in shadow
            if fresh and len(shadow) >= caps[mask]:
                continue
            if fresh:
                shadow.add(key)
            chosen.append(mask)
            if dfs(i + 1):
                return True
            chosen.pop()
            if fresh:
                shadow.remove(key)
        return False

    if not dfs(0):
        return None
    result = SplitResult(dict(zip(points, chosen)))
    if not _reference_verify_split(body, spec, result):
        raise AssertionError("exhaustive search produced an invalid split")
    return result


FULL_CUBE_2 = FiniteBody(
    3, 2, frozenset((x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1))
)


def _random_body(rng, m=3, max_base=8, max_points=50):
    base = rng.randint(2, max_base)
    npts = rng.randint(1, max_points)
    pts = {
        tuple(rng.randrange(base) for _ in range(m)) for _ in range(npts)
    }
    return FiniteBody(m, base, frozenset(pts))


def test_body_validation_and_json():
    with pytest.raises(ValueError):
        FiniteBody(2, 2, frozenset())
    with pytest.raises(ValueError):
        FiniteBody(2, 2, frozenset({(0, 2)}))
    with pytest.raises(ValueError):
        FiniteBody(2, 2, frozenset({(0,)}))
    with pytest.raises(ValueError):
        FiniteBody(2, 0, frozenset({(0, 0)}))
    body = FiniteBody(2, 3, frozenset({(0, 0), (2, 1)}))
    obj = body.to_json()
    assert obj == {"m": 2, "N": 3, "points": [[0, 0], [2, 1]]}
    assert FiniteBody.from_json(obj) == body


def test_projection_count():
    assert projection_count(FULL_CUBE_2, 0b001) == 2
    assert projection_count(FULL_CUBE_2, 0b011) == 4
    assert projection_count(FULL_CUBE_2, 0b111) == 8
    with pytest.raises(ValueError):
        projection_count(FULL_CUBE_2, 0)
    with pytest.raises(ValueError):
        projection_count(FULL_CUBE_2, 0b1000)


def test_loomis_whitney_basics():
    assert loomis_whitney_slack(FULL_CUBE_2) == pytest.approx(0.0, abs=1e-12)
    point = FiniteBody(3, 2, frozenset({(0, 0, 0)}))
    assert loomis_whitney_slack(point) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        loomis_whitney_slack(FiniteBody(2, 2, frozenset({(0, 0)})))


def test_loomis_whitney_against_direct_counting():
    rng = random.Random(555)
    for _ in range(50):
        body = _random_body(rng, max_points=20)
        got = loomis_whitney_slack(body)
        pairs = []
        for i, j in combinations(range(3), 2):
            shadow = {(p[i], p[j]) for p in body.points}
            pairs.append(math.log2(len(shadow)))
        want = sum(pairs) - 2 * math.log2(len(body.points))
        assert got == pytest.approx(want, abs=1e-12)
        assert got >= -1e-9


def test_cube_bar_instance():
    body = cube_bar_instance(4)
    assert body.base == 8
    assert len(body.points) == 68
    rep = check_unsplit_inequality(body)
    assert (rep.v1, rep.v, rep.v12, rep.v13) == (8, 68, 20, 20)
    assert rep.lhs_product == 544 and rep.rhs_product == 400
    assert rep.violated and rep.sign == 1

    big = cube_bar_instance(16)
    assert len(big.points) == 4144
    rep = check_unsplit_inequality(big)
    assert (rep.v1, rep.v12, rep.v13) == (64, 304, 304)
    assert rep.lhs_product == 64 * 4144 == 265216
    assert rep.rhs_product == 304 * 304 == 92416

    with pytest.raises(ValueError):
        cube_bar_instance(5)  # not a perfect square
    with pytest.raises(ValueError):
        cube_bar_instance(1)  # too small


def test_check_unsplit_equality_cases():
    rep = check_unsplit_inequality(FULL_CUBE_2)
    assert rep.sign == 0 and not rep.violated
    assert rep.lhs_product == 2 * 8 == rep.rhs_product == 4 * 4
    diag = FiniteBody(3, 5, frozenset((i, i, i) for i in range(5)))
    rep = check_unsplit_inequality(diag)
    assert rep.sign == 0
    assert rep.lhs_bits == pytest.approx(rep.rhs_bits)


def test_split_spec():
    spec = SplitSpec(3, {0b001: 2.0, 0b111: 1.0})
    assert spec.bits(0b001) == 2.0
    with pytest.raises(ValueError):
        SplitSpec(3, {})
    with pytest.raises(ValueError):
        SplitSpec(2, {0b100: 1.0})
    # a budget is an int, float or Fraction; nothing else is read through
    # float(), and a bool is not a number of bits
    for bad in (DimValue(4, 2), True, "1/2", None, Decimal(1)):
        with pytest.raises(TypeError, match=r"budget of part \{1,2\} is a"):
            SplitSpec(2, {3: bad})


def test_split_spec_json_round_trip():
    spec = SplitSpec(3, {0b001: 2.0, 0b111: 1.5})
    obj = spec.to_json()
    assert obj == {
        "m": 3,
        "levels": [
            {"part": [1], "bits": 2.0},
            {"part": [1, 2, 3], "bits": 1.5},
        ],
    }
    back = SplitSpec.from_json(obj)
    assert back.m == 3 and back.levels == {0b001: 2.0, 0b111: 1.5}


def test_split_spec_json_keeps_budgets_a_float_cannot_hold():
    # b = log2(c) - 1e-9 + 1e-40 has cap c; as a float it would read c - 1
    # for 28 of these c
    for c in range(2, 50):
        with localcontext() as ctx:
            ctx.prec = 60
            log2c = Fraction(Decimal(c).ln() / Decimal(2).ln())
        b = log2c - Fraction(1, 10**9) + Fraction(1, 10**40)
        spec = SplitSpec(1, {1: b})
        obj = json.loads(json.dumps(spec.to_json()))
        assert obj["levels"][0]["bits"] == str(b)
        back = SplitSpec.from_json(obj)
        assert back.levels == spec.levels
        assert _max_count(back.levels[1]) == _max_count(b) == c


def test_find_split_exhaustive_full_cube():
    # budgets (2, 2) on a 2-cube: everything fits in the first part, and
    # the deterministic search returns exactly that assignment
    spec = SplitSpec(3, {0b001: 2.0, 0b111: 2.0})
    result = find_split_exhaustive(FULL_CUBE_2, spec)
    assert result is not None
    assert set(result.assignment.values()) == {0b001}
    assert verify_split(FULL_CUBE_2, spec, result)


def test_find_split_exhaustive_impossible():
    # a = -1 forces the first part empty; the rest cannot hold all 8
    spec = SplitSpec(3, {0b001: -1.0, 0b111: 2.9})
    assert find_split_exhaustive(FULL_CUBE_2, spec) is None


def test_find_split_single_point():
    body = FiniteBody(3, 2, frozenset({(0, 0, 0)}))
    spec = SplitSpec(3, {0b001: 0.0, 0b111: 0.0})
    result = find_split_exhaustive(body, spec)
    assert result is not None
    assert result.assignment == {(0, 0, 0): 0b001}


def test_budget_boundary_is_exact():
    two = FiniteBody(1, 3, frozenset({(0,), (1,)}))
    three = FiniteBody(1, 3, frozenset({(0,), (1,), (2,)}))
    spec = SplitSpec(1, {1: 1.0})
    assert find_split_exhaustive(two, spec) is not None
    assert find_split_exhaustive(three, spec) is None


def test_a_24_point_two_part_body_is_decided():
    # 2**24 assignments, past the reference search's guard: the search
    # has no size bound, and the first split fills part {1} first
    body = FiniteBody(2, 24, frozenset((i, 0) for i in range(24)))
    assert 2**24 > _REFERENCE_BOUND
    result = find_split_exhaustive(body, SplitSpec(2, {0b01: 5.0, 0b11: 5.0}))
    assert result.assignment == dict.fromkeys(sorted(body.points), 0b01)
    spec = SplitSpec(2, {0b01: math.log2(20), 0b11: 2.0})
    result = find_split_exhaustive(body, spec)
    assert result.assignment == {(i, 0): 0b01 if i < 20 else 0b11 for i in range(24)}
    assert verify_split(body, spec, result)
    spec = SplitSpec(2, {0b01: math.log2(20), 0b11: math.log2(3)})
    assert find_split_exhaustive(body, spec) is None


def test_verify_split_errors_and_budget():
    spec = SplitSpec(3, {0b001: 2.0, 0b111: 2.0})
    pts = sorted(FULL_CUBE_2.points)
    with pytest.raises(ValueError):
        verify_split(
            FULL_CUBE_2, spec, SplitResult({p: 0b001 for p in pts[:-1]})
        )
    with pytest.raises(ValueError):
        verify_split(
            FULL_CUBE_2, spec, SplitResult({p: 0b010 for p in pts})
        )
    # everything dumped into the full-projection part blows its budget
    over = SplitResult({p: 0b111 for p in pts})
    assert verify_split(FULL_CUBE_2, spec, over) is False


@pytest.mark.parametrize(
    "run",
    [find_split_exhaustive,
     lambda body, spec: verify_split(body, spec, SplitResult({(0, 1): 0b1}))],
    ids=["exhaustive", "verify"],
)
def test_spec_and_body_must_have_the_same_m(run):
    body = FiniteBody(2, 3, {(0, 1)})
    with pytest.raises(ValueError, match="split spec for m=3 on a body with m=2"):
        run(body, SplitSpec(3, {0b001: 1}))


def test_split_result_json():
    body = FiniteBody(2, 2, frozenset({(0, 0), (1, 1)}))
    result = SplitResult({(0, 0): 0b01, (1, 1): 0b11})
    assert result.to_json(body) == {
        "assignment": {"0": "{1}", "1": "{1,2}"}
    }


def test_split_result_json_labels_points_by_sorted_order():
    # the assignment dicts are filled in descending and in hash order;
    # point i of the report is still the i-th point in ascending order
    body = cube_bar_instance(16)
    result = find_split_exhaustive(body, SplitSpec(3, {0b001: math.log2(30), 0b111: 12}))
    order = sorted(body.points)
    want = {str(i): "{1}" if result.assignment[p] == 0b001 else "{1,2,3}"
            for i, p in enumerate(order)}
    assert set(want.values()) == {"{1}", "{1,2,3}"}
    for points in (order[::-1], list(body.points)):
        refilled = SplitResult({p: result.assignment[p] for p in points})
        assert refilled.to_json(body) == {"assignment": want}
        assert refilled.to_json(FiniteBody(3, 64, body.points)) == {"assignment": want}
    body = FiniteBody(2, 3, frozenset({(2, 0), (0, 2), (1, 1)}))
    result = SplitResult({(2, 0): 0b01, (1, 1): 0b11, (0, 2): 0b10})
    assert result.to_json(body) == {"assignment": {"0": "{2}", "1": "{1,2}", "2": "{1}"}}


def test_search_splits_the_cube_bar_at_the_first_assignment():
    # the benchmark's cube-bar(16) spec: the first split puts x = 0..29,
    # the cube and 14 bar points, into part {1}, and the other 34 bar
    # points into part {1,2,3}; caps of exactly 30 and 34 fit, one less
    # on either part does not
    body = cube_bar_instance(16)
    spec = SplitSpec(3, {0b001: math.log2(30), 0b111: math.log2(4096)})
    got = find_split_exhaustive(body, spec)
    assert list(got.assignment) == sorted(body.points)
    assert got.assignment == {p: 0b001 if p[0] < 30 else 0b111 for p in body.points}
    for caps, fits in (((30, 34), True), ((29, 34), False), ((30, 33), False)):
        spec = SplitSpec(3, {0b001: math.log2(caps[0]), 0b111: math.log2(caps[1])})
        assert verify_split(body, spec, got) is fits
        assert _reference_verify_split(body, spec, got) is fits


def _benchmark_shaped_split(rng):
    """16-22 distinct points of {0..3}^3 and caps for parts {1} and
    {1,2,3}: cap1 below the number of first coordinates in use, cap123
    what the cap1 largest first-coordinate fibers leave over, or one
    less.  Returns the body, the spec and whether a split exists, which
    is when those fibers hold at least #S - cap123 points."""
    points = rng.sample(list(product(range(4), repeat=3)), rng.randint(16, 22))
    cap1 = rng.randint(1, max(1, len({p[0] for p in points}) - 1))
    fibers = sorted((sum(p[0] == x for p in points) for x in range(4)), reverse=True)
    need = len(points) - sum(fibers[:cap1])
    cap123 = max(1, need - rng.randint(0, 1))
    spec = SplitSpec(3, {0b001: math.log2(cap1), 0b111: math.log2(cap123)})
    return FiniteBody(3, 4, frozenset(points)), spec, need <= cap123


def test_exhaustive_search_on_benchmark_shaped_splits():
    exists_seen = set()
    for seed in range(40):
        body, spec, exists = _benchmark_shaped_split(random.Random(seed))
        got, want = find_split_exhaustive(body, spec), _reference_find_split_exhaustive(body, spec)
        assert (got is not None) == (want is not None) == exists, seed
        if exists:
            assert got.assignment == want.assignment, seed
        exists_seen.add(exists)
    assert exists_seen == {True, False}


_CUBE_BAR_SEARCH = """
import json, math, time
from entrodim import splitting
body = splitting.cube_bar_instance(16)
out = []
for cap1, cap123 in ((16, 48), (16, 47)):
    spec = splitting.SplitSpec(3, {0b001: math.log2(cap1), 0b111: math.log2(cap123)})
    start = time.perf_counter()
    result = splitting.find_split_exhaustive(body, spec)
    seconds = time.perf_counter() - start
    out.append([None if result is None else splitting.verify_split(body, spec, result), seconds])
print(json.dumps(out))
"""


def test_exhaustive_search_decides_the_cube_bar_without_the_bound():
    # cube-bar(16): 16 slices x = 0..15 of 256 points each, and 48 more
    # bar points, one per x = 16..63.  Part {1} takes at most 16 values of
    # x, so at best the whole cube, and part {1,2,3} then needs room for
    # the 48 bar points: caps (16, 48) split and (16, 47) do not.  The
    # search runs in a fresh interpreter with a timeout, so a search that
    # does not finish fails instead of hanging.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _CUBE_BAR_SEARCH], capture_output=True,
                          text=True, env=env, timeout=20)
    assert proc.returncode == 0, proc.stderr
    (fits, seconds_fits), (none, seconds_none) = json.loads(proc.stdout)
    assert fits is True and none is None
    assert max(seconds_fits, seconds_none) < 1.0  # 2-10 ms on a 2-core machine


@st.composite
def _split_cases(draw):
    """A body of up to 10 points and 1-3 parts, or of 12-14 points in base
    2-4 and two parts, with budgets exactly on log2 boundaries (log2(k)
    admits k shadow elements and not k + 1, -1 none), and one assignment
    of the points to those parts.  The larger bodies backtrack deeply
    enough that the search's dominance rules cut subtrees."""
    if draw(st.booleans()):
        base = draw(st.integers(2, 4))
        m = draw(st.integers(3 if base > 2 else 4, 4))
        sizes, parts = (12, 14), (2, 2)
    else:
        m, base, sizes, parts = draw(st.integers(1, 3)), draw(st.integers(2, 3)), (1, 10), (1, 3)
    coord = st.integers(0, base - 1)
    pts = draw(st.sets(st.tuples(*[coord] * m), min_size=sizes[0], max_size=sizes[1]))
    masks = draw(st.lists(
        st.sampled_from(subsets(m)), min_size=parts[0], max_size=parts[1], unique=True
    ))
    budget = st.one_of(st.just(-1.0), st.integers(1, 10).map(math.log2))
    spec = SplitSpec(m, {mask: draw(budget) for mask in masks})
    labels = [draw(st.sampled_from(masks)) for _ in pts]
    body = FiniteBody(m, base, frozenset(pts))
    return body, spec, SplitResult(dict(zip(sorted(pts), labels)))


@settings(max_examples=300, deadline=None)
@given(_split_cases())
def test_split_searches_match_their_references(case):
    body, spec, split = case
    got, want = find_split_exhaustive(body, spec), _reference_find_split_exhaustive(body, spec)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.assignment == want.assignment
    assert verify_split(body, spec, split) == _reference_verify_split(
        body, spec, split
    )


# -- the exact budget rule: log2(count) <= bits + FLOAT_TOL, as integer caps


def _cap(bits) -> int:
    """The cap of a one-part spec with this budget."""
    return _max_count(SplitSpec(1, {1: bits}).levels[1])


def test_exact_caps_match_the_float_rule_on_log2_budgets():
    for c in range(1, 1501):
        b = math.log2(c)
        for x in (math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf)):
            assert _cap(x) == _reference_max_count(x), x


def _near_a_boundary(bits: float) -> bool:
    """bits lies within a few ulps of a boundary log2(c) - 1e-9, where
    the float rule's roundings, not the budget, decide the cap."""
    c = max(1, int(2.0 ** (bits + _REFERENCE_FLOAT_TOL)))
    ulps = 4 * math.ulp(max(1.0, abs(bits)))
    return any(abs(bits + _REFERENCE_FLOAT_TOL - math.log2(k)) <= ulps
               for k in (c - 1, c, c + 1) if k >= 1)


@settings(max_examples=300, deadline=None)
@given(st.floats(-2.0, 32.0).filter(lambda b: not _near_a_boundary(b)))
def test_exact_caps_match_the_float_rule_on_random_budgets(bits):
    assert _cap(bits) == _reference_max_count(bits)


def test_exact_cap_where_the_float_rule_admits_one_more():
    b = 39.4370465415889
    with localcontext() as ctx:
        ctx.prec = 60
        over = Decimal(744_275_888_267).ln() / Decimal(2).ln() - Decimal(b)
        over -= Decimal("1e-9")
    assert 0 < over < Decimal("1e-16")  # about 4.3e-17
    assert _reference_max_count(b) == 744_275_888_267
    assert _cap(b) == 744_275_888_266


@pytest.mark.parametrize("bits", [64, 100.5, Fraction(1000, 3), 500.25, 900])
def test_exact_caps_on_large_budgets(bits):
    with localcontext() as ctx:
        ctx.prec = 400
        q = Fraction(bits)
        exponent = Decimal(q.numerator) / q.denominator + Decimal("1e-9")
        want = int(Decimal(2) ** exponent)
    assert _cap(bits) == want


def test_budget_edge_cases():
    unbounded = 1 << 1000
    assert _cap(math.inf) == _cap(900.5) == _cap(10**400) == unbounded
    tol = Fraction(1, 10**9)
    # the float -1e-09 lies just below -10**-9, so even c = 1 is over
    for bits in (-math.inf, -1, -2e-9, -1e-09, -tol - Fraction(1, 10**30)):
        assert _cap(bits) == 0
    assert _cap(-tol) == _cap(0) == 1
    assert (_cap(1), _cap(Fraction(3, 2)), _cap(2)) == (2, 2, 4)
    # a budget is read exactly: log2(3) + 1e-9 admits 3 points, and
    # exactly log2(3) bits less 1e-9 admits 2
    assert _cap(Fraction(math.log2(3))) == 3
    assert _cap(Fraction(math.log2(3)) - 2 * tol) == 2
    for bad in (math.nan, float("nan")):
        with pytest.raises(ValueError):
            SplitSpec(1, {1: bad})


def test_infinite_budgets_split_and_render():
    body = FiniteBody(2, 3, frozenset(product(range(3), repeat=2)))
    spec = SplitSpec(2, {0b01: -math.inf, 0b11: math.inf})
    assert spec.levels == {0b01: -math.inf, 0b11: math.inf}
    assert spec.to_json()["levels"] == [
        {"part": [1], "bits": -math.inf},
        {"part": [1, 2], "bits": math.inf},
    ]
    result = find_split_exhaustive(body, spec)
    assert set(result.assignment.values()) == {0b11}
    assert find_split_exhaustive(body, SplitSpec(2, {0b01: math.inf})) is not None
    assert find_split_exhaustive(body, SplitSpec(2, {0b11: -math.inf})) is None


def test_verify_split_compares_counts_with_the_cap():
    # nine points in one part: log2(9) = 3.17 bits; the cap decides
    body = FiniteBody(2, 3, frozenset(product(range(3), repeat=2)))
    split = SplitResult({p: 0b11 for p in body.points})
    near = Fraction(math.log2(9))  # within 1e-15 of log2(9)
    for bits, ok in ((near, True), (3.0, False), (math.log2(8.999), False),
                     (near - Fraction(999, 10**12), True),
                     (near - Fraction(1001, 10**12), False)):
        assert verify_split(body, SplitSpec(2, {0b11: bits}), split) is ok, bits


def _box(a: int, b: int, c: int) -> FiniteBody:
    return FiniteBody(3, max(a, b, c), frozenset(product(range(a), range(b), range(c))))


def test_loomis_whitney_is_exactly_zero_on_boxes():
    boxes = [(a, b, c) for a in range(1, 9) for b in range(a, 9) for c in range(b, 9)]
    for a, b, c in boxes + [(1, 3, 28), (2, 3, 14), (3, 3, 17)]:
        slack = loomis_whitney_slack(_box(a, b, c))
        assert slack == 0.0 and math.copysign(1.0, slack) == 1.0, (a, b, c)


_coord = st.integers(0, 4)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.sets(st.tuples(_coord, _coord, _coord), min_size=1, max_size=30),
    st.tuples(*[st.integers(1, 5)] * 3).map(lambda abc: _box(*abc).points),
))
def test_loomis_whitney_sign_is_the_integer_comparison(points):
    body = FiniteBody(3, 5, frozenset(points))
    s12, s13, s23 = (
        len({(p[i], p[j]) for p in points}) for i, j in combinations(range(3), 2)
    )
    lhs, rhs = len(points) ** 2, s12 * s13 * s23
    slack = loomis_whitney_slack(body)
    assert (slack > 0) - (slack < 0) == (rhs > lhs) - (rhs < lhs)
