import json
import math
import random
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from entrodim import cli, shannon, simplex
from entrodim.core import eval_slack
from entrodim.distributions import JointDistribution, exact_entropy_vector
from entrodim.dsl import format_inequality, parse_inequality
from entrodim.linear import LinearInequality, common_denominator, subsets
from entrodim.shannon import (
    ELEMENTAL_RANGE,
    FarkasWitness,
    ShannonCertificate,
    VerificationError,
    elemental_inequalities,
    is_shannon_type,
    verify_certificate,
    verify_farkas,
    zhang_yeung,
)
from entrodim.simplex import solve_eq_nonneg
from test_simplex import _reference_solve

EQ1 = parse_inequality("2 H(x,y,z) <= H(x,y) + H(x,z) + H(y,z)")

# the separating point the LP produces for the Zhang-Yeung inequality;
# pinned output of the deterministic pivot rule, reached when no extreme
# ray is tried first (test_lp_answers_when_no_ray_refutes)
ZY_POINT = {
    1: Fraction(1, 2),
    2: Fraction(1, 2),
    3: Fraction(1),
    4: Fraction(1, 2),
    5: Fraction(3, 4),
    6: Fraction(3, 4),
    7: Fraction(1),
    8: Fraction(1, 2),
    9: Fraction(3, 4),
    10: Fraction(3, 4),
    11: Fraction(1),
    12: Fraction(3, 4),
    13: Fraction(1),
    14: Fraction(1),
    15: Fraction(1),
}

# the separating point is_shannon_type returns for Zhang-Yeung: the first
# extreme ray of Gamma_4 in table order on which it is negative; validity
# is rechecked from scratch in test_zhang_yeung_farkas_point
ZY_RAY = dict(zip(range(1, 16), (2, 2, 4, 2, 3, 3, 4, 2, 3, 3, 4, 3, 4, 4, 4)))


def _slack(ineq, point):
    return sum(
        (c * point.get(mask, Fraction(0)) for mask, c in ineq.coeffs.items()),
        Fraction(0),
    )


def _held(cls, m, values):
    """The ShannonCertificate or FarkasWitness whose map holds the rationals
    values, as ints over their common denominator."""
    nums, den = common_denominator(values.values())
    return cls(m, den, dict(zip(values, nums)))


def _rationals(record):
    """The map of a ShannonCertificate or FarkasWitness as Fractions."""
    values = record.weights if isinstance(record, ShannonCertificate) else record.point
    return {key: Fraction(a, record.den) for key, a in values.items()}


def test_row_counts():
    assert len(elemental_inequalities(2).rows) == 3
    assert len(elemental_inequalities(3).rows) == 9
    assert len(elemental_inequalities(4).rows) == 28
    for m in ELEMENTAL_RANGE:
        # count (i, j, K) choices directly, without the closed form
        direct = m
        for i, j in combinations(range(1, m + 1), 2):
            rest = [p for p in range(1, m + 1) if p not in (i, j)]
            for size in range(len(rest) + 1):
                direct += len(list(combinations(rest, size)))
        assert len(elemental_inequalities(m).rows) == direct


def test_rows_distinct():
    for m in (2, 3, 4):
        rows = elemental_inequalities(m).rows
        seen = {tuple(sorted(r.coeffs.items())) for r in rows}
        assert len(seen) == len(rows)


def test_m2_layout():
    rows = elemental_inequalities(2).rows
    names = ("x", "y")
    assert format_inequality(rows[0], names) == "1 H(y) <= 1 H(x,y)"
    assert format_inequality(rows[1], names) == "1 H(x) <= 1 H(x,y)"
    assert format_inequality(rows[2], names) == "1 H(x,y) <= 1 H(x) + 1 H(y)"


def test_m3_layout():
    rows = elemental_inequalities(3).rows
    # monotonicities first
    assert rows[0].coeffs == {7: Fraction(1), 6: Fraction(-1)}
    assert rows[1].coeffs == {7: Fraction(1), 5: Fraction(-1)}
    assert rows[2].coeffs == {7: Fraction(1), 3: Fraction(-1)}
    # then pair (1,2) with K empty, K={3}; (1,3); (2,3)
    assert rows[3].coeffs == {1: Fraction(1), 2: Fraction(1), 3: Fraction(-1)}
    assert rows[4].coeffs == {
        5: Fraction(1), 6: Fraction(1), 7: Fraction(-1), 4: Fraction(-1)
    }
    assert rows[5].coeffs == {1: Fraction(1), 4: Fraction(1), 5: Fraction(-1)}
    assert rows[6].coeffs == {
        3: Fraction(1), 6: Fraction(1), 7: Fraction(-1), 2: Fraction(-1)
    }
    assert rows[7].coeffs == {2: Fraction(1), 4: Fraction(1), 6: Fraction(-1)}
    assert rows[8].coeffs == {
        3: Fraction(1), 5: Fraction(1), 7: Fraction(-1), 1: Fraction(-1)
    }


def test_m_out_of_range():
    for m in (0, 7):
        with pytest.raises(ValueError, match=r"m in 1\.\.6, got"):
            elemental_inequalities(m)
    # one variable has one elemental row, H(x) >= 0
    (row,) = elemental_inequalities(1).rows
    assert row.coeffs == {1: Fraction(1)}


def test_monotonicity_is_certified_by_itself():
    res = is_shannon_type(parse_inequality("H(x) <= H(x,y)"))
    assert isinstance(res, ShannonCertificate)
    assert (res.den, res.weights) == (1, {1: 1})


def test_eq1_certificate():
    res = is_shannon_type(EQ1)
    assert isinstance(res, ShannonCertificate)
    assert (res.den, res.weights) == (1, {3: 1, 6: 1, 8: 1})
    verify_certificate(EQ1, res)
    # the same weights written by hand: I(x;y) + I(x;z|y) + I(y;z|x)
    verify_certificate(EQ1, ShannonCertificate(3, 1, {3: 1, 6: 1, 8: 1}))


def test_perturbed_certificate_rejected():
    bad = ShannonCertificate(3, 1000, {4: 1000, 6: 1000, 7: 1001})
    with pytest.raises(VerificationError) as err:
        verify_certificate(EQ1, bad)
    assert "mismatch at subset" in str(err.value)


def test_malformed_certificates_rejected():
    with pytest.raises(VerificationError, match="unknown row 99"):
        verify_certificate(EQ1, ShannonCertificate(3, 1, {99: 1}))
    with pytest.raises(VerificationError, match="negative weight -1/2 on row 4"):
        verify_certificate(EQ1, ShannonCertificate(3, 2, {4: -1}))
    with pytest.raises(VerificationError, match="m=4"):
        verify_certificate(EQ1, ShannonCertificate(4, 1, {4: 1}))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((ShannonCertificate, FarkasWitness)), st.integers(1, 60),
       st.dictionaries(st.integers(0, 15), st.integers(-40, 40), max_size=6),
       st.integers(1, 30), st.lists(st.integers(0, 15), max_size=3))
def test_certificate_records_are_held_in_lowest_terms(cls, den, values, k, zeros):
    # one value, one record: scaled by k, in another insertion order or
    # with zero entries added, it is equal, hashes equal and reads the same
    record = cls(4, den, values)
    assert _rationals(record) == {key: Fraction(a, den) for key, a in values.items() if a}
    ints = record.weights if cls is ShannonCertificate else record.point
    assert list(ints) == sorted(ints) and 0 not in ints.values()
    assert math.gcd(record.den, *ints.values()) == 1
    padded = dict(reversed(values.items()))
    for key in zeros:
        padded.setdefault(key, 0)
    for other in (cls(4, k * den, {key: k * a for key, a in values.items()}),
                  cls(4, den, padded)):
        assert other == record and hash(other) == hash(record) and repr(other) == repr(record)


def test_certificate_records_refuse_what_is_not_an_int():
    for cls in (ShannonCertificate, FarkasWitness):
        for bad in (Fraction(1, 2), Fraction(2), Fraction(0), True, False, 1.0):
            with pytest.raises(TypeError, match="must be an integer"):
                cls(2, 1, {1: bad})
        for bad in (Fraction(2), True, 2.0):
            with pytest.raises(TypeError, match="den must be an integer"):
                cls(2, bad, {1: 1})
        for bad in (0, -3):
            with pytest.raises(ValueError, match="den must be positive"):
                cls(2, bad, {1: 1})


def test_elemental_rows_certify_themselves():
    for m in (2, 3):
        elems = elemental_inequalities(m)
        for row in elems.rows:
            res = is_shannon_type(row)
            assert isinstance(res, ShannonCertificate)
            assert res == is_shannon_type(row)
            verify_certificate(row, res)


def test_zhang_yeung_fixture():
    zy = zhang_yeung()
    assert zy.m == 4
    assert zy.coeffs == {
        1: Fraction(-1),
        3: Fraction(-1),
        4: Fraction(-2),
        5: Fraction(3),
        6: Fraction(1),
        8: Fraction(-2),
        9: Fraction(3),
        10: Fraction(1),
        12: Fraction(3),
        13: Fraction(-4),
        14: Fraction(-1),
    }


def test_zhang_yeung_farkas_point():
    zy = zhang_yeung()
    res = is_shannon_type(zy)
    assert isinstance(res, FarkasWitness)
    assert (res.den, res.point) == (1, ZY_RAY)
    verify_farkas(zy, res)
    # recheck from scratch: every elemental row nonnegative, target negative
    rows = elemental_inequalities(4).rows
    assert len(rows) == 28
    for row in rows:
        assert _slack(row, res.point) >= 0
    assert _slack(zy, res.point) == -1
    # a polymatroid point: nonnegative, with the joint entropy at 4 bits
    assert min(res.point.values()) >= 0 and res.point[15] == 4


def test_farkas_rejects_non_witnesses():
    zy = zhang_yeung()
    # the modular point h(I) = |I| satisfies Zhang-Yeung with equality,
    # so it separates nothing
    modular = FarkasWitness(4, 1, {mask: bin(mask).count("1") for mask in subsets(4)})
    with pytest.raises(VerificationError) as err:
        verify_farkas(zy, modular)
    assert "strictly negative" in str(err.value)
    with pytest.raises(VerificationError):
        verify_farkas(zy, FarkasWitness(4, 1, {}))  # all-zero point
    # a point that breaks an elemental row is rejected even if the
    # target slack is negative
    broken = dict(ZY_POINT)
    broken[15] = Fraction(2)  # violates monotonicity at the top
    with pytest.raises(VerificationError) as err:
        verify_farkas(zy, _held(FarkasWitness, 4, broken))
    assert "elemental row" in str(err.value)


def test_verification_messages_for_a_fractional_target():
    # full texts, recorded from the checks that read the Fraction
    # coefficients; each value is now rebuilt from the integer form
    eq = parse_inequality("5/3 H(x,y,z) <= 5/6 H(x,y) + 5/6 H(x,z) + 5/6 H(y,z)")
    cert = ShannonCertificate(3, 42, {2: 6, 4: 35, 6: 35, 7: 35})
    with pytest.raises(VerificationError) as err:
        verify_certificate(eq, cert)
    assert str(err.value) == (
        "certificate mismatch at subset {1,2}: combination gives 29/42, target has 5/6"
    )
    zy = parse_inequality(
        "4/3 I(z;w) <= 2/3 I(x;y) + 2/3 I(x;z,w) + 2 I(z;w|x) + 2/3 I(z;w|y)",
        declared_vars=("x", "y", "z", "w"),
    )
    broken = dict(ZY_POINT)
    broken[15] = Fraction(7, 5)
    with pytest.raises(VerificationError) as err:
        verify_farkas(zy, _held(FarkasWitness, 4, broken))
    assert str(err.value) == "witness violates elemental row 7 (slack -3/20)"
    held = {mask: Fraction(min(bin(mask).count("1"), 2), 3) for mask in subsets(4)}
    with pytest.raises(VerificationError) as err:
        verify_farkas(zy, _held(FarkasWitness, 4, held))
    assert str(err.value) == "target slack on witness is 10/9, expected strictly negative"


def _random_distribution(rng, m):
    npts = rng.randint(2, 6)
    pts = set()
    while len(pts) < npts:
        pts.add(tuple(rng.randrange(3) for _ in range(m)))
    weights = [rng.randint(1, 9) for _ in range(npts)]
    total = sum(weights)
    return JointDistribution(
        m, tuple((p, Fraction(w, total)) for p, w in zip(sorted(pts), weights))
    )


def test_membership_dichotomy_random():
    rng = random.Random(777)
    dists = [_random_distribution(rng, 3) for _ in range(10)]
    vectors = [exact_entropy_vector(d) for d in dists]
    for _ in range(40):
        coeffs = {
            s: Fraction(rng.randint(-2, 2))
            for s in subsets(3)
            if rng.random() < 0.7
        }
        coeffs = {s: c for s, c in coeffs.items() if c}
        if not coeffs:
            continue
        ineq = LinearInequality(3, coeffs)
        res = is_shannon_type(ineq)
        if isinstance(res, ShannonCertificate):
            verify_certificate(ineq, res)
            # Shannon-type inequalities hold on genuine distributions
            for v in vectors:
                assert eval_slack(ineq, v).sign() >= 0
        else:
            verify_farkas(ineq, res)
            assert _slack(ineq, _rationals(res)) < 0


def test_nonneg_combinations_are_members():
    rng = random.Random(31)
    rows = elemental_inequalities(3).rows
    for _ in range(25):
        combo: dict[int, Fraction] = {}
        for r, row in enumerate(rows):
            w = Fraction(rng.randint(0, 3))
            for mask, c in row.coeffs.items():
                combo[mask] = combo.get(mask, Fraction(0)) + w * c
        combo = {s: c for s, c in combo.items() if c}
        if not combo:
            continue
        res = is_shannon_type(LinearInequality(3, combo))
        assert isinstance(res, ShannonCertificate)


# -- the LP on the cached integer matrix ---------------------------------------


def _fraction_lp(ineq, elems):
    """The LP of is_shannon_type written out in Fractions from the rows."""
    coords = subsets(ineq.m)
    a = [[row.coeffs.get(mask, Fraction(0)) for row in elems.rows] for mask in coords]
    return a, [ineq.coeffs.get(mask, Fraction(0)) for mask in coords]


def _plain_peel(m, nums):
    """The peel one point at a time, on the points of _table(m): while
    some slack is positive, the lowest row that is 0 on every point on
    which the remainder is 0 takes the least slack among the points on
    which it is positive.  The weights by row, or None if no row is left
    to take."""
    target = [nums.get(mask, 0) for mask in subsets(m)]
    slacks = [_dot(point, target) for point in _table(m)]
    on = _row_slacks(m)
    weights = {}
    while any(slacks):
        kept = [e for e, row in enumerate(on) if all(x == 0 for x, s in zip(row, slacks) if s == 0)]
        if not kept:
            return None
        e = kept[0]
        weights[e] = lam = min(s for s, x in zip(slacks, on[e]) if x > 0)
        slacks = [s - lam * x for s, x in zip(slacks, on[e])]
    return weights


def _expected(ineq, elems):
    """What is_shannon_type must return: the first point of _table(m) on
    which the target is negative, else the weights of the plain peel, else,
    where that peel stops, the reference solver's answer on every row."""
    coords = subsets(ineq.m)
    target = [ineq.nums.get(mask, 0) for mask in coords]
    point = next((p for p in _table(ineq.m) if _dot(p, target) < 0), None)
    if point is not None:
        return FarkasWitness(ineq.m, 1, dict(zip(coords, point)))
    weights = _plain_peel(ineq.m, ineq.nums)
    if weights is not None:
        return ShannonCertificate(ineq.m, ineq.den, weights)
    res = _reference_solve(*_fraction_lp(ineq, elems))
    if res.feasible:
        return _held(ShannonCertificate, ineq.m, dict(enumerate(res.solution)))
    return _held(FarkasWitness, ineq.m, {s: -u for s, u in zip(coords, res.farkas)})


def test_cached_rows_are_read_only():
    # an edit to a cached row fails before the set's first check and
    # after it, and the checks keep their answer
    target = parse_inequality("H(x) <= H(x,y)")
    elemental_inequalities.cache_clear()
    elems = elemental_inequalities(2)
    with pytest.raises(TypeError):
        elems.rows[1].coeffs[3] = 2
    first = is_shannon_type(target)
    assert isinstance(first, ShannonCertificate)
    with pytest.raises(TypeError):
        elems.rows[1].coeffs[3] = 2
    assert is_shannon_type(target) == first
    verify_certificate(target, first)


@st.composite
def _combinations(draw):
    """A nonnegative rational combination of elemental rows, perturbed at
    one subset in half the draws."""
    m = draw(st.integers(2, 5))
    rows = elemental_inequalities(m).rows
    weight = st.builds(Fraction, st.integers(1, 5), st.sampled_from((1, 2, 3)))
    picks = draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), weight),
                          min_size=1, max_size=4))
    combo: dict[int, Fraction] = {}
    for r, w in picks:
        for mask, c in rows[r].coeffs.items():
            combo[mask] = combo.get(mask, Fraction(0)) + w * c
    if draw(st.booleans()):
        mask = draw(st.sampled_from(subsets(m)))
        combo[mask] = combo.get(mask, Fraction(0)) + draw(st.sampled_from((-1, 1)))
    assume(any(combo.values()))
    return LinearInequality(m, combo)


@settings(max_examples=40, deadline=None)
@given(_combinations())
def test_matches_reference_on_elemental_combinations(ineq):
    got = is_shannon_type(ineq)
    assert got == _expected(ineq, elemental_inequalities(ineq.m))
    if isinstance(got, ShannonCertificate):
        verify_certificate(ineq, got)
    else:
        verify_farkas(ineq, got)


# -- the extreme rays of Gamma_m -----------------------------------------------


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


@cache
def _double_description(m):
    """The extreme rays of Gamma_m, sorted, each a primitive int vector
    over subsets(m), by the double description method in exact ints:
    start from the orthant h >= 0, which the elemental rows imply, and
    cut by one elemental row at a time.  Each ray carries the set of
    constraints tight on it as a bitmask; two rays are adjacent when
    their common tight set is big enough and lies in no other ray's."""
    n = (1 << m) - 1
    coords = subsets(m)
    cuts = [[row.nums.get(mask, 0) for mask in coords]
            for row in elemental_inequalities(m).rows]
    rays = [(tuple(int(i == j) for j in range(n)), ((1 << n) - 1) ^ 1 << i)
            for i in range(n)]
    for c, cut in enumerate(cuts, start=n):
        slacks = [(ray, tight, _dot(cut, ray)) for ray, tight in rays]
        kept = [(ray, tight | (s == 0) << c) for ray, tight, s in slacks if s >= 0]
        for p, tp, sp in slacks:
            for q, tq, sq in slacks:
                common = tp & tq
                if sp <= 0 or sq >= 0 or common.bit_count() < n - 2 or any(
                        t & common == common for r, t in rays if r is not p and r is not q):
                    continue
                # the point of segment p-q on the cut, scaled to a primitive int vector
                new = [sp * y - sq * x for x, y in zip(p, q)]
                g = reduce(math.gcd, new)
                kept.append((tuple(x // g for x in new), common | 1 << c))
        rays = kept
    return sorted(ray for ray, _ in rays)


def _size(mask):
    return bin(mask).count("1")


@cache
def _uniform_points(m):
    """U_{k,T}(S) = min(|S & T|, k) for each nonempty mask T and
    1 <= k < |T| (k = 1 when |T| = 1), each written out entry by entry over
    subsets(m)."""
    return [tuple(min(_size(s & t), k) for s in subsets(m))
            for t in subsets(m) for k in range(1, max(_size(t), 2))]


@cache
def _table(m):
    """The points the decision reads, built independently of the package,
    in ascending order: the uniform matroid points, and each ray of the
    double description of Gamma_4 that is not one of them restricted to
    each 4-subset T, g(S) = h(S & T) with T's i-th variable read as h's."""
    rays = [h for h in _double_description(4) if h not in _uniform_points(4)]
    restricted = []
    for t in subsets(m):
        if _size(t) == 4:
            names = [i for i in range(m) if t >> i & 1]
            # the mask of S & T over T's variables, for each S
            at = [sum(1 << j for j, i in enumerate(names) if s >> i & 1) for s in subsets(m)]
            restricted += [tuple(h[a - 1] if a else 0 for a in at) for h in rays]
    return sorted(_uniform_points(m) + restricted)


@cache
def _row_slacks(m):
    """Each elemental row's slack on each point of _table(m), by dot
    products."""
    coords = subsets(m)
    cuts = [[row.nums.get(mask, 0) for mask in coords] for row in elemental_inequalities(m).rows]
    return [[_dot(cut, point) for point in _table(m)] for cut in cuts]


def _rank(rows):
    """The rank of an int matrix, by fraction-free elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for j in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][j]
            rows[i] = [p[j] * x - f * y for x, y in zip(rows[i], p)]
        rank += 1
    return rank


def _package_table(m):
    """The package's table of m variables, each point as a tuple of ints."""
    return [tuple(point) for point in shannon._points(m)]


def test_ray_table_matches_a_double_description():
    # the one table is the extreme rays of Gamma_m at m <= 4, in order;
    # past it, every point is distinct
    for m, count in zip(ELEMENTAL_RANGE, (1, 3, 8, 41, 154, 435)):
        points = _table(m)
        assert len(points) == len(set(points)) == count
        assert _package_table(m) == points  # the table is sorted too
        if m <= 4:
            assert points == _double_description(m)
        # the U_{1,T}, the points whose entries are at most 1, span every
        # coordinate
        assert _rank([p for p in points if max(p) == 1]) == len(subsets(m))


def test_ray_table_holds_extreme_rays():
    for m in (1, 2, 3, 4):
        coords = subsets(m)
        cuts = [[row.nums.get(mask, 0) for mask in coords]
                for row in elemental_inequalities(m).rows]
        for ray in _package_table(m):
            assert reduce(math.gcd, ray) == 1
            slacks = [_dot(cut, ray) for cut in cuts]
            assert min(slacks) >= 0
            # the tight rows fix the ray up to scale: it is extreme
            assert _rank([cut for cut, s in zip(cuts, slacks) if s == 0]) == len(coords) - 1


@pytest.mark.parametrize("m", ELEMENTAL_RANGE)
def test_the_packed_columns_hold_every_ray_and_matroid_point(m):
    # every point of the table, packed field for field into the columns,
    # at every width the tests use
    points = _table(m)
    for w in (32, 64, 128):
        cols, top, ones, _ = shannon._ray_fields(m, w)
        assert ones == sum(1 << w * r for r in range(len(points))) and top == ones << w - 1
        assert cols[1:] == [sum(p[i] << w * r for r, p in enumerate(points))
                            for i in range(len(subsets(m)))]
        assert cols[0] == 0


def test_the_field_width_factor_is_the_largest_ray_or_matroid_entry():
    # is_shannon_type sizes the fields for slacks of max(m, 4) times the
    # target's coefficient sum: the largest entry is 4 at m = 4 and 5 and
    # m - 1 on U_{m-1,all} at m = 6
    for m, want in zip(ELEMENTAL_RANGE, (1, 1, 2, 4, 4, 5)):
        largest = max(max(point) for point in _table(m))
        assert largest == want <= max(m, 4)


def test_the_ingleton_instances_split_the_gamma4_rays():
    # rays 0-34 satisfy all six Ingleton instances; ray 35 + k violates
    # only the k-th, and Zhang-Yeung only ray 40
    names = ("p", "q", "r", "s")
    pairs = [("p", "q"), ("p", "r"), ("q", "r"), ("p", "s"), ("q", "s"), ("r", "s")]
    ingletons = []
    for a, b in pairs:
        c, d = (v for v in names if v not in (a, b))
        text = f"I({a};{b}) <= I({a};{b}|{c}) + I({a};{b}|{d}) + I({c};{d})"
        ingletons.append(parse_inequality(text, declared_vars=names))
    coords = subsets(4)

    def violated(ineq, ray):
        return sum(ineq.nums.get(mask, 0) * x for mask, x in zip(coords, ray)) < 0

    rays = _package_table(4)
    for i, ray in enumerate(rays):
        hit = [k for k, q in enumerate(ingletons) if violated(q, ray)]
        assert hit == ([] if i < 35 else [i - 35])
    assert [i for i, ray in enumerate(rays) if violated(zhang_yeung(), ray)] == [40]


def test_ray_refutes_without_a_solve(monkeypatch):
    def no_solve(*args):
        raise AssertionError("the LP ran")

    monkeypatch.setattr(simplex, "solve_eq_nonneg", no_solve)
    zy = zhang_yeung()
    assert is_shannon_type(zy) == FarkasWitness(4, 1, ZY_RAY)
    res = is_shannon_type(parse_inequality("I(x;y) <= I(x;y|z)"))
    assert res.point == {mask: 1 for mask in subsets(3)}
    # Shannon-type: every ray passes, and the peel finds the weights
    assert is_shannon_type(EQ1) == ShannonCertificate(3, 1, {3: 1, 6: 1, 8: 1})


@pytest.fixture
def ray_table(monkeypatch):
    """Sets the m = 4 table to the points given, ints over subsets(4), by
    patching the table's one builder; every cache of the module but the
    elemental sets' is emptied around it."""
    caches = [f for f in vars(shannon).values()
              if hasattr(f, "cache_clear") and f is not elemental_inequalities]
    built = shannon._points

    def keep(points):
        table = [bytes(point) for point in points]
        monkeypatch.setattr(shannon, "_points", lambda m: table if m == 4 else built(m))
        for c in caches:
            c.cache_clear()

    yield keep
    monkeypatch.undo()
    for c in caches:
        c.cache_clear()


@pytest.fixture
def rays_35_to_40_missing(ray_table):
    """The m = 4 table without its last six rays, the only ones on which
    Zhang-Yeung is negative."""
    ray_table(_double_description(4)[:35])


def test_lp_answers_when_no_ray_refutes(ray_table):
    # no verdict rests on the table: without it the LP finds its own point
    ray_table([])
    zy = zhang_yeung()
    res = is_shannon_type(zy)
    assert res == _held(FarkasWitness, 4, ZY_POINT) and res.den == 4
    assert _slack(zy, _rationals(res)) == Fraction(-1, 4)
    target = [zy.nums.get(mask, 0) for mask in subsets(4)]
    lp = solve_eq_nonneg(elemental_inequalities(4).matrix, target)
    assert {mask: Fraction(-u, lp.den) for mask, u in zip(subsets(4), lp.farkas) if u} == ZY_POINT


@st.composite
def _drawn_checks(draw, sizes=st.integers(2, 4), moved=st.booleans()):
    """A target drawn as the benchmark draws its checks, at m from sizes: 2
    to 4 distinct elemental rows, each weighted by a/b with a in 1..5 and b
    in 1..3, and in the draws where moved is true (by default half) one of
    the combination's subsets moved by +-1/c with c in 1..4."""
    m = draw(sizes)
    rows = elemental_inequalities(m).rows
    picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=4, unique=True))
    combo: dict[int, Fraction] = {}
    for r in picks:
        w = Fraction(draw(st.integers(1, 5)), draw(st.integers(1, 3)))
        for mask, c in rows[r].coeffs.items():
            combo[mask] = combo.get(mask, Fraction(0)) + w * c
    combo = {mask: c for mask, c in combo.items() if c}
    if draw(moved):
        mask = draw(st.sampled_from(sorted(combo)))
        combo[mask] += Fraction(draw(st.sampled_from((-1, 1))), draw(st.integers(1, 4)))
    assume(any(combo.values()))
    return LinearInequality(m, combo)


@settings(max_examples=60, deadline=None)
@given(_drawn_checks())
def test_certificates_use_only_the_rows_zero_on_the_tight_rays(ineq):
    # complementary slackness, checked from the double description and the
    # full reference LP, not from the ray table or its masks
    elems = elemental_inequalities(ineq.m)
    coords = subsets(ineq.m)
    target = [ineq.nums.get(mask, 0) for mask in coords]
    cuts = [[row.nums.get(mask, 0) for mask in coords] for row in elems.rows]
    got = is_shannon_type(ineq)
    assert isinstance(got, ShannonCertificate) == _reference_solve(*_fraction_lp(ineq, elems)).feasible
    if isinstance(got, ShannonCertificate):
        tight = [ray for ray in _double_description(ineq.m) if _dot(ray, target) == 0]
        assert all(_dot(cuts[r], ray) == 0 for r in got.weights for ray in tight)


@pytest.fixture
def solved(monkeypatch):
    """The matrices is_shannon_type hands the solver, in call order."""
    seen = []

    def spy(a, b):
        seen.append(a)
        return solve_eq_nonneg(a, b)

    monkeypatch.setattr(simplex, "solve_eq_nonneg", spy)
    return seen


def test_the_full_lp_decides_when_the_table_misses_rays(rays_35_to_40_missing, solved):
    zy = zhang_yeung()
    res = is_shannon_type(zy)
    # no ray left refutes Zhang-Yeung, and no peel can certify it: the
    # full LP runs once
    assert len(solved) == 1 and solved[0] is elemental_inequalities(4).matrix
    assert isinstance(res, FarkasWitness) and res == _held(FarkasWitness, 4, ZY_POINT)
    verify_farkas(zy, res)


def test_an_empty_table_leaves_every_certificate_to_the_lp(ray_table, solved):
    # with no rays every slack is 0 at once, but the target is not: the
    # peel returns nothing, and the full LP's weights are the certificate
    ray_table([])
    target = parse_inequality("I(x;y) <= I(x;y,z,w)")
    res = is_shannon_type(target)
    assert len(solved) == 1 and solved[0] is elemental_inequalities(4).matrix
    assert isinstance(res, ShannonCertificate) and res.weights
    lp = _reference_solve(*_fraction_lp(target, elemental_inequalities(4)))
    assert res == _held(ShannonCertificate, 4, dict(enumerate(lp.solution)))
    verify_certificate(target, res)


# -- the packed ray test and the peel -----------------------------------------


def _plain_ray_test(m, nums):
    """The decision by the table one point at a time: the first point of
    _table(m) on which the target is negative and None, or -1 and the
    weights of the plain peel."""
    target = [nums.get(mask, 0) for mask in subsets(m)]
    for r, point in enumerate(_table(m)):
        if _dot(point, target) < 0:
            return r, None
    return -1, _plain_peel(m, nums)


def _ray_tests(ineq):
    """is_shannon_type(ineq) and the (m, w, nums, answer) of each
    _by_rays it runs."""
    seen = []
    real = shannon._by_rays

    def spy(m, w, nums):
        seen.append((m, w, nums, real(m, w, nums)))
        return seen[-1][3]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shannon, "_by_rays", spy)
        return is_shannon_type(ineq), seen


@st.composite
def _wide_checks(draw):
    """A combination of 1 to 4 elemental rows at m = 1..4 with weights of
    60 to 200 bits, moved at one subset by up to as much in half the draws."""
    m = draw(st.integers(1, 4))
    rows = elemental_inequalities(m).rows
    wide = st.integers(60, 200).flatmap(lambda b: st.integers(1 << b - 1, (1 << b) - 1))
    picks = draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), wide), min_size=1, max_size=4))
    combo: dict[int, int] = {}
    for r, w in picks:
        for mask, c in rows[r].nums.items():
            combo[mask] = combo.get(mask, 0) + w * c
    if draw(st.booleans()):
        mask = draw(st.sampled_from(subsets(m)))
        combo[mask] = combo.get(mask, 0) + draw(st.sampled_from((-1, 1))) * draw(wide)
    assume(any(combo.values()))
    return LinearInequality(m, combo, draw(st.integers(1, 7)))


@settings(max_examples=60, deadline=None)
@given(st.one_of(_drawn_checks(), _wide_checks()))
def test_the_packed_ray_test_matches_the_plain_loop(ineq):
    got, seen = _ray_tests(ineq)
    ((m, w, nums, (r, weights)),) = seen
    assert (r, weights) == _plain_ray_test(m, nums)
    assert all(abs(_dot(point, [nums.get(s, 0) for s in subsets(m)])) < 1 << w - 1
               for point in _table(m))
    if r >= 0:
        assert got == FarkasWitness(m, 1, dict(zip(subsets(m), _table(m)[r])))


@pytest.mark.parametrize("bits", (29, 30, 31, 61, 62, 63, 125, 126, 127))
def test_the_field_width_covers_every_ray_slack(bits):
    # H(all) is 2 on the last ray of Gamma_3, 4 on the last rays of Gamma_4
    # and on U_{4,all} at m = 5, and 5 on U_{5,all} at m = 6, so a
    # coefficient c there takes a slack of up to max(m, 4) * c, two or
    # three bits past c
    for m in ELEMENTAL_RANGE:
        full = (1 << m) - 1
        for c in ((1 << bits) - 1, (1 << bits) + 1, -(1 << bits) - 1):
            got, seen = _ray_tests(LinearInequality(m, {full: c}))
            ((_, w, nums, answer),) = seen
            assert answer == _plain_ray_test(m, nums)
            assert isinstance(got, ShannonCertificate) == (c > 0)


@st.composite
def _slacks_at_the_bound(draw):
    """(m, w, nums): up to 4 elemental rows, signed, with positive weights
    summing to 2**(w-1) - 1.  Every row is 0 or 1 on every point of the
    table, so every slack lies within +-(2**(w-1) - 1), and a point on which
    every row is 1, with one sign, takes the bound."""
    m = draw(st.integers(1, 6))
    w = draw(st.sampled_from((32, 64, 128)))
    rows = elemental_inequalities(m).rows
    picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=4, unique=True))
    rest = [draw(st.integers(1, 1 << w - 3)) for _ in picks[1:]]
    weights = [(1 << w - 1) - 1 - sum(rest), *rest]
    nums: dict[int, int] = {}
    for r, a in zip(picks, weights):
        a *= draw(st.sampled_from((-1, 1)))
        for mask, c in rows[r].nums.items():
            nums[mask] = nums.get(mask, 0) + a * c
    return m, w, {mask: c for mask, c in nums.items() if c}


@settings(max_examples=100, deadline=None)
@given(_slacks_at_the_bound())
def test_the_packed_ray_test_holds_at_its_field_bound(case):
    m, w, nums = case
    assert shannon._by_rays(m, w, nums) == _plain_ray_test(m, nums)


@pytest.mark.parametrize("m", ELEMENTAL_RANGE)
@pytest.mark.parametrize("w", (32, 64))
def test_every_ray_slack_at_the_bound_is_read(m, w):
    bound = (1 << w - 1) - 1
    for row in elemental_inequalities(m).rows:
        for sign in (1, -1):
            nums = {mask: sign * bound * c for mask, c in row.nums.items()}
            target = [nums.get(s, 0) for s in subsets(m)]
            slacks = [_dot(point, target) for point in _table(m)]
            assert sign * bound in slacks
            got = shannon._by_rays(m, w, nums)
            assert got[0] == (slacks.index(-bound) if sign < 0 else -1)
            assert got == _plain_ray_test(m, nums)


@pytest.mark.parametrize("m", ELEMENTAL_RANGE)
def test_every_row_slack_on_every_ray_is_0_or_1(m):
    # what lets the peel subtract a weight from every field at once: from
    # the table built here, by dot products; then each row's mask of the
    # points where it is 1, held once per m, and the fields and byte spans
    # of the rows a peel took, held per width
    masks = shannon._narrow(m)[1]
    for e, slacks in enumerate(_row_slacks(m)):
        assert set(slacks) <= {0, 1} and 1 in slacks
        assert masks[e] == sum(s << 8 * r + 7 for r, s in enumerate(slacks))
    # the sum of every elemental row: the peel takes rows until it is done
    nums = {}
    for row in elemental_inequalities(m).rows:
        for mask, c in row.nums.items():
            nums[mask] = nums.get(mask, 0) + c
    for w in (32, 64):
        assert shannon._by_rays(m, w, nums) == _plain_ray_test(m, nums)
        taken = shannon._ray_fields(m, w)[3]
        assert taken
        size = w // 8
        width = size * len(_table(m))
        for e, (field, spans) in taken.items():
            slacks = _row_slacks(m)[e]
            assert field == sum(s << w * r for r, s in enumerate(slacks))
            # the bytes of field r of a packed int written big-endian, last
            # field first
            assert spans == tuple(slice(width - size * (r + 1), width - size * r)
                                  for r, s in reversed(list(enumerate(slacks))) if s)
    # each row is positive on 1, 12 or 16 of the 41 rays of Gamma_4, and
    # a monotonicity row on one point at every m: U_{1,{i}}
    counts = {4: {1, 12, 16}, 5: {1, 32, 40}, 6: {1, 64, 76, 80}}.get(m)
    assert counts is None or set(map(sum, _row_slacks(m))) == counts
    assert all(sum(_row_slacks(m)[i]) == 1 for i in range(m))


@settings(max_examples=80, deadline=None)
@given(st.one_of(_drawn_checks(), _wide_checks()))
def test_the_peel_answers_every_check_without_a_solve(ineq):
    # with the full table, an m <= 4 target that no ray refutes gets the
    # plain peel's weights, and no LP runs
    def no_solve(*args):
        raise AssertionError("the LP ran")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex, "solve_eq_nonneg", no_solve)
        got = is_shannon_type(ineq)
    assert got == _expected(ineq, elemental_inequalities(ineq.m))


# the two m = 5 checks of the benchmark's fixed streams, in their fixed
# layout, and its m = 6 subadditivity split
BENCHMARK_CHECKS = (
    "1 H(a,b,c,d,e) + 2 H(a,e) + 1 H(b,d,e) <= 2 H(a) + 1 H(a,b,d,e) + 1 H(b,c,d,e) + 2 H(e)",
    "1 H(a) + 1 H(a,b,e) + 1 H(b,d,e) + 1/3 H(c) + 1 H(e) <= 1 H(a,b) + 1 H(a,e) "
    "+ 1/3 H(b,c) + 1 H(b,e) + 1/3 H(c,d) + 1 H(d,e)",
    "H(a,b,c,d,e,f) <= H(a,b,c) + H(d,e,f)",
)

# Shannon-type; the uniform matroid points alone leave the peel stuck on it
STUCK = ("3/2 H(s) + 4/3 H(d) + 3/2 H(e,p,s) + 4/3 H(d,e,w) + 1 H(s,w,p,e) <= 4/3 H(d,e) "
         "+ 4/3 H(w,d) + 3/2 H(s,e) + 1 H(w,e,s,d,p) + 11/6 H(p,s)")

# not Shannon-type, but it holds on every linear rank function, so on every
# uniform matroid point; a restricted ray of Gamma_4 refutes it
INGLETON_PLUS = "I(a;b) <= I(a;b|c) + I(a;b|d) + I(c;d) + 2/3 I(a;e)"


def test_the_matroid_points_decide_the_benchmark_and_pinned_checks_without_a_solve():
    # at m = 5 and 6 the benchmark's checks, their names bound in order of
    # appearance as every renaming of the layout binds them, and the pinned
    # texts: peeled weights or a point of the table, no LP; I(a;b|c) <=
    # I(a;b) holds on every U_{1,T}, and U_{2,{a,b,c}}, up to 2, refutes it
    def no_solve(*args):
        raise AssertionError("the LP ran")

    shannon_type = (*BENCHMARK_CHECKS, "H(a,b,c,d,e) <= H(a) + H(b) + H(c) + H(d) + H(e)")
    refuted = ("H(a,b,c,d,e,f) <= H(a,b,c)", "I(a;b|c) <= I(a;b) + I(d;e)",
               "I(a;b|c) <= I(a;b) + I(d;e|f)")
    for text in shannon_type + refuted:
        ineq = parse_inequality(text)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simplex, "solve_eq_nonneg", no_solve)
            got = is_shannon_type(ineq)
        assert got == _expected(ineq, elemental_inequalities(ineq.m))
        assert isinstance(got, FarkasWitness) == (text in refuted)
    assert max(got.point.values()) == 2


def test_the_restricted_rays_decide_stuck_and_ingleton_plus_without_a_solve():
    # STUCK is peeled on the whole table, and INGLETON_PLUS, at m = 5 and
    # with I(e;f) added at m = 6, is refuted by a ray of Gamma_4 on
    # {a, b, c, d}: no LP
    def no_solve(*args):
        raise AssertionError("the LP ran")

    for text, cls in ((STUCK, ShannonCertificate), (INGLETON_PLUS, FarkasWitness),
                      (INGLETON_PLUS + " + I(e;f)", FarkasWitness)):
        ineq = parse_inequality(text)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simplex, "solve_eq_nonneg", no_solve)
            got = is_shannon_type(ineq)
        assert isinstance(got, cls) and got == _expected(ineq, elemental_inequalities(ineq.m))
        if cls is FarkasWitness:
            point = tuple(got.point.get(s, 0) for s in subsets(ineq.m))
            assert got.den == 1 and point in _table(ineq.m) and point not in _uniform_points(ineq.m)


# the benchmark's perturbed m = 5 check with its names bound as (c, a, e,
# d, b): the peel, peeling it in order of appearance, stops on it
RENAMED = (BENCHMARK_CHECKS[1], tuple("caedb"))

# not Shannon-type, and no point of the table refutes it: the LP's
# separating point is the rank function of the rank-3 matroid on a..e with
# two 3-point lines, {a, b, c} and {c, d, e}, over 3
NO_POINT_REFUTES = (
    "1 H(a,b) + 1 H(c) + 1 H(a,c) + 1 H(b,c) + 1 H(a,d) + 1 H(b,d) + 1 H(a,b,d) + 1 H(c,d) "
    "+ 1 H(a,c,d) + 1 H(b,c,d) + 1 H(a,b,c,d) + 1 H(a,e) + 1 H(b,e) + 1 H(a,b,e) + 1 H(c,e) "
    "+ 1 H(a,c,e) + 1 H(b,c,e) + 1 H(a,b,c,e) + 1 H(d,e) + 1 H(a,d,e) + 1 H(b,d,e) "
    "+ 1 H(a,b,d,e) + 1 H(a,c,d,e) + 1 H(b,c,d,e) + 1 H(a,b,c,d,e) "
    "<= 7 H(a) + 7 H(b) + 7 H(a,b,c) + 5 H(d) + 5 H(e) + 11 H(c,d,e)"
)


def test_the_lp_decides_where_the_peel_stops(solved):
    # no point of the table refutes RENAMED and the peel stops on it, so
    # the full LP runs once and its weights are the certificate
    ineq = parse_inequality(RENAMED[0], declared_vars=RENAMED[1])
    assert _plain_ray_test(5, ineq.nums) == shannon._by_rays(5, 32, ineq.nums) == (-1, None)
    got = is_shannon_type(ineq)
    assert solved == [elemental_inequalities(5).matrix] and isinstance(got, ShannonCertificate)
    assert got == _expected(ineq, elemental_inequalities(5)) and got.den == 3


def test_a_target_no_point_refutes_is_refuted_by_the_lp(solved):
    ineq = parse_inequality(NO_POINT_REFUTES)
    assert _plain_ray_test(5, ineq.nums) == shannon._by_rays(5, 32, ineq.nums) == (-1, None)
    got = is_shannon_type(ineq)
    assert solved == [elemental_inequalities(5).matrix] and isinstance(got, FarkasWitness)
    assert got == _expected(ineq, elemental_inequalities(5))

    def rank(s):
        # 2 on a set of three points on one line, else min(|S|, 3)
        return 2 if s in (0b00111, 0b11100) else min(_size(s), 3)

    assert got == FarkasWitness(5, 3, {s: rank(s) for s in subsets(5)})


@settings(max_examples=60, deadline=None)
@given(_drawn_checks(st.integers(5, 6), st.just(True)))
@example(parse_inequality(STUCK))
@example(parse_inequality(INGLETON_PLUS))
@example(parse_inequality(NO_POINT_REFUTES))
def test_the_matroid_points_decide_as_the_full_lp(ineq):
    # next to the cone's boundary at m = 5 and 6: the verdict is that of
    # the LP on every elemental row (checked against the reference solver
    # in test_simplex), the answer the plain decision's or, where the peel
    # stops, the LP's own, and every artifact verifies
    m, coords = ineq.m, subsets(ineq.m)
    lp = solve_eq_nonneg(elemental_inequalities(m).matrix, [ineq.nums.get(s, 0) for s in coords])
    got = is_shannon_type(ineq)
    assert isinstance(got, ShannonCertificate) == lp.feasible
    r, weights = _plain_ray_test(m, ineq.nums)
    if r >= 0:
        assert got == FarkasWitness(m, 1, dict(zip(coords, _table(m)[r])))
    elif weights is not None:
        assert got == ShannonCertificate(m, ineq.den, weights)
    elif lp.feasible:
        assert got == ShannonCertificate(m, lp.den * ineq.den, dict(enumerate(lp.solution)))
    else:
        assert got == FarkasWitness(m, lp.den, {s: -u for s, u in zip(coords, lp.farkas)})
    if isinstance(got, ShannonCertificate):
        verify_certificate(ineq, got)
    else:
        verify_farkas(ineq, got)


@st.composite
def _renamed_checks(draw):
    """A near-boundary m = 5 or 6 target as text over the names a, b, ..,
    and a random order to bind those names in."""
    ineq = draw(_drawn_checks(st.integers(5, 6), st.just(True)))
    names = "abcdef"[:ineq.m]
    return format_inequality(ineq, names), tuple(draw(st.permutations(names)))


@settings(max_examples=40, deadline=None)
@given(_renamed_checks())
@example(RENAMED)
def test_the_verdict_does_not_depend_on_how_the_names_are_bound(case):
    # the peel follows the elemental row order, which follows the order the
    # names are bound in, so whether it finishes may change with it; the
    # verdict may not, and every artifact verifies either way
    text, order = case
    plain, renamed = parse_inequality(text), parse_inequality(text, declared_vars=order)
    got = [is_shannon_type(ineq) for ineq in (plain, renamed)]
    assert type(got[0]) is type(got[1])
    for ineq, res in zip((plain, renamed), got):
        if isinstance(res, ShannonCertificate):
            verify_certificate(ineq, res)
        else:
            verify_farkas(ineq, res)


def test_each_width_keeps_only_its_columns_and_the_rows_it_took():
    # two checks at m = 5 in one process, at w = 32 and at the width a
    # 200-digit coefficient sets: the rows' masks are held once, a byte per
    # point, and each width keeps its columns, top and ones and the fields
    # of the rows its peel took, no others
    for f in (shannon._points, shannon._narrow, shannon._ray_fields):
        f.cache_clear()
    checks = [BENCHMARK_CHECKS[0], f"{BENCHMARK_CHECKS[0]} + 1/{10 ** 200 + 1} H(a,b)"]
    runs = [_ray_tests(parse_inequality(text)) for text in checks]
    n = len(_table(5))
    cols, masks = shannon._narrow(5)
    assert len(cols) == 32 and len(masks) == len(elemental_inequalities(5).rows)
    assert max(x.bit_length() for x in cols + masks) <= 8 * n
    assert shannon._narrow.cache_info().currsize == 1
    widths = []
    for got, ((m, w, _, _),) in runs:
        assert isinstance(got, ShannonCertificate)
        widths.append(w)
        cols, top, ones, taken = shannon._ray_fields(m, w)
        assert len(cols) == 32 and top == ones << w - 1
        assert max(x.bit_length() for x in cols + [top]) <= n * w
        assert set(taken) == set(got.weights)
    assert widths[0] == 32 < widths[1]
    assert shannon._ray_fields.cache_info().currsize == 2


def test_elemental_sets_are_built_once_and_left_unchanged(capsys):
    for m in ELEMENTAL_RANGE:
        assert elemental_inequalities(m) is elemental_inequalities(m)
    elems = elemental_inequalities(4)
    rows = [dict(r.coeffs) for r in elems.rows]
    matrix = elems.matrix
    assert elems.matrix is matrix
    assert all(type(x) is int for col in matrix for x in col)
    for text in ("2 I(z;w) <= I(x;y) + I(x;z,w) + 3 I(z;w|x) + I(z;w|y)",
                 "H(a,b,c,d) <= 1/2 H(a,b) + 1/2 H(c,d) + 1/2 H(a,c) + 1/2 H(b,d)"):
        assert cli.main(["check", text]) in (0, 2)
    capsys.readouterr()
    assert elemental_inequalities(4) is elems
    assert [dict(r.coeffs) for r in elems.rows] == rows
    assert [list(r) for r in elems.matrix] == _fraction_lp(zhang_yeung(), elems)[0]


PINNED = json.loads((Path(__file__).parent / "check_reports_pinned.json").read_text())


@pytest.mark.parametrize("case", PINNED, ids=[c["ineq"] for c in PINNED])
def test_check_reports_are_pinned(case, capsys):
    # recorded from the Fraction-setup solver, with elapsed_ms removed
    code = cli.main(["check", case["ineq"]])
    report = json.loads(capsys.readouterr().out)
    del report["elapsed_ms"]
    assert code == case["code"]
    assert json.dumps(report) == json.dumps(case["report"])  # key order too
