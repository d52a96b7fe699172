"""`points.PointSet`: one validation for bodies, digit sets and supports, one
int per point, and shadows and fiber counts cached per mask, shadows
worked out from the smallest cached superset; checked against direct
counting on the points as tuples, by the tests' shared `projector`."""

import json
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from entrodim.cantor import CantorWitness, build_counterexample, verify_counterexample
from entrodim.cli import main
from entrodim.distributions import JointDistribution, SupportSet
from entrodim.dsl import parse_inequality
from entrodim.groups import cyclic, direct_product, group_point, subgroup_from_elements
from entrodim import splitting
from entrodim.linear import mask_label, subsets
from entrodim.points import PointSet, check_points
from entrodim.splitting import (
    FiniteBody,
    SplitResult,
    SplitSpec,
    cube_bar_instance,
    find_split_exhaustive,
    verify_split,
)

from tuple_projection import projector


def _direct_shadow(points, mask):
    return frozenset(map(projector(mask), points))


def _direct_fibers(points, mask):
    return Counter(map(projector(mask), points))


def _tuple_shadow(ps, mask):
    """The cached shadow on mask, its keys decoded to tuples."""
    return frozenset(ps.decode(key, mask) for key in ps.shadow(mask))


def _tuple_fibers(ps, mask):
    """The cached fiber counts on mask, keyed by decoded tuples."""
    return {ps.decode(key, mask): c for key, c in ps.fibers(mask).items()}


@st.composite
def _requests(draw):
    """A random point set and a random sequence of (kind, mask) requests:
    every mask at least once, some twice, in any order, so that shadows
    come from the points and from every kind of cached superset."""
    m = draw(st.integers(1, 5))
    base = draw(st.integers(1, 4))
    coords = st.tuples(*[st.integers(0, base - 1)] * m)
    points = draw(st.frozensets(coords, min_size=1, max_size=40))
    masks = subsets(m) + draw(st.lists(st.sampled_from(subsets(m)), max_size=8))
    order = draw(st.permutations(masks))
    kinds = draw(st.lists(st.sampled_from(["shadow", "fibers"]),
                          min_size=len(order), max_size=len(order)))
    return m, base, points, list(zip(kinds, order))


@settings(max_examples=200, deadline=None)
@given(_requests())
def test_cached_shadows_and_fibers_equal_direct_counting(req):
    m, base, points, requests = req
    ps = PointSet(m, base, points)
    for kind, mask in requests:
        if kind == "shadow":
            assert _tuple_shadow(ps, mask) == _direct_shadow(points, mask)
        else:
            assert _tuple_fibers(ps, mask) == _direct_fibers(points, mask)
    for mask in subsets(m):
        assert _tuple_shadow(ps, mask) == _direct_shadow(points, mask)
        assert _tuple_fibers(ps, mask) == _direct_fibers(points, mask)


def test_shadow_comes_from_the_smallest_cached_superset():
    body = cube_bar_instance(36)
    assert len(body.points) == 46836
    assert len(body.shadow(0b011)) == len(body.shadow(0b101)) == 1476
    # mark the cached S12 and S13: S1 must be read from one of them
    # (the smaller one, the lower mask on a tie), not from the points
    body._shadows[0b011] = frozenset({body.field(0b011)})
    body._shadows[0b101] = frozenset({1, 2})
    assert body.shadow(0b001) == frozenset({body.field(0b001)})
    # S23 has no cached proper superset, so it comes from the points
    assert _tuple_shadow(body, 0b110) == _direct_shadow(body.points, 0b110)


class _CountedPoints(frozenset):
    """A frozenset that counts the full passes made over it."""

    passes = 0

    def __iter__(self):
        _CountedPoints.passes += 1
        return super().__iter__()


def test_cube_bar_demo_makes_three_full_passes():
    plain = cube_bar_instance(16)
    body = FiniteBody._of_valid(3, plain.base, _CountedPoints(plain.codes), plain.widths)
    _CountedPoints.passes = 0
    report = splitting.check_unsplit_inequality(body)
    splitting.loomis_whitney_slack(body)
    # S12, S13 and S23 from the points; S1 from the cached S12
    assert _CountedPoints.passes == 3
    assert (report.v1, report.v12, report.v13) == (64, 304, 304)


def test_fibers_are_counted_once_per_mask():
    ps = PointSet(3, 3, frozenset({(0, 0, 0), (0, 1, 0), (1, 1, 2), (2, 1, 2)}))
    assert _tuple_fibers(ps, 0b010) == {(0,): 1, (1,): 3}
    assert ps.fibers(0b010) is ps.fibers(0b010)
    assert _tuple_fibers(ps, 0b101) == {(0, 0): 2, (1, 2): 1, (2, 2): 1}


def test_points_are_sorted_once_and_shared_by_every_json_writer():
    pts = frozenset({(2, 0), (0, 3), (1, 1), (0, 0)})
    for ps in (FiniteBody(2, 4, pts), CantorWitness(2, 4, pts), SupportSet(2, pts)):
        order = ps.ordered()
        assert order == tuple(sorted(order)) and ps.ordered() is order
        assert tuple(map(ps.decode, order)) == ((0, 0), (0, 3), (1, 1), (2, 0))
        assert list(map(list, map(ps.decode, order))) in ps.to_json().values()
        assert "_order" not in repr(ps)
    body = FiniteBody(2, 4, pts)
    assert body.ordered() and body == FiniteBody(2, 4, pts)
    body = cube_bar_instance(4)
    assert tuple(map(body.decode, body.ordered())) == tuple(sorted(body.points))
    proj = body.projection(0b011)
    assert tuple(map(proj.decode, proj.ordered())) == tuple(sorted(_tuple_shadow(body, 0b011)))


def test_cache_is_read_only_and_kept_out_of_equality():
    pts = frozenset({(0, 1), (1, 1)})
    body = FiniteBody(2, 2, pts)
    with pytest.raises(TypeError):
        body.fibers(0b01)[(0,)] = 5
    assert isinstance(body.shadow(0b10), frozenset)
    assert body == FiniteBody(2, 2, pts) and hash(body) == hash(FiniteBody(2, 2, pts))
    assert body != CantorWitness(2, 2, pts)
    assert "_shadows" not in repr(body)
    with pytest.raises(ValueError):
        body.shadow(0)
    with pytest.raises(ValueError):
        body.fibers(0b100)


@pytest.mark.parametrize("k", [4, 9, 16])
def test_unchecked_point_sets_equal_validated_ones(k):
    # cube_bar_instance and projection skip the second check; the sets they
    # make must pass it and equal the validated construction
    body = cube_bar_instance(k)
    assert check_points(body.points, 3, body.base) == (body.codes, body.widths)
    assert body == FiniteBody(3, body.base, body.points)
    for mask in subsets(3):
        proj = body.projection(mask)
        want = FiniteBody(mask.bit_count(), body.base, _direct_shadow(body.points, mask))
        assert type(proj) is FiniteBody and proj == want
        assert proj.shadow((1 << proj.m) - 1) is proj.codes
    support = SupportSet(2, {(0, 5), (3, 5)}).projection(0b10)
    assert support == SupportSet(1, {(5,)})


def test_a_frozenset_of_tuples_is_kept_not_rebuilt():
    pts = frozenset({(0, 1), (1, 1)})
    # one int per point: (0, 1) and (1, 1) in two 1-bit fields
    assert check_points(pts, 2, 2) == (frozenset({0b01, 0b11}), (1, 1))
    # every input, whatever its container, is decoded to a frozenset of tuples
    assert FiniteBody(2, 2, [[0, 1], [1, 1], [0, 1]]).points == pts
    body = FiniteBody(2, 2, frozenset({range(2), b"\x01\x01"}))
    assert body.points == pts and {type(p) for p in body.points} == {tuple}
    assert _tuple_shadow(body, 0b01) == frozenset({(0,), (1,)})


BAD_COORDINATES = [True, False, 0.5, 1.0, Fraction(1), "1", None]


@pytest.mark.parametrize("bad", BAD_COORDINATES)
@pytest.mark.parametrize(
    "make",
    [
        lambda pts: FiniteBody(2, 4, pts),
        lambda pts: CantorWitness(2, 4, pts),
        lambda pts: SupportSet(2, pts),
        lambda pts: JointDistribution(2, tuple((p, Fraction(1, 2)) for p in pts)),
    ],
    ids=["body", "witness", "support", "distribution"],
)
def test_non_integer_and_bool_coordinates_are_rejected(make, bad):
    # the int 1 sits beside the bad value, so a check on distinct values
    # alone would let True, 1.0 and Fraction(1) through
    with pytest.raises(ValueError, match="must be nonnegative integers"):
        make([(1, 2), (bad, 3)])


def test_bool_coordinate_no_longer_collides_with_int():
    with pytest.raises(ValueError):
        FiniteBody(2, 4, {(True, 2)})
    with pytest.raises(ValueError):
        FiniteBody(2, 4, {(True, 2), (1, 2)})
    # a list is checked before it is hashed, else (True, 2) and (1, 2)
    # would merge into whichever of them came first
    for points in ([[1, 2], [True, 2]], [[True, 2], [1, 2]]):
        with pytest.raises(ValueError, match="must be nonnegative integers, got True"):
            check_points(points, 2)
        with pytest.raises(ValueError, match="must be nonnegative integers, got True"):
            FiniteBody.from_json({"m": 2, "N": 4, "points": points})


def test_validation_messages():
    with pytest.raises(ValueError, match=r"point \(0,\) has 1 coordinates, expected 2"):
        FiniteBody(2, 2, {(0,)})
    with pytest.raises(ValueError, match="coordinate 2 out of range for base 2"):
        FiniteBody(2, 2, {(0, 2)})
    with pytest.raises(ValueError, match="coordinate -1 out of range for base 2"):
        FiniteBody(2, 2, {(0, -1)})
    with pytest.raises(ValueError, match="digit 4 out of range for base 4"):
        CantorWitness(1, 4, {(4,)})
    with pytest.raises(ValueError, match="symbols must be nonnegative integers, got -1"):
        SupportSet(1, {(-1,)})
    with pytest.raises(ValueError, match="base must be positive"):
        FiniteBody(1, 0, {(0,)})
    with pytest.raises(ValueError, match="base must be >= 2, got 1"):
        CantorWitness(1, 1, {(0,)})
    for make, empty in ((lambda: FiniteBody(1, 2, ()), "empty body"),
                        (lambda: CantorWitness(1, 2, ()), "empty digit set"),
                        (lambda: SupportSet(1, ()), "empty support")):
        with pytest.raises(ValueError, match=empty):
            make()
    with pytest.raises(ValueError, match="m must be in 1..8, got 9"):
        FiniteBody(9, 2, {(0,) * 9})
    # symbols of a support have no upper bound
    assert SupportSet(1, {(10**30,)}).base is None


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "points",
    [[[0.5, 1], [1, 2]], [[True, 2]], [[1, 2], [True, 3]],
     [[1, 0], [True, 0]], [[True, 0], [1, 0]]],
)
def test_cli_rejects_non_integer_coordinates(capsys, tmp_path, points):
    witness = _write(tmp_path / "w.json", {"m": 2, "N": 4, "points": points})
    body = _write(tmp_path / "b.json", {"m": 2, "N": 4, "points": points})
    spec = _write(tmp_path / "s.json",
                  {"m": 2, "levels": [{"part": [1, 2], "bits": 3.0}]})
    support = _write(tmp_path / "d.json", {"m": 2, "support": points})
    for argv in (["cantor", "--witness", witness],
                 ["split", "--body", body, "--spec", spec],
                 ["eval", "--ineq", "I(x;y) >= 0", "--dist", support]):
        code, out, err = _run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ValueError: ")
        assert err.count("\n") == 1


def test_exhaustive_split_of_a_large_one_part_body():
    # the search used to recurse once per point and died with
    # RecursionError past about 1,000 points (1 ** n never trips the bound)
    body = FiniteBody(1, 2000, frozenset((i,) for i in range(1500)))
    result = find_split_exhaustive(body, SplitSpec(1, {1: 20.0}))
    assert result is not None and set(result.parts) == {1}
    assert find_split_exhaustive(body, SplitSpec(1, {1: 10.0})) is None


def test_cli_split_of_a_large_one_part_body(capsys, tmp_path):
    body = _write(tmp_path / "b.json",
                  {"m": 1, "N": 2000, "points": [[i] for i in range(1500)]})
    spec = _write(tmp_path / "s.json",
                  {"m": 1, "levels": [{"part": [1], "bits": 20.0}]})
    code, out, err = _run(capsys, "split", "--body", body, "--spec", spec)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["outcome"] == "split found" and report["verified"] is True
    assert len(report["split"]["assignment"]) == 1500


def _reference_split_json(result):
    """SplitResult.to_json as it was, one mask_label per point."""
    return {"assignment": {str(i): mask_label(mask) for i, mask in enumerate(result.parts)}}


def test_split_json_labels_each_part_once(monkeypatch):
    body = cube_bar_instance(16)
    spec = SplitSpec(3, {0b001: math.log2(30), 0b111: 12.0})
    result = find_split_exhaustive(body, spec)
    assert result is not None and len(set(result.parts)) > 1
    want = json.dumps(_reference_split_json(result), indent=2)
    calls = []

    def counted(mask, names=None):
        calls.append(mask)
        return mask_label(mask, names)

    monkeypatch.setattr(splitting, "mask_label", counted)
    got = json.dumps(result.to_json(), indent=2)
    assert got == want
    assert sorted(calls) == sorted(set(result.parts))


def test_verify_split_counts_from_the_points_not_the_cache():
    body = FiniteBody(2, 4, frozenset((x, y) for x in range(4) for y in range(2)))
    spec = SplitSpec(2, {0b01: 1.0, 0b11: 2.0})
    over = SplitResult((0b01,) * len(body))  # shadow {1} has 4 > 2
    # poison every cached shadow and fiber count to look within budget
    for mask in subsets(2):
        body.fibers(mask)
        body._shadows[mask] = frozenset({(0,) * mask.bit_count()})
        body._fibers[mask] = {(0,) * mask.bit_count(): 1}
    assert verify_split(body, spec, over) is False
    good = find_split_exhaustive(body, spec)
    assert good is not None and verify_split(body, spec, good)


def test_verify_counterexample_counts_from_the_points_not_the_cache():
    from entrodim.cantor import DimValue

    g = direct_product(cyclic(2), cyclic(2))
    h1 = subgroup_from_elements(g, [0, 1])
    h2 = subgroup_from_elements(g, [0])
    ineq = parse_inequality("H(x,y) <= H(x)")
    ce = build_counterexample(ineq, group_point(ineq, g, [h1, h2]))
    verify_counterexample(ce)
    # made anew through the constructor, with one stored dimension wrong
    fields = {name: getattr(ce, name) for name in ce._fields}
    wrong = type(ce)(**{**fields, "dims": {**ce.dims, 0b01: DimValue(3, ce.witness.base)}})
    # a cache poisoned to agree with the wrong stored dimension
    ce.witness._shadows[0b01] = frozenset({(0,), (1,), (2,)})
    assert len(ce.witness.shadow(0b01)) == 3
    with pytest.raises(AssertionError, match="stored dimension wrong"):
        verify_counterexample(wrong)
