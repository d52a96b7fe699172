import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from entrodim.cantor import (
    CantorWitness,
    DimValue,
    DimensionCounterexample,
    NoEpsilon,
    NonUniform,
    NotViolated,
    build_counterexample,
    project,
    uniform_fiber,
    verify_counterexample,
)
from entrodim.core import ExactLogLin, eval_slack
from entrodim.dsl import parse_inequality
from entrodim.groups import (
    all_subgroups,
    builtin_catalog,
    coset_entropy_point,
    cyclic,
    direct_product,
    group_point,
    subgroup_from_elements,
    witness_set,
)
from entrodim.linear import LinearInequality, subsets
from entrodim.shannon import elemental_inequalities

KLEIN = direct_product(cyclic(2), cyclic(2), name="klein")

CANTOR_13 = CantorWitness(1, 3, frozenset({(0,), (2,)}))
PARITY = CantorWitness(
    3, 2, frozenset({(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)})
)
FULL_SQUARE = CantorWitness(2, 2, frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}))
L_SHAPE = CantorWitness(2, 2, frozenset({(0, 0), (0, 1), (1, 0)}))

LOG2_OVER_LOG3 = 0.6309297535714574


def test_witness_validation():
    with pytest.raises(ValueError):
        CantorWitness(1, 1, frozenset({(0,)}))
    with pytest.raises(ValueError):
        CantorWitness(1, 3, frozenset())
    with pytest.raises(ValueError):
        CantorWitness(1, 3, frozenset({(3,)}))
    with pytest.raises(ValueError):
        CantorWitness(2, 3, frozenset({(0,)}))


def test_witness_json_round_trip():
    obj = PARITY.to_json()
    assert obj["m"] == 3
    assert obj["N"] == 2
    assert obj["points"] == [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]
    assert CantorWitness.from_json(obj) == PARITY


def test_project():
    p = project(PARITY, 0b011)
    assert p.m == 2
    assert p.points == frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})
    assert project(PARITY, 0b100).points == frozenset({(0,), (1,)})
    with pytest.raises(ValueError):
        project(PARITY, 0)
    with pytest.raises(ValueError):
        project(PARITY, 0b1000)


def _dim(w):
    return DimValue(len(w), w.base)


def test_dim_value_examples():
    d = _dim(CANTOR_13)
    assert d == DimValue(2, 3)
    assert d.to_float() == pytest.approx(LOG2_OVER_LOG3, abs=1e-15)
    assert str(d) == "log2(2)/log2(3)"
    assert _dim(FULL_SQUARE).to_float() == 2.0
    assert _dim(PARITY).to_float() == 2.0


def test_dim_value_ordering():
    # dimensions are compared exactly as dim * log2(N) = log2(cardinality),
    # never as objects or floats
    with pytest.raises(TypeError):
        DimValue(2, 3) < DimValue(3, 3)
    with pytest.raises(TypeError):
        float(DimValue(2, 3))
    with pytest.raises(ValueError):
        DimValue(0, 3)
    with pytest.raises(ValueError):
        DimValue(2, 1)
    with pytest.raises(ValueError, match="base must be >= 2"):
        DimValue(2, None)  # a witness set without a base


def test_uniform_fiber():
    assert uniform_fiber(FULL_SQUARE, 0b01) == 2
    assert uniform_fiber(PARITY, 0b011) == 1
    assert uniform_fiber(PARITY, 0b001) == 2
    bad = uniform_fiber(L_SHAPE, 0b01)
    assert bad == NonUniform((0,))
    with pytest.raises(ValueError):
        uniform_fiber(FULL_SQUARE, 0b11)  # identity projection
    with pytest.raises(ValueError):
        uniform_fiber(FULL_SQUARE, 0)


def test_lemma_fiber_bound():
    # a point of a subset B of the digit set is pinned down by its
    # I-projection and one of f fiber choices, so #B <= #B_I * f whenever
    # uniform_fiber gives f
    pts = sorted(PARITY.points)
    rng = random.Random(8)
    for _ in range(100):
        b = [p for p in pts if rng.random() < 0.5]
        mask = rng.choice([1, 2, 3, 4])
        f = uniform_fiber(PARITY, mask)
        image = {tuple(x for i, x in enumerate(p) if mask >> i & 1) for p in b}
        assert len(b) <= len(image) * f
    assert isinstance(uniform_fiber(L_SHAPE, 0b01), NonUniform)  # no f, no bound


def test_projection_dims_are_monotone():
    rng = random.Random(6021)
    for _ in range(50):
        m = rng.randint(2, 3)
        base = rng.randint(2, 5)
        npts = rng.randint(1, base**m)
        pts = set()
        while len(pts) < npts:
            pts.add(tuple(rng.randrange(base) for _ in range(m)))
        w = CantorWitness(m, base, frozenset(pts))
        total = _dim(w)
        for mask in subsets(m):
            if mask == (1 << m) - 1:
                continue
            d = _dim(project(w, mask))
            assert d.cardinality <= total.cardinality
            # dim of a projection never exceeds its coordinate count
            k = bin(mask).count("1")
            assert (ExactLogLin.log2(d.cardinality) - k * ExactLogLin.log2(base)).sign() <= 0


def test_level():
    # a level is rendered from its dimension and epsilon, clamped at 0
    ineq = parse_inequality("H(x) + 2 H(x,y) <= 3/2 H(y)")
    z4 = cyclic(4)
    subs = [subgroup_from_elements(z4, [0, 1, 2, 3]), subgroup_from_elements(z4, [0])]
    ce = build_counterexample(ineq, group_point(ineq, z4, subs))
    assert ce.epsilon == Fraction(1, 8)
    assert ce.to_json()["levels"] == {
        "{1}": {"exact": "max(0, log2(1)/log2(4) - 1/8)", "float": 0.0},
        "{1,2}": {"exact": "max(0, log2(4)/log2(4) - 1/8)", "float": 0.875},
    }
    assert issubclass(NoEpsilon, ValueError)


def test_build_counterexample_klein():
    ineq = parse_inequality("H(x,y) <= H(x)")
    h1 = subgroup_from_elements(KLEIN, [0, 1])
    h2 = subgroup_from_elements(KLEIN, [0])
    ce = build_counterexample(ineq, group_point(ineq, KLEIN, [h1, h2]))

    assert ce.witness.base == 4
    assert ce.witness.points == frozenset({(0, 0), (0, 1), (1, 2), (1, 3)})
    assert ce.dims == {1: DimValue(2, 4), 2: DimValue(4, 4), 3: DimValue(4, 4)}
    assert ce.epsilon == Fraction(1, 4)
    assert (ce.entropy_slack + ExactLogLin.bits(1)).sign() == 0
    assert str(ce.margin_times_log_base) == "-1 + 3/4*log2(4)"
    assert ce.margin_times_log_base.to_float() == pytest.approx(0.5)
    verify_counterexample(ce)

    obj = ce.to_json()
    assert obj["epsilon"] == "1/4"
    assert obj["witness"]["N"] == 4
    assert obj["dims"]["{1,2}"]["cardinality"] == 4
    assert obj["levels"] == {"{1,2}": {"exact": "max(0, log2(4)/log2(4) - 1/4)",
                                       "float": 0.75}}
    assert obj["margin_times_log_base"]["float"] == pytest.approx(0.5)


def test_build_counterexample_at_the_smallest_epsilon():
    # x, y of orders 2, 4: the dimension margin is 2a - b = 1 bit, and the
    # levels take eps * 2a * log2(4) of it, so 2^-64 is the one epsilon
    # that works for a = 2^62 and none works for a = 2^63
    subs = [subgroup_from_elements(KLEIN, [0, 1]), subgroup_from_elements(KLEIN, [0])]
    ineq = parse_inequality("4611686018427387904 H(x,y) <= 9223372036854775807 H(x)")
    ce = build_counterexample(ineq, group_point(ineq, KLEIN, subs))
    assert ce.epsilon == Fraction(1, 2**64)
    verify_counterexample(ce)
    ineq = parse_inequality(f"{2**63} H(x,y) <= {2**64 - 1} H(x)")
    with pytest.raises(NoEpsilon):
        build_counterexample(ineq, group_point(ineq, KLEIN, subs))


def test_build_counterexample_two_sided():
    ineq = parse_inequality("2 H(x,y) <= H(x) + H(y)")
    h1 = subgroup_from_elements(KLEIN, [0, 1])
    h2 = subgroup_from_elements(KLEIN, [0, 2])
    ce = build_counterexample(ineq, group_point(ineq, KLEIN, [h1, h2]))
    assert ce.witness.base == 2
    assert ce.witness.points == frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})
    assert ce.epsilon == Fraction(1, 2)
    assert ce.to_json()["levels"]["{1,2}"]["float"] == 1.5
    assert ce.margin_times_log_base.to_float() == pytest.approx(1.0)


def test_build_counterexample_not_violated():
    h1 = subgroup_from_elements(KLEIN, [0, 1])
    h2 = subgroup_from_elements(KLEIN, [0, 2])
    ineq = parse_inequality("I(x;y) >= 0")
    with pytest.raises(NotViolated) as err:
        build_counterexample(ineq, group_point(ineq, KLEIN, [h1, h2]))
    assert err.value.slack.sign() == 0
    ineq = parse_inequality("H(x) <= H(x,y)")
    with pytest.raises(NotViolated) as err:
        build_counterexample(
            ineq, group_point(ineq, KLEIN, [h1, subgroup_from_elements(KLEIN, [0])])
        )
    assert err.value.slack.sign() == 1


def test_build_counterexample_arity_mismatch():
    ineq = parse_inequality("H(x,y) <= H(x)")
    one = [subgroup_from_elements(KLEIN, [0, 1])]
    with pytest.raises(ValueError):
        build_counterexample(ineq, group_point(ineq, KLEIN, one))


def rebuilt(obj, **changes):
    """obj made anew through its class's constructor, with some fields
    changed, so every check the constructor makes runs on the result."""
    return type(obj)(**{**{name: getattr(obj, name) for name in obj._fields}, **changes})


def test_verify_counterexample_rejects_tampering():
    ineq = parse_inequality("H(x,y) <= H(x)")
    h1 = subgroup_from_elements(KLEIN, [0, 1])
    h2 = subgroup_from_elements(KLEIN, [0])
    ce = build_counterexample(ineq, group_point(ineq, KLEIN, [h1, h2]))

    worse = rebuilt(ce, margin_times_log_base=ce.margin_times_log_base + ExactLogLin.bits(1))
    with pytest.raises(AssertionError):
        verify_counterexample(worse)

    flat = rebuilt(ce, epsilon=Fraction(0))
    with pytest.raises(AssertionError):
        verify_counterexample(flat)

    swapped = rebuilt(ce, dims={**ce.dims, 1: DimValue(3, 4)})
    with pytest.raises(AssertionError):
        verify_counterexample(swapped)


def test_build_counterexample_builds_one_witness_set(monkeypatch):
    from entrodim import groups

    calls = []
    original = groups.witness_set

    def counted(g, subs):
        calls.append(len(subs))
        return original(g, subs)

    monkeypatch.setattr(groups, "witness_set", counted)
    ineq = parse_inequality("H(x,y) <= H(x)")
    subs = [subgroup_from_elements(KLEIN, [0, 1]), subgroup_from_elements(KLEIN, [0])]
    found = group_point(ineq, KLEIN, subs)
    ce = build_counterexample(ineq, found)
    assert calls == [2]
    assert ce.witness is found.support
    assert ce.witness.points == original(KLEIN, subs).points


def test_coset_point_counts_the_support_it_is_given():
    h1 = subgroup_from_elements(KLEIN, [0, 1])
    h2 = subgroup_from_elements(KLEIN, [0, 2])
    coset_entropy_point(KLEIN, [h1, h2], witness_set(KLEIN, [h1, h2]))
    with pytest.raises(AssertionError):
        coset_entropy_point(KLEIN, [h1, h2], witness_set(KLEIN, [h1, h1]))
    with pytest.raises(TypeError):  # the witness set has no default
        coset_entropy_point(KLEIN, [h1, h2])


@st.composite
def _violating_points(draw):
    """A catalog group of order <= 12, m = 2..3 of its subgroups, and an
    elemental row reversed, where the row is strictly positive at the
    coset point, so the reversed row is violated there."""
    g = draw(st.sampled_from(builtin_catalog(12)))
    m = draw(st.integers(2, 3))
    subs = draw(st.lists(st.sampled_from(all_subgroups(g)), min_size=m, max_size=m))
    point = coset_entropy_point(g, subs, witness_set(g, subs))
    rows = [r for r in elemental_inequalities(m).rows if eval_slack(r, point).sign() > 0]
    assume(rows)
    row = draw(st.sampled_from(rows))
    return LinearInequality(m, {s: -c for s, c in row.coeffs.items()}), g, subs


@settings(max_examples=150, deadline=None)
@given(_violating_points(), st.data())
def test_counterexample_verifies_and_tampering_is_caught(case, data):
    ineq, g, subs = case
    ce = build_counterexample(ineq, group_point(ineq, g, subs))
    verify_counterexample(ce)
    assert ce.margin_times_log_base.sign() == 1
    mask = data.draw(st.sampled_from(subsets(ineq.m)))
    dim = ce.dims[mask]
    tampered = [
        rebuilt(ce, epsilon=Fraction(0)),
        rebuilt(ce, dims={**ce.dims, mask: DimValue(dim.cardinality + 1, dim.base)}),
        rebuilt(ce, margin_times_log_base=ce.margin_times_log_base + ExactLogLin.log2(2)),
    ]
    for bad in tampered:
        with pytest.raises(AssertionError):
            verify_counterexample(bad)


@settings(max_examples=100, deadline=None)
@given(_violating_points())
def test_the_digit_base_belongs_to_the_witness_set(case):
    # the group point's witness set is the counterexample's digit set: its
    # base, the largest coset count, bounds every digit, and the digit set
    # reads back through the CantorWitness file format unchanged
    ineq, g, subs = case
    found = group_point(ineq, g, subs)
    base = max(g.order // h.order for h in subs)
    assert found.support.base == base
    assert all(x < base for pt in found.support.points for x in pt)
    ce = build_counterexample(ineq, found)
    assert ce.witness is found.support
    back = CantorWitness.from_json(ce.to_json()["witness"])
    assert (back.codes, back.widths, back.base) == (ce.witness.codes, ce.witness.widths, base)
    for mask in subsets(ineq.m):
        assert len(back.fibers(mask)) == ce.dims[mask].cardinality
