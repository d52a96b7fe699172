"""The package's immutable value types (linear.Record): == and hash over
their fields only, a read-only map hashing by its items, the reprs they
have, keyword and default construction, and no assignment or deletion."""

from fractions import Fraction
from types import MappingProxyType

import pytest

from entrodim.cantor import DimensionCounterexample, DimValue, NonUniform, build_counterexample
from entrodim.core import EntropyVector, ExactLogLin
from entrodim.distributions import JointDistribution
from entrodim.dsl import parse_inequality
from entrodim.groups import (
    FiniteGroup, Subgroup, Violation, cyclic, group_point, subgroup_from_elements)
from entrodim.linear import LinearInequality, Record
from entrodim.points import PointSet
from entrodim.shannon import (
    FarkasWitness, ShannonCertificate, elemental_inequalities, is_shannon_type)
from entrodim.simplex import FeasibilityResult
from entrodim.splitting import SplitSpec, UnsplitReport

HALF = Fraction(1, 2)


def _group_point(coeffs):
    """The inequality's group point of Z2 with every subgroup trivial."""
    ineq = LinearInequality(max(coeffs).bit_length(), coeffs)
    return ineq, group_point(ineq, cyclic(2), [subgroup_from_elements(cyclic(2), [0])] * ineq.m)


def _counterexample(coeffs):
    """The digit set built from _group_point, on an inequality it violates."""
    return build_counterexample(*_group_point(coeffs))


# H(x,y) >= H(x) + H(y), which Z2 with both subgroups trivial violates
XY = {3: 1, 1: -1, 2: -1}


REPRS = {
    "LinearInequality": (
        lambda: LinearInequality(2, {1: HALF, 3: -1}),
        "LinearInequality(m=2, den=2, nums=mappingproxy({1: 1, 3: -2}))",
    ),
    "FeasibilityResult": (
        lambda: FeasibilityResult(True, 2, (1,), None, 7),
        "FeasibilityResult(feasible=True, den=2, solution=(1,), farkas=None)",
    ),
    "ShannonCertificate": (
        lambda: ShannonCertificate(2, 3, {0: 1}),
        "ShannonCertificate(m=2, den=3, weights=mappingproxy({0: 1}))",
    ),
    "FarkasWitness": (
        lambda: FarkasWitness(1, 1, {1: -1}),
        "FarkasWitness(m=1, den=1, point=mappingproxy({1: -1}))",
    ),
    "EntropyVector": (
        lambda: EntropyVector(1, {1: ExactLogLin.log2(3)}),
        "EntropyVector(m=1, values=mappingproxy({1: ExactLogLin(terms=((Fraction(1, 1), 3),))}))",
    ),
    "Subgroup": (lambda: subgroup_from_elements(cyclic(2), [1, 0]), "Subgroup(elements=(0, 1))"),
    "JointDistribution": (
        lambda: JointDistribution(1, (((1,), HALF), ((0,), HALF))),
        "JointDistribution(m=1, atoms=(((0,), Fraction(1, 2)), ((1,), Fraction(1, 2))))",
    ),
    "DimValue": (lambda: DimValue(2, 3), "DimValue(cardinality=2, base=3)"),
    "NonUniform": (lambda: NonUniform((1, 0)), "NonUniform(value=(1, 0))"),
    "UnsplitReport": (
        lambda: UnsplitReport(1, 2, 3, 4, 1.0, 2.0, 5, 6, sign=-1),
        "UnsplitReport(v1=1, v=2, v12=3, v13=4, lhs_bits=1.0, rhs_bits=2.0, "
        "lhs_product=5, rhs_product=6, sign=-1)",
    ),
    "SplitSpec": (
        lambda: SplitSpec(2, {1: 1, 3: 2.5}),
        "SplitSpec(m=2, levels=mappingproxy({1: Fraction(1, 1), 3: Fraction(5, 2)}))",
    ),
    "DimensionCounterexample": (
        lambda: _counterexample({1: -1}),
        "DimensionCounterexample(inequality=LinearInequality(m=1, den=1, "
        "nums=mappingproxy({1: -1})), witness=PointSet(m=1, base=2, "
        "points=frozenset({(0,), (1,)})), dims=mappingproxy({1: DimValue(cardinality=2, "
        "base=2)}), epsilon=Fraction(1, 2), entropy_slack=ExactLogLin(terms=((Fraction(-1, "
        "1), 2),)), margin_times_log_base=ExactLogLin(terms=((Fraction(1, 2), 2),)))",
    ),
    "ElementalSet": (
        lambda: elemental_inequalities(1),
        "ElementalSet(m=1, rows=(LinearInequality(m=1, den=1, nums=mappingproxy({1: 1})),))",
    ),
    "Violation": (
        lambda: group_point(LinearInequality(1, {1: -1}), cyclic(2),
                            [subgroup_from_elements(cyclic(2), [0])]),
        "Violation(group=FiniteGroup(Z2), subgroups=(Subgroup(elements=(0,)),), "
        "point=EntropyVector(m=1, values=mappingproxy({1: "
        "ExactLogLin(terms=((Fraction(1, 1), 2),))})), "
        "slack=ExactLogLin(terms=((Fraction(-1, 1), 2),)))",
    ),
}


@pytest.mark.parametrize("name", sorted(REPRS))
def test_repr_names_the_fields_in_order(name):
    make, text = REPRS[name]
    assert repr(make()) == text
    assert make() == make()


@pytest.mark.parametrize("name", sorted(REPRS))
def test_assignment_and_deletion_are_refused(name):
    obj = REPRS[name][0]()
    field = obj._fields[0]
    for attempt in (lambda: setattr(obj, field, 0), lambda: delattr(obj, field),
                    lambda: setattr(obj, "other", 0)):
        with pytest.raises(AttributeError, match="immutable"):
            attempt()
    assert repr(obj) == REPRS[name][1]


def test_equality_ignores_the_attributes_outside_the_fields():
    a, b = FeasibilityResult(True, 1, (1,), None, 3), FeasibilityResult(True, 1, (1,), None, 9)
    assert a == b and hash(a) == hash(b) and (a.pivots, b.pivots) == (3, 9)
    assert a != FeasibilityResult(True, 1, (2,), None, 3)
    sub = subgroup_from_elements(cyclic(2), [0])
    assert sub.group == cyclic(2) and Subgroup((0,)).group is None
    assert sub == Subgroup((0,)) and hash(sub) == hash(Subgroup((0,)))
    dist = JointDistribution(1, (((0,), 1),))
    other = JointDistribution(1, (((0,), 1),))
    assert dist.support is not other.support and dist == other
    found = REPRS["Violation"][0]()
    assert type(found.support) is PointSet and found.support.points == {(0,), (1,)}
    other = Violation(found.group, found.subgroups, found.point, found.slack,
                      PointSet(1, None, [(0,)]))
    assert other.support != found.support and other == found
    assert repr(other) == repr(found)


def test_equal_inequalities_hash_equal():
    a = LinearInequality(2, {1: HALF, 3: -1})
    b = LinearInequality(2, {1: 1, 3: -2}, den=2)
    c = LinearInequality(2, {1: 2, 3: -4}, den=4)
    assert a == b == c and len({hash(a), hash(b), hash(c)}) == 1
    assert a != LinearInequality(2, {1: HALF, 3: -2})
    assert a != (2, 2, a.nums)  # another class is never equal


def _reversed(values):
    return dict(reversed(values.items()))


def _opposite_pair(name):
    """Two equal instances of the record REPRS names, each mapping field of
    the one filled in the opposite order to the other's."""
    make = REPRS[name][0]
    logs = {1: ExactLogLin.log2(2), 2: ExactLogLin.log2(3), 3: ExactLogLin.log2(6)}
    if name == "LinearInequality":
        coeffs = {1: HALF, 2: Fraction(1, 3), 3: -1}
        return LinearInequality(2, coeffs), LinearInequality(2, _reversed(coeffs))
    if name == "EntropyVector":
        return EntropyVector(2, logs), EntropyVector(2, _reversed(logs))
    if name == "ShannonCertificate":
        return (ShannonCertificate(2, 3, {0: 1, 2: 3}),
                ShannonCertificate(2, 6, {2: 6, 1: 0, 0: 2}))
    if name == "FarkasWitness":
        return FarkasWitness(2, 1, {1: 1, 3: -1}), FarkasWitness(2, 2, {3: -2, 1: 2})
    if name == "SplitSpec":
        levels = {1: 1, 2: HALF, 3: 2.5}
        return SplitSpec(2, levels), SplitSpec(2, _reversed(levels))
    if name == "DimensionCounterexample":
        ce = _counterexample(XY)
        fields = dict(zip(ce._fields, ce._values(ce)))
        fields["dims"] = MappingProxyType(_reversed(ce.dims))
        return ce, DimensionCounterexample(**fields)
    if name == "Violation":
        found = _group_point(XY)[1]
        point = EntropyVector(2, _reversed(found.point.values))
        return found, Violation(found.group, found.subgroups, point, found.slack, found.support)
    return make(), make()


def test_records_with_a_mapping_field_hash_as_they_compare():
    # one hash rule for every record: a read-only map hashes by its items
    for name in REPRS:
        a, b = _opposite_pair(name)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1, name
    assert ShannonCertificate(2, 3, {0: 1}) != ShannonCertificate(2, 3, {1: 1})
    assert SplitSpec(2, {1: 1}) != SplitSpec(2, {1: 2})


def test_returned_maps_are_read_only():
    cert = is_shannon_type(parse_inequality("2 H(x,y,z) <= H(x,y) + H(x,z) + H(y,z)"))
    witness = is_shannon_type(parse_inequality("H(x,y) <= H(x)"))
    spec, ce = REPRS["SplitSpec"][0](), REPRS["DimensionCounterexample"][0]()
    for values in (cert.weights, witness.point, spec.levels, ce.dims):
        key = next(iter(values))
        with pytest.raises(TypeError):
            values[key] = values[key]
        with pytest.raises(TypeError):
            del values[key]
    assert repr(spec) == REPRS["SplitSpec"][1]
    assert repr(ce) == REPRS["DimensionCounterexample"][1]


def test_construction_by_position_keyword_and_default():
    assert FiniteGroup(1, ((0,),)).name == ""
    assert FiniteGroup(order=1, table=[[0]], name="trivial") == FiniteGroup(1, ((0,),), "trivial")
    assert DimValue(base=3, cardinality=2) == DimValue(2, 3)
    with pytest.raises(ValueError, match="cardinality"):  # __post_init__ runs
        DimValue(0, 3)
    for bad in (lambda: DimValue(2), lambda: DimValue(2, 3, 4), lambda: DimValue(2, base=3, x=1),
                lambda: DimValue(2, 3, cardinality=2), lambda: Subgroup((0,), group=None)):
        with pytest.raises(TypeError):
            bad()


def test_a_cached_property_is_kept_on_the_instance():
    sub = Subgroup((0, 2))
    assert sub.mask == 0b101 and sub.__dict__["mask"] == 0b101
    assert LinearInequality(1, {1: HALF}).coeffs == {1: HALF}
    assert all(issubclass(type(make()), Record) for make, _ in REPRS.values())
