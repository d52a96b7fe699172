"""The package's immutable value types (linear.Record): == and hash over
their fields only, the reprs they have always had, keyword and default
construction, and no assignment or deletion."""

from fractions import Fraction

import pytest

from entrodim.cantor import DimValue, NonUniform
from entrodim.core import EntropyVector, ExactLogLin
from entrodim.distributions import JointDistribution
from entrodim.groups import (
    FiniteGroup, Subgroup, Violation, cyclic, group_point, subgroup_from_elements)
from entrodim.linear import LinearInequality, Record
from entrodim.points import PointSet
from entrodim.shannon import FarkasWitness, ShannonCertificate, elemental_inequalities
from entrodim.simplex import FeasibilityResult
from entrodim.splitting import SplitSpec, UnsplitReport

HALF = Fraction(1, 2)

REPRS = {
    "LinearInequality": (
        lambda: LinearInequality(2, {1: HALF, 3: -1}),
        "LinearInequality(m=2, den=2, nums=mappingproxy({1: 1, 3: -2}))",
    ),
    "FeasibilityResult": (
        lambda: FeasibilityResult(True, (HALF,), None, 7),
        "FeasibilityResult(feasible=True, solution=(Fraction(1, 2),), farkas=None)",
    ),
    "ShannonCertificate": (
        lambda: ShannonCertificate(2, {0: Fraction(1, 3)}),
        "ShannonCertificate(m=2, weights={0: Fraction(1, 3)})",
    ),
    "FarkasWitness": (
        lambda: FarkasWitness(1, {1: Fraction(-1)}),
        "FarkasWitness(m=1, point={1: Fraction(-1, 1)})",
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
        "SplitSpec(m=2, levels={1: Fraction(1, 1), 3: Fraction(5, 2)})",
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
    a, b = FeasibilityResult(True, (1,), None, 3), FeasibilityResult(True, (1,), None, 9)
    assert a == b and hash(a) == hash(b) and (a.pivots, b.pivots) == (3, 9)
    assert a != FeasibilityResult(True, (2,), None, 3)
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
