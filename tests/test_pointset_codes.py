"""The int-coded point sets (one int per point) checked against the tuple
point set they replaced, kept below as the reference; and Light's
associativity test checked against the full scan of every triple."""

from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from entrodim.cantor import CantorWitness
from entrodim.distributions import SupportSet
from entrodim.groups import (
    FiniteGroup,
    GroupTableError,
    NotAssociative,
    _light_test,
    builtin_catalog,
)
from entrodim.linear import MAX_VARIABLES, subsets
from entrodim.splitting import FiniteBody

from tuple_projection import projector


# -- the tuple point set, kept as the reference --------------------------------


def _ref_check_points(points, m, base=None, noun="coordinate"):
    if not 1 <= m <= MAX_VARIABLES:
        raise ValueError(f"m must be in 1..{MAX_VARIABLES}, got {m}")
    if not (isinstance(points, frozenset) and set(map(type, points)) <= {tuple}):
        points = tuple(map(tuple, points))
    for pt in points:
        if len(pt) != m:
            raise ValueError(f"point {pt} has {len(pt)} coordinates, expected {m}")
        for x in pt:
            if type(x) is not int or x < 0 or (base is not None and x >= base):
                if type(x) is not int or base is None:
                    raise ValueError(f"{noun}s must be nonnegative integers, got {x!r}")
                raise ValueError(f"{noun} {x} out of range for base {base}")
    return frozenset(points)


class RefPointSet:
    """A validated set of m-tuples with its shadows and fibers counted
    directly from the tuples, as the tuple point set did."""

    def __init__(self, cls, m, base, points):
        self.cls, self.m, self.base = cls, m, base
        if cls is CantorWitness and base < 2:
            raise ValueError(f"base must be >= 2, got {base}")
        if cls is not CantorWitness and base is not None and base < 1:
            raise ValueError("base must be positive")
        self.points = _ref_check_points(points, m, base, cls.noun)
        if not self.points:
            raise ValueError(cls.empty)

    def shadow(self, mask):
        return frozenset(map(projector(mask), self.points))

    def fibers(self, mask):
        return Counter(map(projector(mask), self.points))

    def ordered(self):
        return tuple(sorted(self.points))

    def projection(self, mask):
        return RefPointSet(self.cls, mask.bit_count(), self.base, self.shadow(mask))

    def __eq__(self, other):
        return (self.cls, self.m, self.base, self.points) == (
            other.cls, other.m, other.base, other.points)

    def to_json(self):
        rows = list(map(list, self.ordered()))
        if self.cls is SupportSet:
            return {"m": self.m, "support": rows}
        return {"m": self.m, "N": self.base, "points": rows}


def _make(cls, m, base, points):
    return SupportSet(m, points) if cls is SupportSet else cls(m, base, points)


def _same(ps, ref):
    """Every view of the int-coded set equals the reference's."""
    assert ps.m == ref.m and ps.base == ref.base and len(ps) == len(ref.points)
    assert ps.points == ref.points
    assert tuple(map(ps.decode, ps.ordered())) == ref.ordered()
    assert ps.to_json() == ref.to_json()
    for mask in subsets(ps.m):
        assert {ps.decode(k, mask) for k in ps.shadow(mask)} == ref.shadow(mask)
        assert {ps.decode(k, mask): c for k, c in ps.fibers(mask).items()} == ref.fibers(mask)
        proj, want = ps.projection(mask), ref.projection(mask)
        assert type(proj) is ps.__class__
        assert proj == _make(ps.__class__, want.m, want.base, want.points)
        assert proj.points == want.points and proj.to_json() == want.to_json()


# -- strategies -----------------------------------------------------------------

#: (class, base, largest coordinate drawn): base 1, powers of two, others,
#: N = 10**1000 with small digits, and supports with no base
_SHAPES = [
    (FiniteBody, 1, 0),
    (FiniteBody, 2, 1),
    (FiniteBody, 4, 3),
    (FiniteBody, 16, 15),
    (CantorWitness, 2, 1),
    (CantorWitness, 3, 2),
    (CantorWitness, 8, 7),
    (CantorWitness, 10, 9),
    (FiniteBody, 10**1000, 5),
    (CantorWitness, 10**1000, 3),
    (SupportSet, None, 6),
    (SupportSet, None, 10**300),
]


def _points(m, top):
    coord = st.integers(0, top) if top < 10**6 else st.sampled_from([0, 1, 7, top - 1, top])
    return st.lists(st.tuples(*[coord] * m), min_size=1, max_size=30)


@st.composite
def _point_sets(draw):
    cls, base, top = draw(st.sampled_from(_SHAPES))
    m = draw(st.integers(1, 4))
    return cls, m, base, top, draw(_points(m, top))


@settings(max_examples=300, deadline=None)
@given(_point_sets(), st.data())
def test_int_coded_sets_match_the_tuple_reference(shape, data):
    cls, m, base, _, points = shape
    ps, ref = _make(cls, m, base, points), RefPointSet(cls, m, base, points)
    # query the masks in a random order, so shadows and fibers come from
    # every kind of cached superset before _same reads them all
    for mask in data.draw(st.permutations(subsets(m))):
        ps.fibers(mask) if data.draw(st.booleans()) else ps.shadow(mask)
    _same(ps, ref)


@settings(max_examples=200, deadline=None)
@given(_point_sets(), st.data())
def test_equality_and_hash_follow_the_tuple_reference(shape, data):
    cls, m, base, top, pa = shape
    pb = data.draw(st.one_of(_points(m, top), st.permutations(pa)))
    one, two = _make(cls, m, base, pa), _make(cls, m, base, pb)
    same = RefPointSet(cls, m, base, pa) == RefPointSet(cls, m, base, pb)
    assert (one == two) is same
    assert one == _make(cls, m, base, list(reversed(pa)))
    assert hash(one) == hash(_make(cls, m, base, frozenset(pa)))
    if same:
        assert hash(one) == hash(two)


def test_layouts_that_share_codes_are_different_sets():
    # (1, 0) and (0, 1) both code as 1, in fields of widths (1, 0) and (0, 1)
    one, two = FiniteBody(2, 2, {(1, 0)}), FiniteBody(2, 2, {(0, 1)})
    assert one.codes == two.codes and one != two


def test_a_huge_base_or_symbol_costs_only_the_bits_present():
    body = FiniteBody(2, 10**1000, {(0, 3), (2, 1)})
    assert body.widths == (2, 2) and max(body.codes) < 16
    support = SupportSet(2, {(10**300, 0), (1, 1)})
    assert support.widths == (997, 1)
    assert support.points == {(10**300, 0), (1, 1)}
    assert support.projection(0b01).points == {(10**300,), (1,)}


_BAD_POINTS = [
    ([(1, 2), (True, 2)], 4),
    ([(True, 2), (1, 2)], 4),
    ([(0, 1), (2, False)], 4),
    ([(0, 1), (-1, 1)], 4),
    ([(0, 1), (1, -3)], None),
    ([(0, 1), (4, 1)], 4),
    ([(0, 1), (1, 10**1000)], 10**1000),
    ([(0, 1), (1,)], 4),
    ([(0, 1), (1, 1, 1)], 4),
    ([(0, 1), 5], 4),
    ([(0, 1), None], 4),
    ([(0, 1), (0.5, 1)], 4),
    ([(0, 1), "ab"], 4),
]


@pytest.mark.parametrize("points, base", _BAD_POINTS)
@pytest.mark.parametrize("cls", [FiniteBody, CantorWitness, SupportSet])
def test_errors_match_the_tuple_reference(cls, points, base):
    if cls is SupportSet:
        base = None
    elif base is None:
        base = 4
    errors = []
    for make in (lambda: _make(cls, 2, base, points), lambda: RefPointSet(cls, 2, base, points)):
        try:
            make()
            errors.append(None)  # a support has no upper bound
        except (ValueError, TypeError) as exc:
            errors.append((type(exc), str(exc)))
    assert errors[0] == errors[1]
    assert errors[0] is not None or cls is SupportSet


def test_an_iterator_point_is_read_once():
    body = FiniteBody(2, 4, [(0, 1), iter([1, 2])])
    assert body.points == {(0, 1), (1, 2)}


# -- Light's associativity test ---------------------------------------------------


def _ref_validate(tab):
    """The message of the first group axiom the table breaks, as the
    full scan of every triple names it, or None."""
    n = len(tab)
    if any(tab[0][j] != j or tab[j][0] != j for j in range(n)):
        return "index 0 is not a two-sided identity"
    for a in range(n):
        if not any(tab[a][b] == 0 and tab[b][a] == 0 for b in range(n)):
            return f"element {a} has no two-sided inverse"
    for a, ra in enumerate(tab):
        for b, rb in enumerate(tab):
            for c in range(n):
                if tab[ra[b]][c] != ra[rb[c]]:
                    return f"associativity fails at ({a}, {b}, {c})"
    return None


def _validate(tab):
    try:
        FiniteGroup(len(tab), tab)
    except GroupTableError as exc:
        return str(exc)
    return None


def _associative(tab):
    return all(tab[tab[a][b]][c] == tab[a][tab[b][c]] for a, b, c in product(range(len(tab)), repeat=3))


_GROUPS = [g for g in builtin_catalog(12) if g.order >= 2]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(_GROUPS), st.data())
def test_light_test_agrees_with_the_full_scan(g, data):
    n = g.order
    rows = [list(row) for row in g.table]
    for _ in range(data.draw(st.integers(0, 2))):  # change entries off the identity's row and column
        a, b = data.draw(st.integers(1, n - 1)), data.draw(st.integers(1, n - 1))
        rows[a][b] = data.draw(st.integers(0, n - 1))
    tab = tuple(map(tuple, rows))
    assert _light_test(tab) is _associative(tab)
    assert _validate(tab) == _ref_validate(tab)


def test_a_changed_product_names_the_full_scans_first_triple():
    # Z3 with 1*1 = 0 in place of 2: every element still has an inverse
    tab = ((0, 1, 2), (1, 0, 0), (2, 0, 1))
    assert not _light_test(tab)
    with pytest.raises(NotAssociative) as info:
        FiniteGroup(3, tab)
    assert str(info.value) == _ref_validate(tab) == "associativity fails at (1, 1, 2)"
    assert info.value.triple == (1, 1, 2)
