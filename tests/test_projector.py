"""The projection kernel, a point's key `code & field(mask)`, checked
against the tuple projector of `tuple_projection` as the reference, and the routines
built on it checked against the comprehension-based versions they
replaced."""

import math
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from entrodim.cantor import CantorWitness, NonUniform, project, uniform_fiber
from entrodim.core import EntropyVector, ExactLogLin
from entrodim.distributions import JointDistribution, SupportSet, exact_entropy_vector
from entrodim.linear import mask_positions, subsets
from entrodim.splitting import FiniteBody, projection_count

from tuple_projection import projector, reference_proj

Point = tuple[int, ...]
Digits = tuple[int, ...]


# -- the code the kernel replaced, kept as the reference -------------------


def _reference_projection_count(body: FiniteBody, mask: int) -> int:
    """Number of distinct projections of the body onto the subset."""
    if not 0 < mask < (1 << body.m):
        raise ValueError(f"subset mask {mask} out of range for m={body.m}")
    return len({reference_proj(p, mask) for p in body.points})


def _reference_project(w: CantorWitness, subset: int) -> CantorWitness:
    """Projection onto the coordinates in `subset` (a new witness)."""
    pos = mask_positions(subset)
    if not pos or subset >= 1 << w.m:
        raise ValueError(f"subset mask {subset} out of range for m={w.m}")
    pts = frozenset(tuple(p[i - 1] for i in pos) for p in w.points)
    return CantorWitness(len(pos), w.base, pts)


def _reference_uniform_fiber(w: CantorWitness, subset: int):
    """Common fiber size of the projection, or NonUniform.

    Returns the integer f = #A / #A_I when every attained I-value has
    exactly f preimages; otherwise returns (not raises) NonUniform with
    the smallest I-value whose fiber size differs from #A / #A_I.
    """
    full = (1 << w.m) - 1
    if subset == full:
        raise ValueError("projection onto all coordinates is the identity")
    pos = mask_positions(subset)
    if not pos or subset > full:
        raise ValueError(f"subset mask {subset} out of range for m={w.m}")
    fibers: dict[Digits, int] = {}
    for p in w.points:
        key = tuple(p[i - 1] for i in pos)
        fibers[key] = fibers.get(key, 0) + 1
    target = Fraction(len(w.points), len(fibers))
    for key in sorted(fibers):
        if fibers[key] != target:
            return NonUniform(key)
    return int(target)


def _reference_indices(mask: int) -> tuple[int, ...]:
    return tuple(p - 1 for p in mask_positions(mask))


def _reference_marginal_entropy(d: JointDistribution, subset: int) -> float:
    """Entropy in bits of the projection of d onto the subset's coordinates."""
    if not 0 < subset < (1 << d.m):
        raise ValueError(f"subset mask {subset} out of range for m={d.m}")
    idx = _reference_indices(subset)
    marg: dict[Point, Fraction] = {}
    for point, prob in d.atoms:
        key = tuple(point[i] for i in idx)
        marg[key] = marg.get(key, Fraction(0)) + prob
    return -math.fsum(float(p) * math.log2(float(p)) for p in marg.values())


class NonUniformFibers(ValueError):
    """Some projection of the support has fibers of unequal size."""

    def __init__(self, subset: int):
        super().__init__(f"projection onto {subset} has non-uniform fibers")
        self.subset = subset


def _reference_exact_entropy_vector(s: SupportSet) -> EntropyVector:
    """Exact entropy vector of the uniform distribution on s.

    Requires every projection to have uniform fibers (each attained
    value hit by the same number of support points); the entropy of the
    projection onto I is then exactly log2(#s_I).  Raises
    NonUniformFibers naming the first bad subset otherwise.
    """
    values: dict[int, ExactLogLin] = {}
    for mask in subsets(s.m):
        idx = _reference_indices(mask)
        fibers = Counter(tuple(p[i] for i in idx) for p in s.points)
        sizes = set(fibers.values())
        if len(sizes) != 1:
            raise NonUniformFibers(mask)
        values[mask] = ExactLogLin.log2(len(fibers))
    return EntropyVector(s.m, values)


# -- strategies --------------------------------------------------------------


@st.composite
def _point_sets(draw):
    """(m, base, points): random sets, and products of coordinate sets
    (uniform fibers on every projection), so both fiber outcomes occur."""
    m = draw(st.integers(1, 5))
    base = draw(st.integers(2, 4))
    coord = st.integers(0, base - 1)
    if draw(st.booleans()):
        pts = draw(st.sets(st.tuples(*[coord] * m), min_size=1, max_size=30))
    else:
        axes = [draw(st.sets(coord, min_size=1, max_size=2)) for _ in range(m)]
        pts = set(product(*(sorted(a) for a in axes)))
    return m, base, frozenset(pts)


# -- tests ---------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.lists(st.tuples(*[st.integers(0, 9) | st.integers(0, 2**70)] * m),
                     min_size=1, max_size=8),
        )
    )
)
def test_projector_matches_positions(case):
    """Each point's key on a mask decodes to its tuple projection, and the
    shadow is the set of those keys."""
    m, points = case
    ps = SupportSet(m, points)
    by_code = {code: ps.decode(code) for code in ps.codes}
    assert set(by_code.values()) == set(points)
    for mask in subsets(m):
        get = projector(mask)
        keys = set()
        for code, p in by_code.items():
            got = get(p)
            assert type(got) is tuple
            assert got == tuple(p[i - 1] for i in mask_positions(mask))
            key = code & ps.field(mask)
            assert ps.decode(key, mask) == got
            keys.add(key)
        assert ps.shadow(mask) == frozenset(keys)


def test_projector_examples_and_empty_masks():
    ps = SupportSet(3, [(7, 8, 9)])
    (code,) = ps.codes
    for mask, want in ((0b010, (8,)), (0b101, (7, 9))):
        assert projector(mask)((7, 8, 9)) == want
        assert ps.decode(code & ps.field(mask), mask) == want
    for bad in (0, -1):
        with pytest.raises(ValueError):
            projector(bad)
    for bad in (0, -1, 0b1000):
        with pytest.raises(ValueError):
            ps.shadow(bad)
        with pytest.raises(ValueError):
            ps.fibers(bad)


@settings(max_examples=200, deadline=None)
@given(_point_sets())
def test_routines_match_their_references(case):
    m, base, pts = case
    body = FiniteBody(m, base, pts)
    w = CantorWitness(m, base, pts)
    full = (1 << m) - 1
    for mask in subsets(m):
        assert projection_count(body, mask) == _reference_projection_count(body, mask)
        assert project(w, mask) == _reference_project(w, mask)
        if mask != full:
            got = uniform_fiber(w, mask)
            assert got == _reference_uniform_fiber(w, mask)
            assert type(got) is type(_reference_uniform_fiber(w, mask))
    # on uniform fibers the entropies are log2 of the shadow sizes, term
    # for term; elsewhere they agree with the float sums
    support = SupportSet(m, pts)
    got = exact_entropy_vector(support)
    try:
        assert got == _reference_exact_entropy_vector(support)
    except NonUniformFibers:
        pass
    d = JointDistribution(m, tuple((p, Fraction(1, len(pts))) for p in pts))
    assert exact_entropy_vector(d) == got
    for mask in subsets(m):
        assert math.isclose(
            got[mask].to_float(), _reference_marginal_entropy(d, mask), abs_tol=1e-9
        )
