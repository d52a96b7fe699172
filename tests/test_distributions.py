import json
import math
import random
import re
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from entrodim.cli import main
from entrodim.core import ExactLogLin
from entrodim.distributions import (
    JointDistribution,
    SupportSet,
    exact_entropy_vector,
)
from entrodim.linear import subsets

from tuple_projection import projector

H_THIRD = 0.9182958340544896  # entropy of a (2/3, 1/3) split
LOG2_3 = 1.584962500721156


def _uniform(m, points) -> JointDistribution:
    """The uniform distribution on a set of points."""
    return JointDistribution(m, tuple((p, Fraction(1, len(points))) for p in points))


FAIR_PAIR = _uniform(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
COPY_PAIR = _uniform(2, [(0, 0), (1, 1)])
L_SHAPE = _uniform(2, [(0, 0), (0, 1), (1, 0)])
# the (2/3, 1/3) split, exactly: 2/3 log2(3/2) + 1/3 log2(3)
THIRD = ExactLogLin.log2(3) - ExactLogLin.bits(Fraction(2, 3))


def _float_entropy(d: JointDistribution, subset: int) -> float:
    """Entropy in bits of a marginal of d, summed in floats: the
    independent reference for the exact values."""
    get = projector(subset)
    marg: dict[tuple, Fraction] = {}
    for point, prob in d.atoms:
        key = get(point)
        marg[key] = marg.get(key, Fraction(0)) + prob
    return -math.fsum(float(p) * math.log2(float(p)) for p in marg.values())


def test_distribution_validation():
    JointDistribution(1, (((0,), Fraction(1, 2)), ((1,), Fraction(1, 2))))
    with pytest.raises(ValueError):
        JointDistribution(1, (((0,), Fraction(1, 2)), ((1,), Fraction(1, 4))))
    with pytest.raises(ValueError):
        JointDistribution(1, (((0,), Fraction(1, 2)), ((0,), Fraction(1, 2))))
    with pytest.raises(ValueError):
        JointDistribution(1, (((0,), Fraction(0)), ((1,), Fraction(1))))
    with pytest.raises(ValueError):
        JointDistribution(2, (((0,), Fraction(1)),))  # arity mismatch
    with pytest.raises(ValueError):
        JointDistribution(0, ())


def test_atoms_are_sorted():
    d = JointDistribution(
        1, (((1,), Fraction(1, 3)), ((0,), Fraction(2, 3)))
    )
    assert [a[0] for a in d.atoms] == [(0,), (1,)]


def test_json_round_trip():
    d = JointDistribution(
        2, (((0, 0), Fraction(1, 3)), ((1, 2), Fraction(2, 3)))
    )
    assert JointDistribution.from_json(d.to_json()) == d
    assert d.to_json()["atoms"][0]["prob"] == "1/3"

    s = SupportSet(2, frozenset({(0, 0), (1, 1)}))
    assert SupportSet.from_json(s.to_json()) == s
    assert s.to_json()["m"] == 2
    assert sorted(s.to_json()["support"]) == [[0, 0], [1, 1]]


def test_support_set_validation_and_conversion():
    with pytest.raises(ValueError):
        SupportSet(2, frozenset())
    with pytest.raises(ValueError):
        SupportSet(2, frozenset({(0,)}))
    assert SupportSet(2, [[0, 0], [0, 1], [1, 0]]).points == {(0, 0), (0, 1), (1, 0)}


def test_marginal_entropy_examples():
    # uniform marginals come out as log2 of their size, term for term
    assert exact_entropy_vector(FAIR_PAIR)[0b01] == ExactLogLin.log2(2)
    assert exact_entropy_vector(FAIR_PAIR)[0b11] == ExactLogLin.log2(4)
    assert exact_entropy_vector(COPY_PAIR)[0b11] == ExactLogLin.log2(2)
    assert exact_entropy_vector(L_SHAPE)[0b01] == THIRD
    skewed = JointDistribution(
        1, (((0,), Fraction(1, 2)), ((1,), Fraction(1, 4)), ((2,), Fraction(1, 4)))
    )
    h = exact_entropy_vector(skewed)[1]
    assert str(h) == "1/2 + 1/2*log2(4)"
    assert (h - ExactLogLin.bits(Fraction(3, 2))).sign() == 0


def test_entropy_vector_float_examples():
    v = exact_entropy_vector(FAIR_PAIR)
    assert [v[k].to_float() for k in subsets(2)] == pytest.approx([1.0, 1.0, 2.0])
    v = exact_entropy_vector(COPY_PAIR)
    assert [v[k].to_float() for k in subsets(2)] == pytest.approx([1.0, 1.0, 1.0])
    v = exact_entropy_vector(L_SHAPE)
    assert v[1].to_float() == pytest.approx(H_THIRD, abs=1e-15)
    assert v[2].to_float() == pytest.approx(H_THIRD, abs=1e-15)
    assert v[3].to_float() == pytest.approx(LOG2_3, abs=1e-15)


def test_exact_entropy_vector_examples():
    full = SupportSet(2, frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}))
    v = exact_entropy_vector(full)
    assert (v[1] - ExactLogLin.bits(1)).sign() == 0
    assert (v[3] - ExactLogLin.bits(2)).sign() == 0

    parity = SupportSet(
        3, frozenset({(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)})
    )
    v = exact_entropy_vector(parity)
    expected = dict(zip(subsets(3), (1, 1, 2, 1, 2, 2, 2)))
    for mask, bits in expected.items():
        assert (v[mask] - ExactLogLin.bits(bits)).sign() == 0


def test_exact_entropy_vector_nonuniform():
    s = SupportSet(2, frozenset({(0, 0), (0, 1), (1, 0)}))
    v = exact_entropy_vector(s)
    assert v[1] == v[2] == THIRD
    assert v[3] == ExactLogLin.log2(3)
    assert exact_entropy_vector(_uniform(2, sorted(s.points))) == v


def _random_distribution(rng, m):
    npts = rng.randint(2, 7)
    pts = set()
    while len(pts) < npts:
        pts.add(tuple(rng.randrange(3) for _ in range(m)))
    weights = [rng.randint(1, 9) for _ in range(npts)]
    total = sum(weights)
    return JointDistribution(
        m, tuple((p, Fraction(w, total)) for p, w in zip(sorted(pts), weights))
    )


def test_exact_matches_float_on_uniform_fiber_supports():
    cases = [
        SupportSet(2, frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})),
        SupportSet(3, frozenset({(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)})),
        SupportSet(2, frozenset({(0, 0), (1, 1), (2, 2)})),
        SupportSet(1, frozenset({(0,), (1,), (2,), (3,), (4,), (5,)})),
    ]
    for s in cases:
        exact = exact_entropy_vector(s)
        dist = _uniform(s.m, sorted(s.points))
        assert exact_entropy_vector(dist) == exact
        for mask in subsets(s.m):
            assert math.isclose(exact[mask].to_float(), _float_entropy(dist, mask),
                                abs_tol=1e-9)


def test_monotone_and_submodular_on_random_distributions():
    rng = random.Random(314159)
    for _ in range(40):
        m = rng.randint(2, 3)
        d = _random_distribution(rng, m)
        v = exact_entropy_vector(d)
        for i in subsets(m):
            assert math.isclose(v[i].to_float(), _float_entropy(d, i), abs_tol=1e-9)
            for j in subsets(m):
                if i & j == i:
                    assert (v[j] - v[i]).sign() >= 0
                if i & j:
                    assert (v[i] + v[j] - v[i | j] - v[i & j]).sign() >= 0


def test_duplicate_atoms_are_found_in_linear_time():
    n = 20_000
    atoms = [((i,), Fraction(1, n)) for i in range(n - 1)] + [((n - 2,), Fraction(1, n))]
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^duplicate point \(19998,\)$"):
        JointDistribution(1, tuple(atoms))
    assert time.perf_counter() - start < 1.0


def test_eval_refuses_a_repeated_atom_among_20000_in_one_error_line(capsys, tmp_path):
    n = 20_000
    atoms = [{"point": [p], "prob": f"1/{n}"} for p in [*range(n - 1), n - 2]]
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"m": 1, "atoms": atoms}))
    start = time.perf_counter()
    assert main(["eval", "--ineq", "H(x) >= 0", "--dist", str(path)]) == 1
    assert time.perf_counter() - start < 10.0
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: ValueError: duplicate point (19998,)\n")


def test_duplicate_message_names_the_first_repeated_point():
    a, b = (0, 1), (1, 0)
    atoms = tuple((p, Fraction(1, 4)) for p in (a, b, b, a))
    with pytest.raises(ValueError, match=re.escape("duplicate point (0, 1)")):
        JointDistribution(2, atoms)


def _tuple_entropy_vector(m, atoms) -> dict:
    """Exact marginal entropies summed over tuple projections of the
    atoms, with Fraction probabilities: the reference for the codes."""
    values = {}
    for mask in subsets(m):
        get = projector(mask)
        marg: Counter = Counter()
        for point, prob in atoms:
            marg[get(point)] += prob
        values[mask] = ExactLogLin(
            [t for p in marg.values() for t in ((p, p.denominator), (-p, p.numerator))]
        )
    return values


@st.composite
def _shuffled_atoms(draw):
    """m, and atoms in random order with random weights, whose coordinate
    i has largest value 2**bits[i] - 1, the bits distinct per coordinate
    and up to 996 (symbols below 10**300), so every field has its own
    width; small values make marginals merge."""
    m = draw(st.integers(1, 4))
    bits = draw(st.lists(st.integers(1, 996), min_size=m, max_size=m, unique=True))
    coords = st.tuples(*(st.integers(0, min(3, 2**b - 1)) | st.integers(0, 2**b - 1)
                         for b in bits))
    top = tuple(2**b - 1 for b in bits)
    points = [top, *draw(st.lists(coords, max_size=12))]
    points = list(dict.fromkeys(points))
    points = draw(st.permutations(points))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(points), max_size=len(points)))
    total = sum(weights)
    return m, [(p, Fraction(w, total)) for p, w in zip(points, weights)]


@settings(max_examples=150, deadline=None)
@given(_shuffled_atoms())
def test_marginals_on_codes_match_tuple_projections(case):
    m, atoms = case
    d = JointDistribution(m, tuple(atoms))
    assert len(set(d.support.widths)) == m
    assert [d.support.decode(c) for c in d.support.ordered()] == [p for p, _ in d.atoms]
    v = exact_entropy_vector(d)
    assert {mask: v[mask] for mask in subsets(m)} == _tuple_entropy_vector(m, atoms)
    points = [p for p, _ in atoms]
    uniform = JointDistribution(m, tuple((p, Fraction(1, len(points))) for p in points))
    assert exact_entropy_vector(uniform) == exact_entropy_vector(SupportSet(m, points))
