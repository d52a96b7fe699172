import random
from fractions import Fraction

import pytest

from entrodim.core import LinearInequality, eval_slack, subsets
from entrodim.distributions import JointDistribution, exact_entropy_vector
from entrodim.dsl import (
    InequalityParseError,
    ZeroInequalityError,
    format_inequality,
    parse_inequality,
    parse_with_names,
)


def test_parse_basic_entropy_terms():
    ineq, names = parse_with_names("2 H(x,y,z) <= H(x,y) + H(x,z) + H(y,z)")
    assert names == ("x", "y", "z")
    assert ineq.m == 3
    assert ineq.coeffs == {
        3: Fraction(1),
        5: Fraction(1),
        6: Fraction(1),
        7: Fraction(-2),
    }


def test_parse_mutual_information():
    ineq = parse_inequality("I(x;y) >= 0")
    assert ineq.coeffs == {1: Fraction(1), 2: Fraction(1), 3: Fraction(-1)}


def test_parse_conditional_sugar():
    # H(y,z|x) <= H(y|x) + H(z|x) with an explicit variable order
    ineq = parse_inequality(
        "H(y,z|x) <= H(y|x) + H(z|x)", declared_vars=("x", "y", "z")
    )
    assert ineq.coeffs == {
        1: Fraction(-1),
        3: Fraction(1),
        5: Fraction(1),
        7: Fraction(-1),
    }
    # conditional mutual information expands to the four-term form
    a = parse_inequality("I(x;y|z) >= 0", declared_vars=("x", "y", "z"))
    assert a.coeffs == {
        4: Fraction(-1),
        5: Fraction(1),
        6: Fraction(1),
        7: Fraction(-1),
    }


def test_first_appearance_binding():
    text = "H(y,z|x) <= H(y|x) + H(z|x)"
    ineq, names = parse_with_names(text)
    assert names == ("y", "z", "x")
    # same text as test_parse_conditional_sugar but y,z,x get positions 1,2,3
    assert ineq.coeffs == {
        4: Fraction(-1),
        5: Fraction(1),
        6: Fraction(1),
        7: Fraction(-1),
    }


def test_rational_coefficients():
    ineq = parse_inequality("1/2 H(x) + 1/2 H(y) >= 1/2 H(x,y)")
    assert ineq.coeffs == {
        1: Fraction(1, 2),
        2: Fraction(1, 2),
        3: Fraction(-1, 2),
    }
    star = parse_inequality("3 * H(x) >= H(x)")
    assert star.coeffs == {1: Fraction(2)}


def test_zero_and_constant_terms():
    ineq = parse_inequality("0 <= I(x;y)")
    assert ineq.coeffs == {1: Fraction(1), 2: Fraction(1), 3: Fraction(-1)}
    with pytest.raises(InequalityParseError) as err:
        parse_inequality("H(x) >= 1")
    assert "constant" in str(err.value)


def test_parse_errors():
    with pytest.raises(ZeroInequalityError):
        parse_inequality("H(x) <= H(x)")
    with pytest.raises(InequalityParseError) as err:
        parse_inequality("H(x <= H(y)")
    assert err.value.position >= 0
    with pytest.raises(InequalityParseError):
        parse_inequality("H() >= 0")
    with pytest.raises(InequalityParseError):
        parse_inequality("H(x) >= 0 extra")
    with pytest.raises(InequalityParseError):
        parse_inequality("H(x) < H(y)")
    with pytest.raises(InequalityParseError):
        parse_inequality("H(x) >= H(q)", declared_vars=("x", "y"))
    with pytest.raises(InequalityParseError):
        parse_inequality("1/0 H(x) >= 0")
    with pytest.raises(InequalityParseError):
        parse_inequality("")


def test_format_examples():
    ineq = LinearInequality(2, {1: -1, 3: 1})
    assert format_inequality(ineq, ("x", "y")) == "1 H(x) <= 1 H(x,y)"
    eq1 = LinearInequality(3, {3: 1, 5: 1, 6: 1, 7: -2})
    assert (
        format_inequality(eq1, ("x", "y", "z"))
        == "2 H(x,y,z) <= 1 H(x,y) + 1 H(x,z) + 1 H(y,z)"
    )


def test_format_errors():
    ineq = LinearInequality(2, {1: -1, 3: 1})
    with pytest.raises(ValueError):
        format_inequality(ineq, ("x",))
    with pytest.raises(ValueError):
        format_inequality(ineq, ("x", "x"))


def test_round_trip_random():
    rng = random.Random(20260814)
    names = ("a", "b", "c", "d")
    for _ in range(200):
        m = rng.randint(1, 4)
        coeffs = {}
        for s in subsets(m):
            if rng.random() < 0.6:
                q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                if q:
                    coeffs[s] = q
        if not coeffs:
            coeffs = {1: Fraction(1)}
        ineq = LinearInequality(m, coeffs)
        text = format_inequality(ineq, names[:m])
        back = parse_inequality(text, declared_vars=names[:m])
        assert back == ineq


def _random_distribution(rng, m):
    npts = rng.randint(2, 6)
    pts = set()
    while len(pts) < npts:
        pts.add(tuple(rng.randrange(3) for _ in range(m)))
    weights = [rng.randint(1, 9) for _ in range(npts)]
    total = sum(weights)
    atoms = tuple(
        (p, Fraction(w, total)) for p, w in zip(sorted(pts), weights)
    )
    return JointDistribution(m, atoms)


def test_sugar_matches_direct_entropies():
    # I(x;y|z) >= 0 evaluated through the parser must equal the textbook
    # combination of marginal entropies on genuine distributions.
    rng = random.Random(5)
    ineq = parse_inequality("I(x;y|z) >= 0", declared_vars=("x", "y", "z"))
    for _ in range(40):
        d = _random_distribution(rng, 3)
        v = exact_entropy_vector(d)
        got = eval_slack(ineq, v)
        want = v[0b101] + v[0b110] - v[0b111] - v[0b100]
        assert (got - want).sign() == 0
        assert got.sign() >= 0
