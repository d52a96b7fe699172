import functools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from entrodim.cantor import uniform_fiber
from entrodim.core import EntropyVector, ExactLogLin, eval_slack, loglin_sign
from entrodim.dsl import format_inequality, parse_inequality
from entrodim.linear import (
    MAX_VARIABLES,
    LinearInequality,
    SizeLimitError,
    check_rational,
    mask_label,
    mask_of,
    mask_positions,
    subsets,
)
from entrodim.groups import cyclic, subgroup_from_elements, witness_set
from entrodim.points import PointSet, check_points
from entrodim.splitting import FLOAT_TOL, SplitSpec


def test_subsets_enumeration():
    assert subsets(1) == [1]
    assert subsets(2) == [1, 2, 3]
    assert len(subsets(3)) == 7
    assert subsets(3) == sorted(subsets(3))
    with pytest.raises(ValueError):
        subsets(0)
    with pytest.raises(ValueError):
        subsets(9)


def test_mask_helpers():
    assert mask_of([1, 3], 3) == 0b101
    assert mask_positions(0b101) == (1, 3)
    assert mask_positions(0) == ()
    for mask in subsets(4):
        assert mask_of(mask_positions(mask), 4) == mask
    assert mask_label(0b101) == "{1,3}"
    assert mask_label(0b011, ("x", "y", "z")) == "x,y"
    with pytest.raises(ValueError):
        mask_of([0], 2)
    with pytest.raises(ValueError):
        mask_of([3], m=2)


_BODY = PointSet(2, 2, [(0, 0), (1, 1)])
_TRIVIAL = subgroup_from_elements(cyclic(2), [0])


@pytest.mark.parametrize("site, message", [
    (lambda: subsets(9), "m must be in 1..8, got 9"),
    (lambda: LinearInequality(0, {1: 1}), "m must be in 1..8, got 0"),
    (lambda: check_points([], 9), "m must be in 1..8, got 9"),
    (lambda: witness_set(cyclic(2), [_TRIVIAL] * 9), "m must be in 1..8, got 9"),
    (lambda: SplitSpec(9, {1: 1}), "m must be in 1..8, got 9"),
    (lambda: SplitSpec.from_json({"m": 10**9, "levels": [{"part": [10**9], "bits": 1}]}),
     "m must be in 1..8, got 1000000000"),
    (lambda: LinearInequality(2, {4: 1}), "subset mask 4 out of range for m=2"),
    (lambda: SplitSpec(2, {0: 1}), "subset mask 0 out of range for m=2"),
    (lambda: _BODY.shadow(4), "subset mask 4 out of range for m=2"),
    (lambda: _BODY.fibers(-1), "subset mask -1 out of range for m=2"),
    (lambda: uniform_fiber(_BODY, 0), "subset mask 0 out of range for m=2"),
    (lambda: mask_of([10**9], 3), "variable position 1000000000 out of range"),
], ids=["subsets", "inequality-m", "check_points", "witness_set", "spec-m", "spec-json-m",
        "inequality-mask", "spec-mask", "shadow", "fibers", "uniform_fiber", "mask_of"])
def test_each_input_bound_is_checked_once_with_one_message(site, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        site()


def _reference_label(mask, names=None):
    """mask_label as it was written, with a join over mask_positions."""
    pos = mask_positions(mask)
    if names is None:
        return "{" + ",".join(str(p) for p in pos) + "}"
    return ",".join(names[p - 1] for p in pos)


def test_numbered_labels_match_the_reference_on_every_mask():
    for mask in range(1 << MAX_VARIABLES):
        assert mask_label(mask) == _reference_label(mask)
    for mask in (-1, 1 << MAX_VARIABLES, 1 << 64):
        with pytest.raises(ValueError):
            mask_label(mask)


_NAMED_CASE = st.integers(1, MAX_VARIABLES).flatmap(lambda m: st.tuples(
    st.lists(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True),
             min_size=m, max_size=m, unique=True).map(tuple),
    st.dictionaries(st.integers(1, (1 << m) - 1),
                    st.fractions(-9, 9, max_denominator=12).filter(bool), min_size=1),
))


@settings(max_examples=100, deadline=None)
@given(_NAMED_CASE)
def test_named_labels_and_rendering_read_one_table(case):
    names, coeffs = case
    m = len(names)
    for mask in range(1 << m):
        assert mask_label(mask, names) == _reference_label(mask, names)
    for mask in (-1, 1 << m):
        with pytest.raises(ValueError):
            mask_label(mask, names)
    q = LinearInequality(m, coeffs)
    assert parse_inequality(format_inequality(q, names), names) == q


def test_loglin_normalization():
    x = ExactLogLin(((Fraction(1), 1), (Fraction(2), 3), (Fraction(-2), 3)))
    assert x.terms == ()
    assert x == ExactLogLin.zero()
    y = ExactLogLin(((Fraction(1), 3), (Fraction(1, 2), 2), (Fraction(1), 3)))
    assert y.terms == ((Fraction(1, 2), 2), (Fraction(2), 3))
    with pytest.raises(ValueError):
        ExactLogLin(((Fraction(1), 0),))
    with pytest.raises(ValueError):
        ExactLogLin(((Fraction(1), -3),))


def test_loglin_sign_examples():
    # 2 log 3 - log 9 = 0, log 2 + log 3 - log 7 < 0, (3/2) log 4 - log 8 = 0
    assert loglin_sign(ExactLogLin(((Fraction(2), 3), (Fraction(-1), 9)))) == 0
    assert (
        loglin_sign(
            ExactLogLin(((Fraction(1), 2), (Fraction(1), 3), (Fraction(-1), 7)))
        )
        == -1
    )
    assert loglin_sign(ExactLogLin(((Fraction(3, 2), 4), (Fraction(-1), 8)))) == 0
    assert loglin_sign(ExactLogLin.zero()) == 0
    assert ExactLogLin.log2(3).sign() == 1
    assert (-ExactLogLin.log2(3)).sign() == -1


def test_loglin_arithmetic_and_str():
    x = ExactLogLin.log2(3) - ExactLogLin.bits(Fraction(1, 2))
    assert x.terms == ((Fraction(-1, 2), 2), (Fraction(1), 3))
    assert str(x) == "-1/2 + log2(3)"
    assert str(ExactLogLin.zero()) == "0"
    assert str(ExactLogLin.bits(-1) + Fraction(3, 4) * ExactLogLin.log2(4)) == (
        "-1 + 3/4*log2(4)"
    )
    assert abs(x.to_float() - (math.log2(3) - 0.5)) < 1e-12
    assert (x * 2 - x - x).sign() == 0
    assert ((x + x) - 2 * x).sign() == 0
    assert (x - x).terms == ()


def test_loglin_overflow_guard():
    # a large exponent is decided with no size budget
    huge = ExactLogLin(((Fraction(1 << 24), 3), (Fraction(-1), 2)))
    assert loglin_sign(huge) == 1
    assert issubclass(SizeLimitError, ArithmeticError)


def test_loglin_sign_divides_common_exponent_factor():
    # 10**8 * (log2(3) - log2(2)): the gcd of the exponents is divided
    # out before the size budget, so the comparison is 3 > 2
    x = ExactLogLin(((Fraction(10**8), 3), (Fraction(-(10**8)), 2)))
    assert loglin_sign(x) == 1
    assert loglin_sign(-x * Fraction(1, 7)) == -1


def test_loglin_sign_agrees_with_float():
    rng = random.Random(20260814)
    for _ in range(300):
        terms = tuple(
            (Fraction(rng.randint(-6, 6), rng.randint(1, 4)), rng.randint(2, 40))
            for _ in range(rng.randint(1, 5))
        )
        x = ExactLogLin(terms)
        approx = x.to_float()
        if abs(approx) > 1e-6:
            assert loglin_sign(x) == (1 if approx > 0 else -1)


def test_loglin_sign_power_invariance():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(2, 9)
        k = rng.randint(1, 5)
        q = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        other = ExactLogLin.log2(rng.randint(2, 50)) * Fraction(rng.randint(-3, 3))
        a = ExactLogLin(((q, n**k),)) + other
        b = ExactLogLin(((q * k, n),)) + other
        assert loglin_sign(a) == loglin_sign(b)


def test_entropy_vector_validation():
    bits = ExactLogLin.bits
    EntropyVector(2, {1: bits(1), 2: bits(1), 3: bits(2)})
    EntropyVector(2, {1: bits(0), 2: bits(0), 3: bits(0)})
    with pytest.raises(ValueError):
        EntropyVector(2, {1: bits(1), 2: bits(1)})  # missing {1,2}
    # 1054 - 665*log2(3) is about -6.3e-5: a tiny negative entropy
    tiny = bits(1054) - 665 * ExactLogLin.log2(3)
    with pytest.raises(ValueError):
        EntropyVector(2, {1: tiny, 2: bits(1), 3: bits(1)})
    with pytest.raises(ValueError):
        EntropyVector(1, {1: -ExactLogLin.log2(2)})
    with pytest.raises(ValueError):
        EntropyVector(1, {1: 1.0})  # floats are not entropies
    v = EntropyVector(1, {1: ExactLogLin.log2(4)})
    assert v[1].to_float() == 2.0


def test_linear_inequality_canonical():
    q = LinearInequality(2, {1: Fraction(0), 2: 1, 3: Fraction(-2)})
    assert q.coeffs == {2: Fraction(1), 3: Fraction(-2)}
    assert q.lhs_weights() == {3: Fraction(2)}
    assert q.rhs_weights() == {2: Fraction(1)}
    assert (q.den, dict(q.nums)) == (1, {2: 1, 3: -2})
    # equal values compare equal however they are written; scaled ones do not
    half = LinearInequality(2, {1: Fraction(1, 2), 3: -1})
    assert (half.den, dict(half.nums)) == (2, {1: 1, 3: -2})
    assert LinearInequality(2, {3: Fraction(-4, 4), 2: 0, 1: Fraction(2, 4)}) == half
    assert LinearInequality(2, {1: 1, 3: -2}) != half
    with pytest.raises(ValueError):
        LinearInequality(2, {1: Fraction(0)})
    with pytest.raises(ValueError):
        LinearInequality(2, {4: Fraction(1)})
    with pytest.raises(TypeError):
        LinearInequality(2, {1: 0.5})


def test_linear_inequality_hashes_as_it_compares():
    half = LinearInequality(2, {1: Fraction(1, 2)})
    same = LinearInequality(2, {2: 0, 1: Fraction(2, 4)})
    assert (same.den, dict(same.nums)) == (half.den, dict(half.nums)) == (2, {1: 1})
    assert same == half and hash(same) == hash(half)
    assert LinearInequality(2, {1: 1}) != half

    seen = {half: "half"}
    assert seen[same] == "half"
    assert LinearInequality(2, {1: 1}) not in seen

    @functools.cache
    def den_of(ineq):
        return ineq.den

    assert den_of(half) == 2 and den_of(same) == 2
    assert den_of.cache_info().hits == 1


def test_coefficients_and_entropies_are_read_only():
    q = LinearInequality(2, {1: 1, 3: -1})
    with pytest.raises(TypeError):
        q.coeffs[1] = Fraction(2)
    given = {1: ExactLogLin.log2(4)}
    v = EntropyVector(1, given)
    with pytest.raises(TypeError):
        v.values[1] = ExactLogLin.zero()
    given[1] = ExactLogLin.zero()  # the vector holds its own copy
    assert v[1] == ExactLogLin.log2(4)


def test_eval_slack_trivial_cases():
    # submodularity on two independent fair bits: equality
    sub = LinearInequality(2, {1: 1, 2: 1, 3: -1})
    bits2 = EntropyVector(
        2, {1: ExactLogLin.bits(1), 2: ExactLogLin.log2(2), 3: ExactLogLin.log2(4)}
    )
    assert eval_slack(sub, bits2).sign() == 0

    # 2H(123) <= H(12)+H(13)+H(23) on three independent fair bits: equality
    eq1 = LinearInequality(3, {3: 1, 5: 1, 6: 1, 7: -2})
    bits3 = EntropyVector(
        3, {mask: ExactLogLin.log2(2**mask.bit_count()) for mask in subsets(3)}
    )
    assert eval_slack(eq1, bits3).sign() == 0

    # same form on the Klein-four coset point: slack +2 bits exactly
    klein = EntropyVector(
        3,
        {
            mask: ExactLogLin.bits(v)
            for mask, v in zip(subsets(3), (1, 1, 2, 1, 2, 2, 2))
        },
    )
    slack = eval_slack(eq1, klein)
    assert isinstance(slack, ExactLogLin)
    assert slack.sign() == 1
    assert (slack - ExactLogLin.bits(2)).sign() == 0


def test_eval_slack_dimension_mismatch():
    sub = LinearInequality(2, {1: 1, 2: 1, 3: -1})
    v = EntropyVector(3, {s: ExactLogLin.bits(1) for s in subsets(3)})
    with pytest.raises(ValueError):
        eval_slack(sub, v)


def test_eval_slack_linearity():
    rng = random.Random(99)
    for _ in range(50):
        m = rng.randint(2, 3)
        coeffs = {s: Fraction(rng.randint(-3, 3)) for s in subsets(m)}
        if not any(coeffs.values()):
            coeffs[1] = Fraction(1)
        ineq = LinearInequality(m, coeffs)
        v1 = {s: ExactLogLin.log2(rng.randint(1, 16)) for s in subsets(m)}
        v2 = {s: ExactLogLin.log2(rng.randint(1, 16)) for s in subsets(m)}
        a = Fraction(rng.randint(0, 6), rng.randint(1, 3))
        b = Fraction(rng.randint(0, 6), rng.randint(1, 3))
        combo = EntropyVector(
            m, {s: a * v1[s] + b * v2[s] for s in subsets(m)}
        )
        s1 = eval_slack(ineq, EntropyVector(m, v1))
        s2 = eval_slack(ineq, EntropyVector(m, v2))
        assert (eval_slack(ineq, combo) - (a * s1 + b * s2)).sign() == 0


def test_float_tolerance_constant():
    assert type(FLOAT_TOL) is Fraction and FLOAT_TOL == Fraction(1, 10**9)


def test_check_rational_reads_numbers_and_rational_strings():
    for x in (2, -3, 0.25, math.inf, 10**400):
        assert check_rational(x, "bits") is x
    for text, want in (("7/3", Fraction(7, 3)), ("-2", Fraction(-2)), ("0.25", Fraction(1, 4)),
                       (" 1/3 ", Fraction(1, 3))):
        got = check_rational(text, "prob")
        assert type(got) is Fraction and got == want
    # an exponent part is refused before Fraction would build its power of ten
    for text in ("1e999999999", "1E-999999999", "2.5e3", "1/1e9"):
        with pytest.raises(ValueError, match=r"^prob .* has an exponent part"):
            check_rational(text, "prob")
    with pytest.raises(ValueError, match="Invalid literal"):
        check_rational("inf", "prob")
    for bad in (True, False, None, [1], Fraction(1, 3)):
        with pytest.raises(TypeError, match=r"^prob must be a number or a string"):
            check_rational(bad, "prob")
