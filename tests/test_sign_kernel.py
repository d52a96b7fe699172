"""The sign kernel `core.loglin_sign`, checked against the big-integer
product comparison it replaced, on near-ties of log2(3) and on exact
zeros whose logarithm arguments are not yet coprime."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from entrodim import core
from entrodim.core import ExactLogLin, loglin_sign
from entrodim.linear import MAX_PRODUCT_BITS


# -- the kernel loglin_sign replaced, kept verbatim as the reference ----------


def coprime_exponents(qs) -> list[int]:
    """Nonzero rationals times one positive factor, as coprime integers:
    the lcm of the denominators, divided by the gcd of the numerators."""
    qs = list(qs)
    q = math.lcm(*(x.denominator for x in qs))
    nums = [x.numerator * (q // x.denominator) for x in qs]
    div = math.gcd(*nums)
    return [e // div for e in nums]


class PastBudget(ArithmeticError):
    """The reference's products would exceed MAX_PRODUCT_BITS."""


def _guarded_pow(n: int, e: int) -> int:
    # upper bound on bits of n**e; exponentiation by squaring never
    # produces an intermediate larger than the final square
    if e * n.bit_length() > MAX_PRODUCT_BITS:
        raise PastBudget(
            f"{n}**{e} may exceed {MAX_PRODUCT_BITS} bits; refusing exact comparison"
        )
    return n**e


def _reference_sign(x: ExactLogLin) -> int:
    """Exact sign of an ExactLogLin value: -1, 0 or +1.

    The coefficients are scaled to coprime integer exponents e_i
    (coprime_exponents), and the products prod_{e_i>0} n_i**e_i and
    prod_{e_i<0} n_i**-e_i are compared as big integers.  The result is
    independent of the logarithm base.
    """
    if not x.terms:
        return 0
    exps = coprime_exponents(q for q, _ in x.terms)
    pos = neg = 1
    pos_bits = neg_bits = 0
    for e, (_, n) in zip(exps, x.terms):
        if e > 0:
            pos_bits += e * n.bit_length()
        else:
            neg_bits += -e * n.bit_length()
        if max(pos_bits, neg_bits) > MAX_PRODUCT_BITS:
            raise PastBudget(
                f"product comparison would exceed {MAX_PRODUCT_BITS} bits"
            )
        if e > 0:
            pos *= _guarded_pow(n, e)
        else:
            neg *= _guarded_pow(n, -e)
    if pos > neg:
        return 1
    if pos < neg:
        return -1
    return 0


# -- helpers ------------------------------------------------------------------


def _decimal_sign(x: ExactLogLin, digits: int = 300) -> int:
    """Sign of x from 300-digit decimal logarithms; only for values far
    above 10**-250 relative to their terms."""
    with localcontext() as ctx:
        ctx.prec = digits
        total = sum(Decimal(q.numerator) / q.denominator * Decimal(n).ln()
                    for q, n in x.terms)
    return (total > 0) - (total < 0)


def _log2_3_convergents(limit: int) -> list[tuple[int, int]]:
    """Continued-fraction convergents p/q of log2(3), q up to limit."""
    with localcontext() as ctx:
        ctx.prec = 300
        x = Fraction(Decimal(3).ln() / Decimal(2).ln())
    out = []
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = x.numerator // x.denominator
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if q1 > limit:
            return out
        out.append((p1, q1))
        x = 1 / (x - a)


def _near_tie(p: int, q: int) -> ExactLogLin:
    """p*log2(2) - q*log2(3), within 1/q of 0 for a convergent p/q."""
    return ExactLogLin.bits(p) - q * ExactLogLin.log2(3)


def _never(base):
    raise AssertionError(f"decimal intervals reached on {base}")


def _sign_of_zero(x: ExactLogLin) -> int:
    """loglin_sign(x) for an exact zero x, failing if it reaches the
    decimal intervals: they never exclude 0, so the zero test must
    decide x before them."""
    real, core._interval_sign = core._interval_sign, _never
    try:
        return loglin_sign(x)
    finally:
        core._interval_sign = real


# -- tests ----------------------------------------------------------------------


_coeffs = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))
_terms = st.lists(st.tuples(_coeffs, st.integers(1, 200)), max_size=6)


@st.composite
def _sums(draw):
    """Random sums, often with a product rewritten into its factors
    (log2(a*b) - log2(a) - log2(b) is an exact zero) to make ties."""
    x = ExactLogLin(tuple(draw(_terms)))
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.integers(2, 60)), draw(st.integers(2, 60))
        q = draw(_coeffs)
        log2 = ExactLogLin.log2
        x = x + q * (log2(a * b) - log2(a) - log2(b))
        if draw(st.booleans()):
            x = x + ExactLogLin(((q, a), (-q, b)))
    return x


@settings(max_examples=500, deadline=None)
@given(_sums())
def test_kernel_matches_reference_within_budget(x):
    try:
        want = _reference_sign(x)
    except PastBudget:
        assume(False)
    assert (_sign_of_zero if want == 0 else loglin_sign)(x) == want
    assert loglin_sign(-x) == -want
    assert loglin_sign(x * 7) == want


def test_near_ties_of_log2_3():
    ties = _log2_3_convergents(10**60)
    assert (19, 12) in ties and (1054, 665) in ties
    assert any(10**20 < q < 10**21 for _, q in ties)
    signs = []
    past_budget = 0
    for p, q in ties:
        x = _near_tie(p, q)
        want = _decimal_sign(x)
        signs.append(want)
        assert loglin_sign(x) == want
        assert loglin_sign(-x) == -want
        try:
            assert _reference_sign(x) == want
        except PastBudget:
            past_budget += 1
    assert past_budget >= 20
    # the convergents fall on alternate sides of log2(3), 1/1 below it
    assert signs == [(-1) ** (i + 1) for i in range(len(ties))]
    assert loglin_sign(_near_tie(19, 12)) == -1
    assert loglin_sign(_near_tie(1054, 665)) == -1


def test_tiny_coefficient_past_the_budget():
    x = ExactLogLin.log2(3) - Fraction(1, 2**30) * ExactLogLin.log2(5)
    with pytest.raises(PastBudget):
        _reference_sign(x)
    assert loglin_sign(x) == 1
    assert loglin_sign(-x) == -1


@pytest.mark.parametrize(
    "x",
    [
        ExactLogLin.log2(12) - ExactLogLin.log2(3) - ExactLogLin.bits(2),
        ExactLogLin.log2(6) + ExactLogLin.log2(10) - ExactLogLin.log2(15)
        - ExactLogLin.bits(2),
        ExactLogLin.bits(-1) - ExactLogLin.log2(4) + ExactLogLin.log2(8),
        ExactLogLin.log2(10**50) - 50 * ExactLogLin.log2(10),
        # coprime exponents 2**25 + 1 and 3**16: far past the product budget
        (2**25 + 1) * (ExactLogLin.log2(6) - ExactLogLin.log2(2) - ExactLogLin.log2(3))
        + 3**16 * (ExactLogLin.log2(10) - ExactLogLin.log2(2) - ExactLogLin.log2(5)),
    ],
)
def test_exact_zeros_on_unrefined_bases(x):
    assert x.terms  # the normalization alone does not see the zero
    assert _sign_of_zero(x) == 0
    assert loglin_sign(x + Fraction(1, 10**30) * ExactLogLin.log2(7)) == 1


def test_zero_test_is_not_fooled_by_tiny_nonzero():
    # 2**-60 * log2(3) next to an exact zero: the float sum cannot see it
    log2 = ExactLogLin.log2
    zero = log2(6) + log2(10) - log2(15) - ExactLogLin.bits(2)
    for k in (60, 200, 1000):
        eps = Fraction(1, 2**k) * ExactLogLin.log2(3)
        assert loglin_sign(zero * 2**40 + eps) == 1
        assert loglin_sign(zero * 2**40 - eps) == -1


@settings(max_examples=300, deadline=None)
@given(_sums())
def test_to_float_has_the_exact_sign(x):
    f = x.to_float()
    assert (f > 0) - (f < 0) == loglin_sign(x)
    assert (-x).to_float() == -f


def test_to_float_on_near_ties_of_log2_3():
    # from q of about 5*10**7 on, the float sum of p and q*log2(3) cancels
    for p, q in _log2_3_convergents(10**60):
        for x in (_near_tie(p, q), -_near_tie(p, q)):
            f = x.to_float()
            assert f != 0 and (f > 0) - (f < 0) == loglin_sign(x)
