"""The integer ExactLogLin (one denominator, one numerator per argument)
checked against the Fraction-per-term class it replaced, kept verbatim
below as the reference, with the entropy vectors, slacks and fiber
sizes computed from it."""

import math
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from entrodim.cantor import CantorWitness, NonUniform, uniform_fiber
from entrodim.core import (
    EntropyVector,
    ExactLogLin,
    _coprime_base,
    _interval_sign,
    _ln_sum,
    _log2_float,
    eval_slack,
)
from entrodim.distributions import JointDistribution, SupportSet, exact_entropy_vector
from entrodim.linear import LinearInequality, subsets

from tuple_projection import projector

# -- the Fraction-per-term class and its sign kernel, kept verbatim ------------

RationalLike = int | Fraction


def _as_fraction(q: RationalLike) -> Fraction:
    if isinstance(q, Fraction):
        return q
    if isinstance(q, int):
        return Fraction(q)
    raise TypeError(f"expected an exact rational, got {type(q).__name__}")


@dataclass(frozen=True)
class RefLogLin:
    """A formal sum sum_i q_i * log(n_i) with rational q_i and integer n_i >= 1.

    Terms are normalized on construction: arguments n = 1 are dropped,
    terms with equal n are merged, zero coefficients are dropped, and
    terms are sorted by n.  The represented real number is rendered in
    bits (sum q_i * log2(n_i)) by :meth:`to_float`; its exact sign comes
    from :func:`loglin_sign`.
    """

    terms: tuple[tuple[Fraction, int], ...]

    def __post_init__(self) -> None:
        merged: dict[int, Fraction] = {}
        for q, n in self.terms:
            if not isinstance(n, int) or n < 1:
                raise ValueError(f"log argument must be a positive integer, got {n!r}")
            q = _as_fraction(q)
            if n == 1 or q == 0:
                continue
            merged[n] = merged.get(n, Fraction(0)) + q
        norm = tuple((q, n) for n, q in sorted(merged.items()) if q != 0)
        object.__setattr__(self, "terms", norm)

    @classmethod
    def zero(cls) -> "RefLogLin":
        return cls(())

    @classmethod
    def log2(cls, n: int) -> "RefLogLin":
        """The value log2(n) bits."""
        return cls(((Fraction(1), n),))

    @classmethod
    def bits(cls, q: RationalLike) -> "RefLogLin":
        """An exact rational number of bits, encoded as q * log2(2)."""
        return cls(((_as_fraction(q), 2),))

    def __add__(self, other: "RefLogLin") -> "RefLogLin":
        return RefLogLin(self.terms + other.terms)

    def __neg__(self) -> "RefLogLin":
        return RefLogLin(tuple((-q, n) for q, n in self.terms))

    def __sub__(self, other: "RefLogLin") -> "RefLogLin":
        return self + (-other)

    def __mul__(self, scalar: RationalLike) -> "RefLogLin":
        s = _as_fraction(scalar)
        return RefLogLin(tuple((q * s, n) for q, n in self.terms))

    __rmul__ = __mul__

    def sign(self) -> int:
        return loglin_sign(self)

    def to_float(self) -> float:
        """Float rendering in bits with the sign of sign(), 0.0 for 0; summed
        from decimal logarithms (_ln_sum) where a float sum has another sign."""
        x = math.fsum(float(q) * math.log2(n) for q, n in self.terms)
        s = loglin_sign(self)
        if s and (x > 0) - (x < 0) != s:
            x = float(_ln_sum(self.terms, 1 << 60) / _ln_sum([(1, 2)], 1 << 60))
        return x if s else 0.0

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for q, n in self.terms:
            mag = abs(q)
            if n == 2:
                body = str(mag)
            elif mag == 1:
                body = f"log2({n})"
            else:
                body = f"{mag}*log2({n})"
            chunks.append(("-" if q < 0 else "+", body))
        head_sign, head = chunks[0]
        out = head if head_sign == "+" else "-" + head
        for s, body in chunks[1:]:
            out += f" {s} {body}"
        return out


def _float_sign(terms) -> int:
    """The sign of sum q*log2(n) when the float sum's error bound
    decides it, else 0 (see loglin_sign for the bound)."""
    try:
        qs = [float(q) for q, _ in terms]
        prods = [qf * _log2_float(n) for qf, (_, n) in zip(qs, terms)]
        s, a = math.fsum(prods), math.fsum(map(abs, prods))
    except (OverflowError, ValueError):  # past the float range
        return 0
    if min(map(abs, qs)) >= 2.0**-1022 and abs(s) > (abs(s) + a) * 2.0**-50:
        return 1 if s > 0 else -1
    return 0


def coprime_exponents(qs) -> list[int]:
    """Nonzero rationals times one positive factor, as coprime integers:
    the lcm of the denominators, divided by the gcd of the numerators."""
    qs = list(qs)
    q = math.lcm(*(x.denominator for x in qs))
    nums = [x.numerator * (q // x.denominator) for x in qs]
    div = math.gcd(*nums)
    return [e // div for e in nums]


def loglin_sign(x: RefLogLin) -> int:
    terms = x.terms
    if not terms:
        return 0
    if len(terms) == 1:
        return 1 if terms[0][0] > 0 else -1
    sign = _float_sign(terms)
    if sign:
        return sign
    exps = coprime_exponents(q for q, _ in terms)
    base = _coprime_base(zip((n for _, n in terms), exps))
    return _interval_sign(base) if base else 0


# -- the computations built on it, kept verbatim -----------------------------


def _ref_eval_slack(ineq: LinearInequality, v: dict) -> RefLogLin:
    total = RefLogLin.zero()
    for mask, c in ineq.coeffs.items():
        total = total + v[mask] * c
    return total


def _ref_entropy(probs) -> RefLogLin:
    terms = []
    for p, k in probs.items():
        terms += [(k * p, p.denominator), (-k * p, p.numerator)]
    return RefLogLin(tuple(terms))


def _ref_entropy_vector(dist) -> dict:
    values = {}
    for mask in subsets(dist.m):
        if isinstance(dist, SupportSet):
            counts = Counter(dist.fibers(mask).values())
            probs = {Fraction(c, len(dist.points)): k for c, k in counts.items()}
        else:
            get = projector(mask)
            marg: Counter = Counter()
            for point, prob in dist.atoms:
                marg[get(point)] += prob
            probs = Counter(marg.values())
        values[mask] = _ref_entropy(probs)
    return values


def _ref_uniform_fiber(w: CantorWitness, subset: int):
    fibers = Counter(map(projector(subset), w.points))
    target = Fraction(len(w.points), len(fibers))
    for key in sorted(fibers):
        if fibers[key] != target:
            return NonUniform(key)
    return int(target)


# -- strategies ---------------------------------------------------------------

_big = st.integers(-(2**80), 2**80)
_coeffs = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12)),
    _big,
    st.builds(Fraction, _big, st.integers(1, 2**80)),
)
# a small pool of arguments makes repeats, n = 1 and shared factors common
_args = st.one_of(st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12, 18]), st.integers(1, 2**70))
_terms = st.lists(st.tuples(_coeffs, _args), max_size=7)


def _same(x: ExactLogLin, ref: RefLogLin) -> None:
    assert x.terms == ref.terms
    assert str(x) == str(ref)
    assert hash(x) == hash(ExactLogLin(ref.terms))  # the same value, built anew
    assert x.sign() == ref.sign()
    assert x.to_float() == ref.to_float()


# -- tests ----------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(_terms, _terms, _coeffs)
def test_values_and_operations_match_the_fraction_class(a, b, c):
    x, y, rx, ry = ExactLogLin(a), ExactLogLin(b), RefLogLin(a), RefLogLin(b)
    _same(x, rx)
    _same(x + y, rx + ry)
    _same(x - y, rx - ry)
    _same(-x, -rx)
    _same(x * 0, rx * 0)
    _same(x * c, rx * c)
    _same(c * y, c * ry)
    _same(x * Fraction(-3, 7), rx * Fraction(-3, 7))
    assert (x == y) == (rx == ry)
    assert (x == 2 * x) == (rx == 2 * rx)
    assert (x - y == ExactLogLin.zero()) == (rx - ry == RefLogLin.zero())
    assert x + y - y == x


@settings(max_examples=100, deadline=None)
@given(_terms, st.integers(1, 4), st.sampled_from([2, 6, 10**30]))
def test_equal_sums_are_equal_values(a, parts, k):
    # the same sum, with every coefficient split over several terms, or
    # scaled by k and back, is one canonical value
    split = [(Fraction(q) / parts, n) for q, n in a for _ in range(parts)]
    assert ExactLogLin(split) == ExactLogLin(a)
    assert hash(ExactLogLin(split)) == hash(ExactLogLin(a))
    assert ExactLogLin(a) * k * Fraction(1, k) == ExactLogLin(a)


def test_constructor_errors_match_the_fraction_class():
    for bad, error in [(((1, 0),), ValueError), (((1, -3),), ValueError),
                       (((1, 2.0),), ValueError), (((0.5, 2),), TypeError),
                       (((0.0, 1),), TypeError), ((("1", 3),), TypeError)]:
        for cls in (ExactLogLin, RefLogLin):
            with pytest.raises(error):
                cls(bad)
    with pytest.raises(TypeError):
        ExactLogLin.log2(3) * 0.5
    x = ExactLogLin(((Fraction(1, 2), 2),))
    assert repr(x) == "ExactLogLin(terms=((Fraction(1, 2), 2),))"
    assert x != ExactLogLin.bits(1) and x != RefLogLin(((Fraction(1, 2), 2),))


_entropies = st.lists(_args.map(lambda n: n % 10**6 + 1), min_size=7, max_size=7)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.data())
def test_eval_slack_matches_the_fraction_class(m, data):
    masks = subsets(m)
    coeffs = {s: data.draw(_coeffs) for s in masks}
    if not any(coeffs.values()):
        coeffs[1] = Fraction(1)
    ineq = LinearInequality(m, coeffs)
    # each entropy a nonnegative sum: a log plus a rational number of bits
    logs = data.draw(_entropies)
    bits = data.draw(st.lists(st.builds(Fraction, st.integers(0, 2**70),
                                        st.integers(1, 2**70)), min_size=7, max_size=7))
    v = {s: ExactLogLin(((1, logs[i]), (bits[i], 2))) for i, s in enumerate(masks)}
    ref = {s: RefLogLin(((1, logs[i]), (bits[i], 2))) for i, s in enumerate(masks)}
    _same(eval_slack(ineq, EntropyVector(m, v)), _ref_eval_slack(ineq, ref))


_points = st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)),
                  min_size=1, max_size=24)


@settings(max_examples=150, deadline=None)
@given(_points)
def test_support_entropy_vectors_match_the_fraction_class(points):
    support = SupportSet(3, points)
    got = exact_entropy_vector(support)
    for mask, ref in _ref_entropy_vector(SupportSet(3, points)).items():
        _same(got[mask], ref)


@settings(max_examples=150, deadline=None)
@given(_points, st.lists(st.integers(1, 2**66), min_size=24, max_size=24))
def test_distribution_entropy_vectors_match_the_fraction_class(points, weights):
    pts = sorted(points)
    total = sum(weights[: len(pts)])
    dist = JointDistribution(3, tuple((p, Fraction(w, total)) for p, w in zip(pts, weights)))
    got = exact_entropy_vector(dist)
    for mask, ref in _ref_entropy_vector(dist).items():
        _same(got[mask], ref)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(2, 2), (3, 2), (2, 3), (3, 3)]), st.data())
def test_uniform_fibers_match_the_fraction_rule(shape, data):
    m, base = shape
    cube = list(product(range(base), repeat=m))
    if data.draw(st.booleans()):  # a product set: every fiber uniform
        cols = [data.draw(st.sets(st.integers(0, base - 1), min_size=1)) for _ in range(m)]
        points = set(product(*cols))
    else:
        points = data.draw(st.sets(st.sampled_from(cube), min_size=1))
    w = CantorWitness(m, base, points)
    for mask in subsets(m)[:-1]:
        assert uniform_fiber(w, mask) == _ref_uniform_fiber(w, mask)


def test_uniform_fiber_reports_the_smallest_bad_key():
    # fibers over x: 0 -> 2 points, 1 -> 1 point, 2 -> 1 point; 4/3 is no
    # integer, so every key differs from it and the smallest is reported
    w = CantorWitness(2, 3, {(0, 0), (0, 1), (1, 2), (2, 0)})
    assert uniform_fiber(w, 0b01) == _ref_uniform_fiber(w, 0b01) == NonUniform((0,))
    # 4/2 = 2 points per key, but key (1,) has 3 and key (2,) has 1
    w = CantorWitness(2, 3, {(1, 0), (1, 1), (1, 2), (2, 0)})
    assert uniform_fiber(w, 0b01) == _ref_uniform_fiber(w, 0b01) == NonUniform((1,))


@pytest.mark.parametrize("terms, want", [
    ([(10**400, 2)], math.inf),
    ([(-(10**400), 3)], -math.inf),
    ([(10**400, 4), (-2 * 10**400, 2)], 0.0),  # zero, with coefficients past the float range
    ([(10**400, 3), (-(10**400), 2)], math.inf),
    ([(Fraction(10**400, 10**400 - 1), 2)], 1.0),  # a large fraction, a small value
    ([(Fraction(1, 10**400), 2)], 0.0),  # below the float range: a positive 0.0
])
def test_to_float_never_raises(terms, want):
    x = ExactLogLin(terms)
    assert x.to_float() == want
    assert math.copysign(1, x.to_float()) == (x.sign() or 1)
    assert x.json_float() == (want if math.isfinite(want) else None)


def test_to_float_of_a_small_sum_of_terms_past_the_float_range():
    # a*log2(3) - b, b the integer part of a*log2(3): each term is past the
    # float range, the sum is in (0, 1)
    a = 10**400
    with localcontext() as ctx:
        ctx.prec = 500
        b = int(Decimal(a) * Decimal(3).ln() / Decimal(2).ln())
    x = ExactLogLin([(a, 3), (-b, 2)])
    assert 0 < x.to_float() < 1
    assert x.json_float() == x.to_float()
