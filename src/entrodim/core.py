"""
Exact values that are rational combinations of logarithms.

An :class:`ExactLogLin` carries such a value symbolically, in bits
(base-2 logarithms); :func:`loglin_sign` decides its sign exactly, with
no size limit and never by floating point alone.  An
:class:`EntropyVector` holds the joint entropies of an m-tuple as such
values, and :func:`eval_slack` evaluates a linear inequality on one.
Subset masks follow the conventions of :mod:`entrodim.linear`.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from decimal import Decimal, localcontext
from fractions import Fraction
from types import MappingProxyType

from .linear import (LinearInequality, RationalLike, Record, _ratio, mask_label,
                     rational_text, subsets)


class ExactLogLin:
    """A formal sum sum_i q_i * log(n_i) with rational q_i and integer n_i >= 1.

    ExactLogLin(terms) takes (q, n) pairs, q an int or Fraction.  The
    value is held in integers: one denominator d > 0 and, per argument
    n > 1, one nonzero numerator a, sorted by n, so that q_n = a / d.  The
    form is canonical: arguments n = 1 and zero sums are dropped, equal n
    are merged, and d and the numerators have gcd 1, so == and hash
    compare formal sums.  ``terms`` gives the (Fraction, n) pairs.  The
    represented real number is rendered in bits (sum q_i * log2(n_i)) by
    :meth:`to_float`; its exact sign comes from :func:`loglin_sign`.
    """

    __slots__ = ("_den", "_nums")

    def __new__(cls, terms: Iterable[tuple[RationalLike, int]] = ()) -> "ExactLogLin":
        pairs = []
        for q, n in terms:
            if not isinstance(n, int) or n < 1:
                raise ValueError(f"log argument must be a positive integer, got {n!r}")
            pairs.append((n, *_ratio(q)))
        den = math.lcm(*(d for _, _, d in pairs))
        return cls._of_valid(den, [(n, a * (den // d)) for n, a, d in pairs])

    @classmethod
    def _of_valid(cls, den: int, pairs: Iterable[tuple[int, int]]) -> "ExactLogLin":
        """sum a * log(n) / den over (n, a) int pairs, n >= 1 and den > 0
        by construction, in canonical form: one merge and one gcd pass."""
        merged: dict[int, int] = {}
        for n, a in pairs:
            merged[n] = merged.get(n, 0) + a
        merged.pop(1, None)
        nums = sorted(item for item in merged.items() if item[1])
        g = math.gcd(den, *(a for _, a in nums))
        out = object.__new__(cls)
        out._den = den // g
        out._nums = tuple((n, a // g) for n, a in nums) if g > 1 else tuple(nums)
        return out

    @classmethod
    def combine(cls, scaled: Iterable[tuple[RationalLike, "ExactLogLin"]]) -> "ExactLogLin":
        """sum c * x over (c, x) pairs of rationals and values, normalized once."""
        parts = [(*_ratio(c), x) for c, x in scaled]
        den = math.lcm(*(d * x._den for _, d, x in parts))
        return cls._of_valid(den, [
            (n, a * c * (den // (d * x._den))) for c, d, x in parts for n, a in x._nums
        ])

    @classmethod
    def zero(cls) -> "ExactLogLin":
        return cls(())

    @classmethod
    def log2(cls, n: int) -> "ExactLogLin":
        """The value log2(n) bits."""
        return cls(((1, n),))

    @classmethod
    def bits(cls, q: RationalLike) -> "ExactLogLin":
        """An exact rational number of bits, encoded as q * log2(2)."""
        return cls(((q, 2),))

    @property
    def terms(self) -> tuple[tuple[Fraction, int], ...]:
        """The (q, n) pairs of the canonical form, sorted by n."""
        return tuple((Fraction(a, self._den), n) for n, a in self._nums)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        return hash((self._den, self._nums))

    def __repr__(self) -> str:
        return f"ExactLogLin(terms={self.terms!r})"

    def __add__(self, other: "ExactLogLin") -> "ExactLogLin":
        return ExactLogLin.combine(((1, self), (1, other)))

    def __neg__(self) -> "ExactLogLin":
        return ExactLogLin.combine(((-1, self),))

    def __sub__(self, other: "ExactLogLin") -> "ExactLogLin":
        return ExactLogLin.combine(((1, self), (-1, other)))

    def __mul__(self, scalar: RationalLike) -> "ExactLogLin":
        return ExactLogLin.combine(((scalar, self),))

    __rmul__ = __mul__

    def sign(self) -> int:
        return loglin_sign(self)

    def to_float(self) -> float:
        """Float rendering in bits with the sign of sign(): 0.0 for 0, ±inf
        past the float range; summed from decimal logarithms (_ln_sum) where
        a float sum overflows or has another sign.  Never raises."""
        s = loglin_sign(self)
        if not s:
            return 0.0
        try:
            x = math.fsum(a / self._den * math.log2(n) for n, a in self._nums)
        except (OverflowError, ValueError):  # a term or the sum past the float range
            x = math.nan
        if not 0 < x * s < math.inf:  # another sign, nan or infinite
            try:
                x = float(_ln_sum(self.terms, 1 << 60) / _ln_sum([(1, 2)], 1 << 60))
            except OverflowError:
                x = math.copysign(math.inf, s)
        return x

    def json_float(self) -> float | None:
        """to_float() for a report: None past the float range, as JSON has no infinity."""
        x = self.to_float()
        return x if math.isfinite(x) else None

    def to_json(self) -> dict:
        """The value's pair in a report: its exact text and json_float()."""
        return {"exact": str(self), "float": self.json_float()}

    def __str__(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        chunks = []
        for q, n in terms:
            mag = abs(q)
            if n == 2:
                body = rational_text(mag)
            elif mag == 1:
                body = f"log2({n})"
            else:
                body = f"{rational_text(mag)}*log2({n})"
            chunks.append(("-" if q < 0 else "+", body))
        head_sign, head = chunks[0]
        out = head if head_sign == "+" else "-" + head
        for s, body in chunks[1:]:
            out += f" {s} {body}"
        return out

@functools.lru_cache(maxsize=1 << 12)
def _log2_float(n: int) -> float:
    """log2(n) as a float, rounded once from a 40-digit decimal quotient."""
    with localcontext() as ctx:
        ctx.prec = 40
        return float(Decimal(n).ln() / Decimal(2).ln())


def _float_sign(den: int, nums) -> int:
    """The sign of sum a*log2(n)/den over (n, a) pairs when the float
    sum's error bound decides it, else 0 (see loglin_sign for the bound)."""
    try:
        qs = [a / den for _, a in nums]
        prods = [qf * _log2_float(n) for qf, (n, _) in zip(qs, nums)]
        s, a = math.fsum(prods), math.fsum(map(abs, prods))
    except (OverflowError, ValueError):  # past the float range
        return 0
    if min(map(abs, qs)) >= 2.0**-1022 and abs(s) > (abs(s) + a) * 2.0**-50:
        return 1 if s > 0 else -1
    return 0


def _coprime_base(pairs: Iterable[tuple[int, int]]) -> dict[int, int]:
    """sum e*log(n) over (n, e) pairs, rewritten on pairwise coprime
    bases > 1 by gcd factor refinement, as {base: exponent} with zero
    exponents dropped.

    A pair that shares g = gcd(a, b) > 1 with a kept base b is replaced
    by a/g, g and b/g, since a**x * b**y = (a/g)**x * g**(x+y) * (b/g)**y;
    the product of all bases drops by g, so the loop ends.
    """
    todo = list(pairs)
    done: dict[int, int] = {}
    while todo:
        a, x = todo.pop()
        if a == 1 or x == 0:
            continue
        for b in done:
            g = math.gcd(a, b)
            if g > 1:
                y = done.pop(b)
                todo += [(a // g, x), (g, x + y), (b // g, y)]
                break
        else:
            done[a] = x
    return done


def _ln_sum(terms: list[tuple[RationalLike, int]], rel: int) -> Fraction:
    """sum q*ln(n) over (q, n) terms whose true sum S is not 0, as a
    Fraction within |S|/rel of S, from decimal logarithms at doubling
    precision; with rel = 1 it has the sign of S.

    Decimal.ln is correctly rounded, so at p digits each computed ln(n)
    is within half a unit in its last digit of the true one, less than
    10**(1-p) times itself.  The computed terms t = q*ln(n) are summed
    exactly as Fractions, so S is within 10**(1-p) * sum |t| of that
    sum, and within |sum|/rel of it once the sum exceeds rel times that.
    """
    prec = 50
    while True:
        with localcontext() as ctx:
            ctx.prec = prec
            ts = [q * Fraction(Decimal(n).ln()) for q, n in terms]
        mid = sum(ts)
        if abs(mid) * 10 ** (prec - 1) > rel * sum(map(abs, ts)):
            return mid
        prec *= 2


def _interval_sign(base: dict[int, int]) -> int:
    """The sign of sum e*ln(b) over a nonempty coprime base, never 0."""
    return 1 if _ln_sum([(e, b) for b, e in base.items()], 1) > 0 else -1


def loglin_sign(x: ExactLogLin) -> int:
    """Exact sign of an ExactLogLin value: -1, 0 or +1, with no size limit.

    A single term has the sign of its coefficient.  Longer sums go
    through three stages, each exact in what it decides:

    1. A float filter (Shewchuk's adaptive-precision idea).  Each term
       becomes p = float(q) * L(n), where float(q) = a / d is the one
       int/int division of its numerator by the common denominator, and
       L(n) is log2(n) rounded to float from 40 correctly rounded
       decimal digits (cached per n).
       With u = 2**-53 and every float(q) in the normal range:
       float(q) is within u|q| (int/int division rounds once), L(n)
       within 2u*log2(n) (one rounding, plus 1e-39 from the decimals),
       and the product rounds once, so p is within 5u|p| of q*log2(n).
       math.fsum is within one unit in the last place, 2u|s|, of the
       exact sum of the p's, and A = fsum(|p|) within 2u of theirs.
       So the true value lies within 2u|s| + 5u(1+2u)A of s, which is
       below 2**-50*(|s|+A) = 8u(|s|+A) even after the one rounding of
       |s|+A, and when |s| exceeds that bound it has the sign of s.
       Coefficients outside the normal float range skip the filter.
    2. An exact zero test.  The numerators a, which are the
       coefficients times d > 0, are divided by their gcd into coprime
       integer exponents and the n are refined by
       gcds into pairwise coprime bases (_coprime_base; Bach, Driscoll
       and Shallit, "Factor refinement", 1993), with no factoring.
       Logarithms of pairwise coprime integers > 1 are linearly
       independent over the rationals, so the value is 0 iff every
       base exponent is 0.
    3. Otherwise the value is not 0, and decimal intervals of doubling
       precision (_interval_sign) reach its sign.

    The result is independent of the logarithm base.
    """
    nums = x._nums
    if not nums:
        return 0
    if len(nums) == 1:
        return 1 if nums[0][1] > 0 else -1
    sign = _float_sign(x._den, nums)
    if sign:
        return sign
    div = math.gcd(*(a for _, a in nums))
    base = _coprime_base((n, a // div) for n, a in nums)
    return _interval_sign(base) if base else 0


class EntropyVector(Record):
    """The 2**m - 1 joint entropies of an m-tuple, in bits, as
    nonnegative ExactLogLin values.

    Instances are immutable values; ``values`` is a read-only mapping.
    """

    _fields = ("m", "values")

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", MappingProxyType(dict(self.values)))
        expected = subsets(self.m)
        if set(self.values) != set(expected):
            raise ValueError(f"entropy vector needs exactly {len(expected)} entries")
        for mask, v in self.values.items():
            if not isinstance(v, ExactLogLin):
                raise ValueError("entropies must be ExactLogLin values")
            if loglin_sign(v) < 0:
                raise ValueError(f"negative entropy {v} at subset {mask_label(mask)}")

    def __getitem__(self, mask: int) -> ExactLogLin:
        return self.values[mask]


def eval_slack(ineq: LinearInequality, v: EntropyVector) -> ExactLogLin:
    """Signed slack sum_T c_T * v[T]; negative means v violates ineq."""
    if ineq.m != v.m:
        raise ValueError(
            f"dimension mismatch: inequality has m={ineq.m}, vector m={v.m}"
        )
    total = ExactLogLin.combine((a, v.values[mask]) for mask, a in ineq.nums.items())
    return ExactLogLin._of_valid(total._den * ineq.den, total._nums)
