"""
Exact building blocks for linear entropy inequalities.

Conventions used throughout the package:

* A collection of m variables is indexed by positions 1..m.  A nonempty
  subset of positions is a *bitmask*: position i corresponds to bit i-1,
  so masks run over 1 .. 2**m - 1 and "ascending bitmask order" is plain
  integer order.  E.g. for variables (x, y, z) the mask 0b101 = 5 means
  the pair {x, z}.
* All entropies and slacks are measured in bits (base-2 logarithms).
* Exact values that are rational combinations of logarithms are carried
  symbolically by :class:`ExactLogLin`; their signs are decided exactly
  by :func:`loglin_sign`, with no size limit and never by floating
  point alone.
* Finite sets of m-tuples (bodies, digit sets, supports) are
  :class:`PointSet` values: validated once and held as one int per
  point, with their shadows (the keys of the points on a subset mask)
  and fiber counts cached per mask.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import repeat
from operator import and_, itemgetter, lshift, or_, rshift
from types import MappingProxyType
from typing import Callable, ClassVar, Iterable, Mapping, Union

MAX_VARIABLES = 8

#: refuse a simplex tableau whose entries may exceed this many bits
MAX_PRODUCT_BITS = 1 << 24

RationalLike = Union[int, Fraction]


class SizeLimitError(ArithmeticError):
    """An exact computation would exceed the configured bit-size budget."""


def check_int(x, field: str) -> int:
    """x when it is an int, not a bool; else a TypeError naming field."""
    if type(x) is not int:
        raise TypeError(f"{field} must be an integer, got {x!r}")
    return x


def check_rational(x, field: str) -> int | float | Fraction:
    """A number in an input file: x when it is an int or a float, not a
    bool, or the exact Fraction a string such as "7/3", "-2" or "0.25"
    names.  A string with an exponent part ("1e999999999") is a
    ValueError, as its value could need any number of digits; any other
    type is a TypeError naming field."""
    if isinstance(x, str):
        if "e" in x or "E" in x:
            raise ValueError(f"{field} {x!r} has an exponent part; write it as p/q or a decimal")
        return Fraction(x)
    if type(x) is not int and type(x) is not float:
        raise TypeError(f"{field} must be a number or a string such as \"7/3\", got {x!r}")
    return x


def subsets(m: int) -> list[int]:
    """All 2**m - 1 nonempty subset masks of {1..m}, ascending."""
    if not 1 <= m <= MAX_VARIABLES:
        raise ValueError(f"variable count must be in 1..{MAX_VARIABLES}, got {m}")
    return list(range(1, 1 << m))


def mask_of(positions: Iterable[int], m: int | None = None) -> int:
    """Bitmask for a collection of 1-based variable positions."""
    mask = 0
    for p in positions:
        if p < 1 or (m is not None and p > m):
            raise ValueError(f"variable position {p} out of range")
        mask |= 1 << (p - 1)
    return mask


def mask_positions(mask: int) -> tuple[int, ...]:
    """1-based variable positions present in a subset mask, ascending."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


@functools.lru_cache(maxsize=1 << MAX_VARIABLES)
def projector(mask: int) -> Callable[[tuple], tuple]:
    """The projection of a point tuple onto the positions in a subset mask.

    The 0-based indices are worked out once per mask, and the getter is
    shared by every caller; it is an operator.itemgetter and always
    yields a tuple.  For a one-coordinate mask it slices, where a bare
    itemgetter(i) would return the scalar.
    """
    if mask <= 0:
        raise ValueError(f"subset mask {mask} is not a nonempty subset")
    idx = [p - 1 for p in mask_positions(mask)]
    if len(idx) == 1:
        return itemgetter(slice(idx[0], idx[0] + 1))
    return itemgetter(*idx)


def mask_label(mask: int, names: tuple[str, ...] | None = None) -> str:
    """Human-readable subset label, e.g. "{1,3}" or "x,z" with names."""
    pos = mask_positions(mask)
    if names is None:
        return "{" + ",".join(str(p) for p in pos) + "}"
    return ",".join(names[p - 1] for p in pos)


def _ratio(q: RationalLike) -> tuple[int, int]:
    """The numerator and positive denominator of an int or Fraction."""
    if isinstance(q, (int, Fraction)):
        return q.numerator, q.denominator
    raise TypeError(f"expected an exact rational, got {type(q).__name__}")


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
        return hash((self.terms,))

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
        """Float rendering in bits with the sign of sign(), 0.0 for 0; summed
        from decimal logarithms (_ln_sum) where a float sum has another sign."""
        x = math.fsum(a / self._den * math.log2(n) for n, a in self._nums)
        s = loglin_sign(self)
        if s and (x > 0) - (x < 0) != s:
            x = float(_ln_sum(self.terms, 1 << 60) / _ln_sum([(1, 2)], 1 << 60))
        return x if s else 0.0

    def __str__(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        chunks = []
        for q, n in terms:
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


def common_denominator(qs: Iterable[RationalLike]) -> tuple[list[int], int]:
    """Integers w and q > 0, the lcm of the denominators, with qs[i] = w[i] / q;
    TypeError for a value that is not an int or Fraction."""
    pairs = [_ratio(x) for x in qs]
    q = math.lcm(*(d for _, d in pairs))
    return [a * (q // d) for a, d in pairs], q


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


@dataclass(frozen=True)
class EntropyVector:
    """The 2**m - 1 joint entropies of an m-tuple, in bits, as
    nonnegative ExactLogLin values.

    Instances are immutable values; ``values`` is a read-only mapping.
    """

    m: int
    values: Mapping[int, ExactLogLin]

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


@dataclass(frozen=True, init=False)
class LinearInequality:
    """A linear entropy inequality in canonical "sum_T c_T H(T) >= 0" form.

    The coefficients, given as ints or Fractions keyed by subset mask,
    are held in integers: c_T = nums[T] / den, with den > 0, ``nums`` a
    read-only map of the nonzero numerators by ascending mask, and
    gcd(den, *nums) = 1, so == compares values.  ``coeffs`` is the same
    map as Fractions.  The familiar two-sided reading splits the
    coefficients by sign: subsets with negative coefficient form the
    left-hand family (weights lhs_weights), positive ones the right-hand
    family (rhs_weights), and the inequality asserts

        sum_I lhs[I] * H(I)  <=  sum_J rhs[J] * H(J).
    """

    m: int
    den: int
    nums: Mapping[int, int]

    def __init__(self, m: int, coeffs: Mapping[int, RationalLike]) -> None:
        valid = set(subsets(m))
        items = sorted(coeffs.items())
        for mask, _ in items:
            if mask not in valid:
                raise ValueError(f"subset mask {mask} out of range for m={m}")
        # canonical as it comes: for a prime p of den, the coefficient a/d,
        # in lowest terms, whose d holds the highest power of p has p
        # dividing neither a nor den/d, so not its numerator a*den/d
        nums, den = common_denominator(c for _, c in items)
        held = {mask: a for (mask, _), a in zip(items, nums) if a}
        if not held:
            raise ValueError("inequality has no nonzero coefficient")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", MappingProxyType(held))

    @functools.cached_property
    def coeffs(self) -> Mapping[int, Fraction]:
        """The nonzero coefficients nums[T] / den as a read-only map."""
        return MappingProxyType({mask: Fraction(a, self.den) for mask, a in self.nums.items()})

    def lhs_weights(self) -> dict[int, Fraction]:
        """Positive weights of the "<=" side (negated negative coefficients)."""
        return {mask: -c for mask, c in self.coeffs.items() if c < 0}

    def rhs_weights(self) -> dict[int, Fraction]:
        """Positive weights of the ">=" side."""
        return {mask: c for mask, c in self.coeffs.items() if c > 0}


def eval_slack(ineq: LinearInequality, v: EntropyVector) -> ExactLogLin:
    """Signed slack sum_T c_T * v[T]; negative means v violates ineq."""
    if ineq.m != v.m:
        raise ValueError(
            f"dimension mismatch: inequality has m={ineq.m}, vector m={v.m}"
        )
    total = ExactLogLin.combine((a, v.values[mask]) for mask, a in ineq.nums.items())
    return ExactLogLin._of_valid(total._den * ineq.den, total._nums)


@functools.lru_cache(maxsize=1 << 12)
def _fields(widths: tuple[int, ...], mask: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """In a layout of fields of these widths, coordinate 1 highest: the
    (shift, all-ones value) of the field of each position of mask,
    ascending, and the OR of those fields."""
    fields = tuple(
        (sum(widths[i + 1:]), (1 << w) - 1) for i, w in enumerate(widths) if mask >> i & 1
    )
    return fields, sum(ones << s for s, ones in fields)


def pack_columns(cols, widths) -> frozenset[int]:
    """One int per row of the coordinate columns: coordinate i in a field
    of widths[i] bits, coordinate 1 in the highest field, so that int
    order is the rows' tuple order.  Every value must fit its field."""
    codes = cols[0]
    for col, w in zip(cols[1:], widths[1:]):
        codes = map(or_, map(lshift, codes, repeat(w)), col)
    return frozenset(codes)


def check_points(
    points: Iterable, m: int, base: int | None = None, noun: str = "coordinate"
) -> tuple[frozenset[int], tuple[int, ...]]:
    """The points as one int per point (pack_columns) and the field width
    of each coordinate, the bit length of its largest value; points must
    be m-tuples of nonnegative ints (bools and other int subclasses are
    refused), each below base unless base is None, else ValueError
    naming the first bad point or coordinate.

    A frozenset of tuples is read as it is.  Any other input is checked
    point by point before it is packed, as True == 1 would merge (True,
    0) into (1, 0).  `noun` names a coordinate in the messages.
    """
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
    if not points:
        return frozenset(), (0,) * m
    cols = list(zip(*points))
    widths = tuple(max(col).bit_length() for col in cols)
    return pack_columns(cols, widths), widths


class PointSet:
    """A nonempty finite set of m-tuples of nonnegative integers, each
    below ``base`` (no upper bound when base is None).

    The points are validated once, by check_points, and held as one int
    per point, ``codes``: coordinate i in a field of ``widths[i]`` bits,
    the bit length of the largest value in that coordinate, with
    coordinate 1 highest, so int order is tuple order.  The key of a
    point on a subset mask is its code AND field(mask).  Shadows (the
    sets of keys on a mask) and fiber counts (keys to how many points
    have them) are cached per mask: a shadow is worked out from the
    smallest cached shadow of a superset mask, fiber counts from the
    codes.  The codes are sorted once, on first use, and the
    order is kept too.  Tuples are made only by ``points``, decode and
    rows; the codes, ``==`` and hash never need them.  Instances are
    immutable values: shadows are frozensets, fiber counts are
    read-only mappings and the order is a tuple.  Subclasses set their
    base rule and the words used in error messages.
    """

    noun: ClassVar[str] = "coordinate"
    empty: ClassVar[str] = "empty point set"

    def __init__(self, m: int, base: int | None, points) -> None:
        self.m, self.base = m, base
        self._check_base()
        codes, widths = check_points(points, m, base, self.noun)
        if not codes:
            raise ValueError(self.empty)
        self._hold(codes, widths)
        if isinstance(points, frozenset) and set(map(type, points)) == {tuple}:
            self._points = points  # the same tuples: keep them, decode nothing

    def _hold(self, codes: frozenset[int], widths: tuple[int, ...]) -> None:
        """Keep valid codes, with empty caches but for the full mask,
        whose shadow is the codes themselves."""
        self.codes, self.widths = codes, widths
        self._shadows = {(1 << self.m) - 1: codes}
        self._fibers: dict = {}
        self._order: tuple | None = None
        self._points: frozenset | None = None

    @classmethod
    def _of_valid(
        cls, m: int, base: int | None, codes: frozenset[int], widths: tuple[int, ...]
    ) -> "PointSet":
        """A point set on codes that are valid by construction (a
        projection, or points the package generates), kept without a
        second check; each width must be the bit length of the largest
        value in its coordinate, as check_points makes it."""
        out = object.__new__(cls)
        out.m, out.base = m, base
        out._hold(codes, widths)
        return out

    def _check_base(self) -> None:
        if self.base is not None and self.base < 1:
            raise ValueError("base must be positive")

    def _check_mask(self, mask: int) -> None:
        if not 0 < mask < 1 << self.m:
            raise ValueError(f"subset mask {mask} out of range for m={self.m}")

    def __len__(self) -> int:
        return len(self.codes)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.m, self.base, self.widths, self.codes) == (
            other.m, other.base, other.widths, other.codes)

    def __hash__(self) -> int:
        return hash((self.m, self.base, self.widths, self.codes))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(m={self.m}, base={self.base}, points={self.points!r})"

    def field(self, mask: int) -> int:
        """The int whose AND with a point's code is its key on mask."""
        return _fields(self.widths, mask)[1]

    def decode(self, key: int, mask: int | None = None) -> tuple[int, ...]:
        """The coordinates on mask (all m by default) of a code or key."""
        fields, _ = _fields(self.widths, (1 << self.m) - 1 if mask is None else mask)
        return tuple(key >> s & ones for s, ones in fields)

    def _columns(self, keys, mask: int) -> list:
        """Per position of mask, the iterator of its coordinate over keys
        (a collection, read once per position)."""
        return [map(and_, map(rshift, keys, repeat(s)), repeat(ones))
                for s, ones in _fields(self.widths, mask)[0]]

    @property
    def points(self) -> frozenset[tuple[int, ...]]:
        """The points as tuples, decoded on first use."""
        if self._points is None:
            self._points = frozenset(zip(*self._columns(self.codes, (1 << self.m) - 1)))
        return self._points

    def rows(self) -> list[list[int]]:
        """The points in ascending order, as lists, for JSON."""
        return list(map(list, zip(*self._columns(self.ordered(), (1 << self.m) - 1))))

    def shadow(self, mask: int) -> frozenset[int]:
        """The keys of the points on mask, worked out from the smallest
        cached shadow of a superset mask (the codes when there is no other)."""
        got = self._shadows.get(mask)
        if got is None:
            self._check_mask(mask)
            _, sup = min(  # the smallest cached superset; ties: the lower mask
                (len(v), k) for k, v in self._shadows.items() if k & mask == mask
            )
            got = frozenset(map(self.field(mask).__and__, self._shadows[sup]))
            self._shadows[mask] = got
        return got

    def ordered(self) -> tuple[int, ...]:
        """The codes in ascending order, sorted on the first call only."""
        if self._order is None:
            self._order = tuple(sorted(self.codes))
        return self._order

    def fibers(self, mask: int) -> Mapping[int, int]:
        """How many points have each key of the shadow on mask, counted
        from the codes."""
        got = self._fibers.get(mask)
        if got is None:
            self._check_mask(mask)
            counts = Counter(map(self.field(mask).__and__, self.codes))
            got = self._fibers[mask] = MappingProxyType(counts)
        return got

    def projection(self, mask: int) -> "PointSet":
        """The shadow on mask as a point set of the same class and base
        (every projection of valid points is valid, and each coordinate
        keeps its largest value, so its width), its keys packed anew."""
        widths = tuple(w for i, w in enumerate(self.widths) if mask >> i & 1)
        codes = pack_columns(self._columns(self.shadow(mask), mask), widths)
        return self._of_valid(mask.bit_count(), self.base, codes, widths)
