"""
Subset masks, exact rationals and linear entropy inequalities.

Conventions used throughout the package:

* A collection of m variables is indexed by positions 1..m.  A nonempty
  subset of positions is a *bitmask*: position i corresponds to bit i-1,
  so masks run over 1 .. 2**m - 1 and "ascending bitmask order" is plain
  integer order.  E.g. for variables (x, y, z) the mask 0b101 = 5 means
  the pair {x, z}.
* All entropies and slacks are measured in bits (base-2 logarithms).
* Coefficients are exact rationals, ints or Fractions, held as integer
  numerators over one positive denominator in lowest terms
  (:func:`lowest_terms`), as are the certificates verdicts rest on.

This module is all that deciding Shannon-type membership needs of the
package's basics; exact values of logarithms (:mod:`entrodim.core`) and
point sets (:mod:`entrodim.points`) live in modules of their own, which
run only when a command uses them.  The package's immutable value types
all build on :class:`Record`, which is here because every command runs
this module.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Mapping
from fractions import Fraction
from operator import attrgetter
from types import MappingProxyType

MAX_VARIABLES = 8

#: refuse a simplex tableau whose entries may exceed this many bits
MAX_PRODUCT_BITS = 1 << 24

RationalLike = int | Fraction


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


def check_m(m: int) -> int:
    """m when it is a variable count in 1..MAX_VARIABLES, else a ValueError."""
    if not 1 <= m <= MAX_VARIABLES:
        raise ValueError(f"m must be in 1..{MAX_VARIABLES}, got {m}")
    return m


def check_mask(mask: int, m: int) -> int:
    """mask when it is a nonempty subset mask of {1..m}, else a ValueError."""
    if not 0 < mask < 1 << m:
        raise ValueError(f"subset mask {mask} out of range for m={m}")
    return mask


def subsets(m: int) -> list[int]:
    """All 2**m - 1 nonempty subset masks of {1..m}, ascending."""
    return list(range(1, 1 << check_m(m)))


def mask_of(positions: Iterable[int], m: int) -> int:
    """Bitmask for a collection of variable positions, each in 1..m."""
    mask = 0
    for p in positions:
        if not 1 <= p <= m:
            raise ValueError(f"variable position {p} out of range")
        mask |= 1 << (p - 1)
    return mask


def mask_positions(mask: int) -> tuple[int, ...]:
    """1-based variable positions present in a subset mask, ascending."""
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


@functools.lru_cache(maxsize=16)
def subset_texts(names: tuple[str, ...]) -> tuple[str, ...]:
    """The text "x,z" of every subset mask over names, indexed by mask (mask 0
    gives ""), each name appended to the texts of the masks below its bit."""
    texts = [""]
    for name in names:
        texts += [f"{t},{name}" if t else name for t in texts]
    return tuple(texts)


@functools.cache
def _numbered_texts() -> tuple[str, ...]:
    """mask_label's "{1,3}" table, kept out of subset_texts' cache, which fresh names evict."""
    numbers = map(str, range(1, MAX_VARIABLES + 1))
    return tuple(f"{{{t}}}" for t in subset_texts.__wrapped__(numbers))


def mask_label(mask: int, names: tuple[str, ...] | None = None) -> str:
    """Subset label, "{1,3}" or "x,z" with names; a ValueError for a mask past the table."""
    texts = _numbered_texts() if names is None else subset_texts(tuple(names))
    if 0 <= mask < len(texts):
        return texts[mask]
    raise ValueError(f"subset mask {mask} out of range for m={len(texts).bit_length() - 1}")


def _ratio(q: RationalLike) -> tuple[int, int]:
    """The numerator and positive denominator of an int or Fraction."""
    if isinstance(q, (int, Fraction)):
        return q.numerator, q.denominator
    raise TypeError(f"expected an exact rational, got {type(q).__name__}")


def common_denominator(qs: Iterable[RationalLike]) -> tuple[list[int], int]:
    """Integers w and q > 0, the lcm of the denominators, with qs[i] = w[i] / q;
    TypeError for a value that is not an int or Fraction."""
    pairs = [_ratio(x) for x in qs]
    q = math.lcm(*(d for _, d in pairs))
    return [a * (q // d) for a, d in pairs], q


def lowest_terms(den: int, items: Iterable[tuple[int, int]]) -> tuple[int, Mapping[int, int]]:
    """The values a / den of the (key, a) pairs in lowest terms: den and a
    read-only map of the nonzero a by ascending key, divided by their gcd.
    A den or an a that is not an int, bool included, is a TypeError, and
    a den <= 0 a ValueError."""
    if check_int(den, "den") <= 0:
        raise ValueError(f"den must be positive, got {den}")
    held = {key: a for key, a in sorted(items) if check_int(a, "each value")}
    g = math.gcd(den, *held.values())
    return den // g, MappingProxyType({key: a // g for key, a in held.items()})


def rational_text(q: RationalLike) -> str:
    """str(q) for an int or Fraction of any size.  An int longer than str
    writes (sys.get_int_max_str_digits) is split at a power of ten near
    its middle digit, and each part written in turn."""
    try:
        return str(q)
    except ValueError:
        pass
    if q.denominator != 1:
        return rational_text(q.numerator) + "/" + rational_text(q.denominator)
    if q < 0:
        return "-" + rational_text(-q)
    k = q.bit_length() * 3 // 20  # about half the digits: log10(2) > 0.3
    high, low = divmod(q, 10**k)
    return rational_text(high) + rational_text(low).zfill(k)


class Record:
    """An immutable value over the attributes named in ``_fields``.

    ==, hash and repr read the fields in order, a read-only map
    (MappingProxyType) hashing by its items; attributes outside
    ``_fields`` take no part.  __init__ takes the fields positionally or
    by keyword, a missing one from the class attribute of its name, then
    calls __post_init__.  Assignment and deletion are AttributeErrors
    (object.__setattr__ sets an attribute in a constructor); the instance
    __dict__ is kept, so functools.cached_property works.  Unlike a
    dataclass, a subclass costs no generated code to create.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # _values(obj): obj's field values, a tuple (the value for one field)
        cls._values = staticmethod(attrgetter(*cls._fields))

    def __init__(self, *args, **kwargs) -> None:
        cls, names = type(self), self._fields
        if kwargs or len(args) != len(names):
            values = dict(zip(names, args), **kwargs)
            if (len(values) != len(args) + len(kwargs) or values.keys() - names
                    or not all(name in values or hasattr(cls, name) for name in names)):
                raise TypeError(f"{cls.__name__}() takes the fields {names}, some with defaults")
            args = [values[name] if name in values else getattr(cls, name) for name in names]
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check the fields; object.__setattr__ replaces one."""

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(tuple(frozenset(v.items()) if type(v) is MappingProxyType else v
                          for v in map(self.__getattribute__, self._fields)))

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class LinearInequality(Record):
    """A linear entropy inequality in canonical "sum_T c_T H(T) >= 0" form.

    The coefficients, given as ints or Fractions keyed by subset mask,
    each over an optional common positive int denominator (default 1),
    are held in integers: c_T = nums[T] / den, with den > 0, ``nums`` a
    read-only map of the nonzero numerators by ascending mask, and
    gcd(den, *nums) = 1, so == and hash compare values.  ``coeffs`` is
    the same map as Fractions.  The familiar two-sided reading splits the
    coefficients by sign: subsets with negative coefficient form the
    left-hand family (weights lhs_weights), positive ones the right-hand
    family (rhs_weights), and the inequality asserts

        sum_I lhs[I] * H(I)  <=  sum_J rhs[J] * H(J).
    """

    _fields = ("m", "den", "nums")

    def __init__(self, m: int, coeffs: Mapping[int, RationalLike], den: int = 1) -> None:
        check_m(m)
        for mask in coeffs:
            check_mask(mask, m)
        nums, q = common_denominator(coeffs.values())
        den, nums = lowest_terms(q * check_int(den, "den"), zip(coeffs, nums))
        if not nums:
            raise ValueError("inequality has no nonzero coefficient")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)

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
