"""
Finite sets of m-tuples of nonnegative integers, one int per point.

Bodies, digit sets, supports and witness sets are :class:`PointSet`
values: validated once (:func:`check_points`) and held as one int per
point (:func:`pack_columns`), with their shadows (the keys of the points
on a subset mask) and fiber counts cached per mask.  Subset masks follow
the conventions of :mod:`entrodim.linear`.
"""

from __future__ import annotations

import functools
from collections import Counter
from collections.abc import Iterable, Mapping
from itertools import repeat
from operator import and_, lshift, or_, rshift
from types import MappingProxyType

from .linear import check_m, check_mask


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

    Every input, whatever its container, is read as tuples and checked
    point by point before it is packed, as True == 1 would merge (True,
    0) into (1, 0).  `noun` names a coordinate in the messages.
    """
    check_m(m)
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
    read-only mappings and the order is a tuple.  The subclasses are the
    input file formats: each sets its base rule, error words and from_json.
    """

    noun = "coordinate"
    empty = "empty point set"

    def __init__(self, m: int, base: int | None, points) -> None:
        self.m, self.base = m, base
        self._check_base()
        codes, widths = check_points(points, m, base, self.noun)
        if not codes:
            raise ValueError(self.empty)
        self._hold(codes, widths)

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

    def to_json(self) -> dict:
        return {"m": self.m, "N": self.base, "points": self.rows()}

    def shadow(self, mask: int) -> frozenset[int]:
        """The keys of the points on mask, worked out from the smallest
        cached shadow of a superset mask (the codes when there is no other)."""
        got = self._shadows.get(mask)
        if got is None:
            check_mask(mask, self.m)
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
            check_mask(mask, self.m)
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
