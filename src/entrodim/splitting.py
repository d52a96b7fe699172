"""
Projection-cardinality inequalities on finite point sets, and splittings.

The continuous statements about dimensions of a body and its shadows
have finite counterparts where every "dimension" becomes the log of a
cardinality.  This module checks three of them on explicit point sets:

* the Loomis-Whitney bound 2 log2 #S <= log2 #S12 + log2 #S13 + log2 #S23
  (always true; the checker reports the slack);
* the unsplit bound log2 #S1 + log2 #S <= log2 #S12 + log2 #S13, which
  is *false* in general — `cube_bar_instance` builds the classic
  cube-plus-bar refutation, decided by exact integer products;
* split existence: whether S decomposes into parts S^I, one per subset
  family member I, with each part's I-projection under a given budget.
  `find_split_exhaustive` decides it with a complete backtracking search
  that returns the lexicographically first valid assignment; it has no
  size bound, and its worst case is exponential in the number of
  points.  Two dominance rules (a failed choice that grew no shadow
  ends the point's choices, a failed choice that grew one bans its key
  from that part below the point) cut only subtrees with no valid
  completion.  Every returned split is re-verified by direct counting.
"""

from __future__ import annotations

import functools
import math
from decimal import Context
from fractions import Fraction
from itertools import chain, compress, repeat
from operator import eq, lshift
from types import MappingProxyType

from .core import ExactLogLin
from .linear import (
    Record, check_int, check_m, check_mask, check_rational, mask_label, mask_of, mask_positions,
)
from .points import PointSet

#: a count c fits a budget of b bits when log2(c) <= b + FLOAT_TOL, exactly
FLOAT_TOL = Fraction(1, 10**9)

#: the largest k cube_bar_instance builds: 1,000,900 points, one int each
MAX_CUBE_BAR_K = 100


class FiniteBody(PointSet):
    """The body file format: a nonempty set of m-tuples in 0..N-1."""

    empty = "empty body"

    @classmethod
    def from_json(cls, obj: dict) -> "FiniteBody":
        return cls(check_int(obj["m"], "m"), check_int(obj["N"], "N"), obj["points"])


def projection_count(body: FiniteBody, mask: int) -> int:
    """Number of distinct projections of the body onto the subset (the
    size of its cached shadow)."""
    return len(body.shadow(mask))


def loomis_whitney_slack(body: FiniteBody) -> float:
    """log2 #S12 + log2 #S13 + log2 #S23 - 2 log2 #S, summed exactly and
    rendered by ExactLogLin.to_float: 0.0 where the bound is tight, and
    never negative."""
    if body.m != 3:
        raise ValueError("Loomis-Whitney check needs a three-dimensional body")
    terms = [(1, projection_count(body, mask)) for mask in (0b011, 0b101, 0b110)]
    return ExactLogLin((*terms, (-2, len(body)))).to_float()


def cube_bar_instance(k: int) -> FiniteBody:
    """A k-cube plus a bar of length k**1.5 along the first axis.

    The bar is long enough that the unsplit projection bound fails: the
    body's first-axis shadow is huge while the 12- and 13-shadows barely
    grow.  k must be a perfect square, at least 4, so the bar length is
    integral, and at most MAX_CUBE_BAR_K, as the body has k**3 + k**1.5
    points.
    """
    if k < 4:
        raise ValueError("k must be at least 4")
    if k > MAX_CUBE_BAR_K:
        raise ValueError(f"k must be at most {MAX_CUBE_BAR_K}, got {k}")
    r = math.isqrt(k)
    if r * r != k:
        raise ValueError(f"k must be a perfect square, got {k}")
    bar = k * r
    # codes built directly: the first coordinate's largest value is
    # bar - 1, the other two's k - 1, so these are the fields' widths
    w = (k - 1).bit_length()
    yz = [y << w | z for y in range(k) for z in range(k)]
    cube = chain.from_iterable(map((x << 2 * w).__or__, yz) for x in range(k))
    codes = frozenset(chain(cube, map(lshift, range(bar), repeat(2 * w))))
    return FiniteBody._of_valid(3, bar, codes, ((bar - 1).bit_length(), w, w))


class UnsplitReport(Record):
    """Both sides of log2 #S1 + log2 #S <= log2 #S12 + log2 #S13, decided
    exactly by comparing the products #S1 * #S and #S12 * #S13."""

    _fields = ("v1", "v", "v12", "v13", "lhs_bits", "rhs_bits", "lhs_product",
               "rhs_product", "sign")  # sign of lhs - rhs: +1 means the bound is violated

    @property
    def violated(self) -> bool:
        return self.sign > 0


def check_unsplit_inequality(body: FiniteBody) -> UnsplitReport:
    if body.m != 3:
        raise ValueError("unsplit check needs a three-dimensional body")
    # S1 is counted last, from the smaller of the two cached shadows
    v12 = projection_count(body, 0b011)
    v13 = projection_count(body, 0b101)
    v1 = projection_count(body, 0b001)
    v = len(body)
    lhs, rhs = v1 * v, v12 * v13
    return UnsplitReport(
        v1=v1,
        v=v,
        v12=v12,
        v13=v13,
        lhs_bits=math.log2(v1) + math.log2(v),
        rhs_bits=math.log2(v12) + math.log2(v13),
        lhs_product=lhs,
        rhs_product=rhs,
        sign=(lhs > rhs) - (lhs < rhs),
    )


class SplitSpec(Record):
    """Budgets a_I in bits for each part's own projection.

    levels, a read-only map, takes a subset mask I to a budget, an int,
    float or Fraction, kept as its exact rational value (a float infinity
    stays a float); any other type, bool included, is a TypeError.  A part
    whose shadow has c points fits a budget b iff log2(c) <= b + FLOAT_TOL,
    that is iff c <= _max_count(b).
    """

    _fields = ("m", "levels")

    def __post_init__(self):
        if not self.levels:
            raise ValueError("split spec needs at least one part")
        check_m(self.m)
        exact = {}
        for mask, b in self.levels.items():
            check_mask(mask, self.m)
            if isinstance(b, bool) or not isinstance(b, (int, float, Fraction)):
                raise TypeError(
                    f"budget of part {mask_label(mask)} is a {type(b).__name__}, "
                    "not a number"
                )
            exact[mask] = b if b in (math.inf, -math.inf) else Fraction(b)
        object.__setattr__(self, "levels", MappingProxyType(exact))

    def bits(self, mask: int) -> float:
        return float(self.levels[mask])

    @classmethod
    def from_json(cls, obj: dict) -> "SplitSpec":
        """The spec of to_json's form: a string budget is read as the
        infinity "Infinity" or "-Infinity" names, or as the exact Fraction
        of "p/q"; one with an exponent part (linear.check_rational), an m
        outside 1..MAX_VARIABLES, a part position outside 1..m, a part
        listed twice or a repeated position is a ValueError."""
        m, levels = check_m(check_int(obj["m"], "m")), {}
        for e in obj["levels"]:
            positions, b = [check_int(p, "part position") for p in e["part"]], e["bits"]
            if b in ("Infinity", "-Infinity"):
                b = float(b)
            mask = mask_of(positions, m)
            if len(set(positions)) != len(positions):
                raise ValueError(f"repeated position in part {positions}")
            if mask in levels:
                raise ValueError(f"part {mask_label(mask)} listed twice")
            levels[mask] = check_rational(b, f"budget of part {mask_label(mask)}")
        return cls(m, levels)

    def to_json(self) -> dict:
        """Each budget as a float when that float is exactly the budget,
        else as a string: "Infinity" or "-Infinity" (no JSON number is
        infinite), or "p/q" (or "p"), also when no float can hold it, so
        from_json gives back the same spec."""
        levels = []
        for mask in sorted(self.levels):
            b = self.levels[mask]
            try:
                f = self.bits(mask)
            except OverflowError:  # beyond the float range, such as 10**400
                f = None
            if b in (math.inf, -math.inf):  # written as its string
                f, b = None, "Infinity" if b > 0 else "-Infinity"
            levels.append({"part": list(mask_positions(mask)), "bits": f if f == b else str(b)})
        return {"m": self.m, "levels": levels}


class SplitResult(Record):
    """A split of a body: ``parts`` holds the part mask of each point of
    ``body.ordered()``, so point i of the report is point i of that
    ascending order."""

    _fields = ("parts",)

    def to_json(self) -> dict:
        """Point i of the body's ascending order maps to its part's label."""
        labels = {mask: mask_label(mask) for mask in set(self.parts)}
        keys = map(str, range(len(self.parts)))
        return {"assignment": dict(zip(keys, map(labels.__getitem__, self.parts)))}


@functools.lru_cache(maxsize=1 << 12)
def _max_count(bits: Fraction | float) -> int:
    """The largest count c with log2(c) <= bits + FLOAT_TOL (0 when even
    c = 1 is over), for an exact budget as SplitSpec keeps it.

    2**(bits + FLOAT_TOL), worked out with some 20 decimal digits to
    spare, is within 1e-10 of its true value; one less than its integer
    part is at most the answer, and exact signs count up from there.
    """
    if bits > 900:
        return 1 << 1000  # effectively unbounded
    t = max(bits, -1) + FLOAT_TOL  # every budget below -1 has cap 0, as -1 has
    ctx = Context(prec=20 + int(t) // 3)
    cap = max(0, int(ctx.power(2, ctx.divide(t.numerator, t.denominator))) - 1)
    while ExactLogLin(((1, cap + 1), (-t, 2))).sign() <= 0:  # log2(cap + 1) <= t
        cap += 1
    return cap


def _check_same_m(body: FiniteBody, spec: SplitSpec) -> None:
    if spec.m != body.m:
        raise ValueError(f"split spec for m={spec.m} on a body with m={body.m}")


def verify_split(body: FiniteBody, spec: SplitSpec, result: SplitResult) -> bool:
    """Direct-counting recheck that every part's shadow is within its cap.

    Structural problems (spec and body of different m, not one part per
    point of the body, unknown part label) raise; budget failure returns
    False.  The empty part is always within budget, as every cap is at
    least 0.  Each part's shadow is counted from the codes of that part's
    own points, never read from the body's cache.
    """
    _check_same_m(body, spec)
    parts, points = result.parts, body.ordered()
    if len(parts) != len(points):
        raise ValueError(f"split of {len(parts)} points for a body of {len(points)}")
    if not spec.levels.keys() >= set(parts):
        i = next(i for i, mask in enumerate(parts) if mask not in spec.levels)
        raise ValueError(f"point {body.decode(points[i])} assigned to unknown part {parts[i]}")
    return all(
        len(set(map(body.field(mask).__and__, compress(points, map(eq, parts, repeat(mask))))))
        <= _max_count(b)
        for mask, b in spec.levels.items()
    )


def find_split_exhaustive(body: FiniteBody, spec: SplitSpec) -> SplitResult | None:
    """Complete backtracking search over all point-to-part assignments.

    Deterministic: points in sorted order, parts in ascending mask
    order, so the returned split is the lexicographically first valid
    assignment, or None when no split exists.  There is no size bound:
    the worst case is exponential in the number of points.  A part's
    projection count never shrinks as points are added, so pruning an
    over-budget prefix is safe.  Two dominance rules cut only subtrees
    with no valid completion, so the answer is the same as without them:

    1. A failed free choice (point i's key already in part j's shadow)
       ends point i's choices: a completion after a later choice would,
       with point i moved back to part j, complete the failed branch,
       since no shadow grows.
    2. A failed growing choice (point i adds key k to part j) bans k
       from part j below point i's later choices, until the search
       backtracks past point i: a completion putting k into part j
       would, with point i moved to part j, complete the failed branch.
    """
    _check_same_m(body, spec)
    # the parts in ascending order, their caps, and per part the column
    # of every point's key in that part's shadow, over the body's
    # ascending order: each code is masked once per part, here, so the
    # search itself never projects
    parts = sorted(spec.levels)
    caps = [_max_count(spec.levels[mask]) for mask in parts]
    points = body.ordered()
    columns = [list(map(body.field(mask).__and__, points)) for mask in parts]
    k, n = len(parts), len(points)
    shadows = [set() for _ in parts]
    banned = [set() for _ in parts]
    # depth-first on an explicit stack, so the body size meets no
    # recursion limit; per depth: the index of the part taken and
    # whether it grew that part's shadow
    taken = [0] * n
    grown = [False] * n
    bans: list = []  # (part index, key) per ban, None where a point began
    i = j = 0  # point i tries part j next
    while i < n:
        while j < k:
            key = columns[j][i]
            shadow = shadows[j]
            fresh = key not in shadow
            if not fresh or (len(shadow) < caps[j] and key not in banned[j]):
                break
            j += 1
        else:  # no part left for point i: lift its bans, then apply
            # rule 2 or rule 1 to the failed choice for point i - 1
            if i == 0:
                return None
            while (lifted := bans.pop()) is not None:
                banned[lifted[0]].remove(lifted[1])
            i -= 1
            j = taken[i]
            if grown[i]:
                key = columns[j][i]
                shadows[j].remove(key)
                banned[j].add(key)
                bans.append((j, key))
                j += 1
            else:
                j = k
            continue
        if fresh:
            shadow.add(key)
        taken[i] = j
        grown[i] = fresh
        i += 1
        j = 0
        if i < n:
            bans.append(None)
    result = SplitResult(tuple(map(parts.__getitem__, taken)))
    if not verify_split(body, spec, result):
        raise AssertionError("exhaustive search produced an invalid split")
    return result


# an alias, not a second search: the benchmark's tracer
# (perfbench/tracing.py) still looks this name up
find_split_greedy = find_split_exhaustive
