"""
Finite joint distributions and their exact entropy vectors.

Every marginal of a distribution with rational probabilities p has the
entropy sum p * (log2 den(p) - log2 num(p)), with p in lowest terms, a
finite rational combination of logarithms; it is kept as an ExactLogLin
for point sets (read as uniform distributions) and rational atoms alike.
On a uniform marginal with k values this is exactly log2(k).
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

from .core import EntropyVector, ExactLogLin
from .linear import Record, check_int, check_rational, common_denominator, subsets
from .points import PointSet, check_points


class JointDistribution(Record):
    """Distribution of m jointly distributed finite random variables.

    Construction validates everything: probabilities are positive
    rationals summing to exactly 1, points are distinct m-tuples of
    nonnegative integer symbols.  ``atoms`` holds (point, probability)
    pairs, stored sorted by point, so equal distributions compare equal.
    ``support`` holds the atoms' points as a PointSet; its ordered()
    codes line up with the atoms, as code order is tuple order.
    """

    _fields = ("m", "atoms")

    def __post_init__(self):
        points = [tuple(point) for point, _ in self.atoms]
        codes, widths = check_points(points, self.m, noun="symbol")
        probs = [Fraction(prob) for _, prob in self.atoms]
        for pt, p in zip(points, probs):
            if p <= 0:
                raise ValueError(f"nonpositive probability {p} at point {pt}")
        if len(codes) != len(points):
            counts = Counter(points)
            dup = next(pt for pt in points if counts[pt] > 1)
            raise ValueError(f"duplicate point {dup}")
        total = sum(probs)
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, expected 1")
        object.__setattr__(self, "atoms", tuple(sorted(zip(points, probs))))
        object.__setattr__(self, "support", PointSet._of_valid(self.m, None, codes, widths))

    @classmethod
    def from_json(cls, obj: dict) -> "JointDistribution":
        atoms = tuple(
            (tuple(a["point"]), check_rational(a["prob"], "prob")) for a in obj["atoms"]
        )
        return cls(check_int(obj["m"], "m"), atoms)

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "atoms": [
                {"point": list(pt), "prob": str(p)} for pt, p in self.atoms
            ],
        }


class SupportSet(PointSet):
    """The support file format, {"m", "support"}: a nonempty set of m-tuples.

    Its symbols are any nonnegative integers: base is None.
    """

    noun = "symbol"
    empty = "empty support"

    def __init__(self, m: int, points) -> None:
        super().__init__(m, None, points)

    @classmethod
    def from_json(cls, obj: dict) -> "SupportSet":
        return cls(check_int(obj["m"], "m"), obj["support"])

    def to_json(self) -> dict:
        return {"m": self.m, "support": self.rows()}


def _entropy(den: int, weights: Counter) -> ExactLogLin:
    """Entropy in bits of a distribution whose probabilities are w/den,
    given as {w: how many values have probability w/den}: each value
    adds p * (log2 den(p) - log2 num(p)), p = w/den in lowest terms."""
    terms = []
    for w, k in weights.items():
        g = math.gcd(w, den)
        terms += [(den // g, k * w), (w // g, -k * w)]
    return ExactLogLin._of_valid(den, terms)


def exact_entropy_vector(dist: PointSet | JointDistribution) -> EntropyVector:
    """Exact entropy vector of a distribution: rational atoms, or the
    uniform distribution on a point set.

    Probabilities are integer weights over one denominator: a
    distribution's are its atoms' numerators over their common
    denominator, summed per key of its support's codes, and a point
    set's marginal weights are its cached fiber counts over its N points.
    """
    values: dict[int, ExactLogLin] = {}
    if isinstance(dist, JointDistribution):
        nums, den = common_denominator(prob for _, prob in dist.atoms)
        support = dist.support
        for mask in subsets(dist.m):
            key = support.field(mask).__and__
            marg: Counter = Counter()
            for code, w in zip(support.ordered(), nums):
                marg[key(code)] += w
            values[mask] = _entropy(den, Counter(marg.values()))
    else:
        for mask in subsets(dist.m):
            values[mask] = _entropy(len(dist), Counter(dist.fibers(mask).values()))
    return EntropyVector(dist.m, values)
