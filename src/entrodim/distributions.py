"""
Finite joint distributions and their exact entropy vectors.

Every marginal of a distribution with rational probabilities p has the
entropy sum p * (log2 den(p) - log2 num(p)), with p in lowest terms, a
finite rational combination of logarithms; it is kept as an ExactLogLin
for supports (uniform distributions) and rational atoms alike.  On a
uniform marginal with k values this is exactly log2(k).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .core import (
    EntropyVector,
    ExactLogLin,
    PointSet,
    check_int,
    check_points,
    projector,
    subsets,
)

Point = tuple[int, ...]


@dataclass(frozen=True)
class JointDistribution:
    """Distribution of m jointly distributed finite random variables.

    Construction validates everything: probabilities are positive
    rationals summing to exactly 1, points are distinct m-tuples of
    nonnegative integer symbols.  Atoms are stored sorted by point, so
    equal distributions compare equal.
    """

    m: int
    atoms: tuple[tuple[Point, Fraction], ...]

    def __post_init__(self):
        points = [tuple(point) for point, _ in self.atoms]
        distinct = check_points(points, self.m, noun="symbol")
        probs = [Fraction(prob) for _, prob in self.atoms]
        for pt, p in zip(points, probs):
            if p <= 0:
                raise ValueError(f"nonpositive probability {p} at point {pt}")
        if len(distinct) != len(points):
            dup = next(pt for pt in points if points.count(pt) > 1)
            raise ValueError(f"duplicate point {dup}")
        total = sum(probs)
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, expected 1")
        object.__setattr__(self, "atoms", tuple(sorted(zip(points, probs))))

    @classmethod
    def from_json(cls, obj: dict) -> "JointDistribution":
        atoms = tuple(
            (tuple(a["point"]), Fraction(a["prob"])) for a in obj["atoms"]
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
    """A nonempty set of m-tuples, read as the uniform distribution on it.

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
        return {"m": self.m, "support": list(map(list, self.ordered()))}


def _entropy(probs: Mapping[Fraction, int]) -> ExactLogLin:
    """Entropy in bits of a distribution given as {p: how many values
    have probability p}."""
    terms = []
    for p, k in probs.items():
        terms += [(k * p, p.denominator), (-k * p, p.numerator)]
    return ExactLogLin(tuple(terms))


def exact_entropy_vector(dist: SupportSet | JointDistribution) -> EntropyVector:
    """Exact entropy vector of a distribution: rational atoms, or the
    uniform distribution on a support.

    A support's marginal probabilities are c/N, from the cached fiber
    counts c of its N points; a distribution sums its atoms per
    projection.
    """
    values: dict[int, ExactLogLin] = {}
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
        values[mask] = _entropy(probs)
    return EntropyVector(dist.m, values)
