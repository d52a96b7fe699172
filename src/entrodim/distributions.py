"""
Finite joint distributions and their entropy vectors.

Two extraction modes:

* float mode for arbitrary rational distributions (entropies of rationals
  are transcendental in general, so floats with compensated summation);
* exact mode for uniform distributions on a support whose projections all
  have uniform fibers — there every marginal entropy is log2 of an integer
  and is kept as an ExactLogLin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .core import (
    EntropyVector,
    ExactLogLin,
    PointSet,
    check_points,
    mask_label,
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
    def uniform_on(cls, m: int, points: Iterable[Point]) -> "JointDistribution":
        pts = sorted(set(tuple(p) for p in points))
        if not pts:
            raise ValueError("empty support")
        w = Fraction(1, len(pts))
        return cls(m, tuple((pt, w) for pt in pts))

    @classmethod
    def from_json(cls, obj: dict) -> "JointDistribution":
        atoms = tuple(
            (tuple(a["point"]), Fraction(a["prob"])) for a in obj["atoms"]
        )
        return cls(int(obj["m"]), atoms)

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
        return cls(int(obj["m"]), obj["support"])

    def to_json(self) -> dict:
        return {"m": self.m, "support": sorted(list(p) for p in self.points)}

    def to_distribution(self) -> JointDistribution:
        return JointDistribution.uniform_on(self.m, self.points)


class NonUniformFibers(ValueError):
    """Some projection of the support has fibers of unequal size.

    `subset` is the smallest offending subset mask in ascending order;
    the support is then not group-like and exact mode does not apply.
    """

    def __init__(self, subset: int):
        super().__init__(
            f"projection onto {{{mask_label(subset)}}} has non-uniform fibers"
        )
        self.subset = subset


def marginal_entropy(d: JointDistribution, subset: int) -> float:
    """Entropy in bits of the projection of d onto the subset's coordinates."""
    if not 0 < subset < (1 << d.m):
        raise ValueError(f"subset mask {subset} out of range for m={d.m}")
    get = projector(subset)
    marg: dict[Point, Fraction] = {}
    for point, prob in d.atoms:
        key = get(point)
        marg[key] = marg.get(key, Fraction(0)) + prob
    return -math.fsum(float(p) * math.log2(float(p)) for p in marg.values())


def entropy_vector_float(d: JointDistribution) -> EntropyVector:
    """All 2^m - 1 marginal entropies of d, in bits."""
    return EntropyVector.from_floats(
        d.m, {s: marginal_entropy(d, s) for s in subsets(d.m)}
    )


def exact_entropy_vector(s: SupportSet) -> EntropyVector:
    """Exact entropy vector of the uniform distribution on s.

    Requires every projection to have uniform fibers (each attained
    value hit by the same number of support points); the entropy of the
    projection onto I is then exactly log2(#s_I).  Raises
    NonUniformFibers naming the first bad subset otherwise.
    """
    values: dict[int, ExactLogLin] = {}
    for mask in subsets(s.m):
        fibers = s.fibers(mask)
        sizes = set(fibers.values())
        if len(sizes) != 1:
            raise NonUniformFibers(mask)
        values[mask] = ExactLogLin.log2(len(fibers))
    return EntropyVector.from_exact(s.m, values)
