"""
Cantor-type witness sets and exact dimension arithmetic.

A digit set A inside {0..N-1}^m describes the self-similar set of points
in the m-cube whose base-N digit columns all lie in A.  Its Hausdorff
and packing dimensions coincide and equal log(#A)/log(N), and the same
formula covers every coordinate projection via the projected digit set.
All dimension comparisons are multiplied through by log N so they reduce
to ExactLogLin sign tests — no floating point decides anything here.

The headline construction: a group entropy point that violates a linear
inequality is converted into digit sets whose projection dimensions
violate the corresponding dimension inequality with room to spare
(levels a_I sit a rational epsilon below the true dimensions).  It
reads only a group point's witness set and exact slack, so this module
reaches no :mod:`entrodim.groups`; only it and the exact comparisons
reach :mod:`entrodim.core`, so reading a digit set loads neither.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType

from . import core
from .linear import LinearInequality, Record, check_int, check_mask, mask_label, subsets
from .points import PointSet


class CantorWitness(PointSet):
    """The digit-set file format: a nonempty A within {0..N-1}^m, for C_A."""

    noun = "digit"
    empty = "empty digit set"

    def _check_base(self) -> None:
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")

    @classmethod
    def from_json(cls, obj: dict) -> "CantorWitness":
        return cls(check_int(obj["m"], "m"), check_int(obj["N"], "N"), obj["points"])


class DimValue(Record):
    """The exact dimension log(#A)/log(N) of a Cantor-type set."""

    _fields = ("cardinality", "base")

    def __post_init__(self):
        if self.cardinality < 1:
            raise ValueError("cardinality must be positive")
        if self.base < 2:
            raise ValueError("base must be >= 2")

    def to_float(self) -> float:
        return math.log2(self.cardinality) / math.log2(self.base)

    def __str__(self):
        return f"log2({self.cardinality})/log2({self.base})"


def project(w: PointSet, subset: int) -> PointSet:
    """Projection onto the coordinates in `subset` (a new digit set made
    from w's cached shadow)."""
    return w.projection(subset)


class NonUniform(Record):
    """Projection fibers are unequal; `value` is the first bad image point."""

    _fields = ("value",)


def uniform_fiber(w: PointSet, subset: int):
    """Common fiber size of the projection, or NonUniform.

    Returns the integer f = #A / #A_I when every attained I-value has
    exactly f preimages; otherwise returns (not raises) NonUniform with
    the smallest I-value whose fiber size differs from #A / #A_I.
    """
    if check_mask(subset, w.m) == (1 << w.m) - 1:
        raise ValueError("projection onto all coordinates is the identity")
    fibers = w.fibers(subset)
    n, k = len(w), len(fibers)
    bad = [key for key, c in fibers.items() if c * k != n]
    return NonUniform(w.decode(min(bad), subset)) if bad else n // k


class NotViolated(ValueError):
    """The group point satisfies the inequality, so no counterexample."""

    def __init__(self, slack: core.ExactLogLin):
        super().__init__(
            f"coset entropy point does not violate the inequality (slack {slack})"
        )
        self.slack = slack


class NoEpsilon(ValueError):
    """No epsilon 2^-k (k <= 64) keeps the violation strict."""


class DimensionCounterexample(Record):
    """A digit set whose projection dimensions defeat a linear inequality.

    For the inequality sum lam_I H(I) <= sum mu_J H(J), the witness has

        sum lam_I * a_I  >  sum mu_J * dim (C_A)_J      (exact sign)

    with every level a_I = max(0, dim (C_A)_I - epsilon) strictly below
    the true projection dimension (and nonnegative); `dims` is read-only.
    `margin_times_log_base` stores the exact positive left-minus-right
    difference multiplied by log2(N).
    """

    _fields = ("inequality", "witness", "dims", "epsilon", "entropy_slack",
               "margin_times_log_base")

    def to_json(self) -> dict:
        eps = self.epsilon
        return {
            "kind": "dimension-counterexample",
            "witness": self.witness.to_json(),
            "epsilon": str(eps),
            "dims": {
                mask_label(s): {
                    "cardinality": d.cardinality,
                    "exact": str(d),
                    "float": d.to_float(),
                }
                for s, d in sorted(self.dims.items())
            },
            "levels": {
                mask_label(s): {
                    "exact": f"max(0, {self.dims[s]} - {eps})",
                    "float": max(0.0, self.dims[s].to_float() - float(eps)),
                }
                for s in sorted(self.inequality.lhs_weights())
            },
            "entropy_slack": self.entropy_slack.to_json(),
            "margin_times_log_base": self.margin_times_log_base.to_json(),
        }


def _margin(ineq: LinearInequality, dims: dict[int, DimValue],
            epsilon: Fraction) -> core.ExactLogLin:
    """sum lam_I * max(0, dim_I - eps) - sum mu_J * dim_J, times log2(N),
    built as one value from all of its terms."""
    terms = []
    for mask, weight in ineq.lhs_weights().items():
        dim = dims[mask]
        level = ((1, dim.cardinality), (-epsilon, dim.base))
        if core.ExactLogLin(level).sign() > 0:
            terms += [(weight, dim.cardinality), (-weight * epsilon, dim.base)]
    for mask, weight in ineq.rhs_weights().items():
        terms.append((-weight, dims[mask].cardinality))
    return core.ExactLogLin(terms)


def verify_counterexample(ce: DimensionCounterexample) -> None:
    """Recheck every invariant of the counterexample from its raw fields.

    The projections are counted here from the witness's point codes, not
    read from its shadow cache, so the recheck does not trust what it
    checks.
    """
    ineq = ce.inequality
    w = ce.witness
    n = w.base
    for mask in subsets(ineq.m):
        count = len(set(map(w.field(mask).__and__, w.codes)))
        want = ce.dims[mask]
        if count != want.cardinality or want.base != n:
            raise AssertionError(f"stored dimension wrong at {mask_label(mask)}")
    # a_I = max(0, dim_I - eps) is below a positive dim_I iff eps > 0
    for mask in ineq.lhs_weights():
        if ce.epsilon <= 0 and ce.dims[mask].cardinality > 1:
            raise AssertionError(f"level not below dimension at {mask_label(mask)}")
    margin = _margin(ineq, ce.dims, ce.epsilon)
    if margin.sign() <= 0:
        raise AssertionError("levels do not beat the right-hand dimensions")
    if (margin - ce.margin_times_log_base).sign() != 0:
        raise AssertionError("stored margin does not match recomputation")


def build_counterexample(ineq: LinearInequality, found) -> DimensionCounterexample:
    """Theorem-2-style pipeline from a violating group point to digit sets.

    Only the exact slack and witness set ``support`` of `found`, a
    groups.group_point on ineq, are read.  Steps: confirm the slack is
    negative (else NotViolated); take N = the largest coset count
    #G/#H_i, so every coordinate's digit alphabet fits; reinterpret the
    witness set as digits in base N; pick the largest epsilon = 2^-k
    (k = 1..64) keeping the dimension-level inequality strictly violated;
    clamp levels at zero.  Every invariant is re-verified before return.
    """
    slack, support = found.slack, found.support
    if slack.sign() >= 0:
        raise NotViolated(slack)

    # the point's check cached every fiber count of the support and found
    # it #G/#H_I = 2**point[I] on I, so N is the largest #G/#H_i and the
    # margin at epsilon = 0 is -slack; each lhs level takes epsilon off it
    n_base = max(len(support.fibers(1 << i)) for i in range(ineq.m))
    # the support's codes are digits below n_base (n_base >= 2, as the
    # slack is negative); the fields' widths stay those of its points
    witness = PointSet._of_valid(ineq.m, n_base, support.codes, support.widths)
    dims = MappingProxyType({
        mask: DimValue(len(support.fibers(mask)), n_base)
        for mask in subsets(ineq.m)
    })
    total_lam = Fraction(-sum(a for a in ineq.nums.values() if a < 0), ineq.den)
    log_n = core.ExactLogLin.log2(n_base)
    epsilon = None
    for k in range(1, 65):
        eps = Fraction(1, 2**k)
        shifted = core.ExactLogLin.combine(((-1, slack), (-eps * total_lam, log_n)))
        if shifted.sign() > 0:
            epsilon = eps
            break
    if epsilon is None:
        raise NoEpsilon(
            "no epsilon 2^-k for k <= 64 keeps the dimension inequality strict"
        )

    ce = DimensionCounterexample(
        inequality=ineq,
        witness=witness,
        dims=dims,
        epsilon=epsilon,
        entropy_slack=slack,
        margin_times_log_base=_margin(ineq, dims, epsilon),
    )
    verify_counterexample(ce)
    return ce
