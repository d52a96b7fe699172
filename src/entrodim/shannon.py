"""
Membership in the cone of Shannon-type inequalities, with certificates.

An inequality is Shannon-type when it is a nonnegative combination of
the *elemental* inequalities — the minimal generating set consisting of

* monotonicity   H(all) - H(all minus i) >= 0          (m rows)
* submodularity  H(iK) + H(jK) - H(ijK) - H(K) >= 0    (C(m,2) * 2^(m-2)
  rows, over unordered pairs i<j and K disjoint from both; K empty means
  H(i) + H(j) - H(ij) >= 0)

Membership is an exact LP: find weights y >= 0 with E^T y = c (Yeung,
"A framework for linear information inequalities", 1997).  The answer
always comes with a checkable object — a ShannonCertificate (the
weights) or a FarkasWitness (a polymatroid point separating the
inequality from the cone) — and `is_shannon_type` verifies whichever
one it produces before returning it.  Both hold ints over one den in
lowest terms (linear.lowest_terms), as the inequality does, from the
solver's D to the report; a Fraction is made only to write one.

Equivalently, an inequality is Shannon-type iff it is nonnegative on
every extreme ray of the polymatroid cone Gamma_m, the points on which
every elemental row is nonnegative; a ray on which it is negative is a
Farkas point.  For m <= 4 the rays are few (1, 3, 8 and 41), and
`is_shannon_type` tries them first, so a target that is not
Shannon-type is refuted by one integer sum alone: the rays' entries
at each subset mask are packed into one int, a w-bit field per ray, and
the target's ints times those give every ray's slack in its field, plus
2**(w-1) so that the field's top bit is its sign (w, a power of two,
leaves room for max(m, 4) times the target's coefficient sum, as no
entry of the table is larger).  The rays
are held as digit strings, computed once by a double description and
rechecked against an independent one by the tests: a double description
of Gamma_4 costs as much as dozens of LP solves, more than one `check`
process saves.  The five-variable cones have on the order of 10^5 rays
(Studený, Bouckaert & Kočka, 2000), so the ray table stops at m = 4.
At m = 5 and 6 the table is the uniform matroid rank points
U_{k,T}(S) = min(|S & T|, k) for each nonzero mask T and k = 1..|T|, 80 and
192 of them, packed the same way.  Each is a polymatroid point, so one
on which the target is negative is a Farkas point too; but they are not
every extreme ray, and being linear they satisfy Ingleton, so a
target none refutes need not be Shannon-type.

The same points certify a target that none refutes, with no LP.  Every
elemental row's slack on every ray of Gamma_1..Gamma_4 is 0 or 1 (the
tests check it from the double description), and on every U_{k,T}
(row (i, j, K) is 1 iff i, j in T and |K & T| = k - 1, monotonicity row
i iff i in T and k = |T|), and the points span every coordinate.  So the
weights are peeled from the packed slacks in one
ascending scan of the elemental rows: row e is taken when it is 0 on
every point on which the remainder is 0, with weight lambda, the least
slack among the points on which e is 1, and one subtraction of lambda
times e's packed slacks updates every field with no borrow.  The
remainder stays nonnegative on every point, a point once 0 stays 0, and
one more point is 0, one on which e is 1.  No certificate of
it puts weight on a row positive on a point p where it is 0: if
t = sum_r w_r * row_r with every w_r >= 0 and t . p = 0, every term
w_r * (row_r . p) is 0 (complementary slackness).  So every row the scan
has passed, taken or not, is out of every certificate of the remainder,
and the scan ends at remainder 0 with weights as ints over the target's
den, or with rows left over.  On the full ray table of Gamma_m the
remainder stays Shannon-type, so while it is not 0 a row is left ahead
to take.  A peel that cannot finish, which at m <= 4 only a table
missing rays can cause, and at m = 5 and 6 a remainder that the matroid
points cannot tell from a non-Shannon target, hands the target to the
LP on every elemental row, so no verdict rests on the table.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain, combinations, compress
from operator import mul, neg

from . import simplex
from .dsl import parse_inequality
from .linear import LinearInequality, Record, lowest_terms, mask_label, subsets

#: elemental sets are available for this range of variable counts
ELEMENTAL_RANGE = range(1, 7)

# the extreme rays of Gamma_m, each a primitive integer point: one digit
# per subset mask in subsets(m) order, rays in ascending order
_RAY_DIGITS = {
    1: "1",
    2: "011 101 111",
    3: "0001111 0110011 0111111 1010101 1011111 1110111 1111111 1121222",
    4: "000000011111111 000111100001111 000111111111111 011001100110011 "
       "011001111111111 011111100111111 011111111111111 011112211222222 "
       "101010101010101 101010111111111 101111101011111 101111111111111 "
       "101121212122222 111011101110111 111011111111111 111111101111111 "
       "111111111111111 111122212222222 112011212221222 112112212222222 "
       "112121212222222 112122201121222 112122211222222 112122212122222 "
       "112122212221222 112122212222222 112122222222222 112122312232333 "
       "112122323333333 112222212222222 112233312233333 122122212222222 "
       "123123312332333 212122212222222 213132313232333 223233423344444 "
       "223233423443444 223233424343444 223234423343444 223243423343444 "
       "224233423343444",
}


class VerificationError(ValueError):
    """A certificate or witness failed its exact recheck."""


class ElementalSet(Record):
    """The elemental Shannon inequalities for m variables, in fixed order:
    ``rows``, a tuple of LinearInequality."""

    _fields = ("m", "rows")

    @cached_property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """The LP matrix E^T, built once per set, on its first solve: a row
        per subset mask in subsets(m) order and a column per elemental row,
        the rows' ints."""
        return tuple(zip(*[[r.nums.get(s, 0) for s in subsets(self.m)] for r in self.rows]))


def _in_lowest_terms(record: Record) -> None:
    """__post_init__ of a record (m, den, map of ints over den): den and the
    map in lowest terms (linear.lowest_terms), so == and hash compare values."""
    field = record._fields[2]
    den, values = lowest_terms(record.den, getattr(record, field).items())
    object.__setattr__(record, "den", den)
    object.__setattr__(record, field, values)


class ShannonCertificate(Record):
    """Nonnegative weights expressing an inequality over elemental rows.

    weights maps row index (into elemental_inequalities(m).rows) to a
    positive int over den; rows absent from the map have weight zero.
    """

    _fields = ("m", "den", "weights")
    __post_init__ = _in_lowest_terms


class FarkasWitness(Record):
    """A polymatroid point on which the target inequality fails.

    point maps subset mask to an int over den; it satisfies every elemental
    inequality (so it is a polymatroid point, though not necessarily a
    genuine entropy vector) yet gives the target strictly negative slack.
    """

    _fields = ("m", "den", "point")
    __post_init__ = _in_lowest_terms


@cache
def elemental_inequalities(m: int) -> ElementalSet:
    """Elemental rows for m variables: monotonicities, then submodularities.

    Ordering is fixed and documented: the m monotonicity rows for
    i = 1..m, then for each pair i < j (lexicographic) the rows for each
    K subset of the remaining variables in ascending mask order (m = 1:
    the one row H(x) >= 0).  Each m's set is built once and shared.
    """
    if m not in ELEMENTAL_RANGE:
        raise ValueError(
            f"elemental inequalities need m in 1..{max(ELEMENTAL_RANGE)}, got {m}"
        )

    def row(*terms: tuple[int, int]) -> LinearInequality:
        # H(empty) = 0 is not a coordinate: a term on mask 0 is dropped
        return LinearInequality(m, {s: c for s, c in terms if s})

    full = (1 << m) - 1
    rows = [row((full, 1), (full ^ 1 << i, -1)) for i in range(m)]
    for i, j in combinations(range(m), 2):
        bi, bj = 1 << i, 1 << j
        for k in range(full + 1):
            if not k & (bi | bj):
                rows.append(row((k | bi, 1), (k | bj, 1), (k | bi | bj, -1), (k, -1)))
    return ElementalSet(m, tuple(rows))


@cache
def _rays(m: int) -> tuple[tuple[int, ...], ...]:
    """The extreme rays of Gamma_m in table order; none past m = 4."""
    return tuple(tuple(map(int, ray)) for ray in _RAY_DIGITS.get(m, "").split())


@cache
def _ray_fields(m: int, w: int) -> tuple[list[int], int, int, list[tuple[int, tuple[int, ...]]]]:
    """The table of m variables packed into w-bit fields (w a multiple of
    8), point r in field r (bits w*r up): per subset mask, the points'
    entries at it; the top bits, 2**(w-1) in every field; a 1 in every
    field; and per elemental row, its slacks packed the same way, one sum
    of its ints times the columns, and the shifts w*r of the fields where
    it is 1: each slack is 0 or 1, so they are the fields whose low byte
    is set.

    The table is the rays of Gamma_m at m <= 4, and past it the points
    U_{k,T}(S) = min(|S & T|, k), for each nonzero mask T in ascending
    order and k = 1..|T| within T.  Every entry is below 256, so each
    column is first a byte string, an entry a byte, which is then spread
    to a byte every w bits: at m <= 4 column s is every (2**m - 1)-th
    byte of the rays' entries in a row, and past it, at S, T's |T| bytes
    are fixed by |S & T|, one of |T| + 1 byte strings, so each column is
    a join of one block per T, and no point is held but in the columns."""
    size = w // 8
    if m <= 4:
        # ray r's entry at mask s is byte (2**m - 1) * r + s - 1 of flat
        flat, n = bytes(chain.from_iterable(_rays(m))), len(_rays(m))
        narrow = (flat[s - 1::(1 << m) - 1] for s in range(1, 1 << m))
    else:
        # T's bytes k = 1..|T| hold 1, 2, .., j, then j, with j = |S & T|
        blocks = [[bytes(range(1, j + 1)) + bytes((j,)) * (t - j) for j in range(t + 1)]
                  for t in range(m + 1)]
        narrow = (b"".join([blocks[t.bit_count()][(s & t).bit_count()] for t in range(1, 1 << m)])
                  for s in range(1, 1 << m))
        n = m << m - 1
    wide, cols = bytearray(size * n), [0]
    for col in narrow:
        wide[::size] = col
        cols.append(int.from_bytes(wide, "little"))
    # one tuple of every field's shift, so the rows share its ints
    ones, shifts = ((1 << w * n) - 1) // ((1 << w) - 1), tuple(range(0, w * n, w))
    rows = []
    for row in elemental_inequalities(m).rows:
        field = sum(map(mul, row.nums.values(), map(cols.__getitem__, row.nums)))
        rows.append((field, tuple(compress(shifts, field.to_bytes(n * size, "little")[::size]))))
    return cols, ones << w - 1, ones, rows


def _by_rays(m: int, w: int, nums: Mapping[int, int]) -> tuple[int, dict[int, int] | None]:
    """(r, weights) for the target sum_T nums[T] H(T) >= 0, whose slack on
    every point of the table (_ray_fields) is above -2**(w-1) and below
    2**(w-1): r is the first point on which the target is negative, and
    weights None, or -1, and weights by row, ints with
    sum_e weights[e] * row_e = the target, from the peel on its slacks, or
    None when the peel cannot finish.

    Field r of top + sum_T nums[T] * cols[T] is 2**(w-1) plus the slack on
    point r, in 1..2**w - 1, so no field carries into the next, and its top
    bit is set iff that slack is >= 0.  With every top bit set, a field
    less 1 has a clear top bit iff its slack is 0.  The peel keeps every
    slack >= 0, so it reads its tight points so too, and a row's weight, at
    most each slack it is subtracted from, borrows from no field."""
    cols, top, ones, fields = _ray_fields(m, w)
    packed = sum(map(mul, nums.values(), map(cols.__getitem__, nums)), top)
    negative = top & ~packed
    if negative:
        return (negative & -negative).bit_length() // w - 1, None
    rows = elemental_inequalities(m).rows
    rest, weights, low, half = dict(nums), {}, (1 << w) - 1, 1 << w - 1
    # a 1 in the field of each point on which the remainder is 0
    tight = (top & ~(packed - ones)) >> w - 1
    for e, (field, shifts) in enumerate(fields):
        if packed == top:
            break
        if field & tight:
            continue
        if not shifts:
            return -1, None
        weights[e] = lam = min(packed >> s & low for s in shifts) - half
        packed -= lam * field
        tight = (top & ~(packed - ones)) >> w - 1
        for mask, c in rows[e].nums.items():
            rest[mask] = rest.get(mask, 0) - lam * c
    return -1, None if packed != top or any(rest.values()) else weights


def is_shannon_type(ineq: LinearInequality) -> ShannonCertificate | FarkasWitness:
    """Decide cone membership, returning a verified certificate either way.
    The first point of the table (the extreme rays of Gamma_m at m <= 4,
    the matroid points U_{k,T} at m = 5 and 6) on which the target is
    negative is the Farkas point, and the peel on the points' slacks finds
    the weights of a target that no point refutes, both without a solve;
    where the peel stops, the LP on the full elemental set decides."""
    m, nums = ineq.m, ineq.nums
    # no table entry exceeds max(m, 4): 4 on the last rays of Gamma_4 and
    # k <= m on U_{k,T}; so 2**(w-1) exceeds every slack
    w = max(32, 1 << (max(m, 4) * sum(map(abs, nums.values()))).bit_length().bit_length())
    r, weights = _by_rays(m, w, nums)
    if r >= 0:
        # point r is held in the columns, as their fields r
        point, den = [c >> w * r & (1 << w) - 1 for c in _ray_fields(m, w)[0][1:]], 1
    else:
        d = 1
        if weights is None:
            matrix = elemental_inequalities(m).matrix
            res = simplex.solve_eq_nonneg(matrix, [nums.get(mask, 0) for mask in subsets(m)])
            weights, d = dict(enumerate(res.solution)) if res.feasible else None, res.den
        if weights is not None:
            # weights / d solve E^T y = nums, and the target is nums / den
            cert = ShannonCertificate(m, d * ineq.den, weights)
            verify_certificate(ineq, cert)
            return cert
        # Farkas vector u has u.(col of E^T) <= 0 for every elemental row and
        # u.c > 0; negating gives a point with elemental slacks >= 0 and
        # strictly negative target slack — a separating polymatroid point.
        point, den = map(neg, res.farkas), res.den
    witness = FarkasWitness(m, den, dict(zip(subsets(m), point)))
    verify_farkas(ineq, witness)
    return witness


def verify_certificate(ineq: LinearInequality, cert: ShannonCertificate) -> None:
    """Exact coefficient-wise recheck of sum_r y_r * row_r = target, in
    integers: with y_r = w_r / q, q the certificate's den, and the integer
    elemental rows, den * sum_r w_r * row_r = q * nums."""
    rows = elemental_inequalities(ineq.m).rows
    if cert.m != ineq.m:
        raise VerificationError(f"certificate is for m={cert.m}, target m={ineq.m}")
    combo: dict[int, int] = {}
    for r, w in cert.weights.items():
        if not 0 <= r < len(rows):
            raise VerificationError(f"certificate references unknown row {r}")
        if w < 0:
            raise VerificationError(f"negative weight {Fraction(w, cert.den)} on row {r}")
        for mask, c in rows[r].nums.items():
            combo[mask] = combo.get(mask, 0) + w * c
    for mask in subsets(ineq.m):
        got, want = combo.get(mask, 0), ineq.nums.get(mask, 0)
        if got * ineq.den != want * cert.den:
            raise VerificationError(
                f"certificate mismatch at subset {mask_label(mask)}: "
                f"combination gives {Fraction(got, cert.den)}, "
                f"target has {Fraction(want, ineq.den)}"
            )


def verify_farkas(ineq: LinearInequality, witness: FarkasWitness) -> None:
    """Exact recheck: elemental slacks >= 0, target slack < 0, in integers
    over the point's den, from the point's ints by subset mask."""
    if witness.m != ineq.m:
        raise VerificationError(f"witness is for m={witness.m}, target m={ineq.m}")
    point, q = witness.point, witness.den
    # x[mask] is the point's int at mask; no row and no target reads mask 0
    x = [point.get(mask, 0) for mask in range(1 << ineq.m)]
    for r, row in enumerate(elemental_inequalities(ineq.m).rows):
        s = sum(map(mul, row.nums.values(), map(x.__getitem__, row.nums)))
        if s < 0:
            raise VerificationError(f"witness violates elemental row {r} (slack {Fraction(s, q)})")
    s = sum(map(mul, ineq.nums.values(), map(x.__getitem__, ineq.nums)))
    if s >= 0:
        raise VerificationError(
            f"target slack on witness is {Fraction(s, q * ineq.den)}, "
            "expected strictly negative"
        )


def zhang_yeung() -> LinearInequality:
    """The classic four-variable inequality that is not Shannon-type.

    2 I(z;w) <= I(x;y) + I(x;z,w) + 3 I(z;w|x) + I(z;w|y), with variables
    bound in the order x, y, z, w.  Shipped as a named fixture; its
    non-membership is not taken on faith: ``is_shannon_type`` refutes it
    with an extreme ray of Gamma_4 and verifies that point exactly.
    """
    return parse_inequality(
        "2 I(z;w) <= I(x;y) + I(x;z,w) + 3 I(z;w|x) + I(z;w|y)",
        declared_vars=("x", "y", "z", "w"),
    )
