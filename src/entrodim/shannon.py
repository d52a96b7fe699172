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
every extreme ray of the polymatroid cone Gamma_m; a polymatroid point on
which it is negative is a Farkas point.  `is_shannon_type` first reads a
table of polymatroid points built by one rule at every m, sorted: the
uniform matroid points U_{k,T}(S) = min(|S & T|, k) for each nonzero mask
T and 1 <= k < |T| (k = 1 when |T| = 1), and the 20 extreme rays of
Gamma_4 that are not among them, each restricted to each 4-subset T,
h(S & T), which keeps every elemental inequality.  At m <= 4 these are
the extreme rays of Gamma_m (1, 3, 8 and 41, in order; the tests recheck
them by a double description, which costs more than a `check` process
saves, so the 20 rays are held as digits).  At m = 5 and 6 they are 154
and 435 of the cone's order of 10^5 rays (Studený, Bouckaert & Kočka,
2000), so a target none refutes need not be Shannon-type.  One integer
sum refutes a target: the points' entries at each subset mask are packed
into one int, a w-bit field per point, and the target's ints times those
give every point's slack in its field, plus 2**(w-1) so that the field's
top bit is its sign (w, a power of two, leaves room for max(m, 4) times
the target's coefficient sum, as no entry of the table is larger).

The same points certify a target that none refutes, with no LP.  Every
elemental row's slack on every point is 0 or 1 (on U_{k,T}, row
(i, j, K) is 1 iff i, j in T and |K & T| = k - 1, monotonicity row i iff
T = {i}; on a restricted ray it is a Gamma_4 row's slack or 0), and the
U_{1,T} span every coordinate.  So each row is held once per m as the
mask of the points where it is 1, and the weights are peeled in one
ascending scan of the rows: row e is taken when it is 0 on every point
where the remainder is 0, with weight lambda, the least slack among the
points where e is 1, and one subtraction of lambda times e's packed
slacks updates every field with no borrow.  The remainder stays
nonnegative, and a point once 0 stays 0, and one more is 0.  No
certificate of it puts weight on a row positive on a point p where it is
0: if t = sum_r w_r * row_r, every w_r >= 0 and t . p = 0, every term
w_r * (row_r . p) is 0 (complementary slackness).  So the scan ends at
remainder 0 with weights as ints over the target's den, or with rows
left over; on all of Gamma_m's rays the remainder stays Shannon-type,
so a row is left ahead to take.  A peel that cannot finish, at m <= 4
only on a table missing rays and at m = 5 and 6 on a remainder the table
cannot tell from a non-Shannon target, hands the target to the LP on
every elemental row, so no verdict rests on the table.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations, compress
from operator import mul, neg

from . import simplex
from .dsl import parse_inequality
from .linear import LinearInequality, Record, lowest_terms, mask_label, subsets

#: elemental sets are available for this range of variable counts
ELEMENTAL_RANGE = range(1, 7)

# the 20 extreme rays of Gamma_4 that are not uniform matroid points, each
# a primitive integer point: one digit per subset mask in subsets(4) order
_RAY_DIGITS = (
    "111122212222222 112112212222222 112121212222222 112122211222222 112122212122222 "
    "112122212221222 112122222222222 112122323333333 112222212222222 112233312233333 "
    "122122212222222 123123312332333 212122212222222 213132313232333 223233423344444 "
    "223233423443444 223233424343444 223234423343444 223243423343444 224233423343444"
)


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
def _points(m: int) -> list[bytes]:
    """The table of m variables (see the module), sorted, each point a byte
    string whose byte s - 1 is its entry at mask s.  A point on T reads S
    only through S & T, a |T|-bit index in T's bit order (T's i-th
    variable is a ray's i-th), so it is one translation of T's indices."""
    n = (1 << m) - 1
    # index c to popcount(c), to min(popcount(c), k) for k = 1, 2, .. and to each ray's h(c)
    popcount, rays, index, points = bytes(map(int.bit_count, range(256))), [], [0], []
    uniform = [popcount]
    for h in _RAY_DIGITS.split():
        rays.append(bytes(map(int, "0" + h)).ljust(256, b"\0"))
    # T's indices, a byte per mask S = 1..n, as an int; T = {top}'s are S's bit top
    for t in range(1, n + 1):
        top, size = t.bit_length() - 1, t.bit_count()
        if size == 1:
            bit = (b"\0" * t + b"\1" * t) * (n + 1 >> top + 1)
            index.append(int.from_bytes(bit[1:], "little"))
            uniform.append(popcount.translate(bytes(range(top + 1)).ljust(256, bytes((top + 1,)))))
        else:
            index.append(index[t ^ 1 << top] + (index[1 << top] << size - 1))
        at = index[t].to_bytes(n, "little")
        points += map(at.translate, uniform[1:max(size, 2)])
        if size == 4:
            points += map(at.translate, rays)
    return sorted(points)


@cache
def _narrow(m: int) -> tuple[list[int], list[int]]:
    """The table a byte per point: per subset mask, an int whose byte r is
    point r's entry at it; per elemental row, the mask of the points where
    its slack is 1, bit 8r + 7 for point r.  Each slack is 0 or 1, so the
    sum of the row's ints times the columns holds each in its byte."""
    flat, n, cols, masks = b"".join(_points(m)), (1 << m) - 1, [0], []
    for s in range(n):
        cols.append(int.from_bytes(flat[s::n], "little"))
    for row in elemental_inequalities(m).rows:
        masks.append(sum(map(mul, row.nums.values(), map(cols.__getitem__, row.nums))) << 7)
    return cols, masks


@cache
def _ray_fields(m: int, w: int) -> tuple[list[int], int, int, dict[int, tuple[int, tuple]]]:
    """The table packed into w-bit fields (w a multiple of 8), point r in
    field r (bits w*r up): per subset mask, the points' entries at it (a
    column of _narrow spread to a byte every w bits); 2**(w-1) in every
    field; 1 in every field; and, filled by the peel as it first takes a
    row at this w, the row's slacks packed the same way and the byte spans
    of its fields where it is 1 in a packed int written big-endian."""
    size, cols, n = w // 8, [0], len(_points(m))
    wide = bytearray(size * n)
    for col in _narrow(m)[0][1:]:
        wide[::size] = col.to_bytes(n, "little")
        cols.append(int.from_bytes(wide, "little"))
    ones = int.from_bytes((b"\1" + bytes(size - 1)) * n, "little")
    return cols, ones << w - 1, ones, {}


def _by_rays(m: int, w: int, nums: Mapping[int, int]) -> tuple[int, dict[int, int] | None]:
    """(r, weights) for the target sum_T nums[T] H(T) >= 0, whose slack on
    every point of the table is above -2**(w-1) and below 2**(w-1): r is
    the first point on which the target is negative and weights None, or r
    is -1 and weights the peel's, ints with sum_e weights[e] * row_e = the
    target, or None when the peel cannot finish.

    Field r of top + sum_T nums[T] * cols[T] is 2**(w-1) plus the slack on
    point r, in 1..2**w - 1, so no field carries into the next, and its top
    bit is set iff that slack is >= 0.  Less 1 in every field, as the peel
    holds it, a top bit is set iff the slack is > 0: written big-endian,
    the fields' first bytes are the loose mask, a byte per point as the
    rows' masks, and the least of a row's fields is the least of their
    bytes.  A weight, at most each slack it is subtracted from, borrows
    from no field."""
    cols, top, ones, taken = _ray_fields(m, w)
    packed = sum(map(mul, nums.values(), map(cols.__getitem__, nums)), top)
    negative = top & ~packed
    if negative:
        return (negative & -negative).bit_length() // w - 1, None
    rows = elemental_inequalities(m).rows
    rest, weights, base, floor = dict(nums), {}, (1 << w - 1) - 1, top - ones
    size, width = w // 8, top.bit_length() >> 3
    packed -= ones
    held = packed.to_bytes(width, "big")
    loose = int.from_bytes(held[::size], "big")
    for e, on in enumerate(_narrow(m)[1]):
        if not on or on & loose != on:
            continue
        if e not in taken:
            # the row's slacks in its fields, and the bytes of those where it is 1
            spans = map(slice, range(0, width, size), range(size, width + 1, size))
            taken[e] = (sum(map(mul, rows[e].nums.values(), map(cols.__getitem__, rows[e].nums))),
                        tuple(compress(spans, (on >> 7).to_bytes(width // size, "big"))))
        field, spans = taken[e]
        weights[e] = lam = int.from_bytes(min(map(held.__getitem__, spans)), "big") - base
        packed -= lam * field
        for mask, c in rows[e].nums.items():
            rest[mask] = rest.get(mask, 0) - lam * c
        if packed == floor:
            break
        held = packed.to_bytes(width, "big")
        loose = int.from_bytes(held[::size], "big")
    return -1, None if packed != floor or any(rest.values()) else weights


def is_shannon_type(ineq: LinearInequality) -> ShannonCertificate | FarkasWitness:
    """Decide cone membership, returning a verified certificate either way.
    The first point of the table (_points) on which the target is negative
    is the Farkas point, and the peel on the points' slacks finds the
    weights of a target that no point refutes, both without a solve; where
    the peel stops, the LP on the full elemental set decides."""
    m, nums = ineq.m, ineq.nums
    # no table entry exceeds max(m, 4): 4 on the last rays of Gamma_4 and
    # k < m on U_{k,T}; so 2**(w-1) exceeds every slack
    w = max(32, 1 << (max(m, 4) * sum(map(abs, nums.values()))).bit_length().bit_length())
    r, weights = _by_rays(m, w, nums)
    if r >= 0:
        point, den = _points(m)[r], 1
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
