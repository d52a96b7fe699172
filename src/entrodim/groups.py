"""
Finite groups, subgroups, and the entropy points their cosets realize.

A uniform random group element g together with subgroups H_1..H_m gives
jointly distributed coset variables g_i = gH_i; the joint entropy of any
subtuple is exact:

    H(g_I) = log2(#G) - log2(#H_I),   H_I = intersection of H_i, i in I.

The same data yields an explicit finite witness set
A = {(gH_1, ..., gH_m) : g in G}: its projection onto I has #G/#H_I
points with fibers of one size, so its uniform distribution has the
same entropies.  Every coset point is checked against A by that
integer identity.

Groups are Cayley tables over element indices 0..n-1 with the identity
pinned at index 0.  A table given from outside (FiniteGroup(...), JSON,
group_from_table) is fully validated (identity, inverses,
associativity) at construction; the constructors below fill tables from
their generators' right multiplications and skip that check.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import factorial, gcd, prod

from . import points
from .core import EntropyVector, ExactLogLin, eval_slack, loglin_sign
from .linear import LinearInequality, Record, check_int, check_m, subsets


class GroupTableError(ValueError):
    """The offered Cayley table is not a group (or not in canonical form)."""


class NoIdentity(GroupTableError):
    def __init__(self):
        super().__init__("index 0 is not a two-sided identity")


class NoInverse(GroupTableError):
    def __init__(self, a: int):
        super().__init__(f"element {a} has no two-sided inverse")
        self.element = a


class NotAssociative(GroupTableError):
    def __init__(self, a: int, b: int, c: int):
        super().__init__(f"associativity fails at ({a}, {b}, {c})")
        self.triple = (a, b, c)


def _reach(table, gens, reached: set) -> None:
    """Extend reached in place by the right products of its elements by gens."""
    frontier = list(reached)
    while frontier:
        row = table[frontier.pop()]
        for s in gens:
            b = row[s]
            if b not in reached:
                reached.add(b)
                frontier.append(b)


def _light_test(tab) -> bool:
    """Whether a table with a two-sided identity at 0 is associative, by
    Light's test on a generating set.

    An element g passes when (x*g)*y = x*(g*y) for all x and y.  The
    identity passes, and if g and h pass, so does g*h: (x*(g*h))*y =
    ((x*g)*h)*y = (x*g)*(h*y) = x*(g*(h*y)) = x*((g*h)*y), each step by
    g or h passing.  So when every generator passes, every element the
    generators reach by products passes, and reaching all n elements
    makes the table associative.  The generators are chosen greedily:
    each is the least element not yet reached by right products.  Each
    check compares one row of products with another, for every x.
    """
    reached, gens = {0}, []
    for g in range(len(tab)):
        if g not in reached:  # then _reach adds g = 0*g
            gens.append(g)
            _reach(tab, gens, reached)
    return all(tab[rx[g]] == tuple(map(rx.__getitem__, tab[g])) for g in gens for rx in tab)


def _json_name(obj: dict) -> str:
    """A group file's optional "name": a str, else a TypeError naming it."""
    name = obj.get("name", "")
    if type(name) is not str:
        raise TypeError(f"name must be a string, got {name!r}")
    return name


class FiniteGroup(Record):
    """A finite group as a validated Cayley table, a tuple of int tuples,
    identity at index 0."""

    _fields = ("order", "table", "name")
    name = ""

    def __post_init__(self):
        n = self.order
        tab = tuple(tuple(row) for row in self.table)
        object.__setattr__(self, "table", tab)
        if n < 1 or len(tab) != n or any(len(row) != n for row in tab):
            raise GroupTableError(f"table is not {n}x{n}")
        for row in tab:
            for x in row:
                if not 0 <= check_int(x, "table entry") < n:
                    raise GroupTableError(f"table entry {x} out of range 0..{n - 1}")
        if any(tab[0][j] != j or tab[j][0] != j for j in range(n)):
            raise NoIdentity()
        for a in range(n):
            if not any(tab[a][b] == 0 and tab[b][a] == 0 for b in range(n)):
                raise NoInverse(a)
        if not _light_test(tab):  # find and name the first failing triple
            for a, ra in enumerate(tab):
                for b, rb in enumerate(tab):
                    tab_ab = tab[ra[b]]
                    for c in range(n):
                        if tab_ab[c] != ra[rb[c]]:
                            raise NotAssociative(a, b, c)

    @cached_property
    def inverses(self) -> tuple[int, ...]:
        return tuple(row.index(0) for row in self.table)

    def __repr__(self):
        label = self.name or f"order {self.order}"
        return f"FiniteGroup({label})"

    @classmethod
    def from_json(cls, obj: dict) -> "FiniteGroup":
        if "table" in obj:
            table = obj["table"]
            order = check_int(obj.get("order", len(table)), "order")
            return cls(order, table, _json_name(obj))
        if "generators" in obj:
            return from_permutations(
                check_int(obj["perm_degree"], "perm_degree"),
                [tuple(check_int(x, "generator image") for x in g) for g in obj["generators"]],
                name=_json_name(obj),
            )
        raise ValueError("group JSON needs either 'table' or 'generators'")


class Subgroup(Record):
    """Sorted element indices of a subgroup of some FiniteGroup.

    Construction does not see the parent table; use
    subgroup_from_elements / subgroup_from_generators for validated
    construction.  ``group`` is the group a subgroup was validated
    against or built in by those functions and all_subgroups, else None;
    it takes no part in equality or hashing.
    """

    _fields = ("elements",)
    group = None

    def __post_init__(self):
        elems = tuple(sorted(set(self.elements)))
        if not elems or elems[0] != 0:
            raise ValueError("a subgroup must contain the identity (index 0)")
        object.__setattr__(self, "elements", elems)

    @cached_property
    def mask(self) -> int:
        """The elements as a bitset: bit a is set iff element a is in."""
        return sum(1 << a for a in self.elements)

    @property
    def order(self) -> int:
        return len(self.elements)


def group_from_table(table) -> FiniteGroup:
    """Validate a Cayley table; errors name the violated group axiom."""
    rows = tuple(tuple(row) for row in table)
    return FiniteGroup(len(rows), rows)


def _of_group(g: FiniteGroup, elements) -> Subgroup:
    """A Subgroup on elements that form a subgroup of g, marked as such."""
    sub = Subgroup(elements)
    object.__setattr__(sub, "group", g)
    return sub


def subgroup_from_elements(g: FiniteGroup, elements) -> Subgroup:
    """Validate that the given element indices form a subgroup of g."""
    elems = sorted(set(elements))
    for a in elems:
        if not 0 <= a < g.order:
            raise ValueError(f"element index {a} out of range")
    sub = set(elems)
    if 0 not in sub:
        raise ValueError("subgroup must contain the identity")
    for a in elems:
        if g.inverses[a] not in sub:
            raise ValueError(f"subgroup not closed under inverse of {a}")
        for b in elems:
            if g.table[a][b] not in sub:
                raise ValueError(f"subgroup not closed under product {a}*{b}")
    return _of_group(g, tuple(elems))


def subgroup_from_generators(g: FiniteGroup, gens) -> Subgroup:
    """Closure of the generators; always a valid subgroup (empty -> {e})."""
    for a in gens:
        if not 0 <= a < g.order:
            raise ValueError(f"generator index {a} out of range")
    closure = {0}
    _reach(g.table, list(gens), closure)
    # right products by generators reach every word in them from e; in a
    # finite group each inverse is a positive power, so the words are
    # the whole subgroup
    return _of_group(g, tuple(sorted(closure)))


def all_subgroups(g: FiniteGroup) -> tuple[Subgroup, ...]:
    """Subgroups generated by at most two elements, deduplicated.

    This is deliberately not the full subgroup lattice: for groups whose
    subgroups all need few generators (cyclic, dihedral, symmetric up to
    S4...) it is complete, elsewhere it is a systematic sample.  Sorted
    by (order, elements) for deterministic scans.  Listed once per group
    and kept on it: every call on g returns the same tuple.

    <a, b> depends only on <a> and <b>, and is the larger one when one
    contains the other, so one pair is closed per pair of distinct
    cyclic subgroups where neither contains the other.
    """
    got = g.__dict__.get("_subgroups")
    if got is not None:
        return got
    cyclics: dict[frozenset[int], int] = {}  # elements -> the least generator
    for a in range(g.order):
        reached = {0}
        _reach(g.table, (a,), reached)
        cyclics.setdefault(frozenset(reached), a)
    seen = set(cyclics)
    gens = list(cyclics.items())
    for i, (ha, a) in enumerate(gens):
        for hb, b in gens[i + 1:]:
            if not (ha <= hb or hb <= ha):
                reached = {0}
                _reach(g.table, (a, b), reached)
                seen.add(frozenset(reached))
    listing = sorted((len(h), sorted(h)) for h in seen)
    got = tuple(_of_group(g, tuple(e)) for _, e in listing)
    g.__dict__["_subgroups"] = got
    return got


# ---------------------------------------------------------------------------
# constructors and the built-in catalog


def _from_right_maps(order: int, maps, name: str) -> FiniteGroup:
    """The group on 0..order-1, identity 0, generated by the elements s
    whose right multiplications x -> x*s are the maps.  Column b = x*s of
    the table is column x mapped through s, as a*b = (a*x)*s; the maps
    come from a group law, so the table skips FiniteGroup's O(n**3) check."""
    cols = [tuple(range(order))] + [None] * (order - 1)
    reached = [0]
    for x in reached:  # the list grows as it is walked
        for s in maps:
            b = s[x]
            if cols[b] is None:
                cols[b] = tuple(map(s.__getitem__, cols[x]))
                reached.append(b)
    out = object.__new__(FiniteGroup)
    out.__dict__.update(order=order, table=tuple(zip(*cols)), name=name)
    return out


def cyclic(n: int, name: str = "") -> FiniteGroup:
    return _from_right_maps(n, [(*range(1, n), 0)], name or f"Z{n}")


def direct_product(*groups: FiniteGroup, name: str = "") -> FiniteGroup:
    if not groups:
        raise ValueError("direct product needs at least one factor")
    # element index = mixed-radix encoding of per-factor indices
    order = prod(g.order for g in groups)
    maps, stride = [], order
    for g in groups:
        stride //= g.order
        for e in range(1, g.order):  # a right product by e changes this factor's digit
            step = [(row[e] - d) * stride for d, row in enumerate(g.table)]
            maps.append(tuple(i + step[i // stride % g.order] for i in range(order)))
    default = "x".join(g.name or f"?{g.order}" for g in groups)
    return _from_right_maps(order, maps, name or default)


def dihedral(n: int, name: str = "") -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n.

    Element s*n + r is "rotate by r, then flip s times"; the product rule
    is (r1,s1)(r2,s2) = (r1 + (-1)^s1 * r2, s1 xor s2) and the identity
    (0,0) lands at index 0.  It is generated by (1,0) and (0,1).
    """
    if n < 1:
        raise ValueError("dihedral index must be >= 1")
    rotate = tuple(s * n + (r + 1 - 2 * s) % n for s in (0, 1) for r in range(n))
    flip = (*range(n, 2 * n), *range(n))
    return _from_right_maps(2 * n, [rotate, flip], name or f"D{n}")


#: the largest perm_degree and group order from_permutations builds (S6: 720)
MAX_PERM_DEGREE = 64
MAX_GROUP_ORDER = 720


def from_permutations(degree: int, generators, name: str = "") -> FiniteGroup:
    """Group generated by permutations (tuples mapping i -> p[i]) of 0..degree-1;
    ValueError past MAX_PERM_DEGREE or MAX_GROUP_ORDER, before it is built."""
    if not 0 <= degree <= MAX_PERM_DEGREE:
        raise ValueError(f"perm_degree must be in 0..{MAX_PERM_DEGREE}, got {degree}")
    identity = tuple(range(degree))
    for p in generators:
        if tuple(sorted(p)) != identity:
            raise ValueError(f"{p} is not a permutation of 0..{degree - 1}")
    gens = [tuple(p) for p in generators]
    elems = {identity}
    frontier = [identity]
    while frontier:  # right products reach the group, as in subgroup_from_generators
        p = frontier.pop()
        for q in gens:
            r = tuple(map(p.__getitem__, q))  # i -> p[q[i]]
            if r not in elems:
                elems.add(r)
                frontier.append(r)
        if len(elems) > MAX_GROUP_ORDER:
            raise ValueError(f"the generators give a group of order above {MAX_GROUP_ORDER}")
    ordered = [identity] + sorted(elems - {identity})
    index = {p: i for i, p in enumerate(ordered)}
    maps = [tuple(index[tuple(map(p.__getitem__, q))] for p in ordered) for q in gens]
    return _from_right_maps(len(ordered), maps, name)


def symmetric(n: int, name: str = "") -> FiniteGroup:
    if n < 1:
        raise ValueError(f"symmetric groups need n >= 1, got {n}")
    swap = (*range(min(n, 2))[::-1], *range(2, n))  # (0 1), or () when n = 1
    return from_permutations(n, [swap, (*range(1, n), 0)], name or f"S{n}")


#: the largest max_order builtin_catalog takes; its cyclic groups stop here
MAX_CATALOG_ORDER = 64


def check_max_order(max_order: int) -> None:
    """A ValueError unless max_order is in 1..MAX_CATALOG_ORDER; every
    command that takes --max-order checks it, used or not."""
    if not 1 <= max_order <= MAX_CATALOG_ORDER:
        raise ValueError(f"max_order must be in 1..{MAX_CATALOG_ORDER}, got {max_order}")


@lru_cache(maxsize=8)
def builtin_catalog(max_order: int) -> tuple[FiniteGroup, ...]:
    """Deterministic catalog: cyclics, products of 2-3 cyclics, dihedral,
    symmetric — everything of order <= max_order, sorted by (order, name).
    max_order must be in 1..MAX_CATALOG_ORDER (ValueError): the products
    grow fast past it, to 655 groups at order 200.
    The last 8 distinct max_orders asked for are kept: a repeated call
    returns the same tuple of the same groups, so their subgroup listings
    are made once too, and each dropped catalog takes its listings along.

    The catalog is a search space, not a classification: isomorphic
    groups may appear under different constructions.
    """
    check_max_order(max_order)
    groups: list[FiniteGroup] = []
    for n in range(1, max_order + 1):
        groups.append(cyclic(n))
    for a in range(2, max_order + 1):
        for b in range(a, max_order // a + 1):
            groups.append(direct_product(cyclic(a), cyclic(b)))
            for c in range(b, max_order // (a * b) + 1):
                groups.append(direct_product(cyclic(a), cyclic(b), cyclic(c)))
    for n in range(3, 13):
        if 2 * n <= max_order:
            groups.append(dihedral(n))
    for n in range(3, 6):
        if factorial(n) <= max_order:
            groups.append(symmetric(n))
    return tuple(sorted(groups, key=lambda g: (g.order, g.name)))


# ---------------------------------------------------------------------------
# coset entropy points


def coset_index_map(g: FiniteGroup, h: Subgroup) -> tuple[int, ...]:
    """Index of each element's left coset aH, cosets numbered 0,1,... in
    order of least representative."""
    idx = [-1] * g.order
    nxt = 0
    table = g.table
    for a in range(g.order):
        if idx[a] < 0:
            for x in h.elements:
                idx[table[a][x]] = nxt
            nxt += 1
    return tuple(idx)


def witness_set(g: FiniteGroup, subgroups) -> points.PointSet:
    """The finite set A = {(gH_1, ..., gH_m) : g in G} of coset tuples.

    Its base, the largest coset count #G/#H_i, bounds every digit and is
    the N a digit set made from A is read in.  A Subgroup is built
    without g's table, so each one is validated against g first, unless
    it was already validated against or built in g (its ``group`` is g):
    a ValueError names the element out of range or the failed closure,
    as does a count of subgroups outside 1..MAX_VARIABLES.
    """
    subs = [h if h.group is g else subgroup_from_elements(g, h.elements) for h in subgroups]
    check_m(len(subs))
    # one column per subgroup: coordinate i of element a's point is
    # a's coset index in H_i, and the largest index sets its field width
    maps = [coset_index_map(g, h) for h in subs]
    tops = [max(mp) for mp in maps]
    widths = tuple(t.bit_length() for t in tops)
    codes = points.pack_columns(maps, widths)
    return points.PointSet._of_valid(len(subs), max(tops) + 1, codes, widths)


def coset_entropy_point(g: FiniteGroup, subgroups, support) -> EntropyVector:
    """Exact entropy vector of the coset variables of (G, H_1..H_m):
    values[I] = log2(#G) - log2(#H_I).

    Each value is checked against `support`, witness_set(g, subgroups),
    which has validated the subgroups against g (ValueError).  Its
    projection onto I must have #G / #H_I points, with fibers of one
    size, so that its uniform distribution has this entropy on I; else
    AssertionError.  The fiber counts stay cached on the support.
    """
    subs = list(subgroups)
    n = g.order
    values = {}
    for mask, order in _intersection_orders(g, subs).items():
        fibers = support.fibers(mask)
        if len(fibers) * order != n or len(set(fibers.values())) != 1:
            raise AssertionError(
                f"coset entropies disagree with witness counting at {mask}"
            )
        values[mask] = ExactLogLin._of_valid(1, ((n, 1), (order, -1)))
    return EntropyVector(len(subs), values)


def _extend(inter: list[int], k: int, bits: int) -> None:
    """Intersections that gain variable k: inter[lo | s] = inter[s] & bits
    for every s < lo = 2**k, where inter[0] is the whole group."""
    lo = 1 << k
    for s in range(lo):
        inter[lo | s] = inter[s] & bits


def _intersection_orders(g: FiniteGroup, subs) -> dict[int, int]:
    """#H_I for every nonempty I, via shared-prefix bitset intersections."""
    m = len(subs)
    masks = subsets(m)
    inter = [(1 << g.order) - 1] + [0] * len(masks)
    for k, h in enumerate(subs):
        _extend(inter, k, h.mask)
    return {mask: inter[mask].bit_count() for mask in masks}


class Violation(Record):
    """A group point: the group, the tuple of subgroups, their EntropyVector
    point and its ExactLogLin slack on an inequality.  ``support``, the
    witness set the point was checked against, whose base bounds its
    digits, is required but outside == and repr."""

    _fields = ("group", "subgroups", "point", "slack")

    def __init__(self, group, subgroups, point, slack, support) -> None:
        super().__init__(group, subgroups, point, slack)
        object.__setattr__(self, "support", support)


def group_point(ineq: LinearInequality, g: FiniteGroup, subgroups) -> Violation:
    """The coset point of (g, subgroups) with its exact slack on ineq: one
    subgroup per variable (else ValueError), each validated by witness_set,
    whose one witness set checks the point and is kept as ``support``."""
    subs = tuple(subgroups)
    if len(subs) != ineq.m:
        raise ValueError(f"need {ineq.m} subgroups, got {len(subs)}")
    support = witness_set(g, subs)
    point = coset_entropy_point(g, subs, support)
    return Violation(g, subs, point, eval_slack(ineq, point), support)


def search_violation(
    ineq: LinearInequality,
    groups=None,
    max_order: int = 16,
) -> Violation | None:
    """Scan (group, subgroup tuple) candidates for a violated inequality.

    Deterministic lexicographic scan: catalog order, then subgroup
    tuples in ``itertools.product`` order over the all_subgroups listing.
    Returns the first tuple whose coset entropy point gives exactly
    negative slack, or None when the catalog is exhausted — which is
    *not* a proof that no counterexample exists, only that none was found
    within the catalog.

    The slack sum_T c_T log2(n / h_T), with n = #G and h_T = #H_T, is
    decided exactly and with no size limit.  The coefficients c_T =
    nums[T] / den are scaled to coprime integer exponents e_T = nums[T] / g
    (g the gcd of the numerators); a positive scaling keeps the sign.
    Every h_T divides n, so the scaled slack is
    sum_p C_p log2 p over the primes p of n, with integer exponents
    C_p = sum_T e_T v_p(n / h_T).  Subgroups are int bitsets and the
    tuples are walked depth-first, variable 1 outermost: choosing H_k
    extends the intersections of the prefix by one AND each and adds the
    terms whose highest variable is k to one int that holds the C_p.
    The last two variables are not walked: every leaf of a tile of their
    pairs is a slot of one int, summed once per term, and the top bit of
    each C_p's field in a slot gives its sign (see _first_negative).

    The walk skips every subtree whose tuples a slack-keeping map (see
    _symmetries: swaps of variables the exponents treat alike, and
    conjugations) sends to earlier tuples.  This keeps the first hit:
    the image of the first violating tuple violates too, so it is not
    earlier, and that tuple is never skipped.
    A hit is rebuilt by group_point, which rechecks the coset point on its
    witness set and re-decides the slack; disagreement raises
    AssertionError.
    """
    cat = list(groups) if groups is not None else builtin_catalog(max_order)
    if not cat:
        raise ValueError("empty group catalog")
    m = ineq.m
    div = gcd(*ineq.nums.values())
    exps = {mask: a // div for mask, a in ineq.nums.items()}
    for g in cat:
        subs = all_subgroups(g)
        hit = _first_negative(
            g.order, [h.mask for h in subs], m, exps, *_symmetries(g, subs, m, exps)
        )
        if hit is not None:
            found = group_point(ineq, g, (subs[i] for i in hit))
            if found.slack.sign() >= 0:
                raise AssertionError("fast slack sign disagrees with exact")
            return found
    return None


def _symmetries(g: FiniteGroup, subs, m: int, exps: dict[int, int]):
    """Maps on m-tuples of indices into subs that keep every slack.

    Returns (swaps, renamings).  A swap (i, j), i < j, exchanges
    positions i and j of a tuple; it is listed when exchanging variables
    i and j leaves the exponents unchanged (each of the m*(m-1)/2 pairs
    is checked; larger variable permutations are not tried).  A renaming
    is a tuple r sending index k to r[k], applied to every position; the
    distinct non-identity ones come from conjugation H -> xHx^-1 by the
    elements x of g.  subs is g's all_subgroups listing, which every
    conjugation maps onto itself: <a, b> conjugated by x is
    <xax^-1, xbx^-1>, made by as many generators.  Conjugation keeps the
    order of every intersection, so it keeps the slack.
    """
    swaps = []
    for i in range(m):
        for j in range(i + 1, m):
            both = 1 << i | 1 << j
            if all(
                exps.get(mask ^ both if (mask >> i ^ mask >> j) & 1 else mask) == e
                for mask, e in exps.items()
            ):
                swaps.append((i, j))
    index = {h.mask: k for k, h in enumerate(subs)}
    tab, inv = g.table, g.inverses
    ident = list(range(g.order))
    seen = {tuple(range(len(subs)))}
    renamings = []
    for x in range(1, g.order):
        row, xi = tab[x], inv[x]
        conj = [tab[y][xi] for y in row]  # a -> x a x^-1
        if conj == ident:
            continue
        image = tuple(index[sum(1 << conj[a] for a in h.elements)] for h in subs)
        if image not in seen:
            seen.add(image)
            renamings.append(image)
    return swaps, renamings


def _first_negative(
    n: int, masks: list[int], m: int, exps: dict[int, int], swaps, renamings
):
    """Indices into masks of the first m-tuple, in product order, whose
    slack (see search_violation) is negative; None if there is none.

    A tuple's C_p are one int, sum_j (C_p + 2**(w-1)) * 2**(w*j) for p the
    j-th prime of n: the sum of that offset and the e_T * L[h_T], L[h] the
    exponents of n/h so placed.  Each |C_p| <= B = sum |e| * n.bit_length()
    < 2**(w-1), so each field is in 1..2**w-1, and its top bit is set iff
    C_p >= 0.  A leaf with every top bit set has slack >= 0.  Any other
    looks its sum up in this group's decisions; a new one is negative
    when no C_p is positive, else loglin_sign decides it on the primes,
    a coprime base.

    The last two levels are summed a tile at a time.  A tile is the rows
    a0..a0+r-1 of leaves (a, b), H_a at level m-2 and H_b at level m-1
    (m = 1 has one row and no a), and leaf (a, b) is the W-bit slot
    (a - a0)*L + b of its int (W = w * len(primes), L = len(masks)), so
    the lowest slot is the tile's first tuple in product order.  The int
    is the prefix's sum in every slot plus e times, per term on X (an
    intersection of the prefix), L[|X & H_a|] in row a, R(X) = sum_b
    L[|X & H_b|] << W*b in every row, or R(X & H_a) in row a.  Every
    slot holds a real leaf's sum, in 0..2**W-1 by the bound, so no slot
    carries into the next.

    The maps of _symmetries prune the walk: a tuple t is skipped when a
    map sends it to a lexicographically smaller tuple.  A swap (p, k)
    does so exactly when t[k] < t[p], so level k starts at the largest
    such t[p].  A renaming r is compared at each level k below the last
    while it fixes the prefix: r[t[k]] < t[k] skips the subtree, and
    r[t[k]] > t[k] drops r from it.  In a tile the skipped leaves are
    left out of the mask of allowed top bits, and the allowed slots with
    a clear top bit are decided in ascending order, so the first hit is
    the first leaf, in product order, that the walk keeps and decides.
    """
    primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]
    if not primes:  # n = 1: every slack is 0
        return None
    w = (sum(map(abs, exps.values())) * n.bit_length()).bit_length() + 1
    half = 1 << w - 1
    W = w * len(primes)
    offset = sum(half << w * j for j in range(len(primes)))  # the top bits
    packed = [0] * (n + 1)  # L[h] for h | n, as L[h * p] plus p's field
    for h in range(n - 1, 0, -1):
        if n % h == 0:
            j, p = next((j, p) for j, p in enumerate(primes) if n % (h * p) == 0)
            packed[h] = packed[h * p] + (1 << w * j)
    # per variable k, (rest of the mask, e) of each term whose highest variable is k
    levels = [[] for _ in range(m)]
    for mask, e in exps.items():
        k = mask.bit_length() - 1
        levels[k].append((mask ^ (1 << k), e))
    # per variable k, the earlier positions p of the swaps (p, k)
    swapped = [[] for _ in range(m)]
    for p, k in swaps:
        swapped[k].append(p)
    decided: dict[int, bool] = {}  # packed sum -> slack < 0
    last = max(m - 2, 0)  # the level the tiles start at
    inter = [0] * (1 << last)
    inter[0] = (1 << n) - 1
    t = [0] * m
    L, nrows = len(masks), len(masks) if m > 1 else 1
    # About 128 leaves a tile: few enough that a search stopping early
    # sums little past its hit and a tile holds few bits, many enough
    # that a row of a few leaves costs one sum per term, not one each.
    per = max(1, 128 // L)  # rows a tile
    row_bits = W * L
    fill = ((1 << row_bits) - 1) // ((1 << W) - 1)  # 1 in each slot of a row
    # r -> 1 in the lowest slot of each of r rows, for r of a full and of the last tile
    reps = {r: ((1 << row_bits * r) - 1) // ((1 << row_bits) - 1)
            for r in (min(per, nrows), nrows % per or per)}
    tops = [offset * fill >> W * c << W * c for c in range(L + 1)]  # of slots c..L-1
    rows: dict[int, int] = {}  # X -> R(X)
    tiles: dict = {}  # (kind, X, first row) -> a term's tile

    def row(x: int) -> int:
        got = rows.get(x)
        if got is None:
            got = rows[x] = sum(packed[(x & b).bit_count()] << W * i for i, b in enumerate(masks))
        return got

    def column(x: int) -> int:
        return packed[x.bit_count()]

    def stacked(kind, x: int, a0: int, r: int) -> int:
        """kind(x & H_a) in row a - a0 for a = a0.., kept unless r = 1."""
        if r == 1:
            return kind(x & masks[a0])
        got = tiles.get((kind, x, a0))
        if got is None:
            got = tiles[kind, x, a0] = sum(
                kind(x & masks[a]) << row_bits * (a - a0) for a in range(a0, a0 + r))
        return got

    # the terms of the tiles: on H_a and the prefix; on H_b and the
    # prefix, the same in every row; on H_a, H_b and the prefix
    k = m - 2
    cut = 1 << k if m > 1 else 0
    col_terms = levels[k] if m > 1 else []
    band_terms = [(s, e) for s, e in levels[m - 1] if not s & cut]
    meet_terms = [(s ^ cut, e) for s, e in levels[m - 1] if s & cut]
    acuts = swapped[k] if m > 1 else []
    bcuts = [p for p in swapped[m - 1] if p != k]
    diag = k in swapped[m - 1]

    def leaves(total: int, live: list):
        astart = max([t[p] for p in acuts], default=0)
        bstart = max([t[p] for p in bcuts], default=0)
        band = total * fill + sum(e * row(inter[s]) for s, e in band_terms)
        for a0 in range(astart - astart % per, nrows, per):
            r = min(per, nrows - a0)
            allowed = 0
            for a in range(max(a0, astart), a0 + r):
                if not any(q[a] < a for q in live):
                    allowed |= tops[max(a, bstart) if diag else bstart] << row_bits * (a - a0)
            if not allowed:
                continue
            col = 0
            for s, e in col_terms:
                col += e * stacked(column, inter[s], a0, r)
            acc = band * reps[r] + col * fill
            for s, e in meet_terms:
                acc += e * stacked(row, inter[s], a0, r)
            cand = allowed & ~acc
            while cand:
                slot = ((cand & -cand).bit_length() - 1) // W
                v = acc >> W * slot & ((1 << W) - 1)
                neg = decided.get(v)
                if neg is None:
                    cs = [(v >> w * j) % (2 * half) - half for j in range(len(primes))]
                    slack = ExactLogLin._of_valid(1, zip(primes, cs))
                    neg = decided[v] = max(cs) <= 0 or loglin_sign(slack) < 0
                if neg:
                    return [a0 + slot // L, slot % L][-m:]
                cand &= -1 << W * (slot + 1)
        return None

    def walk(k: int, total: int, live: list):
        if k == last:
            return leaves(total, live)
        start = max([t[p] for p in swapped[k]], default=0)
        lo = 1 << k
        keep = live
        for i in range(start, L):
            if live:
                if any(r[i] < i for r in live):
                    continue
                keep = [r for r in live if r[i] == i]
            t[k] = i
            _extend(inter, k, masks[i])
            acc = total
            for s, e in levels[k]:
                acc += e * packed[inter[lo | s].bit_count()]
            got = walk(k + 1, acc, keep)
            if got is not None:
                return [i] + got
        return None

    return walk(0, offset, list(renamings))


def subgroups_from_json(g: FiniteGroup, arrays) -> list[Subgroup]:
    return [subgroup_from_elements(g, [check_int(a, "element index") for a in arr])
            for arr in arrays]


def subgroups_to_json(subgroups) -> list[list[int]]:
    return [list(h.elements) for h in subgroups]
