import json
import random
import time
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from entrodim import core
from entrodim.cantor import build_counterexample
from entrodim.cli import main
from entrodim.core import ExactLogLin, eval_slack
from entrodim.distributions import SupportSet, exact_entropy_vector
from entrodim.dsl import parse_inequality
from entrodim.groups import (
    FiniteGroup,
    NoIdentity,
    NoInverse,
    NotAssociative,
    Subgroup,
    Violation,
    all_subgroups,
    builtin_catalog,
    coset_entropy_point,
    coset_index_map,
    cyclic,
    dihedral,
    direct_product,
    from_permutations,
    group_from_table,
    group_point,
    search_violation,
    subgroup_from_elements,
    subgroup_from_generators,
    subgroups_from_json,
    subgroups_to_json,
    symmetric,
    witness_set,
    _symmetries,
)
from entrodim.linear import MAX_VARIABLES, LinearInequality, subsets
from entrodim.shannon import elemental_inequalities, zhang_yeung

# Reference: the Fraction-product group search that the integer-exponent
# bitset walk replaced.  The walk must visit tuples in the same order and
# decide each slack sign the same way, so its first hit must equal this.


def _reference_orders(g: FiniteGroup, subs) -> dict[int, int]:
    """#H_I for every nonempty I, via shared-prefix intersections."""
    m = len(subs)
    sets: dict[int, frozenset[int]] = {}
    orders: dict[int, int] = {}
    for mask in subsets(m):
        low = mask & -mask
        rest = mask ^ low
        if rest == 0:
            cur = frozenset(subs[low.bit_length() - 1].elements)
        else:
            cur = sets[rest].intersection(subs[low.bit_length() - 1].elements)
        sets[mask] = cur
        orders[mask] = len(cur)
    return orders


def _reference_search(
    ineq: LinearInequality, groups=None, max_order: int = 16
) -> Violation | None:
    """Scan (group, subgroup tuple) candidates for a violated inequality.

    Deterministic lexicographic scan: catalog order, then subgroup
    tuples ordered by the all_subgroups listing.  Returns the first
    tuple whose coset entropy point gives exactly negative slack, or
    None when the catalog is exhausted — which is *not* a proof that no
    counterexample exists, only that none was found within the catalog.
    """
    cat = list(groups) if groups is not None else builtin_catalog(max_order)
    if not cat:
        raise ValueError("empty group catalog")
    m = ineq.m
    items = sorted(ineq.coeffs.items())
    for g in cat:
        subs = all_subgroups(g)
        n = g.order
        for tup in product(subs, repeat=m):
            orders = _reference_orders(g, tup)
            # slack = sum c_T * log2(n / #H_T); sign via one exact
            # rational product: slack > 0 iff prod (n/#H_T)^(c_T) > 1
            prod_ = Fraction(1)
            for mask, c in items:
                base = Fraction(n, orders[mask])
                if c.denominator == 1:
                    prod_ *= base ** c.numerator
                else:
                    # fractional weights: defer to the exact loglin sign
                    prod_ = None
                    break
            if prod_ is None:
                point = coset_entropy_point(g, tup, witness_set(g, tup))
                negative = eval_slack(ineq, point).sign() < 0
            else:
                negative = prod_ < 1
            if negative:
                support = witness_set(g, tup)
                point = coset_entropy_point(g, tup, support)
                slack = eval_slack(ineq, point)
                if slack.sign() >= 0:
                    raise AssertionError("fast slack sign disagrees with exact")
                return Violation(g, tuple(tup), point, slack, support)
    return None

KLEIN = direct_product(cyclic(2), cyclic(2), name="klein")

# order-5 loop: identity and inverses check out, associativity does not
LOOP5 = (
    (0, 1, 2, 3, 4),
    (1, 0, 3, 4, 2),
    (2, 4, 0, 1, 3),
    (3, 2, 4, 0, 1),
    (4, 3, 1, 2, 0),
)


def test_table_validation_ok():
    g = group_from_table([[0, 1], [1, 0]])
    assert g.order == 2
    assert KLEIN.order == 4
    assert KLEIN.table[1][2] == 3
    assert KLEIN.inverses == (0, 1, 2, 3)


def test_no_identity():
    with pytest.raises(NoIdentity):
        group_from_table([[1, 0], [0, 1]])


def test_no_inverse():
    with pytest.raises(NoInverse) as err:
        group_from_table([[0, 1], [1, 1]])
    assert err.value.element == 1


def test_not_associative():
    with pytest.raises(NotAssociative) as err:
        group_from_table(LOOP5)
    assert err.value.triple == (1, 1, 2)


def test_shape_and_range_errors():
    with pytest.raises(ValueError):
        group_from_table([[0, 1]])
    with pytest.raises(ValueError):
        group_from_table([[0, 5], [1, 0]])


def test_cyclic():
    z4 = cyclic(4)
    assert z4.order == 4
    assert z4.table[3][2] == 1
    assert z4.inverses == (0, 3, 2, 1)
    assert z4.name == "Z4"
    assert cyclic(1).order == 1


def test_dihedral():
    d3 = dihedral(3)
    assert d3.order == 6
    # rotation * reflection != reflection * rotation
    assert d3.table[1][3] != d3.table[3][1]
    with pytest.raises(ValueError):
        dihedral(0)


def test_symmetric():
    s3 = symmetric(3)
    assert s3.order == 6
    assert symmetric(4).order == 24
    assert symmetric(6).order == 720  # MAX_GROUP_ORDER admits S6
    with pytest.raises(ValueError, match="order above 720"):
        symmetric(7)
    with pytest.raises(ValueError, match="n >= 1"):
        symmetric(0)


def _reference_symmetric(n: int) -> tuple:
    """The Cayley table symmetric(n) built before it went through
    from_permutations: every permutation in lexicographic order."""
    ordered = list(permutations(range(n)))  # identity is lexicographically first
    index = {p: i for i, p in enumerate(ordered)}
    return tuple(
        tuple(index[tuple(p[q[i]] for i in range(n))] for q in ordered)
        for p in ordered
    )


@pytest.mark.parametrize("n", range(1, 6))
def test_symmetric_matches_reference_table(n):
    g = symmetric(n)
    assert g.table == _reference_symmetric(n)
    assert g.name == f"S{n}"


def test_from_permutations():
    z3 = from_permutations(3, [(1, 2, 0)])
    assert z3.order == 3
    s3 = from_permutations(3, [(1, 0, 2), (0, 2, 1)])
    assert s3.order == 6
    with pytest.raises(ValueError):
        from_permutations(3, [(0, 0, 2)])


def test_group_json_round_trip():
    table = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    g = FiniteGroup.from_json({"order": 4, "table": table, "name": "klein"})
    assert g == KLEIN
    h = FiniteGroup.from_json({"perm_degree": 3, "generators": [[1, 0, 2]]})
    assert h.order == 2
    with pytest.raises(ValueError):
        FiniteGroup.from_json({"order": 2})


def test_subgroup_construction():
    h = subgroup_from_elements(KLEIN, [1, 0])
    assert h.elements == (0, 1)
    assert h.order == 2
    with pytest.raises(ValueError):
        subgroup_from_elements(KLEIN, [1, 2])  # no identity
    with pytest.raises(ValueError):
        subgroup_from_elements(cyclic(4), [0, 1])  # not closed
    with pytest.raises(ValueError):
        subgroup_from_elements(KLEIN, [0, 9])
    with pytest.raises(ValueError):
        Subgroup((1, 2))


def test_subgroup_from_generators():
    assert subgroup_from_generators(KLEIN, ()).elements == (0,)
    assert subgroup_from_generators(KLEIN, (3,)).elements == (0, 3)
    s3 = symmetric(3)
    assert subgroup_from_generators(s3, (1,)).elements == (0, 1)
    assert subgroup_from_generators(s3, (3,)).elements == (0, 3, 4)
    assert subgroup_from_generators(s3, (1, 2)).order == 6


def _two_sided_closure(gens, mul, identity) -> set:
    """The closure the group constructors took before they kept right
    products only: a*b and b*a for every generator b, kept as the
    reference."""
    closure, frontier = {identity}, [identity]
    while frontier:
        a = frontier.pop()
        for b in gens:
            for c in (mul(a, b), mul(b, a)):
                if c not in closure:
                    closure.add(c)
                    frontier.append(c)
    return closure


def test_subgroup_from_generators_matches_two_sided_closure():
    rng = random.Random(5)
    for g in (*builtin_catalog(24), symmetric(5)):
        mul = lambda a, b: g.table[a][b]  # noqa: E731
        pairs = [(a, b) for a in range(g.order) for b in range(a + 1, g.order)]
        gens = [(), *((a,) for a in range(g.order)), *rng.sample(pairs, min(len(pairs), 300))]
        for gen in gens:
            want = tuple(sorted(_two_sided_closure(gen, mul, 0)))
            assert subgroup_from_generators(g, gen).elements == want, (g.name, gen)


def test_from_permutations_matches_two_sided_closure():
    rng = random.Random(5)
    s5 = [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]
    cases = [(5, s5), (5, [(1, 2, 0, 3, 4), (0, 1, 2, 4, 3)]), (4, [(1, 2, 3, 0), (0, 3, 2, 1)])]
    for _ in range(20):
        degree = rng.randint(1, 5)
        cases.append((degree, [tuple(rng.sample(range(degree), degree))
                               for _ in range(rng.randint(1, 3))]))
    for degree, gens in cases:
        identity = tuple(range(degree))
        compose = lambda p, q: tuple(p[q[i]] for i in range(degree))  # noqa: E731
        ordered = [identity] + sorted(_two_sided_closure(gens, compose, identity) - {identity})
        index = {p: i for i, p in enumerate(ordered)}
        table = tuple(tuple(index[compose(p, q)] for q in ordered) for p in ordered)
        assert from_permutations(degree, gens).table == table, gens
    assert from_permutations(5, s5).order == 120


def _reference_cyclic(n: int) -> tuple:
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


def _reference_dihedral(n: int) -> tuple:
    """The law (r1,s1)(r2,s2) = (r1 + (-1)^s1 * r2, s1 xor s2) applied to
    every pair, element (r, s) at index s*n + r."""
    elems = [(r, s) for s in (0, 1) for r in range(n)]
    index = {e: i for i, e in enumerate(elems)}
    return tuple(
        tuple(index[((r1 + (r2 if s1 == 0 else -r2)) % n, s1 ^ s2)] for r2, s2 in elems)
        for r1, s1 in elems
    )


def _reference_product(*tables) -> tuple:
    """The direct product's table, one dict lookup per entry, on the
    mixed-radix numbering with the first factor most significant."""
    coords = list(product(*(range(len(t)) for t in tables)))
    index = {xs: i for i, xs in enumerate(coords)}
    return tuple(
        tuple(index[tuple(t[x][y] for t, x, y in zip(tables, xs, ys))] for ys in coords)
        for xs in coords
    )


def _reference_table(name: str) -> tuple:
    """The table of a group named as the constructors name it (Z5, D3,
    S4, Z2xD3, ...), built from its group law entry by entry."""
    if "x" in name:
        return _reference_product(*map(_reference_table, name.split("x")))
    law = {"Z": _reference_cyclic, "D": _reference_dihedral, "S": _reference_symmetric}[name[0]]
    return law(int(name[1:]))


def test_every_constructor_fills_the_table_of_its_group_law():
    # symmetric(1..5) is test_symmetric_matches_reference_table's
    built = [
        *builtin_catalog(64),
        *map(cyclic, range(1, 65)),
        *map(dihedral, range(1, 13)),
        direct_product(cyclic(2), dihedral(3)),
        direct_product(dihedral(3), cyclic(2), symmetric(3)),
    ]
    for g in built:
        assert g.table == _reference_table(g.name), g.name
    assert built[-1].name == "D3xZ2xS3" and built[-1].order == 72
    gens = [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)]
    s6 = _reference_symmetric(6)
    assert from_permutations(6, gens).table == s6
    # every element fixes 6..63, which leaves the lexicographic order and
    # the products as they are at degree 6; the build takes one column map
    # per element and generator, well under a second
    start = time.perf_counter()
    s6_at_64 = from_permutations(64, [p + tuple(range(6, 64)) for p in gens])
    assert time.perf_counter() - start < 1.0
    assert s6_at_64.table == s6
    assert from_permutations(0, []).table == from_permutations(3, []).table == ((0,),)


def test_all_subgroups():
    subs = all_subgroups(KLEIN)
    assert [h.elements for h in subs] == [
        (0,), (0, 1), (0, 2), (0, 3), (0, 1, 2, 3)
    ]
    assert [h.order for h in all_subgroups(cyclic(6))] == [1, 2, 3, 6]
    # two-generator sampling: the full group of Z2^3 needs three
    # generators, so it is absent by design
    cube = direct_product(cyclic(2), cyclic(2), cyclic(2))
    subs = all_subgroups(cube)
    assert len(subs) == 15
    assert max(h.order for h in subs) == 4


def _reference_all_subgroups(g: FiniteGroup, max_generators: int = 2) -> list[Subgroup]:
    """The listing all_subgroups replaced: one closure per generator pair."""
    seen: set[tuple[int, ...]] = set()
    seen.add(subgroup_from_generators(g, ()).elements)
    singles = []
    for a in range(1, g.order):
        sub = subgroup_from_generators(g, (a,))
        singles.append(sub.elements)
        seen.add(sub.elements)
    if max_generators >= 2:
        for a in range(1, g.order):
            for b in range(a + 1, g.order):
                seen.add(subgroup_from_generators(g, (a, b)).elements)
    return sorted((Subgroup(e) for e in seen), key=lambda s: (s.order, s.elements))


def test_all_subgroups_matches_reference():
    for g in (*builtin_catalog(24), symmetric(5)):
        assert list(all_subgroups(g)) == _reference_all_subgroups(g), g


def test_builtin_catalog():
    cat = builtin_catalog(6)
    assert [g.name for g in cat] == [
        "Z1", "Z2", "Z3", "Z2xZ2", "Z4", "Z5", "D3", "S3", "Z2xZ3", "Z6"
    ]
    cat24 = builtin_catalog(24)
    assert len(cat24) == 63
    assert all(g.order <= 24 for g in cat24)
    assert list(cat24) == sorted(cat24, key=lambda g: (g.order, g.name))


def test_catalog_and_subgroup_listings_are_built_once():
    cat = builtin_catalog(6)
    assert isinstance(cat, tuple) and builtin_catalog(6) is cat
    for g in cat:
        subs = all_subgroups(g)
        assert isinstance(subs, tuple) and all_subgroups(g) is subs
    # the shared catalog gives the first hit, or the miss, of a fresh one
    fresh = builtin_catalog.__wrapped__(6)
    assert fresh == cat and not any(a is b for a, b in zip(fresh, cat))
    hits = []
    for ineq in (parse_inequality("H(x,z) + H(y,z) <= H(x,y,z) + H(z)"), zhang_yeung()):
        first = search_violation(ineq, max_order=6)
        assert search_violation(ineq, max_order=6) == first
        assert search_violation(ineq, groups=fresh) == first
        assert first == _reference_search(ineq, groups=builtin_catalog.__wrapped__(6))
        hits.append(first)
    assert hits[0] is not None and hits[1] is None
    # the memo is bounded: eight other orders push this catalog out
    for order in range(7, 15):
        builtin_catalog(order)
    assert builtin_catalog(6) is not cat and builtin_catalog(6) == cat


def test_coset_index_map():
    z4 = cyclic(4)
    h = subgroup_from_elements(z4, [0, 2])
    assert coset_index_map(z4, h) == (0, 1, 0, 1)
    e = subgroup_from_elements(z4, [0])
    assert coset_index_map(z4, e) == (0, 1, 2, 3)


def test_witness_set():
    h1 = subgroup_from_elements(KLEIN, [0, 1])
    h2 = subgroup_from_elements(KLEIN, [0, 2])
    h3 = subgroup_from_elements(KLEIN, [0, 3])
    a = witness_set(KLEIN, [h1, h2, h3])
    assert len(a.points) == 4
    for mask in (0b011, 0b101, 0b110):
        idx = [i for i in range(3) if mask >> i & 1]
        assert len({tuple(p[i] for i in idx) for p in a.points}) == 4

    full = subgroup_from_elements(KLEIN, [0, 1, 2, 3])
    assert witness_set(KLEIN, [full, full]).points == frozenset({(0, 0)})

    z3 = cyclic(3)
    e = subgroup_from_elements(z3, [0])
    assert witness_set(z3, [e, e]).points == frozenset(
        {(0, 0), (1, 1), (2, 2)}
    )


@pytest.mark.parametrize("count", [0, MAX_VARIABLES + 1])
def test_witness_set_refuses_a_subgroup_count_outside_the_variable_range(count):
    # the message is the one SupportSet(count, ...) gives for such an m
    e = subgroup_from_elements(KLEIN, [0])
    message = rf"m must be in 1\.\.{MAX_VARIABLES}, got {count}"
    for run in (lambda: witness_set(KLEIN, [e] * count),
                lambda: coset_entropy_point(KLEIN, [e] * count, witness_set(KLEIN, [e] * count))):
        with pytest.raises(ValueError, match=message):
            run()
    with pytest.raises(ValueError, match=message):
        SupportSet(count, {(0,) * count})


def test_coset_entropy_point_klein():
    h1 = subgroup_from_elements(KLEIN, [0, 1])
    h2 = subgroup_from_elements(KLEIN, [0, 2])
    h3 = subgroup_from_elements(KLEIN, [0, 3])
    point = coset_entropy_point(KLEIN, [h1, h2, h3], witness_set(KLEIN, [h1, h2, h3]))
    expected = dict(zip(subsets(3), (1, 1, 2, 1, 2, 2, 2)))
    for mask, bits in expected.items():
        assert (point[mask] - ExactLogLin.bits(bits)).sign() == 0


def test_coset_entropy_point_degenerate():
    full = subgroup_from_elements(KLEIN, [0, 1, 2, 3])
    e = subgroup_from_elements(KLEIN, [0])
    zero = coset_entropy_point(KLEIN, [full, full], witness_set(KLEIN, [full, full]))
    assert all(zero[mask].sign() == 0 for mask in subsets(2))
    top = coset_entropy_point(KLEIN, [e], witness_set(KLEIN, [e]))
    assert (top[1] - ExactLogLin.bits(2)).sign() == 0


def test_lagrange_and_monotone_on_random_tuples():
    rng = random.Random(2024)
    cat = builtin_catalog(12)
    for _ in range(60):
        g = rng.choice(cat)
        subs = all_subgroups(g)
        m = rng.randint(1, 3)
        tup = [rng.choice(subs) for _ in range(m)]
        for h in tup:
            assert g.order % h.order == 0  # Lagrange
        point = coset_entropy_point(g, tup, witness_set(g, tup))
        for i in subsets(m):
            for j in subsets(m):
                if i & j == i:
                    assert (point[j] - point[i]).sign() >= 0


def test_group_points_satisfy_elemental_rows():
    rng = random.Random(17)
    cat = builtin_catalog(12)
    rows = elemental_inequalities(3).rows
    for _ in range(25):
        g = rng.choice(cat)
        subs = all_subgroups(g)
        tup = [rng.choice(subs) for _ in range(3)]
        point = coset_entropy_point(g, tup, witness_set(g, tup))
        for row in rows:
            assert eval_slack(row, point).sign() >= 0


def test_search_violation_found():
    bad = parse_inequality("H(x,y) <= H(x)")
    hit = search_violation(bad, groups=[KLEIN])
    assert hit is not None
    assert hit.group is KLEIN
    assert tuple(h.elements for h in hit.subgroups) == ((0, 1), (0,))
    assert (hit.slack + ExactLogLin.bits(1)).sign() == 0  # slack = -1 bit

    # default catalog: Z2 wins first (Z1 gives all-zero slacks)
    hit = search_violation(bad)
    assert hit.group.name == "Z2"
    assert tuple(h.elements for h in hit.subgroups) == ((0, 1), (0,))
    assert str(hit.slack) == "-1"


def test_search_violation_fractional_coefficients():
    bad = parse_inequality("H(x,y) <= 1/2 H(x)")
    hit = search_violation(bad, groups=[cyclic(2)])
    assert hit is not None
    assert tuple(h.elements for h in hit.subgroups) == ((0,), (0,))
    assert str(hit.slack) == "-1/2"


def test_search_violation_none():
    good = parse_inequality("I(x;y) >= 0")
    assert search_violation(good, max_order=4) is None
    with pytest.raises(ValueError):
        search_violation(good, groups=[])


def test_zhang_yeung_has_no_tiny_group_witness():
    # the catalog scan is exhaustive over its candidates, so "None" here
    # documents that no violation exists at these orders — not that the
    # inequality is valid in general
    assert search_violation(zhang_yeung(), max_order=4) is None


def test_witness_counting_matches_formula():
    rng = random.Random(404)
    cat = builtin_catalog(10)
    for _ in range(30):
        g = rng.choice(cat)
        subs = all_subgroups(g)
        m = rng.randint(1, 3)
        tup = [rng.choice(subs) for _ in range(m)]
        support = witness_set(g, tup)
        counted = exact_entropy_vector(support)
        formula = coset_entropy_point(g, tup, support)
        for mask in subsets(m):
            assert (counted[mask] - formula[mask]).sign() == 0


def test_coset_point_refuses_a_support_with_unequal_fibers():
    # Z8 with H1 = {0, 4} and H2 = {0}: position 1 of the witness set takes
    # 8/2 = 4 values.  On this support it takes 5, with fibers 4, 1, 1, 1, 1,
    # whose entropy is also exactly 2 bits, so only the counts tell them apart.
    z8 = cyclic(8)
    subs = [subgroup_from_elements(z8, [0, 4]), subgroup_from_elements(z8, [0])]
    odd = SupportSet(2, [(0, 0), (0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6), (4, 7)])
    assert (exact_entropy_vector(odd)[0b01] - ExactLogLin.bits(2)).sign() == 0
    with pytest.raises(AssertionError, match="disagree with witness counting at 1"):
        coset_entropy_point(z8, subs, odd)
    point = coset_entropy_point(z8, subs, witness_set(z8, subs))
    assert (point[0b01] - ExactLogLin.bits(2)).sign() == 0
    assert (point[0b11] - ExactLogLin.bits(3)).sign() == 0


@pytest.mark.parametrize("subs, message", [
    ([Subgroup((0, 7)), Subgroup((0,))], "element index 7 out of range"),
    ([Subgroup((0, 1)), Subgroup((0,))], "not closed under inverse of 1"),
    ([subgroup_from_elements(cyclic(8), [0, 4]), Subgroup((0,))],
     "element index 4 out of range"),
], ids=["out of range", "not closed", "validated in another group"])
def test_subgroup_objects_are_checked_against_their_group(subs, message):
    # a Subgroup is built without a group table; {0, 7} and {0, 1} are no
    # subgroups of Z3
    z3, ineq = cyclic(3), parse_inequality("H(x,y) <= H(x)")
    for run in (lambda: witness_set(z3, subs),
                lambda: coset_entropy_point(z3, subs, witness_set(z3, subs)),
                lambda: build_counterexample(ineq, group_point(ineq, z3, subs))):
        with pytest.raises(ValueError, match=message):
            run()


def test_each_subgroup_is_validated_once_per_request(monkeypatch):
    from entrodim import groups

    checked = []
    real = groups.subgroup_from_elements

    def counting(g, elements):
        checked.append(tuple(elements))
        return real(g, elements)

    monkeypatch.setattr(groups, "subgroup_from_elements", counting)
    ineq = parse_inequality("H(x,y) <= H(x)")
    subs = groups.subgroups_from_json(KLEIN, [[0, 1], [0, 2]])
    build_counterexample(ineq, group_point(ineq, KLEIN, subs))
    assert checked == [(0, 1), (0, 2)]
    found = groups.search_violation(ineq, max_order=4)
    checked.clear()
    build_counterexample(ineq, group_point(ineq, found.group, found.subgroups))
    assert checked == []  # all_subgroups built them in their group


def test_a_hit_the_exact_slack_disagrees_with_is_refused(monkeypatch):
    from entrodim import groups

    monkeypatch.setattr(groups, "eval_slack", lambda ineq, point: ExactLogLin.bits(0))
    with pytest.raises(AssertionError, match="fast slack sign disagrees with exact"):
        search_violation(parse_inequality("H(x,y) <= H(x)"), max_order=4)


def test_group_point_validates_unvalidated_subgroups():
    ineq = parse_inequality("H(x,y) <= H(x)")
    # {0, 1} is no subgroup of Z3: the inverse of 1 is 2
    with pytest.raises(ValueError, match="not closed under inverse of 1"):
        group_point(ineq, cyclic(3), [Subgroup((0,)), Subgroup((0, 1))])
    with pytest.raises(ValueError, match="not closed under product 1\\*1"):
        group_point(ineq, cyclic(4), [Subgroup((0, 1, 3)), Subgroup((0,))])


def test_subgroups_json_round_trip():
    h1 = subgroup_from_elements(KLEIN, [0, 1])
    h2 = subgroup_from_elements(KLEIN, [0])
    arrays = subgroups_to_json([h1, h2])
    assert arrays == [[0, 1], [0]]
    assert subgroups_from_json(KLEIN, arrays) == [h1, h2]
    with pytest.raises(ValueError):
        subgroups_from_json(KLEIN, [[1, 2]])


CATALOG_8 = builtin_catalog(8)
# listings that fill more than one tile of the last two levels, the last
# one partial: Z2xZ2xZ2 lists 15 subgroups (tiles of 8 rows), S4 30 (of 4)
S4 = symmetric(4)
Z2_CUBED = direct_product(cyclic(2), cyclic(2), cyclic(2))
TILED_BUDGET = 15**3


def _draw_catalog(draw, groups, m: int, max_size: int, budget: int = 1500) -> list:
    """1 to max_size groups, each drawn among those whose listing's m-tuples
    still fit the budget (the reference scans a few thousand tuples per
    second on fractional weights); the first draw always has a group to take."""
    cat = []
    for _ in range(draw(st.integers(1, max_size))):
        fits = [g for g in groups if len(all_subgroups(g)) ** m <= budget]
        if not fits:
            break
        g = draw(st.sampled_from(fits))
        cat.append(g)
        budget -= len(all_subgroups(g)) ** m
    return cat


@st.composite
def _searches(draw):
    m = draw(st.integers(1, 4))
    weight = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    coeffs = draw(st.dictionaries(st.sampled_from(subsets(m)), weight, min_size=1))
    assume(any(coeffs.values()))
    return LinearInequality(m, coeffs), _draw_catalog(
        draw, [*CATALOG_8, S4], m, 3, budget=TILED_BUDGET)


@settings(max_examples=150, deadline=None)
@given(_searches())
# first hits at the first row of Z2xZ2xZ2's second tile and in S4's last, partial one
@example((parse_inequality("H(x,y) <= 2 H(x)"), [Z2_CUBED]))
@example((parse_inequality("3 H(x) >= H(y)"), [S4]))
def test_search_matches_reference(search):
    ineq, cat = search
    got = search_violation(ineq, groups=cat)
    want = _reference_search(ineq, groups=cat)
    if want is None:
        assert got is None
        return
    assert got.group is want.group
    assert got.subgroups == want.subgroups
    assert str(got.slack) == str(want.slack)


@pytest.mark.parametrize("big", [2**24, 2**64])
def test_search_needs_no_size_budget(capsys, big):
    # exponents far past any product budget: the slack of each tuple is
    # a sum over the primes of |G|, and Z1 and the first tuples of Z2
    # are decided at once
    ineq = f"{big} H(x,y) <= {big - 1} H(x) + {big - 1} H(y)"
    assert main(["group-search", "--ineq", ineq, "--max-order", "8"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["outcome"] == "violation found"
    assert report["group"] == {"order": 2, "name": "Z2"}
    assert report["subgroups"] == [[0], [0, 1]]
    assert report["slack"]["exact"] == "-1"


def test_search_large_common_weight():
    # the exponents share the factor 30000000: dividing it out keeps the
    # products tiny, so the scan is immediate
    start = time.perf_counter()
    ineq = parse_inequality("30000000 H(x) >= 0")
    assert search_violation(ineq, groups=[cyclic(2), cyclic(3)]) is None
    assert time.perf_counter() - start < 1.0

    hit = search_violation(parse_inequality("100000000 H(x,y) <= 100000000 H(x)"))
    assert hit.group.name == "Z2"
    assert tuple(h.elements for h in hit.subgroups) == ((0, 1), (0,))
    assert str(hit.slack) == "-100000000"


def test_a_repeated_catalog_search_lists_no_subgroup_again(monkeypatch):
    # the catalog's groups are cached, and each keeps its listing
    ineq = parse_inequality("H(x) <= H(x,y)")
    assert search_violation(ineq, max_order=6) is None
    made = []
    real = Subgroup.__post_init__

    def counted(self):
        made.append(self)
        real(self)

    monkeypatch.setattr(Subgroup, "__post_init__", counted)
    assert search_violation(ineq, max_order=6) is None
    assert made == []
    for g in builtin_catalog(6):
        assert all_subgroups(g) is all_subgroups(g)
    assert made == []
    all_subgroups(cyclic(6))  # a new group object lists its own
    assert made


def test_subgroup_mask():
    h = subgroup_from_elements(KLEIN, [0, 3])
    assert h.mask == 0b1001
    assert all_subgroups(KLEIN)[-1].mask == 0b1111


# ---------------------------------------------------------------------------
# groups that are valid by construction


def test_constructed_tables_pass_the_full_check():
    built = [
        cyclic(1), cyclic(7), dihedral(1), dihedral(2), dihedral(6),
        symmetric(1), symmetric(4), symmetric(5),
        direct_product(cyclic(2), dihedral(3)),
        from_permutations(3, [(1, 2, 0)]),
        from_permutations(8, [(2, 3, 1, 0, 6, 7, 5, 4), (4, 5, 7, 6, 1, 0, 2, 3)]),
        FiniteGroup.from_json({"perm_degree": 4, "generators": [[1, 2, 3, 0]]}),
        *builtin_catalog(24),
    ]
    for g in built:
        assert isinstance(g.table, tuple)
        assert all(isinstance(row, tuple) for row in g.table)
        # FiniteGroup(...) runs the identity, inverse and associativity check
        assert FiniteGroup(g.order, g.table, g.name) == g


def test_each_table_entry_is_checked_once_as_an_int():
    # FiniteGroup(...) and a group file give one message for an entry that
    # is not an int; True would pass a range check as 1
    for table in (((0, 1.0), (1.0, 0)), ((0, True), (True, 0))):
        bad = table[0][1]
        for make in (lambda: FiniteGroup(2, table),
                     lambda: FiniteGroup.from_json({"table": [list(r) for r in table]})):
            with pytest.raises(TypeError) as err:
                make()
            assert str(err.value) == f"table entry must be an integer, got {bad!r}"
    assert FiniteGroup(2, ((0, 1), (1, 0)), "Z2") == cyclic(2)


def test_corrupt_json_tables_still_raise():
    # perfbench's tracer patches from_json in the class __dict__
    assert isinstance(FiniteGroup.__dict__["from_json"], classmethod)
    with pytest.raises(NoIdentity):
        FiniteGroup.from_json({"table": [[1, 0], [0, 1]]})
    with pytest.raises(NoInverse):
        FiniteGroup.from_json({"table": [[0, 1], [1, 1]]})
    with pytest.raises(NotAssociative):
        FiniteGroup.from_json({"order": 5, "table": [list(r) for r in LOOP5]})


# ---------------------------------------------------------------------------
# the symmetry-reduced search against the unreduced reference

NONABELIAN = {
    "S3": from_permutations(3, [(1, 0, 2), (1, 2, 0)], name="S3"),
    "D4": from_permutations(4, [(1, 2, 3, 0), (0, 3, 2, 1)], name="D4"),
    "Q8": from_permutations(
        8, [(2, 3, 1, 0, 6, 7, 5, 4), (4, 5, 7, 6, 1, 0, 2, 3)], name="Q8"
    ),
    "D5": from_permutations(5, [(1, 2, 3, 4, 0), (0, 4, 3, 2, 1)], name="D5"),
    "A4": from_permutations(4, [(1, 2, 0, 3), (1, 0, 3, 2)], name="A4"),
}


def _swap_bits(mask: int, i: int, j: int) -> int:
    if (mask >> i & 1) != (mask >> j & 1):
        mask ^= 1 << i | 1 << j
    return mask


def _symmetrized(coeffs: dict, m: int, pairs) -> dict:
    """Sum of the coefficients over the variable permutations that the
    transpositions in pairs generate, so each of them fixes the result."""
    perms = {tuple(range(m))}
    while True:
        more = {
            tuple(j if v == i else i if v == j else v for v in p)
            for p in perms for i, j in pairs
        } - perms
        if not more:
            break
        perms |= more
    out: dict = {}
    for mask, c in coeffs.items():
        for p in perms:
            image = sum(1 << p[k] for k in range(m) if mask >> k & 1)
            out[image] = out.get(image, 0) + c
    return out


@st.composite
def _symmetric_searches(draw):
    m = draw(st.integers(2, 4))
    # mostly integer weights: the reference is slow on fractional ones
    weight = st.integers(-3, 3).map(Fraction) | st.fractions(
        min_value=-3, max_value=3, max_denominator=2
    )
    coeffs = draw(st.dictionaries(st.sampled_from(subsets(m)), weight, min_size=1))
    pair = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)).filter(
        lambda ij: ij[0] != ij[1]
    )
    pairs = draw(st.lists(pair, min_size=1, max_size=2))
    coeffs = _symmetrized(coeffs, m, pairs)
    assume(any(coeffs.values()))
    groups = [NONABELIAN[k] for k in sorted(NONABELIAN)] + [S4, Z2_CUBED]
    return LinearInequality(m, coeffs), _draw_catalog(draw, groups, m, 2, budget=TILED_BUDGET)


@settings(max_examples=200, deadline=None)
@given(_symmetric_searches())
# the first hit is the diagonal leaf (y = z) of the first row of the second tile
@example((parse_inequality("H(x) <= H(y) + H(z)"), [Z2_CUBED]))
def test_symmetric_search_matches_reference(search):
    ineq, cat = search
    got = search_violation(ineq, groups=cat)
    want = _reference_search(ineq, groups=cat)
    if want is None:
        assert got is None
        return
    assert got.group is want.group
    assert got.subgroups == want.subgroups
    assert str(got.slack) == str(want.slack)


def _slack_of(ineq, g, subs, tup):
    chosen = [subs[i] for i in tup]
    point = coset_entropy_point(g, chosen, witness_set(g, chosen))
    return eval_slack(ineq, point)


@settings(max_examples=60, deadline=None)
@given(_symmetric_searches(), st.randoms(use_true_random=False))
def test_every_symmetry_keeps_the_slack(search, rng):
    ineq, cat = search
    exps = dict(ineq.nums)
    m = ineq.m
    for g in cat:
        subs = all_subgroups(g)
        swaps, renamings = _symmetries(g, subs, m, exps)
        for i, j in swaps:
            assert all(
                ineq.coeffs.get(_swap_bits(mask, i, j)) == c
                for mask, c in ineq.coeffs.items()
            )
        for r in renamings:
            assert sorted(r) == list(range(len(subs)))
            assert r != tuple(range(len(subs)))
        for _ in range(5):
            tup = [rng.randrange(len(subs)) for _ in range(m)]
            slack = _slack_of(ineq, g, subs, tup)
            for i, j in swaps:
                image = list(tup)
                image[i], image[j] = tup[j], tup[i]
                assert (_slack_of(ineq, g, subs, image) - slack).sign() == 0
            for r in renamings:
                image = [r[k] for k in tup]
                assert (_slack_of(ineq, g, subs, image) - slack).sign() == 0


def test_symmetries_found():
    ingleton = parse_inequality("I(a;b) <= I(a;b|c) + I(a;b|d) + I(c;d)")
    exps = dict(ingleton.nums)
    s3 = NONABELIAN["S3"]
    subs = all_subgroups(s3)
    swaps, renamings = _symmetries(s3, subs, 4, exps)
    assert swaps == [(0, 1), (2, 3)]
    # S3 has trivial center: its five non-identity elements conjugate
    # the three subgroups of order 2 in five different ways
    assert len(renamings) == 5
    # Zhang-Yeung is fixed by exchanging its last two variables only
    zy = zhang_yeung()
    zy_exps = dict(zy.nums)
    assert _symmetries(KLEIN, all_subgroups(KLEIN), 4, zy_exps) == ([(2, 3)], [])


def test_a_group_point_needs_its_witness_set():
    ineq = parse_inequality("H(x,y) <= H(x)")
    subs = (subgroup_from_elements(KLEIN, [0, 1]), subgroup_from_elements(KLEIN, [0]))
    found = group_point(ineq, KLEIN, subs)
    with pytest.raises(TypeError):
        Violation(KLEIN, subs, found.point, found.slack)
    again = Violation(KLEIN, subs, found.point, found.slack, found.support)
    assert build_counterexample(ineq, again) == build_counterexample(ineq, found)


def test_conjugation_maps_each_subgroup_listing_onto_itself():
    # _symmetries looks each conjugate up in the all_subgroups listing
    # with no fallback: <a, b> conjugated by x is <xax^-1, xbx^-1>
    groups = (*builtin_catalog(64), symmetric(4), symmetric(5))
    assert len(groups) == 196
    for g in groups:
        subs = all_subgroups(g)
        masks = {h.mask for h in subs}
        tab, inv = g.table, g.inverses
        for x in range(1, g.order):
            conj = [tab[y][inv[x]] for y in tab[x]]  # a -> x a x^-1
            for h in subs:
                assert sum(1 << conj[a] for a in h.elements) in masks, (g, x, h)


def test_fully_symmetric_scan_is_reduced():
    # sum H(i) >= H(all) over 8 variables: 6**8 tuples unreduced
    text = " + ".join(f"H(x{i})" for i in range(8))
    ineq = parse_inequality(f"{text} >= H({','.join(f'x{i}' for i in range(8))})")
    start = time.perf_counter()
    assert search_violation(ineq, groups=[NONABELIAN["S3"]]) is None
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# the prime-exponent sign against eval_slack, with weights near 2**24 and 2**64

SIGN_GROUPS = [cyclic(1), cyclic(6), cyclic(64), *(NONABELIAN[k] for k in ("S3", "D5", "A4")),
               Z2_CUBED]  # two tiles at m = 2
SIGN_LISTED = [len(all_subgroups(g)) for g in SIGN_GROUPS]


def _eval_search(ineq: LinearInequality, cat):
    """The first (group, subgroup tuple), in catalog then product order,
    whose slack eval_slack(...).sign() says is negative, or None."""
    for g in cat:
        for tup in product(all_subgroups(g), repeat=ineq.m):
            point = coset_entropy_point(g, tup, witness_set(g, tup))
            if eval_slack(ineq, point).sign() < 0:
                return g, tup
    return None


@st.composite
def _large_weight_searches(draw):
    m = draw(st.integers(1, 3))
    big = st.sampled_from([2**24, 2**64])
    near = st.tuples(big, st.integers(-2, 2), st.sampled_from([1, -1])).map(
        lambda bds: bds[2] * (bds[0] + bds[1])
    )
    weight = near | st.integers(-3, 3)
    coeffs = draw(st.dictionaries(st.sampled_from(subsets(m)), weight, min_size=1))
    assume(any(coeffs.values()))
    picks = draw(st.lists(st.sampled_from(range(len(SIGN_GROUPS))), min_size=1,
                          max_size=3, unique=True))
    assume(sum(SIGN_LISTED[i] ** m for i in picks) <= 600)
    return LinearInequality(m, coeffs), [SIGN_GROUPS[i] for i in picks]


@settings(max_examples=150, deadline=None)
@given(_large_weight_searches())
# on Z64 the exponent of 2 in 64/h reaches 6, more than the field width w = 5
@example((LinearInequality(2, {1: Fraction(1), 3: Fraction(-1)}), [cyclic(64)]))
@example((parse_inequality(f"{2**64 + 1} H(x,y) <= {2**65 + 1} H(x)"), [Z2_CUBED]))
def test_large_weight_search_matches_eval_slack(search):
    ineq, cat = search
    got = search_violation(ineq, groups=cat)
    want = _eval_search(ineq, cat)
    if want is None:
        assert got is None
        return
    assert (got.group, got.subgroups) == want


def test_mixed_prime_signs_reach_loglin_sign(monkeypatch):
    # on Z6, (2**24 + 1) H(x) >= 2**24 H(y) at H_x of order 2 and H_y = {e}
    # has slack -2**24 log2(2) + log2(3): mixed signs over the primes 2, 3
    calls = []

    def spy(x):
        calls.append(str(x))
        return core.loglin_sign(x)

    monkeypatch.setattr("entrodim.groups.loglin_sign", spy)
    ineq = parse_inequality(f"{2**24 + 1} H(x) >= {2**24} H(y)")
    hit = search_violation(ineq, groups=[cyclic(6)])
    assert tuple(h.elements for h in hit.subgroups) == ((0, 3), (0,))
    assert f"-{2**24} + log2(3)" in calls
