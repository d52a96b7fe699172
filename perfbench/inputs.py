"""Seeded request batches for the three benchmark workloads.

Everything here is independent of the program under test: inequalities,
elemental rows, groups, coset points and bodies are built from scratch,
so the expectations stored with each request can judge its answer.
The same (workload, seed, passes) always yields byte-identical requests
(see `serialize`).

A request names its input files as ``@name`` argv tokens; the runner
writes ``files[name]`` as JSON and substitutes the path.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import combinations

NAME_POOL = "abcdefgjkmnpqrstuvwxyz"


@dataclass
class Request:
    kind: str  # latency class, e.g. "check_m5" or "scan_frac"
    argv: list
    expect: dict  # oracle name and what it needs to judge the answer
    files: dict = field(default_factory=dict)
    tuples: int = 0  # subgroup tuples a group-search request covers


def binding(text):
    """Variable names in order of first appearance: the program binds
    them to positions 1..m in this order."""
    out = []
    for m in re.finditer(r"([A-Za-z_]\w*)(\s*\()?", text):
        if m.group(2) is None and m.group(1) not in out:
            out.append(m.group(1))
    return out


def serialize(passes) -> bytes:
    return json.dumps([[asdict(r) for r in p] for p in passes], sort_keys=True).encode()


# ---------------------------------------------------------------------------
# inequality texts and the benchmark's own elemental rows
#
# Coefficients are keyed by frozensets of variable names, so they do not
# depend on how the program binds names to positions.


def elemental_rows(names):
    """Elemental rows in the documented order: monotonicity for i = 1..m,
    then submodularity for pairs i < j with K ascending by mask."""
    m = len(names)

    def subset(mask):
        return frozenset(names[p] for p in range(m) if mask >> p & 1)

    full = (1 << m) - 1
    rows = [{subset(full): 1, subset(full ^ (1 << i)): -1} for i in range(m)]
    for i, j in combinations(range(m), 2):
        rest = [p for p in range(m) if p not in (i, j)]
        ks = sorted(sum(1 << p for t, p in enumerate(rest) if pick >> t & 1)
                    for pick in range(1 << len(rest)))
        for k in ks:
            row = {subset(k | 1 << i): 1, subset(k | 1 << j): 1,
                   subset(k | 1 << i | 1 << j): -1}
            if k:
                row[subset(k)] = -1
            rows.append(row)
    return rows


def _add(total, coeffs, weight=1):
    for s, c in coeffs.items():
        total[s] = total.get(s, 0) + weight * c
    return {s: c for s, c in total.items() if c != 0}


def mutual_info(a, b, c=frozenset()):
    """Coefficients of I(a;b|c) over name sets."""
    out = _add({}, {a | c: 1, b | c: 1})
    out = _add(out, {a | b | c: -1})
    return _add(out, {c: -1}) if c else out


def coeffs_to_json(coeffs) -> dict:
    return {",".join(sorted(s)): str(Fraction(c)) for s, c in sorted(
        coeffs.items(), key=lambda kv: sorted(kv[0]))}


def h_text(rng, coeffs) -> str:
    """"lhs <= rhs" text with H terms in shuffled order; names inside each
    term are shuffled too, which permutes the program's variable binding."""
    terms = sorted(coeffs.items(), key=lambda kv: sorted(kv[0]))
    rng.shuffle(terms)
    sides = {1: [], -1: []}
    for s, c in terms:
        vs = sorted(s)
        rng.shuffle(vs)
        sides[1 if c > 0 else -1].append(f"{abs(Fraction(c))} H({','.join(vs)})")
    return (" + ".join(sides[-1]) or "0") + " <= " + (" + ".join(sides[1]) or "0")


def _i_term(rng, coef, a, b, c=()):
    a, b, c = list(a), list(b), list(c)
    for part in (a, b, c):
        rng.shuffle(part)
    if rng.random() < 0.5:
        a, b = b, a
    cond = f"|{','.join(c)}" if c else ""
    return f"{coef}I({','.join(a)};{','.join(b)}{cond})"


def zhang_yeung_text(rng, names, scale=Fraction(1)):
    """2 I(z;w) <= I(x;y) + I(x;z,w) + 3 I(z;w|x) + I(z;w|y), roles x,y,z,w
    bound to `names`, times `scale`; returns (text, coefficients)."""
    x, y, z, w = ({n} for n in names)
    rhs = [(1, x, y, set()), (1, x, z | w, set()), (3, z, w, x), (1, z, w, y)]
    rng.shuffle(rhs)

    def coef(c):
        c = Fraction(c) * scale
        return "" if c == 1 else f"{c} "

    text = (_i_term(rng, coef(2), z, w) + " <= "
            + " + ".join(_i_term(rng, coef(c), a, b, k) for c, a, b, k in rhs))
    coeffs = {}
    for c, a, b, k in rhs:
        coeffs = _add(coeffs, mutual_info(frozenset(a), frozenset(b), frozenset(k)),
                      Fraction(c) * scale)
    coeffs = _add(coeffs, mutual_info(frozenset(z), frozenset(w)), -2 * scale)
    return text, coeffs


def ingleton_text(rng, names):
    """I(a;b) <= I(a;b|c) + I(a;b|d) + I(c;d) with shuffled terms."""
    a, b, c, d = ({n} for n in names)
    rhs = [(a, b, c), (a, b, d), (c, d, set())]
    rng.shuffle(rhs)
    return _i_term(rng, "", a, b) + " <= " + " + ".join(
        _i_term(rng, "", p, q, k) for p, q, k in rhs)


def _names(rng, m):
    return rng.sample(NAME_POOL, m)


def _combination(rng, names, nrows):
    """A nonnegative rational combination of elemental rows that mentions
    every variable (redrawn otherwise, which is decided before any run)."""
    rows = elemental_rows(names)
    while True:
        coeffs = {}
        for r in rng.sample(range(len(rows)), nrows):
            coeffs = _add(coeffs, rows[r], Fraction(rng.randint(1, 5), rng.randint(1, 3)))
        if coeffs and frozenset().union(*coeffs) == frozenset(names):
            return coeffs


def _perturb(rng, names, coeffs):
    while True:
        s = rng.choice(sorted(coeffs, key=sorted))
        out = _add(dict(coeffs), {s: 1}, Fraction(rng.choice((-1, 1)), rng.randint(1, 4)))
        if out and frozenset().union(*out) == frozenset(names):
            return out


def _check(rng, m, nrows, perturb):
    names = _names(rng, m)
    coeffs = _combination(rng, names, nrows)
    if perturb:
        coeffs = _perturb(rng, names, coeffs)
    text = h_text(rng, coeffs)
    outcome = None if perturb else "shannon-type"
    return Request(f"check_m{m}", ["check", text], {
        "oracle": "shannon", "m": m, "coeffs": coeffs_to_json(coeffs),
        "outcome": outcome})


def layout_text(coeffs, order) -> str:
    """"lhs <= rhs" text in one fixed layout: terms sorted by the
    positions of their names in `order`, names in position order. Two
    inequalities that differ only by a renaming of `order` get the same
    layout, so the program binds their names alike and solves the same LP."""
    pos = {v: i for i, v in enumerate(order)}
    terms = sorted(coeffs.items(), key=lambda kv: sorted(pos[v] for v in kv[0]))
    sides = {1: [], -1: []}
    for s, c in terms:
        vs = ",".join(sorted(s, key=pos.get))
        sides[1 if c > 0 else -1].append(f"{abs(Fraction(c))} H({vs})")
    return (" + ".join(sides[-1]) or "0") + " <= " + (" + ".join(sides[1]) or "0")


def _fixed_check(rng, m, stream, nrows, perturb):
    """A check whose combination comes from the fixed random `stream`, the
    same for every seed, written in one fixed layout; only the names come
    from `rng`. Its LP, and so its cost, does not depend on the seed."""
    fixed = random.Random(stream)
    canon = NAME_POOL[:m]
    coeffs = _combination(fixed, canon, nrows)
    if perturb:
        coeffs = _perturb(fixed, canon, coeffs)
    names = _names(rng, m)
    text = layout_text(coeffs, canon)
    rename = dict(zip(canon, names))
    text = re.sub(r"[A-Za-z_]\w*(?!\s*\()", lambda t: rename[t.group()], text)
    coeffs = {frozenset(rename[v] for v in s): c for s, c in coeffs.items()}
    return Request(f"check_m{m}", ["check", text], {
        "oracle": "shannon", "m": m, "coeffs": coeffs_to_json(coeffs),
        "outcome": None if perturb else "shannon-type"})


#: m=4 checks per pass
M4_CHECKS = 80


def lp_check_pass(rng, index):
    """M4_CHECKS checks at m=4 (half exact combinations, half perturbed),
    one permuted Zhang-Yeung, 2 at m=5 and, in the first pass only, one
    subadditivity split at m=6. Row counts and perturbations follow a
    fixed cycle, so every pass has the same mix.

    Random m=5 and m=6 checks cost from a third of a second to tens of
    seconds, so a few of them would make a run's cost depend on the seed.
    The m=5 checks are therefore one exact and one perturbed combination
    drawn from a fixed stream and written in one fixed layout: only the
    names change with the seed. The m=6 request is H(A,B) <= H(A) + H(B)
    for three seeded names in A and three in B, also in one fixed layout;
    it costs about 1.5 s."""
    reqs = [_check(rng, 4, 2 + i % 3, i % 2) for i in range(M4_CHECKS)]
    names = _names(rng, 4)
    text, coeffs = zhang_yeung_text(rng, names)
    reqs.append(Request("check_m4", ["check", text], {
        "oracle": "shannon", "m": 4, "coeffs": coeffs_to_json(coeffs),
        "outcome": "not-shannon-type"}))
    reqs += [_fixed_check(rng, 5, f"lp_check:m5:{i}", 2 + i, i) for i in range(2)]
    if index == 0:
        names = _names(rng, 6)
        a, b = frozenset(names[:3]), frozenset(names[3:])
        text = f"H({','.join(names)}) <= H({','.join(names[:3])}) + H({','.join(names[3:])})"
        coeffs = {a | b: -1, a: 1, b: 1}
        reqs.append(Request("check_m6", ["check", text], {
            "oracle": "shannon", "m": 6, "coeffs": coeffs_to_json(coeffs),
            "outcome": "shannon-type"}))
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# finite groups, built independently of the program


def _perm_group(degree, gens):
    identity = tuple(range(degree))
    elems, frontier = {identity}, [identity]
    while frontier:
        p = frontier.pop()
        for q in gens:
            r = tuple(p[q[i]] for i in range(degree))
            if r not in elems:
                elems.add(r)
                frontier.append(r)
    return identity, sorted(elems), lambda p, q: tuple(p[q[i]] for i in range(degree))


def _dihedral(n):
    return _perm_group(n, [tuple((i + 1) % n for i in range(n)),
                           tuple((-i) % n for i in range(n))])


_QUAT = {  # unit products for 1, i, j, k as (sign, unit)
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def _quaternion():
    def mul(a, b):
        s, u = _QUAT[(a[1], b[1])]
        return (a[0] * b[0] * s, u)
    return (1, 0), [(s, u) for s in (1, -1) for u in range(4)], mul


def _dicyclic3():
    # a^k x^e with a^6 = 1, x^2 = a^3, x a x^-1 = a^-1
    def mul(p, q):
        k, e = p
        l, f = q
        k = (k + (l if e == 0 else -l)) % 6
        if e + f == 2:
            return ((k + 3) % 6, 0)
        return (k, e + f)
    return (0, 0), [(k, e) for k in range(6) for e in (0, 1)], mul


def _abelian(*radices):
    def mul(a, b):
        return tuple((x + y) % r for x, y, r in zip(a, b, radices))
    elems = [()]
    for r in radices:
        elems = [e + (x,) for e in elems for x in range(r)]
    return tuple(0 for _ in radices), elems, mul


#: small groups for Ingleton scans and coset counterexamples, with their
#: number of subgroups generated by at most two elements (the listing the
#: program's group search covers)
GROUPS = {
    "S3": (lambda: _perm_group(3, [(1, 0, 2), (1, 2, 0)]), 6),
    "D4": (lambda: _dihedral(4), 10),
    "Q8": (_quaternion, 6),
    "D5": (lambda: _dihedral(5), 8),
    "A4": (lambda: _perm_group(4, [(1, 2, 0, 3), (1, 0, 3, 2)]), 10),
    "Dic3": (_dicyclic3, 8),
    "D6": (lambda: _dihedral(6), 16),
    "Z2xZ4": (lambda: _abelian(2, 4), 8),
    "Z3xS3": (lambda: _perm_group(6, [(1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 3, 5),
                                      (0, 1, 2, 4, 5, 3)]), 14),
    "S4": (lambda: _perm_group(4, [(1, 0, 2, 3), (1, 2, 3, 0)]), 30),
}

#: the program's built-in catalog up to order 12 in scan order, with each
#: group's number of subgroups generated by at most two elements
CATALOG = [
    ("Z1", 1, 1), ("Z2", 2, 2), ("Z3", 3, 2), ("Z2xZ2", 4, 5), ("Z4", 4, 3),
    ("Z5", 5, 2), ("D3", 6, 6), ("S3", 6, 6), ("Z2xZ3", 6, 4), ("Z6", 6, 4),
    ("Z7", 7, 2), ("D4", 8, 10), ("Z2xZ2xZ2", 8, 15), ("Z2xZ4", 8, 8),
    ("Z8", 8, 4), ("Z3xZ3", 9, 6), ("Z9", 9, 3), ("D5", 10, 8),
    ("Z10", 10, 4), ("Z2xZ5", 10, 4), ("Z11", 11, 2), ("D6", 12, 16),
    ("Z12", 12, 6), ("Z2xZ2xZ3", 12, 10), ("Z2xZ6", 12, 10), ("Z3xZ4", 12, 6),
]


def covered_tuples(max_order, m):
    return sum(count ** m for _, order, count in CATALOG if order <= max_order)


def cayley(rng, name):
    """Cayley table of a named group; identity at index 0, the other
    elements in seeded order."""
    identity, elems, mul = GROUPS[name][0]()
    rest = [e for e in elems if e != identity]
    rng.shuffle(rest)
    order = [identity] + rest
    index = {e: i for i, e in enumerate(order)}
    return [[index[mul(a, b)] for b in order] for a in order]


def generated(table, gens):
    """Closure of the generators under the table's product."""
    closure, frontier = {0}, [0]
    while frontier:
        a = frontier.pop()
        for b in gens:
            c = table[a][b]
            if c not in closure:
                closure.add(c)
                frontier.append(c)
    return frozenset(closure)


def subgroups_2gen(table):
    n = len(table)
    return {generated(table, pair) for pair in combinations(range(n), 2)} | {
        generated(table, (a,)) for a in range(n)}


# ---------------------------------------------------------------------------
# group_scan: full scans whose answer is "none". No group point violates
# Zhang-Yeung, and no group smaller than S5 violates Ingleton (Mao and
# Hassibi, "Violating the Ingleton inequality with finite groups", 2009).

SCAN_GROUPS = ("S3", "D4", "Q8", "D5", "A4", "Dic3")
ZY_MAX_ORDER = 6
ZY_FRAC_MAX_ORDER = 5


def group_scan_pass(rng, index):
    """Zhang-Yeung over the catalog, Ingleton on each of SCAN_GROUPS
    relabeled and sent with --groups, and Zhang-Yeung with halved
    coefficients, which takes the fractional slack path."""
    text, _ = zhang_yeung_text(rng, _names(rng, 4))
    reqs = [Request("scan_int", ["group-search", "--ineq", text, "--max-order",
                                 str(ZY_MAX_ORDER)], {"oracle": "none_found"},
                    tuples=covered_tuples(ZY_MAX_ORDER, 4))]
    for name in SCAN_GROUPS:
        table = cayley(rng, name)
        reqs.append(Request(
            "scan_int",
            ["group-search", "--ineq", ingleton_text(rng, _names(rng, 4)),
             "--groups", "@groups"],
            {"oracle": "none_found"},
            files={"groups": [{"order": len(table), "table": table, "name": name}]},
            tuples=GROUPS[name][1] ** 4))
    text, _ = zhang_yeung_text(rng, _names(rng, 4), Fraction(1, 2))
    reqs.append(Request("scan_frac", ["group-search", "--ineq", text, "--max-order",
                                      str(ZY_FRAC_MAX_ORDER)], {"oracle": "none_found"},
                        tuples=covered_tuples(ZY_FRAC_MAX_ORDER, 4)))
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# witness_pipeline


WITNESS_GROUPS = ("S3", "D4", "Q8", "A4", "Dic3", "D6", "Z2xZ4", "Z3xS3", "S4")


def coset_point(rng, name, m):
    """Seeded subgroups H_1..H_m (each generated by one or two elements)
    of a relabeled group, redrawn until some elemental row is strictly
    positive at the coset point. Returns the table, the subgroups, the
    intersection orders by name set, the names and one such row."""
    table = cayley(rng, name)
    n = len(table)
    names = _names(rng, m)
    while True:
        subs = [generated(table, rng.sample(range(1, n), rng.randint(1, 2)))
                for _ in range(m)]
        inter = {}
        for k in range(1, m + 1):
            for idx in combinations(range(m), k):
                inter[frozenset(names[i] for i in idx)] = len(
                    frozenset.intersection(*(subs[i] for i in idx)))
        violated = [row for row in elemental_rows(names)
                    if frozenset().union(*row) == frozenset(names)
                    and _row_value_sign(row, n, inter) > 0]
        if violated:
            return table, subs, inter, names, rng.choice(violated)


def _row_value_sign(row, n, inter):
    # the coset point has H(T) = log2(n / #H_T); sign of sum c_T H(T)
    num = den = 1
    for s, c in row.items():
        base = Fraction(n, inter[s]) ** abs(c)
        if c > 0:
            num *= base
        else:
            den *= base
    return (num > den) - (num < den)


def coset_witness(table, subs, order):
    """Coset tuples (gH_1, ..., gH_m) for subgroups listed in `order`,
    cosets numbered by least representative."""
    maps = []
    for h in subs:
        idx, nxt = [-1] * len(table), 0
        for a in range(len(table)):
            if idx[a] < 0:
                for x in h:
                    idx[table[a][x]] = nxt
                nxt += 1
        maps.append(idx)
    return sorted({tuple(maps[i][a] for i in order) for a in range(len(table))})


def counterexample_requests(rng, name, m):
    """counterexample on a coset point, then cantor and eval on its
    witness and support: the reversed form of a strictly positive
    elemental row is violated there."""
    table, subs, inter, names, row = coset_point(rng, name, m)
    reversed_row = {s: -c for s, c in row.items()}
    text = h_text(rng, reversed_row)
    bound = binding(text)
    order = [names.index(v) for v in bound]
    n = len(table)
    cards = {",".join(sorted(s)): n // k for s, k in inter.items()}
    points = coset_witness(table, subs, order)
    base = max(n // len(subs[i]) for i in order)
    expect = {"names": bound, "cards": cards, "coeffs": coeffs_to_json(reversed_row)}
    witness = {"m": m, "N": base, "points": points}
    project = rng.sample(bound, rng.randint(1, m - 1))
    return [
        Request("counterexample",
                ["counterexample", "--ineq", text, "--group", "@group",
                 "--subgroups", "@subgroups"],
                dict(expect, oracle="counterexample", order=n, base=base),
                files={"group": {"order": n, "table": table, "name": name},
                       "subgroups": [sorted(subs[i]) for i in order]}),
        Request("pointset", ["cantor", "--witness", "@witness"],
                dict(expect, oracle="cantor", base=base, project=None),
                files={"witness": witness}),
        Request("pointset",
                ["cantor", "--witness", "@witness", "--project",
                 ",".join(str(bound.index(v) + 1) for v in sorted(project, key=bound.index))],
                dict(expect, oracle="cantor", base=base,
                     project=sorted(project, key=bound.index)),
                files={"witness": witness}),
        Request("pointset", ["eval", "--ineq", text, "--dist", "@support"],
                dict(expect, oracle="eval_violated"),
                files={"support": {"m": m, "support": points}}),
    ]


def searched_counterexample(rng):
    """Reversed elemental row without --group: the catalog search hits
    at the first group with a violating tuple."""
    m = rng.randint(2, 3)
    names = _names(rng, m)
    row = rng.choice([r for r in elemental_rows(names)
                      if frozenset().union(*r) == frozenset(names)])
    coeffs = {s: -c for s, c in row.items()}
    text = h_text(rng, coeffs)
    return Request("counterexample", ["counterexample", "--ineq", text], {
        "oracle": "counterexample", "names": binding(text),
        "coeffs": coeffs_to_json(coeffs)})


def split_caps(points, cap1, cap123):
    """Closed-form answer for parts {1} and {1,2,3}: a split exists iff the
    cap1 largest first-coordinate fibers hold at least #S - cap123 points."""
    fibers = {}
    for p in points:
        fibers[p[0]] = fibers.get(p[0], 0) + 1
    best = sum(sorted(fibers.values(), reverse=True)[:cap1])
    return best >= len(points) - cap123


def split_request(rng):
    base = 4
    size = rng.randint(16, 22)
    cells = [(x, y, z) for x in range(base) for y in range(base) for z in range(base)]
    points = sorted(rng.sample(cells, size))
    xs = len({p[0] for p in points})
    cap1 = rng.randint(1, max(1, xs - 1))
    fibers = sorted((sum(1 for p in points if p[0] == x) for x in range(base)),
                    reverse=True)
    need = size - sum(fibers[:cap1])
    cap123 = max(1, need - rng.randint(0, 1))
    return Request("split", ["split", "--body", "@body", "--spec", "@spec"], {
        "oracle": "split", "caps": {"1": cap1, "1,2,3": cap123},
        "exists": split_caps(points, cap1, cap123)},
        files={"body": {"m": 3, "N": base, "points": [list(p) for p in points]},
               "spec": split_spec(cap1, cap123)})


def split_spec(cap1, cap123):
    return {"m": 3, "levels": [{"part": [1], "bits": math.log2(cap1)},
                               {"part": [1, 2, 3], "bits": math.log2(cap123)}]}


def cube_bar_points(k):
    r = math.isqrt(k)
    pts = {(x, y, z) for x in range(k) for y in range(k) for z in range(k)}
    return sorted(pts | {(x, 0, 0) for x in range(k * r)})


GREEDY_K = 16
GREEDY_CAPS = (30, 4096)
DEMO_K = 36


def witness_pass(rng, index):
    """Coset counterexamples in twelve groups, each followed by cantor and
    eval on its witness, two catalog-searched counterexamples, sixteen
    exhaustive splits, two greedy splits of cube-bar(16) and one cube-bar
    demo."""
    reqs = []
    for name in rng.sample(WITNESS_GROUPS, 6) + rng.sample(WITNESS_GROUPS, 6):
        reqs += counterexample_requests(rng, name, rng.randint(3, 4))
    reqs += [searched_counterexample(rng) for _ in range(2)]
    reqs += [split_request(rng) for _ in range(16)]
    points = cube_bar_points(GREEDY_K)
    reqs += 2 * [Request("split", ["split", "--greedy", "--body", "@body", "--spec", "@spec"],
                        {"oracle": "split", "caps": {"1": GREEDY_CAPS[0],
                                                     "1,2,3": GREEDY_CAPS[1]},
                         "exists": True},
                        files={"body": {"m": 3, "N": GREEDY_K * math.isqrt(GREEDY_K),
                                        "points": [list(p) for p in points]},
                               "spec": split_spec(*GREEDY_CAPS)})]
    reqs.append(Request("pointset", ["demo", "cube-bar", "--k", str(DEMO_K)],
                        {"oracle": "cube_bar", "k": DEMO_K}))
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------

PASSES = {"lp_check": lp_check_pass, "group_scan": group_scan_pass,
          "witness_pipeline": witness_pass}


def warmup_argv(workload, seed):
    """The warm-up request, run once in each fresh process before timing
    starts. It reads no input files, so set-up probes write none."""
    rng = random.Random(f"warmup:{workload}:{seed}")
    if workload == "lp_check":
        a, b, c = _names(rng, 3)
        return ["check", f"H({a},{b},{c}) <= H({a},{b}) + H({c})"]
    if workload == "group_scan":
        text, _ = zhang_yeung_text(rng, _names(rng, 4))
        return ["group-search", "--ineq", text, "--max-order", "4"]
    return searched_counterexample(rng).argv


def batch(workload, seed, passes):
    """The fixed batch: a list of `passes` passes of requests, each pass
    drawn from its own seeded stream."""
    return [PASSES[workload](random.Random(f"{workload}:{seed}:{i}"), i)
            for i in range(passes)]
