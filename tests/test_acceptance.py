"""End-to-end acceptance gate.

Each test covers one headline capability, prints a single pass/fail
line, and pins its tolerance and time budget in the assertions
themselves.  Slow sweeps state their measured time in the printed line.
"""

import contextlib
import functools
import io
import json
import math
import random
import time
from fractions import Fraction
from itertools import product
from operator import itemgetter

from entrodim.cantor import build_counterexample, uniform_fiber
from entrodim.cantor import CantorWitness, DimValue
from entrodim.cli import main as cli_main
from entrodim.core import ExactLogLin, eval_slack, loglin_sign
from entrodim.distributions import exact_entropy_vector
from entrodim.dsl import parse_inequality
from entrodim.groups import (
    all_subgroups,
    builtin_catalog,
    coset_entropy_point,
    cyclic,
    direct_product,
    group_point,
    search_violation,
    subgroup_from_elements,
    symmetric,
    witness_set,
)
from entrodim.linear import subsets
from entrodim.shannon import (
    FarkasWitness,
    ShannonCertificate,
    elemental_inequalities,
    is_shannon_type,
    verify_certificate,
    verify_farkas,
    zhang_yeung,
)
from entrodim.splitting import (
    FiniteBody,
    SplitSpec,
    check_unsplit_inequality,
    cube_bar_instance,
    find_split_exhaustive,
    loomis_whitney_slack,
    projection_count,
)


def criterion(number, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                print(f"criterion {number}: FAIL — {label} ({exc})")
                raise
            line = f"criterion {number}: PASS — {label}"
            if detail:
                line += f" ({detail})"
            print(line)
        return wrapper
    return deco


@criterion(1, "elemental inequality counts for m=2,3,4")
def test_criterion_01_elemental_counts():
    elemental_inequalities(2)  # warm
    start = time.perf_counter()
    got = [len(elemental_inequalities(m).rows) for m in (2, 3, 4)]
    elapsed = time.perf_counter() - start
    assert got == [3, 9, 28]
    # independent recount: one monotonicity per variable plus one
    # submodularity per (pair, disjoint context subset)
    for m, want in zip((2, 3, 4), (3, 9, 28)):
        direct = m
        for i in range(1, m + 1):
            for j in range(i + 1, m + 1):
                direct += 2 ** (m - 2)
        assert direct == want
    assert elapsed < 0.010, f"took {elapsed * 1000:.2f} ms, budget 10 ms"
    return f"3/9/28 rows in {elapsed * 1000:.2f} ms"


@criterion(2, "submodularity-sum inequality certified Shannon-type")
def test_criterion_02_certified_membership():
    start = time.perf_counter()
    ineq = parse_inequality("2 H(x,y,z) <= H(x,y) + H(x,z) + H(y,z)")
    res = is_shannon_type(ineq)
    elapsed = time.perf_counter() - start
    assert isinstance(res, ShannonCertificate)
    assert res.weights == {3: Fraction(1), 6: Fraction(1), 8: Fraction(1)}
    verify_certificate(ineq, res)
    assert elapsed < 1.0, f"took {elapsed:.3f} s, budget 1 s"
    return f"weights on rows 3, 6, 8 in {elapsed * 1000:.1f} ms"


@criterion(3, "Zhang-Yeung rejected with a verified separating point")
def test_criterion_03_zhang_yeung_rejected():
    start = time.perf_counter()
    zy = zhang_yeung()
    res = is_shannon_type(zy)
    elapsed = time.perf_counter() - start
    assert isinstance(res, FarkasWitness)
    verify_farkas(zy, res)
    rows = elemental_inequalities(4).rows
    assert len(rows) == 28
    for row in rows:
        slack = sum(
            (c * res.point.get(s, Fraction(0)) for s, c in row.coeffs.items()),
            Fraction(0),
        )
        assert slack >= 0
    target = sum(
        (c * res.point.get(s, Fraction(0)) for s, c in zy.coeffs.items()),
        Fraction(0),
    )
    assert target == -1
    assert elapsed < 10.0, f"took {elapsed:.3f} s, budget 10 s"
    return f"target slack {target} in {elapsed * 1000:.1f} ms"


@criterion(4, "coset formula matches witness counting across the catalog")
def test_criterion_04_catalog_sweep():
    klein = direct_product(cyclic(2), cyclic(2))
    subs = [subgroup_from_elements(klein, e) for e in ([0, 1], [0, 2], [0, 3])]
    point = coset_entropy_point(klein, subs, witness_set(klein, subs))
    for mask, bits in zip(subsets(3), (1, 1, 2, 1, 2, 2, 2)):
        assert (point[mask] - ExactLogLin.bits(bits)).sign() == 0

    start = time.perf_counter()
    checked = literal = 0
    for g in builtin_catalog(24):
        listing = all_subgroups(g)
        n = g.order
        for m in (1, 2, 3):
            for tup in product(listing, repeat=m):
                checked += 1
                support = witness_set(g, tup)
                esets = {}
                for mask in subsets(m):
                    low = mask & -mask
                    es = frozenset(tup[low.bit_length() - 1].elements)
                    if mask ^ low:
                        es = esets[mask ^ low] & es
                    esets[mask] = es
                    # an itemgetter of one index gives the coordinate, not
                    # a 1-tuple: distinct values count the same either way
                    get = itemgetter(*[i for i in range(m) if mask >> i & 1])
                    cnt = len(set(map(get, support.points)))
                    # #A_I * #H_I = #G, checked as exact integers
                    assert cnt * len(es) == n
                if checked % 16 == 0:
                    # every 16th tuple: the full functional comparison
                    literal += 1
                    counted = exact_entropy_vector(support)
                    formula = coset_entropy_point(g, tup, support)
                    for mask in subsets(m):
                        assert (counted[mask] - formula[mask]).sign() == 0
    elapsed = time.perf_counter() - start
    assert checked == 181204
    assert elapsed < 60.0, f"took {elapsed:.1f} s, budget 60 s"
    return (
        f"{checked} tuples, {literal} recounted in full, {elapsed:.1f} s"
    )


@criterion(5, "middle-thirds dimension is exact")
def test_criterion_05_exact_dimension():
    w = CantorWitness(1, 3, frozenset({(0,), (2,)}))
    d = DimValue(len(w), w.base)
    assert d == DimValue(2, 3)
    assert abs(d.to_float() - 0.630930) < 1e-5
    # dim * log2(3) is exactly log2(#A) = log2(2)
    dim_log3 = ExactLogLin.log2(d.cardinality)
    # 2 log2(3) - 3 log2(2) > 0 exactly (9 > 8), so dim < 2/3 ...
    probe = ExactLogLin(((Fraction(2), 3), (Fraction(-3), 2)))
    assert loglin_sign(probe) == 1
    assert (Fraction(2, 3) * ExactLogLin.log2(3) - dim_log3).sign() == 1
    # ... while 5 log2(2) - 3 log2(3) > 0 (32 > 27) gives dim > 3/5
    assert (dim_log3 - Fraction(3, 5) * ExactLogLin.log2(3)).sign() == 1
    return f"log2(2)/log2(3) = {d.to_float():.6f}, sandwiched in (3/5, 2/3)"


@criterion(6, "cube-plus-bar defeats the unsplit projection bound")
def test_criterion_06_cube_bar_demo():
    start = time.perf_counter()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(["demo", "cube-bar", "--k", "16"])
    report = json.loads(buf.getvalue())
    assert code == 0
    assert report["unsplit_inequality"]["lhs_product"] == 265216
    assert report["unsplit_inequality"]["rhs_product"] == 92416
    assert report["outcome"] == (
        "unsplit inequality VIOLATED: 64*4144 = 265216 > 92416 = 304*304"
    )
    # the bound is tight on a full cube: exact equality of the products
    cube = FiniteBody(
        3, 4, frozenset(product(range(4), repeat=3))
    )
    rep = check_unsplit_inequality(cube)
    assert rep.sign == 0
    assert rep.lhs_product == rep.rhs_product == 256
    elapsed = time.perf_counter() - start
    assert elapsed < 0.100, f"took {elapsed * 1000:.1f} ms, budget 100 ms"
    return f"265216 > 92416, cube equality 256 = 256, {elapsed * 1000:.1f} ms"


@criterion(7, "projection bound holds on random bodies")
def test_criterion_07_loomis_whitney_fuzz():
    rng = random.Random(70707)
    start = time.perf_counter()
    worst = math.inf
    for _ in range(1000):
        base = rng.randint(2, 8)
        npts = rng.randint(1, 50)
        pts = {
            tuple(rng.randrange(base) for _ in range(3)) for _ in range(npts)
        }
        slack = loomis_whitney_slack(FiniteBody(3, base, frozenset(pts)))
        worst = min(worst, slack)
        assert slack >= -1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f} s, budget 5 s"
    return f"1000 bodies, smallest slack {worst:.6f}, {elapsed:.2f} s"


@criterion(8, "splits exist on the budget boundary")
def test_criterion_08_boundary_splits():
    rng = random.Random(80808)
    start = time.perf_counter()
    instances = 0
    for _ in range(200):
        base = rng.randint(2, 6)
        npts = rng.randint(1, 10)
        pts = {
            tuple(rng.randrange(base) for _ in range(3)) for _ in range(npts)
        }
        body = FiniteBody(3, base, frozenset(pts))
        total = math.log2(projection_count(body, 0b011)) + math.log2(
            projection_count(body, 0b101)
        )
        for t in range(5):
            a = total * t / 4
            spec = SplitSpec(3, {0b001: a, 0b111: total - a})
            assert find_split_exhaustive(body, spec) is not None
            instances += 1
    elapsed = time.perf_counter() - start
    assert instances == 1000
    assert elapsed < 60.0, f"took {elapsed:.2f} s, budget 60 s"
    return f"{instances} boundary specs all split, {elapsed:.2f} s"


@criterion(9, "group point to digit-set counterexample, re-verified")
def test_criterion_09_counterexample_pipeline():
    start = time.perf_counter()
    ineq = parse_inequality("H(x,y) <= H(x)")
    klein = direct_product(cyclic(2), cyclic(2))
    subs = [
        subgroup_from_elements(klein, [0, 1]),
        subgroup_from_elements(klein, [0]),
    ]
    ce = build_counterexample(ineq, group_point(ineq, klein, subs))
    assert (ce.entropy_slack + ExactLogLin.bits(1)).sign() == 0
    assert ce.epsilon == Fraction(1, 4)
    assert ce.margin_times_log_base.sign() == 1
    # levels sit strictly below the true projection dimensions (times log2 N)
    for mask in (s for s, a in ineq.nums.items() if a < 0):
        dim = ce.dims[mask]
        dim_log_n = ExactLogLin.log2(dim.cardinality)
        level = dim_log_n - ce.epsilon * ExactLogLin.log2(dim.base)
        assert (dim_log_n - level).sign() == 1
    # the dimension bound for subsets of C_A needs every projection of the
    # digit set to have fibers of one size, #A / #A_I
    w = ce.witness
    for mask in subsets(ineq.m)[:-1]:
        assert uniform_fiber(w, mask) == len(w) // ce.dims[mask].cardinality
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f} s, budget 5 s"
    return (
        f"epsilon {ce.epsilon}, margin {ce.margin_times_log_base}, "
        f"uniform fibers on every projection, {elapsed:.2f} s"
    )


def _float_entropies(support) -> dict[int, float]:
    """Entropies in bits of the uniform distribution on a support, by an
    independent float count of every projection."""
    n = len(support.points)
    out = {}
    for mask in subsets(support.m):
        idx = [i for i in range(support.m) if mask >> i & 1]
        counts = {}
        for p in support.points:
            key = tuple(p[i] for i in idx)
            counts[key] = counts.get(key, 0) + 1
        out[mask] = -math.fsum(c / n * math.log2(c / n) for c in counts.values())
    return out


@criterion(10, "float renderings agree with recomputed entropies")
def test_criterion_10_float_exact_agreement():
    rng = random.Random(101010)
    catalog = builtin_catalog(16)
    listings = {}
    worst = 0.0
    for _ in range(500):
        g = rng.choice(catalog)
        if g.name not in listings:
            listings[g.name] = all_subgroups(g)
        m = rng.randint(1, 3)
        tup = [rng.choice(listings[g.name]) for _ in range(m)]
        point = coset_entropy_point(g, tup, witness_set(g, tup))
        recomputed = _float_entropies(witness_set(g, tup))
        for mask in subsets(m):
            diff = abs(point[mask].to_float() - recomputed[mask])
            worst = max(worst, diff)
            assert diff <= 1e-9
    return f"500 points, largest float gap {worst:.2e}"


@criterion(11, "Ingleton has no violating point in S4 (Mao-Hassibi)")
def test_criterion_11_ingleton_s4_scan():
    # Mao and Hassibi (2009): S5 is the smallest group violating
    # Ingleton, so the full scan of S4's 30^4 subgroup tuples finds none
    ingleton = parse_inequality("I(a;b) <= I(a;b|c) + I(a;b|d) + I(c;d)")
    s4 = symmetric(4)
    tuples = len(all_subgroups(s4)) ** 4
    start = time.perf_counter()
    assert search_violation(ingleton, groups=[s4]) is None
    elapsed = time.perf_counter() - start
    assert tuples == 810_000
    assert elapsed < 10.0, f"took {elapsed:.2f} s, budget 10 s"
    return f"{tuples} tuples, {elapsed:.2f} s"


@criterion(12, "Ingleton violated in S5 from the CLI, then built (Mao-Hassibi)")
def test_criterion_12_ingleton_s5_cli(tmp_path):
    # S5 from two generators; the search skips every subgroup tuple that
    # a conjugation or the swaps a<->b, c<->d send to an earlier tuple
    s5 = {"perm_degree": 5, "generators": [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]]}
    (tmp_path / "catalog.json").write_text(json.dumps([s5]))
    (tmp_path / "s5.json").write_text(json.dumps(s5))
    ingleton = "I(a;b) <= I(a;b|c) + I(a;b|d) + I(c;d)"

    def run(*argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(list(argv))
        return code, json.loads(buf.getvalue())

    start = time.perf_counter()
    code, report = run("group-search", "--ineq", ingleton,
                       "--groups", str(tmp_path / "catalog.json"))
    searched = time.perf_counter() - start
    assert code == 2
    assert report["outcome"] == "violation found"
    assert report["group"] == {"order": 120}
    assert [len(h) for h in report["subgroups"]] == [6, 20, 8, 8]
    assert report["slack"]["exact"] == "-3 - 2*log2(4) + log2(6) + log2(20)"
    assert searched < 60.0, f"search took {searched:.1f} s, budget 60 s"

    (tmp_path / "subs.json").write_text(json.dumps(report["subgroups"]))
    code, built = run("counterexample", "--ineq", ingleton,
                      "--group", str(tmp_path / "s5.json"),
                      "--subgroups", str(tmp_path / "subs.json"))
    elapsed = time.perf_counter() - start
    assert code == 2
    assert built["outcome"] == "counterexample built"
    assert built["subgroups"] == report["subgroups"]
    return f"orders 6, 20, 8, 8 in {searched:.2f} s, built in {elapsed:.2f} s total"
