"""Independent checks of the program's answers.

Each oracle takes the request, the exit code and the parsed JSON report
and raises OracleError when the answer is wrong. None of them calls the
program: certificates are recombined over the benchmark's own elemental
rows, Farkas points are rechecked with Fraction arithmetic, split answers
come from a closed form and witnesses are recounted point by point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from inputs import binding, elemental_rows, split_caps


class OracleError(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise OracleError(message)


def _expect_code(code, want):
    _require(code == want, f"exit code {code}, expected {want}")


def _name_set(label, names):
    """Report label "x,z" (with names) or "{1,3}" (positions) -> name set."""
    if label.startswith("{"):
        return frozenset(names[int(p) - 1] for p in label.strip("{}").split(","))
    return frozenset(label.split(","))


def _coeffs(expect):
    return {frozenset(k.split(",")): Fraction(v) for k, v in expect["coeffs"].items()}


def _slack(coeffs, point):
    return sum((c * point.get(s, 0) for s, c in coeffs.items()), Fraction(0))


def shannon(req, code, report):
    names = binding(req.argv[1])
    _require(len(names) == req.expect["m"], f"binding has {len(names)} variables")
    target = _coeffs(req.expect)
    rows = elemental_rows(names)
    want = req.expect["outcome"]
    if want is not None:
        _require(report["outcome"] == want, f"outcome {report['outcome']!r}, expected {want!r}")
    if code == 0:
        _require(report["outcome"] == "shannon-type", "exit 0 without a certificate")
        combo = {}
        for entry in report["certificate"]["weights"]:
            w = Fraction(entry["weight"])
            _require(w > 0, f"nonpositive weight {w}")
            for s, c in rows[entry["row"]].items():
                combo[s] = combo.get(s, 0) + w * c
        combo = {s: c for s, c in combo.items() if c != 0}
        _require(combo == target, "certificate does not recombine to the target")
        return
    _expect_code(code, 2)
    _require(report["outcome"] == "not-shannon-type", "exit 2 without a Farkas point")
    point = {_name_set(k, names): Fraction(v)
             for k, v in report["farkas_witness"]["point"].items()}
    for r, row in enumerate(rows):
        _require(_slack(row, point) >= 0, f"Farkas point violates elemental row {r}")
    slack = _slack(target, point)
    _require(slack < 0, f"target slack {slack} on the Farkas point is not negative")
    _require(Fraction(report["farkas_witness"]["target_slack"]) == slack,
             "reported target slack differs from the recomputed one")


def none_found(req, code, report):
    _expect_code(code, 0)
    _require(report["outcome"] == "none within catalog",
             f"outcome {report['outcome']!r}; no group point violates this inequality")


def recount(points, m):
    """Projection cardinality for every nonempty position set, and whether
    every projection has uniform fibers."""
    cards, uniform = {}, True
    for k in range(1, m + 1):
        for pos in combinations(range(m), k):
            fibers = {}
            for p in points:
                key = tuple(p[i] for i in pos)
                fibers[key] = fibers.get(key, 0) + 1
            cards[pos] = len(fibers)
            uniform &= len(set(fibers.values())) == 1
    return cards, uniform


def _by_names(cards, names):
    return {",".join(sorted(names[i] for i in pos)): c for pos, c in cards.items()}


def _log_slack_sign(coeffs, cards):
    """Sign of sum c_T log2(card_T) by one exact rational product."""
    prod = Fraction(1)
    for s, c in coeffs.items():
        prod *= Fraction(cards[",".join(sorted(s))]) ** c
    return (prod > 1) - (prod < 1)


def counterexample(req, code, report):
    _expect_code(code, 2)
    _require(report["outcome"] == "counterexample built", f"outcome {report['outcome']!r}")
    names = req.expect["names"]
    ce = report["counterexample"]
    w = ce["witness"]
    m, base = w["m"], w["N"]
    _require(m == len(names), "witness has the wrong number of coordinates")
    points = {tuple(p) for p in w["points"]}
    _require(all(0 <= d < base for p in points for d in p), "digit out of range")
    cards, uniform = recount(points, m)
    _require(uniform, "witness projections do not all have uniform fibers")
    named = _by_names(cards, names)
    for label, dim in ce["dims"].items():
        got = named[",".join(sorted(_name_set(label, names)))]
        _require(dim["cardinality"] == got,
                 f"dimension at {label} claims {dim['cardinality']} points, recount {got}")
    if "cards" in req.expect:
        _require(named == req.expect["cards"], "witness counts differ from #G/#H_I")
        _require(base == req.expect["base"], f"base {base}, expected {req.expect['base']}")
        _require(report["group"]["order"] == req.expect["order"], "wrong group order")
    _require(_log_slack_sign(_coeffs(req.expect), named) < 0,
             "the witness does not violate the inequality")
    _require(Fraction(ce["epsilon"]) > 0, "epsilon is not positive")
    _require(ce["margin_times_log_base"]["float"] > 0, "margin is not positive")


def cantor(req, code, report):
    _expect_code(code, 0)
    names, cards = req.expect["names"], req.expect["cards"]
    full = ",".join(sorted(names))
    base = req.expect["base"]
    _require(report["N"] == base and report["m"] == len(names), "wrong witness shape")
    if req.expect["project"] is None:
        want = {",".join(sorted(names[i] for i in pos))
                for k in range(1, len(names) + 1) for pos in combinations(range(len(names)), k)}
    else:
        want = {",".join(sorted(req.expect["project"]))}
    got = set()
    for e in report["projections"]:
        key = ",".join(sorted(_name_set(e["projection"], names)))
        got.add(key)
        _require(e["cardinality"] == cards[key], f"cardinality at {key}")
        _require(e["dim_exact"] == f"log2({cards[key]})/log2({base})", f"dimension at {key}")
        if key != full:
            _require(e["uniform_fiber"] == cards[full] // cards[key], f"fiber size at {key}")
    _require(got == want, "wrong set of projections")


def eval_violated(req, code, report):
    _expect_code(code, 2)
    _require(report["outcome"] == "violated" and report["mode"] == "exact",
             f"outcome {report['outcome']!r} in mode {report['mode']!r}")
    want = sum(float(c) * math.log2(req.expect["cards"][",".join(sorted(s))])
               for s, c in _coeffs(req.expect).items())
    _require(abs(report["slack_float"] - want) < 1e-9,
             f"slack {report['slack_float']}, expected {want}")


def split(req, code, report):
    caps = req.expect["caps"]
    greedy = "--greedy" in req.argv
    if code == 2:
        if greedy:
            _require("inconclusive" in report["outcome"], f"outcome {report['outcome']!r}")
            return
        _require(not req.expect["exists"], "no split reported, but one exists")
        _require(report["outcome"] == "no split exists", f"outcome {report['outcome']!r}")
        return
    _expect_code(code, 0)
    _require(req.expect["exists"], "split reported, but none exists")
    _require(report["verified"] is True, "split not verified by the program")
    points = sorted(tuple(p) for p in req.files["body"]["points"])
    assignment = report["split"]["assignment"]
    _require(len(assignment) == len(points), "assignment does not cover the body")
    shadow1, part123 = set(), 0
    for i, p in enumerate(points):
        label = assignment[str(i)]
        if label == "{1}":
            shadow1.add(p[0])
        else:
            _require(label == "{1,2,3}", f"unknown part {label}")
            part123 += 1
    _require(len(shadow1) <= caps["1"] and part123 <= caps["1,2,3"],
             "a part exceeds its budget")
    _require(split_caps(points, caps["1"], caps["1,2,3"]), "closed form says no split")


def cube_bar(req, code, report):
    _expect_code(code, 0)
    k = req.expect["k"]
    bar = k * math.isqrt(k)
    size, v1, v12 = k ** 3 + bar - k, bar, k * k + bar - k
    _require(report["body"]["size"] == size, "wrong body size")
    _require(report["projections"] == {"S1": v1, "S12": v12, "S13": v12}, "wrong shadows")
    u = report["unsplit_inequality"]
    lhs, rhs = v1 * size, v12 * v12
    _require(u["lhs_product"] == lhs and u["rhs_product"] == rhs, "wrong products")
    _require(u["relation"] == (">" if lhs > rhs else "=" if lhs == rhs else "<"),
             "wrong relation")


ORACLES = {f.__name__: f for f in (shannon, none_found, counterexample, cantor,
                                   eval_violated, split, cube_bar)}


def judge(req, code, report):
    ORACLES[req.expect["oracle"]](req, code, report)
