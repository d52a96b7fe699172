import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from entrodim import cli, splitting
from entrodim.cli import _render, main
from entrodim.dsl import parse_inequality
from entrodim.shannon import FarkasWitness, is_shannon_type, verify_farkas

KLEIN_JSON = {
    "order": 4,
    "table": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
}

ZY_TEXT = "2 I(z;w) <= I(x;y) + I(x;z,w) + 3 I(z;w|x) + I(z;w|y)"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def test_check_shannon_type(capsys):
    code, report, err = run(capsys, "check", "H(x) <= H(x,y)")
    assert code == 0 and err == ""
    assert report["outcome"] == "shannon-type"
    assert report["canonical"] == "1 H(x) <= 1 H(x,y)"
    assert report["certificate"]["weights"] == [
        {"row": 1, "weight": "1", "inequality": "1 H(x) <= 1 H(x,y)"}
    ]
    assert "elapsed_ms" in report


def test_check_not_shannon_type(capsys):
    code, report, _ = run(capsys, "check", ZY_TEXT)
    assert code == 2
    assert report["outcome"] == "not-shannon-type"
    assert report["farkas_witness"]["target_slack"] == "-1"
    assert len(report["farkas_witness"]["point"]) == 15


def _decimal_text(q):
    """q's text by way of Decimal, which writes an int of any length."""
    if q.denominator == 1:
        return f"{Decimal(q.numerator)}"
    return f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"


def test_check_writes_coefficients_longer_than_str_writes(capsys):
    nines, sevens = "9" * 3000, "7" * 2999 + "1"
    text = f"1/{nines} H(x) + 1/{sevens} H(y) >= 0"
    code, report, err = run(capsys, "check", text)
    assert (code, err) == (0, "")
    assert report["canonical"] == f"0 <= 1/{nines} H(x) + 1/{sevens} H(y)"
    cert = is_shannon_type(parse_inequality(text))
    weights = [(r, Fraction(w, cert.den)) for r, w in cert.weights.items()]
    assert max(w.denominator for _, w in weights) > 10**4300  # beyond what str writes
    assert [(e["row"], e["weight"]) for e in report["certificate"]["weights"]] == [
        (r, _decimal_text(w)) for r, w in weights]
    # the reverse: a Farkas point and a target slack of some 9,000 characters,
    # from the first extreme ray (0, 1, 1), on which both coefficients count
    flipped = f"1/{nines} H(x,y) + 1/{sevens} H(y) <= 0"
    code, report, err = run(capsys, "check", flipped)
    assert (code, err) == (2, "")
    verify_farkas(parse_inequality(flipped), FarkasWitness(2, 1, {2: 1, 3: 1}))
    slack = -(Fraction(1, int(nines)) + Fraction(1, int(sevens)))
    assert report["farkas_witness"] == {
        "point": {"y": "1", "x,y": "1"}, "target_slack": _decimal_text(slack)}
    assert len(report["farkas_witness"]["target_slack"]) > 9000


def test_check_one_variable(capsys):
    code, report, err = run(capsys, "check", "H(x) >= 0")
    assert (code, err) == (0, "")
    assert report["outcome"] == "shannon-type"
    assert report["certificate"]["weights"] == [
        {"row": 0, "weight": "1", "inequality": "0 <= 1 H(x)"}
    ]


def test_check_parse_error(capsys):
    code, report, err = run(capsys, "check", "H(x <= H(y)")
    assert code == 1 and report is None
    assert err.startswith("error: InequalityParseError:")


@pytest.mark.parametrize("text, position", [
    ("7" * 5000 + " H(x) >= 0", 0),
    ("H(x) <= 1/" + "3" * 5000 + " H(x,y)", 10),
])
def test_check_a_too_long_number_is_a_parse_error(capsys, text, position):
    # int() reads at most sys.get_int_max_str_digits() digits, 4300 by default
    code, report, err = run(capsys, "check", text)
    assert code == 1 and report is None
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0] == (f"error: InequalityParseError: number of 5000 digits is too long "
                        f"(at position {position})")


def test_eval_distribution_holds(capsys, tmp_path):
    dist = write_json(
        tmp_path / "d.json",
        {
            "m": 2,
            "atoms": [
                {"point": [0, 0], "prob": "1/4"},
                {"point": [0, 1], "prob": "1/4"},
                {"point": [1, 0], "prob": "1/4"},
                {"point": [1, 1], "prob": "1/4"},
            ],
        },
    )
    code, report, _ = run(capsys, "eval", "--ineq", "I(x;y) >= 0", "--dist", dist)
    assert code == 0
    assert report["outcome"] == "holds"
    assert report["mode"] == "exact"
    assert report["slack_exact"] == "2 - log2(4)"
    assert abs(report["slack_float"]) < 1e-9


def test_eval_support_violated(capsys, tmp_path):
    sup = write_json(
        tmp_path / "s.json",
        {"m": 2, "support": [[0, 0], [0, 1], [1, 0], [1, 1]]},
    )
    code, report, _ = run(capsys, "eval", "--ineq", "H(x,y) <= H(x)", "--dist", sup)
    assert code == 2
    assert report["outcome"] == "violated"
    assert report["mode"] == "exact"
    assert report["slack_exact"] == "1 - log2(4)"
    assert report["slack_float"] == pytest.approx(-1.0)


def test_eval_nonuniform_support_is_exact(capsys, tmp_path):
    sup = write_json(
        tmp_path / "s.json", {"m": 2, "support": [[0, 0], [0, 1], [1, 0]]}
    )
    code, report, _ = run(capsys, "eval", "--ineq", "I(x;y) >= 0", "--dist", sup)
    assert code == 0
    assert report["mode"] == "exact"
    assert "note" not in report
    assert report["slack_exact"] == "-4/3 + log2(3)"
    assert report["slack_float"] == pytest.approx(0.2516291673878, abs=1e-9)


@pytest.mark.parametrize("form", ["atoms", "support"])
def test_eval_near_tie_is_violated(capsys, tmp_path, form):
    # on the uniform 2x3 grid the slack is 171928773*log2(3) - 272500658,
    # about -2.58e-9: below any float tolerance, and past the old
    # product budget
    grid = [[a, b] for a in range(2) for b in range(3)]
    if form == "atoms":
        obj = {"m": 2, "atoms": [{"point": p, "prob": "1/6"} for p in grid]}
    else:
        obj = {"m": 2, "support": grid}
    dist = write_json(tmp_path / "d.json", obj)
    ineq = "272500658 H(x) <= 171928773 H(y)"
    code, report, err = run(capsys, "eval", "--ineq", ineq, "--dist", dist)
    assert (code, err) == (2, "")
    assert report["outcome"] == "violated"
    assert report["mode"] == "exact"
    assert report["slack_exact"] == "-272500658 + 171928773*log2(3)"
    # the float sum of the two terms cancels; the rendering keeps the sign
    assert report["slack_float"] == pytest.approx(-2.5812933071047e-9, rel=1e-6)


def test_eval_missing_file(capsys, tmp_path):
    code, report, err = run(
        capsys, "eval", "--ineq", "I(x;y) >= 0", "--dist", str(tmp_path / "no.json")
    )
    assert code == 1 and report is None
    assert err.startswith("error: FileNotFoundError:")


def test_group_search_found(capsys):
    code, report, _ = run(
        capsys, "group-search", "--ineq", "H(x,y) <= H(x)", "--max-order", "4"
    )
    assert code == 2
    assert report["outcome"] == "violation found"
    assert report["group"] == {"order": 2, "name": "Z2"}
    assert report["subgroups"] == [[0, 1], [0]]
    assert report["slack"] == {"exact": "-1", "float": -1.0}
    assert report["entropy_point"]["x"] == {"exact": "0", "float": 0.0}


def test_group_search_none(capsys):
    code, report, _ = run(
        capsys, "group-search", "--ineq", "I(x;y) >= 0", "--max-order", "4"
    )
    assert code == 0
    assert report["outcome"] == "none within catalog"
    assert "not a proof" in report["note"]


@pytest.mark.parametrize("command", ["group-search", "counterexample"])
@pytest.mark.parametrize("max_order", ["100000", "65", "0", "-1"])
def test_catalog_order_out_of_range_is_an_error(capsys, tmp_path, command, max_order):
    # refused before any group is built: 100000 would take minutes; and
    # refused too when the catalog goes unused, for a group file of one's own
    own = {"group-search": ["--groups", write_json(tmp_path / "gs.json", [KLEIN_JSON])],
           "counterexample": ["--group", write_json(tmp_path / "g.json", KLEIN_JSON),
                              "--subgroups", write_json(tmp_path / "s.json", [[0], [0, 1]])]}
    for files in ([], own[command]):
        start = time.perf_counter()
        code, report, err = run(
            capsys, command, "--ineq", "H(x,y) <= H(x)", "--max-order", max_order, *files
        )
        assert time.perf_counter() - start < 1.0
        assert code == 1 and report is None
        assert err == f"error: ValueError: max_order must be in 1..64, got {max_order}\n"


def test_catalog_order_64_is_accepted(capsys):
    code, report, _ = run(
        capsys, "group-search", "--ineq", "H(x) <= H(x,y)", "--max-order", "64"
    )
    assert code == 0 and report["outcome"] == "none within catalog"


_HUGE = "9" * 400  # a coefficient whose slack in bits is past the float range


@pytest.mark.parametrize("argv, want", [
    (["eval", "--ineq", f"{_HUGE} H(x) >= 0", "--dist", "@support"], 0),
    (["group-search", "--ineq", f"{_HUGE} H(x,y) <= H(x)", "--max-order", "4"], 2),
    (["counterexample", "--ineq", f"{_HUGE} H(x,y) <= H(x)"], 2),
], ids=["eval", "group-search", "counterexample"])
def test_a_slack_past_the_float_range_keeps_its_exact_verdict(capsys, tmp_path, argv, want):
    support = write_json(tmp_path / "s.json", {"m": 1, "support": [[0], [1]]})
    code, report, err = run(capsys, *[support if a == "@support" else a for a in argv])
    assert (code, err) == (want, "")
    slack = {
        "eval": lambda r: {"exact": r["slack_exact"], "float": r["slack_float"]},
        "group-search": lambda r: r["slack"],
        "counterexample": lambda r: r["counterexample"]["entropy_slack"],
    }[argv[0]](report)
    assert slack["float"] is None
    assert int(slack["exact"]) == (int(_HUGE) if want == 0 else 1 - int(_HUGE))
    if argv[0] == "counterexample":
        margin = report["counterexample"]["margin_times_log_base"]
        assert margin["float"] is None and margin["exact"].startswith("9" * 399)


@pytest.mark.parametrize("argv, want", [
    (["eval", "--ineq", "@<=", "--dist", "@support"], 2),
    (["eval", "--ineq", "@>=", "--dist", "@support"], 0),
    (["group-search", "--ineq", "@<=", "--max-order", "4"], 2),
    (["counterexample", "--ineq", "@<=", "--max-order", "4"], 2),
], ids=["eval", "eval-holds", "group-search", "counterexample"])
def test_a_slack_with_a_denominator_longer_than_str_writes(capsys, tmp_path, argv, want):
    # the slack's coefficients have some 6,000-digit denominators, past
    # the 4,300 digits str writes of an int
    nines, sevens = "9" * 3000, "7" * 2999 + "1"
    texts = {op: f"1/{nines} H(x) + 1/{sevens} H(y) {op} 0" for op in ("<=", ">=")}
    support = write_json(tmp_path / "s.json", {"m": 2, "support": [[0, 0], [1, 0], [0, 1]]})
    argv = [texts.get(a[1:], support) if a.startswith("@") else a for a in argv]
    code, report, err = run(capsys, *argv)
    assert (code, err) == (want, "")
    # with s = 1/nines + 1/sevens, the support's uniform point has slack
    # -+s*(log2(3) - 2/3) and the first group point (Z2) slack -s
    total = Fraction(1, int(nines)) + Fraction(1, int(sevens))
    third, whole = _decimal_text(2 * total / 3), _decimal_text(total)
    slack = {
        "eval": lambda r: r["slack_exact"],
        "group-search": lambda r: r["slack"]["exact"],
        "counterexample": lambda r: r["counterexample"]["entropy_slack"]["exact"],
    }[argv[0]](report)
    if argv[0] != "eval":
        expected = f"-{whole}"
    elif want == 0:
        expected = f"-{third} + {whole}*log2(3)"
    else:
        expected = f"{third} - {whole}*log2(3)"
    assert slack == expected


@pytest.mark.parametrize("group, message", [
    ({"perm_degree": 10**9, "generators": []},
     f"perm_degree must be in 0..64, got {10**9}"),
    ({"perm_degree": 9, "generators": [[1, 0, *range(2, 9)], [*range(1, 9), 0]]},
     "the generators give a group of order above 720"),
], ids=["degree", "S9"])
def test_a_group_from_generators_past_its_bounds_is_refused(capsys, tmp_path, group, message):
    # refused before the group is built: S9 would need a table of 362,880**2
    # entries, and the degree alone a tuple of 10**9 ints
    groups_file = write_json(tmp_path / "g.json", [group])
    group_file = write_json(tmp_path / "h.json", group)
    subgroups = write_json(tmp_path / "s.json", [[0]])
    for argv in (["group-search", "--ineq", "H(x,y) <= H(x) + H(y)", "--groups", groups_file],
                 ["counterexample", "--ineq", "H(x,y) <= H(x)", "--group", group_file,
                  "--subgroups", subgroups]):
        start = time.perf_counter()
        code, report, err = run(capsys, *argv)
        assert time.perf_counter() - start < 2.0
        assert (code, report, err) == (1, None, f"error: ValueError: {message}\n")


def test_group_search_custom_catalog(capsys, tmp_path):
    cat = write_json(tmp_path / "cat.json", [KLEIN_JSON])
    code, report, _ = run(
        capsys,
        "group-search",
        "--ineq",
        "H(x,y) <= H(x)",
        "--groups",
        cat,
    )
    assert code == 2
    assert report["group"] == {"order": 4}
    assert report["subgroups"] == [[0, 1], [0]]


def test_counterexample_explicit_group(capsys, tmp_path):
    group = write_json(tmp_path / "g.json", KLEIN_JSON)
    subs = write_json(tmp_path / "h.json", [[0, 1], [0]])
    code, report, _ = run(
        capsys,
        "counterexample",
        "--ineq",
        "H(x,y) <= H(x)",
        "--group",
        group,
        "--subgroups",
        subs,
    )
    assert code == 2
    assert report["outcome"] == "counterexample built"
    ce = report["counterexample"]
    assert ce["epsilon"] == "1/4"
    assert ce["witness"] == {
        "m": 2,
        "N": 4,
        "points": [[0, 0], [0, 1], [1, 2], [1, 3]],
    }
    assert ce["margin_times_log_base"]["exact"] == "-1 + 3/4*log2(4)"
    assert ce["margin_times_log_base"]["float"] == pytest.approx(0.5)


def test_counterexample_near_tie_on_z6(capsys, tmp_path):
    # 665*log2(3) exceeds 1054 by 6.3e-5, so the smallest epsilon is
    # 2**-24; the old product comparison gave up on it
    z6 = {"order": 6, "table": [[(i + j) % 6 for j in range(6)] for i in range(6)]}
    group = write_json(tmp_path / "g.json", z6)
    subs = write_json(tmp_path / "h.json", [[0, 3], [0, 2, 4]])
    code, report, err = run(
        capsys, "counterexample", "--ineq", "665 H(y) <= 1054 H(x)",
        "--group", group, "--subgroups", subs,
    )
    assert (code, err) == (2, "")
    assert report["outcome"] == "counterexample built"
    assert report["counterexample"]["epsilon"] == "1/16777216"


def test_counterexample_via_search(capsys):
    code, report, _ = run(
        capsys, "counterexample", "--ineq", "H(x,y) <= H(x)", "--max-order", "4"
    )
    assert code == 2
    assert report["searched"] is True
    assert report["group"] == {"order": 2, "name": "Z2"}


def test_counterexample_without_an_epsilon_is_an_error(capsys, tmp_path):
    group = write_json(tmp_path / "g.json", KLEIN_JSON)
    subs = write_json(tmp_path / "h.json", [[0, 1], [0]])
    code, report, err = run(
        capsys,
        "counterexample",
        "--ineq",
        f"{2**63} H(x,y) <= {2**64 - 1} H(x)",
        "--group",
        group,
        "--subgroups",
        subs,
    )
    assert code == 1 and report is None
    assert err.startswith("error: NoEpsilon:") and len(err.splitlines()) == 1


def test_counterexample_not_violated_is_an_error(capsys, tmp_path):
    group = write_json(tmp_path / "g.json", KLEIN_JSON)
    subs = write_json(tmp_path / "h.json", [[0, 1], [0]])
    code, report, err = run(
        capsys,
        "counterexample",
        "--ineq",
        "H(x) <= H(x,y)",
        "--group",
        group,
        "--subgroups",
        subs,
    )
    assert code == 1 and report is None
    assert err.startswith("error: NotViolated:")


def test_counterexample_search_exhausted(capsys):
    code, report, _ = run(
        capsys, "counterexample", "--ineq", "I(x;y) >= 0", "--max-order", "4"
    )
    assert code == 0
    assert report["outcome"] == "no violating group point within catalog"


def test_counterexample_group_without_subgroups(capsys, tmp_path):
    group = write_json(tmp_path / "g.json", KLEIN_JSON)
    code, report, err = run(
        capsys, "counterexample", "--ineq", "H(x,y) <= H(x)", "--group", group
    )
    assert code == 1
    assert err.startswith("error: ValueError: --group requires --subgroups")


def test_counterexample_subgroups_without_group(capsys, tmp_path):
    subs = write_json(tmp_path / "s.json", [[0, 1], [0]])
    code, report, err = run(
        capsys, "counterexample", "--ineq", "H(x,y) <= H(x)", "--subgroups", subs
    )
    assert (code, report) == (1, None)
    assert err == "error: ValueError: --subgroups requires --group\n"


def test_cantor_report(capsys, tmp_path):
    witness = write_json(
        tmp_path / "w.json",
        {"m": 3, "N": 2, "points": [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]},
    )
    code, report, _ = run(capsys, "cantor", "--witness", witness)
    assert code == 0
    assert report["m"] == 3 and report["N"] == 2
    assert len(report["projections"]) == 7
    by_label = {e["projection"]: e for e in report["projections"]}
    assert by_label["{1,2}"]["cardinality"] == 4
    assert by_label["{1,2}"]["dim_float"] == 2.0
    assert by_label["{1,2}"]["uniform_fiber"] == 1
    assert by_label["{1}"]["uniform_fiber"] == 2
    assert "uniform_fiber" not in by_label["{1,2,3}"]


def test_cantor_single_projection(capsys, tmp_path):
    witness = write_json(
        tmp_path / "w.json", {"m": 2, "N": 2, "points": [[0, 0], [0, 1], [1, 0]]}
    )
    code, report, _ = run(
        capsys, "cantor", "--witness", witness, "--project", "1"
    )
    assert code == 0
    (entry,) = report["projections"]
    assert entry["projection"] == "{1}"
    assert entry["uniform_fiber"] is None
    assert entry["non_uniform_at"] == [0]


def test_split_found_and_not_found(capsys, tmp_path):
    body = write_json(
        tmp_path / "b.json",
        {"m": 3, "N": 2, "points": sorted(
            [x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)
        )},
    )
    spec_ok = write_json(
        tmp_path / "ok.json",
        {"m": 3, "levels": [{"part": [1], "bits": 2.0},
                            {"part": [1, 2, 3], "bits": 2.0}]},
    )
    code, report, _ = run(capsys, "split", "--body", body, "--spec", spec_ok)
    assert code == 0
    assert report["outcome"] == "split found"
    assert report["verified"] is True
    assert set(report["split"]["assignment"].values()) == {"{1}"}

    spec_no = write_json(
        tmp_path / "no.json",
        {"m": 3, "levels": [{"part": [1], "bits": -1.0},
                            {"part": [1, 2, 3], "bits": 2.9}]},
    )
    code, report, _ = run(capsys, "split", "--body", body, "--spec", spec_no)
    assert code == 2
    assert report["outcome"] == "no split exists"

    # --greedy selects nothing: the answer is the search's, and definite
    code, report, _ = run(
        capsys, "split", "--body", body, "--spec", spec_no, "--greedy"
    )
    assert code == 2
    assert report["outcome"] == "no split exists"


def test_split_with_the_greedy_flag_finds_a_split_a_one_pass_heuristic_misses(
    capsys, tmp_path
):
    # a heuristic that parks the first point in the roomier full part
    # can never recover here; the exact search splits the body
    body_obj = {"m": 3, "N": 3, "points": [[0, 0, 0], [0, 1, 1], [1, 0, 0], [2, 0, 0]]}
    spec_obj = {"m": 3, "levels": [{"part": [1], "bits": 0.0}, {"part": [1, 2, 3], "bits": 1.0}]}
    body, spec = write_json(tmp_path / "b.json", body_obj), write_json(tmp_path / "s.json", spec_obj)
    code, report, err = run(capsys, "split", "--greedy", "--body", body, "--spec", spec)
    assert (code, err) == (0, "")
    assert report["outcome"] == "split found" and report["verified"] is True
    labels = ["{1}", "{1}", "{1,2,3}", "{1,2,3}"]
    assert report["split"] == {"assignment": dict(zip("0123", labels))}
    split = splitting.SplitResult((0b001, 0b001, 0b111, 0b111))  # the points are sorted
    assert splitting.verify_split(splitting.FiniteBody.from_json(body_obj),
                                  splitting.SplitSpec.from_json(spec_obj), split)


def test_split_flags_leave_the_cube_bar_report_unchanged(capsys, tmp_path):
    # the benchmark's cube-bar(16) request, caps (30, 4096)
    body = write_json(tmp_path / "body.json", splitting.cube_bar_instance(16).to_json())
    spec = write_json(tmp_path / "spec.json", {"m": 3, "levels": [
        {"part": [1], "bits": math.log2(30)}, {"part": [1, 2, 3], "bits": 12}]})
    reports = []
    for flags in ([], ["--greedy"], ["--exhaustive"]):
        code, report, _ = run(capsys, "split", *flags, "--body", body, "--spec", spec)
        assert code == 0 and report["verified"] is True
        del report["elapsed_ms"]
        reports.append(json.dumps(report))
    assert reports[0] == reports[1] == reports[2]


def test_the_cube_bar_split_report_keeps_its_pinned_hash(capsys, tmp_path):
    # the same request; the sha256 of its report, without elapsed_ms and
    # with the input paths written as "@body" and "@spec", was taken when
    # point sets were held as tuples
    body = write_json(tmp_path / "body.json", splitting.cube_bar_instance(16).to_json())
    spec = write_json(tmp_path / "spec.json", {"m": 3, "levels": [
        {"part": [1], "bits": math.log2(30)}, {"part": [1, 2, 3], "bits": 12}]})
    code, report, _ = run(capsys, "split", "--body", body, "--spec", spec)
    assert code == 0 and report["inputs"] == {"body": body, "spec": spec}
    del report["elapsed_ms"]
    report["inputs"] = {"body": "@body", "spec": "@spec"}
    text = json.dumps(report).encode()
    assert hashlib.sha256(text).hexdigest() == (
        "d36d4a82b4690d311dc500b56fa98879837ec7f19c0bf9c4496c78b5042f6929")


@pytest.mark.parametrize(
    "bits, code",
    [(math.inf, 0), (-math.inf, 2), (-9.99e-10, 0), (-1e-9, 2), (1e-300, 0),
     (math.nan, 1)],
)
def test_split_budget_edge_cases(capsys, tmp_path, bits, code):
    # one point: its shadow fits a budget b iff b >= -10**-9 exactly, and
    # the float -1e-9 is a little below that
    body = write_json(tmp_path / "b.json", {"m": 2, "N": 2, "points": [[0, 1]]})
    levels = [{"part": [1], "bits": bits}]
    spec = write_json(tmp_path / "s.json", {"m": 2, "levels": levels})
    for method in ([], ["--greedy"]):
        got, report, err = run(capsys, "split", "--body", body, "--spec", spec, *method)
        assert got == code
        if code == 1:
            assert report is None and err.startswith("error: ValueError: ")
        else:
            # a JSON number cannot be infinite: an infinity is echoed as a string
            echo = {math.inf: "Infinity", -math.inf: "-Infinity"}.get(bits, bits)
            assert json.dumps(report["spec"]) == json.dumps(
                {"m": 2, "levels": [{"part": [1], "bits": echo}]})


def test_split_budget_beyond_float_range(capsys, tmp_path):
    # no float holds 10**400: the report writes it as its exact string
    body = write_json(tmp_path / "b.json", {"m": 2, "N": 2, "points": [[0, 1], [1, 1]]})
    levels = [{"part": [1], "bits": 10**400}]
    spec = write_json(tmp_path / "s.json", {"m": 2, "levels": levels})
    code, report, _ = run(capsys, "split", "--body", body, "--spec", spec)
    assert code == 0 and report["verified"] is True
    assert report["spec"]["levels"] == [{"part": [1], "bits": str(10**400)}]
    read = splitting.SplitSpec.from_json({"m": 2, "levels": levels})
    again = splitting.SplitSpec.from_json(read.to_json())
    assert again == read
    assert [splitting._max_count(b) for b in again.levels.values()] == [1 << 1000]


@pytest.mark.parametrize(
    "levels, message",
    [
        ([{"part": [1], "bits": 0}, {"part": [1], "bits": 5},
          {"part": [1, 2, 3], "bits": 0}], "part {1} listed twice"),
        ([{"part": [1, 1], "bits": 5}, {"part": [1, 2, 3], "bits": 0}],
         "repeated position in part [1, 1]"),
    ],
)
def test_split_spec_with_a_duplicate_part_is_refused(capsys, tmp_path, levels, message):
    # as cantor --project refuses a repeated position: no budget is dropped
    body = write_json(tmp_path / "b.json", {"m": 3, "N": 2, "points": [[0, 1, 1], [1, 0, 1]]})
    spec = write_json(tmp_path / "s.json", {"m": 3, "levels": levels})
    code, report, err = run(capsys, "split", "--body", body, "--spec", spec)
    assert (code, report) == (1, None)
    assert err.splitlines() == [f"error: ValueError: {message}"]


@pytest.mark.parametrize("position", [4, 10**9])
def test_split_spec_part_position_past_m_is_refused(capsys, tmp_path, position):
    # checked against m before any mask is made: a mask of bit 10**9 - 1
    # would take minutes to build and write
    body = write_json(tmp_path / "b.json", {"m": 3, "N": 2, "points": [[0, 1, 1], [1, 0, 1]]})
    spec = write_json(tmp_path / "s.json", {"m": 3, "levels": [{"part": [position], "bits": 1}]})
    start = time.perf_counter()
    code, report, err = run(capsys, "split", "--body", body, "--spec", spec)
    assert time.perf_counter() - start < 1.0
    assert (code, report) == (1, None)
    assert err.splitlines() == [f"error: ValueError: variable position {position} out of range"]


@pytest.mark.parametrize("method", [[], ["--greedy"]])
@pytest.mark.parametrize(
    "levels",
    [
        [{"part": [1], "bits": 1}],
        [{"part": [3], "bits": 0}, {"part": [1, 2, 3], "bits": 0}],
    ],
)
def test_split_spec_for_another_m_is_refused(capsys, tmp_path, levels, method):
    # an m=3 spec on an m=2 body: neither a split of the wrong shape nor
    # an IndexError from a part the body's points have no coordinate for
    body = write_json(tmp_path / "b.json", {"m": 2, "N": 3, "points": [[0, 1], [1, 2]]})
    spec = write_json(tmp_path / "s.json", {"m": 3, "levels": levels})
    code, report, err = run(capsys, "split", "--body", body, "--spec", spec, *method)
    assert (code, report) == (1, None)
    assert err.splitlines() == ["error: ValueError: split spec for m=3 on a body with m=2"]


@pytest.mark.parametrize("method", [[], ["--greedy"]])
def test_split_is_recounted_once(capsys, tmp_path, monkeypatch, method):
    calls = []
    real = splitting.verify_split
    monkeypatch.setattr(
        splitting, "verify_split", lambda *a: calls.append(a) or real(*a)
    )
    body = write_json(tmp_path / "b.json", {"m": 2, "N": 2, "points": [[0, 0], [1, 1]]})
    spec = write_json(
        tmp_path / "s.json", {"m": 2, "levels": [{"part": [1], "bits": 1.0}]}
    )
    code, report, _ = run(capsys, "split", "--body", body, "--spec", spec, *method)
    assert code == 0 and report["verified"] is True
    assert len(calls) == 1


@pytest.mark.parametrize("from_file", [False, True], ids=["searched", "group file"])
def test_counterexample_builds_one_group_point(capsys, tmp_path, monkeypatch, from_file):
    # the point the search found, or the group file's, is the one the
    # digit sets are read from: one witness set, checked once
    from entrodim import groups

    calls = []
    for name in ("witness_set", "coset_entropy_point"):
        real = getattr(groups, name)
        monkeypatch.setattr(groups, name, lambda *a, real=real, name=name, **k: (
            calls.append(name) or real(*a, **k)))
    argv = ["counterexample", "--ineq", "H(x,y) <= H(x)"]
    if from_file:
        argv += ["--group", write_json(tmp_path / "g.json", KLEIN_JSON),
                 "--subgroups", write_json(tmp_path / "s.json", [[0, 1], [0]])]
    code, report, _ = run(capsys, *argv)
    assert code == 2 and report["outcome"] == "counterexample built"
    assert calls == ["witness_set", "coset_entropy_point"]


def test_demo_cube_bar(capsys):
    code, report, _ = run(capsys, "demo", "cube-bar", "--k", "16")
    assert code == 0
    assert report["body"] == {"m": 3, "N": 64, "size": 4144}
    assert report["projections"] == {"S1": 64, "S12": 304, "S13": 304}
    assert report["unsplit_inequality"]["verdict"] == "VIOLATED"
    assert report["outcome"] == (
        "unsplit inequality VIOLATED: 64*4144 = 265216 > 92416 = 304*304"
    )
    assert report["loomis_whitney_slack"] >= 0


def test_demo_bad_k(capsys):
    code, report, err = run(capsys, "demo", "cube-bar", "--k", "5")
    assert code == 1
    assert err.startswith("error: ValueError: k must be a perfect square")


def test_demo_k_is_bounded(capsys):
    # checked first, so a lost bound fails here instead of building 10**12 points
    assert 100 <= splitting.MAX_CUBE_BAR_K < 10_000
    code, report, err = run(capsys, "demo", "cube-bar", "--k", "10000")
    assert (code, report) == (1, None)
    assert err == f"error: ValueError: k must be at most {splitting.MAX_CUBE_BAR_K}, got 10000\n"


@pytest.mark.parametrize("argv, message", [
    (["split", "--body", "x"], "the following arguments are required: --spec"),
    (["demo", "cube-bar", "--k", "x"], "argument --k: invalid int value: 'x'"),
    (["check"], "the following arguments are required: ineq"),
    (["check", "H(x) >= 0", "extra"], "unrecognized arguments: extra"),
    ([], "the following arguments are required: command"),
    (["frob"], "argument command: invalid choice: 'frob' (choose from 'check', 'eval', "
               "'group-search', 'counterexample', 'cantor', 'split', 'demo')"),
    (["demo", "sphere", "--k", "4"],
     "argument what: invalid choice: 'sphere' (choose from 'cube-bar')"),
    (["split", "--body"], "argument --body: expected one argument"),
    (["group-search", "--ineq", "H(x) >= 0", "--max-order", "1.5"],
     "argument --max-order: invalid int value: '1.5'"),
])
def test_usage_errors_are_one_line_and_exit_1(capsys, argv, message):
    code, report, err = run(capsys, *argv)
    assert (code, report, err) == (1, None, f"error: UsageError: {_as_listed(message)}\n")


def _as_listed(message):
    """message with its choices listed as the running argparse lists them:
    quoted by older releases, such as 3.13.0, bare by newer ones, such as
    3.13.13."""
    if "'check'" in _outcome(_reference_read, ["frob"])[1]:
        return message
    return re.sub(r"\(choose from .*\)$", lambda m: m[0].replace("'", ""), message)


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["demo", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: entrodim demo")


@pytest.mark.parametrize("argv, names", [
    ([], ["check", "eval", "group-search", "counterexample", "cantor", "split", "demo"]),
    (["check"], ["ineq"]),
    (["eval"], ["--ineq", "--dist"]),
    (["group-search"], ["--ineq", "--max-order", "--groups"]),
    (["counterexample"], ["--ineq", "--group", "--subgroups", "--max-order"]),
    (["cantor"], ["--witness", "--project"]),
    (["split"], ["--body", "--spec", "--exhaustive", "--greedy"]),
    (["demo"], ["--k"]),
])
def test_help_lists_every_argument(capsys, argv, names):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(" ".join(["usage: entrodim", *argv]))
    assert all(name in out for name in [*names, "-h", "--help"])


class _Refused(Exception):
    """argparse's refusal, raised where it would exit 2."""


class _ReferenceParser(argparse.ArgumentParser):
    def error(self, message):
        raise _Refused(message)


def _reference_parser():
    """argparse built from the reader's table: the reference it must match."""
    parser = _ReferenceParser(prog="entrodim")
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (_, about, args) in cli._COMMANDS.items():
        sub = commands.add_parser(command, help=about)
        for name, flags, kind, default, text in args:
            if kind is bool:
                sub.add_argument(*flags, dest=name, action="store_true", help=text)
                continue
            options = {"choices": kind} if type(kind) is tuple else {"type": kind}
            if flags:
                required = default is cli._REQUIRED
                options.update(dest=name, required=required, default=None if required else default)
            sub.add_argument(*flags or [name], help=text, **options)
    return parser


def _outcome(read, argv):
    """("inputs", subcommand, [(name, value), ...]), ("refused", text) or
    ("exit", code) for one reading of argv."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            command, inputs = read(argv)
    except SystemExit as exc:
        return "exit", exc.code
    except (cli.UsageError, _Refused) as exc:
        return "refused", str(exc)
    return "inputs", command, list(inputs.items())


def _reference_read(argv):
    namespace = vars(_REFERENCE.parse_args(argv))
    return namespace.pop("command"), {k: v for k, v in namespace.items() if k not in _NO_INPUT}


_VALUE = st.sampled_from(["x", "H(x) <= H(x,y)", "4", "16", "0", "1.5", "-1", "-16", "-1.5",
                          "-.5", "cube-bar", "sphere", "a b", "-x y", "--k 4", "", "-"])


@st.composite
def _command_line(draw):
    """A line one subcommand accepts, its arguments in any order, then
    changed: tokens inserted (flags, unique prefixes, --flag=value, values,
    "--", unknown flags, an ambiguous option, extra positionals) and some
    deleted (missing values and arguments).  Before the subcommand come at
    most an unknown flag, "--", -h or -h with a value glued on."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    args = cli._COMMANDS[command][2]
    parts = []
    for name, flags, kind, default, _ in args:
        if default is cli._REQUIRED or draw(st.booleans()):
            value = draw(st.sampled_from(kind) if type(kind) is tuple else _VALUE)
            parts.append(list(flags[:1]) if kind is bool else [*flags[:1], value])
    tokens = sum(draw(st.permutations(parts)), [])
    flags = [flag for arg in args for flag in arg[1]] + ["-h", "--help"]
    long = [flag for flag in flags if flag.startswith("--")]
    prefix = st.sampled_from(long).flatmap(lambda f: st.integers(3, len(f)).map(lambda k: f[:k]))
    token = st.one_of(
        st.sampled_from(flags), prefix, _VALUE,
        st.builds("{}={}".format, st.one_of(st.sampled_from(long), prefix), _VALUE),
        st.sampled_from(["--", "-x", "--frob", "--frob=1", "extra", "--=x"]),  # "--" prefixes all
    )
    for _ in range(draw(st.integers(0, 3))):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(token))
    for _ in range(draw(st.integers(0, 2))):
        if tokens:
            tokens.pop(draw(st.integers(0, len(tokens) - 1)))
    head = draw(st.sampled_from([[command]] * 12 + [["frob"], ["-x", command], ["--frob=1", command],
                                                     ["--", command], ["-h", command],
                                                     ["-hx", command], ["--he=1", command]]))
    return draw(st.sampled_from([head + tokens] * 20 + [[], ["-x"]]))


_REFERENCE = _reference_parser()
#: the flags that take no value, which are no inputs
_NO_INPUT = {arg[0] for _, _, args in cli._COMMANDS.values() for arg in args if arg[2] is bool}


@settings(max_examples=1500, deadline=None)
@given(_command_line())
@example(["group-search", "--max-order", "-1", "--ineq", "H(x) >= 0"])
@example(["demo", "--k=4", "--", "cube-bar"])
@example(["split", "--spec", "s", "--body", "b", "--body", "c", "--gr"])
@example(["-x", "check", "H(x) >= 0", "extra"])
def test_the_reader_reads_as_argparse_does(argv):
    assert _outcome(cli._read_argv, argv) == _outcome(_reference_read, argv)


def test_the_lines_the_benchmark_sends_never_reach_argparse(monkeypatch):
    # one line of each request shape the benchmark sends, read without argparse
    def refuse():
        raise AssertionError("argparse was built")

    monkeypatch.setattr(cli, "_parser", refuse)
    for argv in [
        ["check", "2 H(x,y,z) <= H(x,y) + H(x,z) + H(y,z)"],
        ["group-search", "--ineq", ZY_TEXT, "--max-order", "4"],
        ["group-search", "--ineq", ZY_TEXT, "--groups", "g.json"],
        ["counterexample", "--ineq", ZY_TEXT, "--group", "g.json", "--subgroups", "h.json"],
        ["counterexample", "--ineq", "H(x,y) <= H(x)"],
        ["cantor", "--witness", "w.json"],
        ["cantor", "--witness", "w.json", "--project", "1,3"],
        ["eval", "--ineq", "H(x,y) <= H(x)", "--dist", "d.json"],
        ["split", "--body", "b.json", "--spec", "s.json"],
        ["split", "--greedy", "--body", "b.json", "--spec", "s.json"],
        ["demo", "cube-bar", "--k", "36"],
    ]:
        assert _outcome(cli._read_argv, argv) == _outcome(_reference_read, argv), argv


def test_reports_are_deterministic(capsys, tmp_path):
    group = write_json(tmp_path / "g.json", KLEIN_JSON)
    subs = write_json(tmp_path / "h.json", [[0, 1], [0]])
    argv = [
        "counterexample", "--ineq", "H(x,y) <= H(x)",
        "--group", group, "--subgroups", subs,
    ]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    first.pop("elapsed_ms")
    second.pop("elapsed_ms")
    assert first == second


@pytest.mark.parametrize("project", ["1,1", "0", "3", "1,3", ""])
def test_cantor_project_rejects_bad_positions(capsys, tmp_path, project):
    witness = write_json(
        tmp_path / "w.json", {"m": 2, "N": 2, "points": [[0, 0], [1, 1]]}
    )
    code, report, err = run(
        capsys, "cantor", "--witness", witness, "--project", project
    )
    assert code == 1 and report is None
    assert err.startswith("error: ValueError: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("project", ["", "1,,2", "x"])
def test_cantor_project_names_a_position_that_is_not_an_integer(capsys, tmp_path, project):
    witness = write_json(
        tmp_path / "w.json", {"m": 2, "N": 2, "points": [[0, 0], [1, 1]]}
    )
    code, report, err = run(
        capsys, "cantor", "--witness", witness, "--project", project
    )
    assert (code, report) == (1, None)
    assert err == f"error: ValueError: non-integer position in --project {project}\n"


@pytest.mark.parametrize("project", [[], ["--project", "1,2"]], ids=["all", "one"])
def test_cantor_counts_each_projection_once(capsys, tmp_path, monkeypatch, project):
    # a cardinality is read off the fiber table uniform_fiber counts, so
    # no shadow is worked out beside it
    from entrodim.points import PointSet

    calls = []
    real = PointSet.shadow
    monkeypatch.setattr(PointSet, "shadow", lambda self, mask: calls.append(mask) or real(self, mask))
    witness = write_json(
        tmp_path / "w.json", {"m": 3, "N": 2, "points": [[0, 1, 1], [1, 0, 1]]}
    )
    code, report, _ = run(capsys, "cantor", "--witness", witness, *project)
    assert code == 0 and len(report["projections"]) == (1 if project else 7)
    assert calls == []


def test_parser_reuse_keeps_requests_apart(capsys, tmp_path):
    body = write_json(tmp_path / "b.json", {"m": 1, "N": 2, "points": [[0], [1]]})
    spec = write_json(
        tmp_path / "s.json", {"m": 1, "levels": [{"part": [1], "bits": 1.0}]}
    )
    argv = ["split", "--body", body, "--spec", spec]
    inputs = {"body": body, "spec": spec}
    code, report, _ = run(capsys, *argv, "--greedy", "--exhaustive")
    assert code == 0 and report["inputs"] == inputs
    # a usage error (missing --spec) leaves nothing behind for the next
    # request
    code, report, err = run(capsys, "split", "--body", body, "--greedy")
    assert (code, report) == (1, None)
    assert err == "error: UsageError: the following arguments are required: --spec\n"
    code, report, _ = run(capsys, *argv)
    assert code == 0 and report["inputs"] == inputs
    assert report["outcome"] == "split found"


_WITNESS = {"m": 2, "N": 2, "points": [[0, 0], [1, 1]]}
_SPEC = {"m": 2, "levels": [{"part": [1], "bits": 1.0}]}
_GROUP_SEARCH = ["group-search", "--ineq", "H(x,y) <= H(x)", "--groups", "@in"]
# the text of a file, not an object to dump: json.load recurses too deep
_DEEP = "[" * 100_000
_SUBGROUPS = ["counterexample", "--ineq", "H(x,y) <= H(x)", "--group", "@group",
              "--subgroups", "@in"]


@pytest.mark.parametrize("argv, obj", [
    (["cantor", "--witness", "@in"], [1, 2]),
    (["cantor", "--witness", "@in"], {**_WITNESS, "points": 5}),
    (["cantor", "--witness", "@in"], {**_WITNESS, "points": [1, 2]}),
    (["split", "--body", "@in", "--spec", "@spec"], {**_WITNESS, "points": 5}),
    (["split", "--body", "@in", "--spec", "@spec"], {**_WITNESS, "points": [1, 2]}),
    (["split", "--body", "@body", "--spec", "@in"],
     {"m": 2, "levels": [{"part": 1, "bits": 1.0}]}),
    (["split", "--body", "@body", "--spec", "@in"], {"m": 2, "levels": 5}),
    (["split", "--body", "@body", "--spec", "@in"],
     {"m": 2, "levels": [{"part": [1], "bits": None}]}),
    (["split", "--body", "@body", "--spec", "@in"],
     {"m": 2, "levels": [{"part": [1], "bits": True}]}),
    (["eval", "--ineq", "H(x) >= 0", "--dist", "@in"],
     {"m": 1, "atoms": [{"point": [0], "prob": None}]}),
    (["eval", "--ineq", "H(x) >= 0", "--dist", "@in"],
     {"m": 1, "atoms": [{"point": [0], "prob": True}]}),
    (["eval", "--ineq", "H(x) >= 0", "--dist", "@in"],
     {"m": 1, "atoms": [{"point": 5, "prob": "1"}]}),
    (_GROUP_SEARCH, [{"order": 2, "table": [[0, 1.0], [1.0, 0]]}]),
    (_SUBGROUPS, [[0], [0, 1.0]]),
    (["cantor", "--witness", "@in"], {"m": 2.9, "N": 2, "points": [[0, 1], [1, 1]]}),
    (["cantor", "--witness", "@in"], {"m": True, "N": 2, "points": [[0], [1]]}),
    (["cantor", "--witness", "@in"], {**_WITNESS, "N": 2.0}),
    (["split", "--body", "@in", "--spec", "@spec"], {**_WITNESS, "m": 2.0}),
    (["split", "--body", "@body", "--spec", "@in"],
     {"m": 2, "levels": [{"part": [1.7], "bits": 1.0}]}),
    (["split", "--body", "@body", "--spec", "@in"],
     {"m": True, "levels": [{"part": [1], "bits": 1.0}]}),
    (["eval", "--ineq", "H(x) >= 0", "--dist", "@in"],
     {"m": 1.0, "atoms": [{"point": [0], "prob": "1"}]}),
    (["eval", "--ineq", "H(x) >= 0", "--dist", "@in"], {"m": True, "support": [[0]]}),
    (_GROUP_SEARCH, [{"order": 2.0, "table": [[0, 1], [1, 0]]}]),
    (_GROUP_SEARCH, [{"perm_degree": 3.0, "generators": [[1, 0, 2]]}]),
    (["cantor", "--witness", "@in"], _DEEP),
    (_GROUP_SEARCH, [{"order": 2, "table": [[0, True], [True, 0]]}]),
    (_SUBGROUPS, [[0, True], [0]]),
    (_GROUP_SEARCH, [{"perm_degree": 2, "generators": [[True, False]]}]),
    (_GROUP_SEARCH, [{"order": 2, "table": [[0, 1], [1, 0]], "name": [1, 2]}]),
    (_GROUP_SEARCH, [{"perm_degree": 2, "generators": [[1, 0]], "name": [1, 2]}]),
], ids=["witness-list", "witness-points-int", "witness-point-int", "body-points-int",
        "body-point-int", "spec-part-int", "spec-levels-int", "spec-bits-null",
        "spec-bits-true", "dist-prob-null", "dist-prob-true", "dist-point-int", "table-float",
        "subgroup-float", "witness-m-float", "witness-m-true", "witness-N-float",
        "body-m-float", "spec-position-float", "spec-m-true", "dist-m-float",
        "support-m-true", "table-order-float", "perm-degree-float", "deeply-nested",
        "table-true", "subgroup-true", "generators-true", "name-list", "generators-name-list"])
def test_malformed_input_is_one_error_line(capsys, tmp_path, argv, obj):
    files = {"@in": obj, "@spec": _SPEC, "@body": _WITNESS, "@group": KLEIN_JSON}
    paths = {k: write_json(tmp_path / f"{k[1:]}.json", v) for k, v in files.items()}
    if obj is _DEEP:
        (tmp_path / "in.json").write_text(obj)
    code, report, err = run(capsys, *[paths.get(a, a) for a in argv])
    assert (code, report) == (1, None)
    kind = "ValueError" if obj is _DEEP else "TypeError"
    assert err.startswith(f"error: {kind}: ") and err.count("\n") == 1, err


def _src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("argv, obj", [
    (["split", "--body", "@body", "--spec", "@in"],
     {"m": 2, "levels": [{"part": [1], "bits": "1e999999999"}]}),
    (["eval", "--ineq", "H(x) >= 0", "--dist", "@in"],
     {"m": 1, "atoms": [{"point": [0], "prob": "1e-999999999"}]}),
], ids=["spec-bits", "dist-prob"])
def test_a_string_number_with_an_exponent_is_refused_at_once(tmp_path, argv, obj):
    # Fraction("1e999999999") would build 10**999999999; the request runs
    # in a fresh interpreter with a timeout, so a hang fails the test
    paths = {k: write_json(tmp_path / f"{k[1:]}.json", v)
             for k, v in {"@in": obj, "@body": _WITNESS}.items()}
    proc = subprocess.run(
        [sys.executable, "-m", "entrodim.cli", *[paths.get(a, a) for a in argv]],
        capture_output=True, text=True, env=_src_env(), timeout=20,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ValueError: ") and proc.stderr.count("\n") == 1
    assert "has an exponent part" in proc.stderr


PINNED = json.loads((Path(__file__).parent / "cli_reports_pinned.json").read_text())


@pytest.mark.parametrize("case", PINNED, ids=[c["name"] for c in PINNED])
def test_cli_reports_are_pinned(case, capsys, tmp_path):
    # one report per subcommand besides check, recorded with elapsed_ms
    # removed and each input file's path written as its "@name"
    paths = {f"@{k}": write_json(tmp_path / f"{k}.json", v) for k, v in case["files"].items()}
    code = main([paths.get(a, a) for a in case["argv"]])
    out = capsys.readouterr().out
    for name, path in paths.items():
        out = out.replace(json.dumps(path), json.dumps(name))
    report = json.loads(out)
    del report["elapsed_ms"]
    assert code == case["code"]
    assert json.dumps(report) == json.dumps(case["report"])  # key order too


# -- the report writer: the text of json.dumps(report, indent=2), byte for byte

_TEXT = st.one_of(
    st.text(),
    st.text(st.characters(categories=["Cc", "Cs", "Lo", "So", "Zs"])),
    st.text('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\ud800\U0001f600', max_size=8),
)
_SCALAR = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64).flatmap(lambda n: st.sampled_from([n, -n])),
    st.floats(),
    st.sampled_from([-0.0, 1e300, -1e-300, math.nan, math.inf, -math.inf]),
    _TEXT,
)
_REPORT_VALUE = st.recursive(
    _SCALAR,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(_REPORT_VALUE)
def test_the_writer_gives_the_text_of_json_dumps(value):
    assert _render(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("name", ["cli_reports_pinned.json", "check_reports_pinned.json"])
def test_the_writer_gives_the_text_of_json_dumps_on_pinned_reports(name):
    for case in json.loads((Path(__file__).parent / name).read_text()):
        assert _render(case["report"]) == json.dumps(case["report"], indent=2)


def test_a_reader_closing_stdout_early_keeps_the_exit_code(capsys, tmp_path):
    # the report, about 86 KB, overflows the 64 KiB pipe, so the write
    # meets the closed end; the exit code stays the subcommand's, stderr
    # stays empty
    body = write_json(tmp_path / "body.json", splitting.cube_bar_instance(16).to_json())
    spec = write_json(tmp_path / "spec.json", {"m": 3, "levels": [
        {"part": [1], "bits": math.log2(30)}, {"part": [1, 2, 3], "bits": 12}]})
    assert main(["split", "--body", body, "--spec", spec]) == 0
    assert len(capsys.readouterr().out.encode()) > 65_536
    proc = subprocess.Popen(
        [sys.executable, "-m", "entrodim.cli", "split", "--body", body, "--spec", spec],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=_src_env(),
    )
    head = proc.stdout.read(10)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (head, proc.returncode, err) == (b'{\n  "subco', 0, b"")
