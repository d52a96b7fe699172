import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from entrodim import splitting
from entrodim.cli import _render, main

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
    assert report["farkas_witness"]["target_slack"] == "-1/4"
    assert len(report["farkas_witness"]["point"]) == 15


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
    split = splitting.SplitResult(dict(zip(
        map(tuple, body_obj["points"]), [0b001, 0b001, 0b111, 0b111])))
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
            assert json.dumps(report["spec"]) == json.dumps({"m": 2, "levels": levels})


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


def test_parser_reuse_keeps_requests_apart(capsys, tmp_path):
    body = write_json(tmp_path / "b.json", {"m": 1, "N": 2, "points": [[0], [1]]})
    spec = write_json(
        tmp_path / "s.json", {"m": 1, "levels": [{"part": [1], "bits": 1.0}]}
    )
    argv = ["split", "--body", body, "--spec", spec]
    inputs = {"body": body, "spec": spec}
    code, report, _ = run(capsys, *argv, "--greedy", "--exhaustive")
    assert code == 0 and report["inputs"] == inputs
    # an argparse failure (missing --spec) leaves nothing behind for the
    # next request
    with pytest.raises(SystemExit) as exc:
        main(["split", "--body", body, "--greedy"])
    assert exc.value.code == 2
    capsys.readouterr()
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
], ids=["witness-list", "witness-points-int", "witness-point-int", "body-points-int",
        "body-point-int", "spec-part-int", "spec-levels-int", "spec-bits-null",
        "spec-bits-true", "dist-prob-null", "dist-prob-true", "dist-point-int", "table-float",
        "subgroup-float", "witness-m-float", "witness-m-true", "witness-N-float",
        "body-m-float", "spec-position-float", "spec-m-true", "dist-m-float",
        "support-m-true", "table-order-float", "perm-degree-float", "deeply-nested"])
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
