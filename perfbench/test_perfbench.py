"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import entrodim  # noqa: E402
import entrodim.cli  # noqa: E402
import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from entrodim import groups, shannon, splitting  # noqa: E402


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    a = inputs.serialize(inputs.batch(workload, 7, 2))
    b = inputs.serialize(inputs.batch(workload, 7, 2))
    assert a == b
    assert a != inputs.serialize(inputs.batch(workload, 8, 2))
    assert inputs.warmup_argv(workload, 7) == inputs.warmup_argv(workload, 7)


def test_covered_tuples_do_not_depend_on_seed():
    totals = {sum(r.tuples for r in inputs.batch("group_scan", s, 1)[0]) for s in range(6)}
    assert totals == {inputs.covered_tuples(inputs.ZY_MAX_ORDER, 4)
                      + sum(inputs.GROUPS[g][1] ** 4 for g in inputs.SCAN_GROUPS)
                      + inputs.covered_tuples(inputs.ZY_FRAC_MAX_ORDER, 4)}


def test_fixed_checks_differ_between_seeds_only_by_names():
    def shape(req):
        text = req.argv[1]
        pos = {v: str(i) for i, v in enumerate(inputs.binding(text))}
        return re.sub(r"[A-Za-z_]\w*(?!\s*\()", lambda t: pos[t.group()], text)

    shapes = {}
    for seed in range(4):
        for r in inputs.batch("lp_check", seed, 1)[0]:
            if r.kind in ("check_m5", "check_m6"):
                shapes.setdefault((r.kind, r.expect["outcome"]), set()).add(shape(r))
    assert set(shapes) == {("check_m5", None), ("check_m5", "shannon-type"),
                           ("check_m6", "shannon-type")}
    assert all(len(s) == 1 for s in shapes.values())


def test_catalog_pins_match_the_program():
    cat = groups.builtin_catalog(12)
    assert [(g.name, g.order, len(groups.all_subgroups(g))) for g in cat] == inputs.CATALOG
    assert inputs.covered_tuples(12, 4) == 162981
    assert inputs.covered_tuples(6, 4) == 3859


@pytest.mark.parametrize("name", sorted(inputs.GROUPS))
def test_group_pins_match_own_and_program_counts(name):
    table = inputs.cayley(random.Random(name), name)
    g = groups.group_from_table(table)
    assert len(inputs.subgroups_2gen(table)) == inputs.GROUPS[name][1]
    assert len(groups.all_subgroups(g)) == inputs.GROUPS[name][1]


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_elemental_rows_follow_documented_order(m):
    names = list("pqrst"[:m])
    mine = inputs.elemental_rows(names)
    theirs = shannon.elemental_inequalities(m).rows
    assert len(mine) == len(theirs)
    for row, ineq in zip(mine, theirs):
        converted = {frozenset(names[p - 1] for p in entrodim.mask_positions(mask)): c
                     for mask, c in ineq.coeffs.items()}
        assert converted == row


def test_split_closed_form_agrees_with_exhaustive_search():
    rng = random.Random(0)
    cells = [(x, y, z) for x in range(3) for y in range(3) for z in range(2)]
    for _ in range(60):
        points = rng.sample(cells, rng.randint(2, 9))
        cap1, cap123 = rng.randint(1, 3), rng.randint(1, 6)
        body = splitting.FiniteBody(3, 3, frozenset(points))
        spec = splitting.SplitSpec.from_json(inputs.split_spec(cap1, cap123))
        found = splitting.find_split_exhaustive(body, spec) is not None
        assert found == inputs.split_caps(points, cap1, cap123)


def _answer(argv):
    code, out, err, _ = run.call(entrodim, argv)
    return code, json.loads(out)


def test_oracles_accept_real_answers_and_reject_tampered_ones(tmp_path):
    reqs = inputs.batch("lp_check", 3, 1)[0]
    req = next(r for r in reqs if r.expect["outcome"] == "shannon-type")
    code, report = _answer(req.argv)
    oracles.judge(req, code, report)
    report["certificate"]["weights"][0]["weight"] = str(
        Fraction(report["certificate"]["weights"][0]["weight"]) + 1)
    with pytest.raises(oracles.OracleError):
        oracles.judge(req, code, report)

    zy = next(r for r in reqs if r.expect["outcome"] == "not-shannon-type")
    code, report = _answer(zy.argv)
    oracles.judge(zy, code, report)
    point = report["farkas_witness"]["point"]
    point[next(iter(point))] = "-7"
    with pytest.raises(oracles.OracleError):
        oracles.judge(zy, code, report)

    split = next(r for r in inputs.batch("witness_pipeline", 3, 1)[0] if r.kind == "split")
    argv = run.materialize([split], tmp_path)[0]
    code, report = _answer(argv)
    oracles.judge(split, code, report)
    split.expect["exists"] = not split.expect["exists"]
    with pytest.raises(oracles.OracleError):
        oracles.judge(split, code, report)


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer = tracing.Tracer(entrodim).metrics(1.0, 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])
    reqs = inputs.batch("group_scan", 1, 1)[0]
    lat = [0.1] * len(reqs)
    e2e = run.end_to_end("group_scan", reqs, 1.0, lat, [0.1], [], len(reqs))
    assert {m["name"] for m in spec["end_to_end"]} == set(e2e)


def _attributes():
    mods = [sys.modules[f"entrodim.{m}"] for m in tracing.MODULES] + [entrodim]
    out = {}
    for mod in mods:
        for name, value in vars(mod).items():
            out[(mod.__name__, name)] = value
    for mod, cls in ((groups, "FiniteGroup"), (splitting, "FiniteBody"),
                     (entrodim.cantor, "CantorWitness"),
                     (entrodim.distributions, "SupportSet")):
        out[(mod.__name__, cls + ".from_json")] = getattr(mod, cls).__dict__["from_json"]
    return out


def test_traced_run_restores_every_patched_attribute(tmp_path):
    before = _attributes()
    reqs = [r for w in run.WORKLOADS for r in inputs.batch(w, 5, 1)[0]
            if r.kind not in ("check_m5", "check_m6") and "D6" not in json.dumps(r.files)
            and r.kind != "scan_frac"]
    argvs = run.materialize(reqs, tmp_path)
    with tracing.Tracer(entrodim) as tracer:
        assert groups.search_violation is not before[("entrodim.groups", "search_violation")]
        _, _, failures, _ = run.run_batch(entrodim, [(reqs, argvs)], 1, tracer)
    assert failures == []
    assert tracer.hot["core.loglin_sign"][0] > 0
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
