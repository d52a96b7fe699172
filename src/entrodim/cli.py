"""
Command-line front end.

Every subcommand prints one JSON report to stdout, which `main` opens
with the subcommand and its parsed inputs, and uses a three-way exit
code: 0 for success / "the property holds", 2 for a definite negative
finding (not Shannon-type, inequality violated, no split exists), 1 for
errors, a command line the parser refuses included — with
a single machine-parsable line `error: <kind>: <detail>` on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from . import cantor, core, distributions, groups, shannon, splitting
from .dsl import format_inequality, parse_with_names
from .linear import mask_label, mask_of, rational_text, subsets


class UsageError(ValueError):
    """A command line the argument parser refuses."""


class _ArgumentParser(argparse.ArgumentParser):
    """A parser, and subcommand parsers, that raise UsageError where
    argparse would print its usage and exit 2."""

    def error(self, message: str):
        raise UsageError(message)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None


def _render(value, indent: str = "\n") -> str:
    """The text of json.dumps(value, indent=2) for a report: dicts keyed
    by strings, lists, strings and JSON scalars.  json's C encoder does
    not indent, so this writer quotes strings with json's C quoter, writes
    ints with int.__repr__ and finite floats with float.__repr__, as
    json's encoder does, hands other scalars to json.dumps and writes
    each dict in one join."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int or (kind is float and value - value == 0):  # a finite float
        return kind.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict) and value:
        items = [_quote(k) + ": " + (_quote(v) if type(v) is str else _render(v, inner))
                 for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)) and value:
        items = [_render(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    return json.dumps(value)


def _inequality(args, report: dict):
    """The subcommand's --ineq, parsed, with its canonical text written
    to the report."""
    ineq, names = parse_with_names(args.ineq)
    report["canonical"] = format_inequality(ineq, names)
    return ineq, names


def _cmd_check(args, report: dict) -> int:
    ineq, names = _inequality(args, report)
    result = shannon.is_shannon_type(ineq)
    if isinstance(result, shannon.ShannonCertificate):
        rows = shannon.elemental_inequalities(ineq.m).rows
        report["outcome"] = "shannon-type"
        report["certificate"] = {
            "weights": [
                {
                    "row": r,
                    "weight": rational_text(w),
                    "inequality": format_inequality(rows[r], names),
                }
                for r, w in sorted(result.weights.items())
            ]
        }
        return 0
    report["outcome"] = "not-shannon-type"
    report["farkas_witness"] = {
        "point": {
            mask_label(s, names): rational_text(q) for s, q in sorted(result.point.items())
        },
        "target_slack": rational_text(Fraction(
            sum(a * result.point.get(s, 0) for s, a in ineq.nums.items()), ineq.den
        )),
    }
    return 2


def _cmd_eval(args, report: dict) -> int:
    ineq, _ = _inequality(args, report)
    obj = _load_json(args.dist)
    if "atoms" in obj:
        dist = distributions.JointDistribution.from_json(obj)
    else:
        dist = distributions.SupportSet.from_json(obj)
    slack = core.eval_slack(ineq, distributions.exact_entropy_vector(dist))
    sign = slack.sign()
    report["mode"] = "exact"
    report["slack_exact"] = str(slack)
    report["slack_float"] = slack.json_float()
    report["outcome"] = "violated" if sign < 0 else "holds"
    return 2 if sign < 0 else 0


def _group_report(g: groups.FiniteGroup) -> dict:
    out = {"order": g.order}
    if g.name:
        out["name"] = g.name
    return out


def _cmd_group_search(args, report: dict) -> int:
    ineq, names = _inequality(args, report)
    catalog = None
    if args.groups:
        catalog = [groups.FiniteGroup.from_json(o) for o in _load_json(args.groups)]
    found = groups.search_violation(ineq, groups=catalog, max_order=args.max_order)
    if found is None:
        report["outcome"] = "none within catalog"
        report["note"] = "not a proof of non-existence; the catalog is finite"
        return 0
    report["outcome"] = "violation found"
    report["group"] = _group_report(found.group)
    report["subgroups"] = groups.subgroups_to_json(found.subgroups)
    report["entropy_point"] = {
        mask_label(s, names): {"exact": str(found.point[s]),
                               "float": found.point[s].json_float()}
        for s in subsets(ineq.m)
    }
    report["slack"] = {"exact": str(found.slack), "float": found.slack.json_float()}
    return 2


def _cmd_counterexample(args, report: dict) -> int:
    ineq, _ = _inequality(args, report)
    if args.subgroups and not args.group:
        raise ValueError("--subgroups requires --group")
    if args.group:
        if not args.subgroups:
            raise ValueError("--group requires --subgroups")
        g = groups.FiniteGroup.from_json(_load_json(args.group))
        subs = groups.subgroups_from_json(g, _load_json(args.subgroups))
    else:
        found = groups.search_violation(ineq, max_order=args.max_order)
        if found is None:
            report["outcome"] = "no violating group point within catalog"
            return 0
        g, subs = found.group, list(found.subgroups)
        report["searched"] = True
    ce = cantor.build_counterexample(ineq, g, subs)
    report["outcome"] = "counterexample built"
    report["group"] = _group_report(g)
    report["subgroups"] = groups.subgroups_to_json(subs)
    report["counterexample"] = ce.to_json()
    return 2


def _cmd_cantor(args, report: dict) -> int:
    w = cantor.CantorWitness.from_json(_load_json(args.witness))
    full = (1 << w.m) - 1
    if args.project is not None:
        positions = [int(p) for p in args.project.split(",")]
        if len(set(positions)) != len(positions):
            raise ValueError(f"repeated position in --project {args.project}")
        masks = [mask_of(positions, w.m)]
    else:
        masks = subsets(w.m)
    entries = []
    for mask in masks:
        dim = cantor.DimValue(len(w.shadow(mask)), w.base)
        entry = {
            "projection": mask_label(mask),
            "cardinality": dim.cardinality,
            "dim_exact": str(dim),
            "dim_float": dim.to_float(),
        }
        if mask != full:
            fiber = cantor.uniform_fiber(w, mask)
            if isinstance(fiber, cantor.NonUniform):
                entry["uniform_fiber"] = None
                entry["non_uniform_at"] = list(fiber.value)
            else:
                entry["uniform_fiber"] = fiber
        entries.append(entry)
    report["m"] = w.m
    report["N"] = w.base
    report["projections"] = entries
    report["outcome"] = "ok"
    return 0


def _cmd_split(args, report: dict) -> int:
    body = splitting.FiniteBody.from_json(_load_json(args.body))
    spec = splitting.SplitSpec.from_json(_load_json(args.spec))
    result = splitting.find_split_exhaustive(body, spec)
    report["spec"] = spec.to_json()
    if result is None:
        report["outcome"] = "no split exists"
        return 2
    report["outcome"] = "split found"
    report["split"] = result.to_json()
    report["verified"] = True  # the search recounts its split before returning it
    return 0


def _cmd_demo(args, report: dict) -> int:
    body = splitting.cube_bar_instance(args.k)
    check = splitting.check_unsplit_inequality(body)
    relation = ">" if check.sign > 0 else ("=" if check.sign == 0 else "<")
    verdict = "VIOLATED" if check.violated else "holds"
    report["body"] = {"m": 3, "N": body.base, "size": len(body)}
    report["projections"] = {"S1": check.v1, "S12": check.v12, "S13": check.v13}
    report["unsplit_inequality"] = {
        "lhs_product": check.lhs_product,
        "rhs_product": check.rhs_product,
        "relation": relation,
        "lhs_bits": check.lhs_bits,
        "rhs_bits": check.rhs_bits,
        "verdict": verdict,
    }
    report["loomis_whitney_slack"] = splitting.loomis_whitney_slack(body)
    report["outcome"] = (
        f"unsplit inequality {verdict}: {check.v1}*{check.v} = "
        f"{check.lhs_product} {relation} {check.rhs_product} = "
        f"{check.v12}*{check.v13}"
    )
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by later requests:
    parse_args fills a fresh namespace from the defaults on every call."""
    parser = _ArgumentParser(
        prog="entrodim",
        description="Exact workbench for linear entropy inequalities and "
        "the dimension counterexamples they generate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide Shannon-type membership")
    p.add_argument("ineq", help='inequality text, e.g. "H(x) <= H(x,y)"')
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("eval", help="slack of an inequality on a distribution")
    p.add_argument("--ineq", required=True)
    p.add_argument("--dist", required=True, help="distribution or support JSON file")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("group-search", help="scan groups for a violating point")
    p.add_argument("--ineq", required=True)
    p.add_argument("--max-order", type=int, default=16)
    p.add_argument("--groups", help="JSON file with a custom group catalog")
    p.set_defaults(handler=_cmd_group_search)

    p = sub.add_parser(
        "counterexample", help="build a dimension counterexample from a group"
    )
    p.add_argument("--ineq", required=True)
    p.add_argument("--group", help="group JSON file (else: catalog search)")
    p.add_argument("--subgroups", help="JSON file with subgroup element lists")
    p.add_argument("--max-order", type=int, default=16)
    p.set_defaults(handler=_cmd_counterexample)

    p = sub.add_parser("cantor", help="dimensions of a digit-set witness")
    p.add_argument("--witness", required=True)
    p.add_argument("--project", help='projection coordinates, e.g. "1,3"')
    p.set_defaults(handler=_cmd_cantor)

    p = sub.add_parser("split", help="search for a budgeted splitting")
    p.add_argument("--body", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--exhaustive", "--greedy", action="store_true",
                   help="accepted and ignored: the one search is exact")
    p.set_defaults(handler=_cmd_split)

    p = sub.add_parser("demo", help="built-in demonstrations")
    p.add_argument("what", choices=["cube-bar"])
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_demo)

    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        start = time.perf_counter()
        # every report opens with the subcommand and its parsed arguments,
        # in the order the subparser declares them; the ignored
        # --exhaustive/--greedy flag is not an input
        report = {"subcommand": args.command, "inputs": {
            k: v for k, v in vars(args).items()
            if k not in ("command", "handler", "exhaustive")}}
        code = args.handler(args, report)
    except (ValueError, TypeError, ArithmeticError, KeyError, OSError) as exc:
        detail = str(exc) or repr(exc)
        print(f"error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 1
    report["elapsed_ms"] = round((time.perf_counter() - start) * 1000.0, 3)
    try:
        print(_render(report))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; point fd 1 at os.devnull so the
        # interpreter's flush at exit is silent, and keep the exit code
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
