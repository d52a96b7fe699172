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

import functools
import json
import os
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from . import cantor, core, distributions, groups, shannon, splitting
from .dsl import name_texts, parse_with_names, write_inequality
from .linear import mask_label, mask_of, rational_text, subsets


class UsageError(ValueError):
    """A command line the reader refuses."""


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


def _inequality(inputs: dict, report: dict):
    """The subcommand's --ineq, parsed, with its canonical text written
    to the report, and the text of every subset mask over its names."""
    ineq, names = parse_with_names(inputs["ineq"])
    texts = name_texts(names, ineq.m)
    report["canonical"] = write_inequality(ineq, texts)
    return ineq, texts


def _cmd_check(inputs: dict, report: dict) -> int:
    ineq, texts = _inequality(inputs, report)
    result = shannon.is_shannon_type(ineq)
    if isinstance(result, shannon.ShannonCertificate):
        rows = shannon.elemental_inequalities(ineq.m).rows
        report["outcome"] = "shannon-type"
        report["certificate"] = {
            "weights": [
                {
                    "row": r,
                    "weight": rational_text(Fraction(w, result.den)),
                    "inequality": write_inequality(rows[r], texts),
                }
                for r, w in result.weights.items()
            ]
        }
        return 0
    report["outcome"] = "not-shannon-type"
    report["farkas_witness"] = {
        "point": {texts[s]: rational_text(Fraction(q, result.den))
                  for s, q in result.point.items()},
        "target_slack": rational_text(Fraction(
            sum(a * result.point.get(s, 0) for s, a in ineq.nums.items()), ineq.den * result.den
        )),
    }
    return 2


def _cmd_eval(inputs: dict, report: dict) -> int:
    ineq, _ = _inequality(inputs, report)
    obj = _load_json(inputs["dist"])
    if "atoms" in obj:
        dist = distributions.JointDistribution.from_json(obj)
    else:
        dist = distributions.SupportSet.from_json(obj)
    slack = core.eval_slack(ineq, distributions.exact_entropy_vector(dist))
    sign = slack.sign()
    report["mode"] = "exact"
    report["slack_exact"], report["slack_float"] = slack.to_json().values()
    report["outcome"] = "violated" if sign < 0 else "holds"
    return 2 if sign < 0 else 0


def _group_report(found: groups.Violation, report: dict) -> None:
    g = found.group
    report["group"] = {"order": g.order, "name": g.name} if g.name else {"order": g.order}
    report["subgroups"] = groups.subgroups_to_json(found.subgroups)


def _cmd_group_search(inputs: dict, report: dict) -> int:
    ineq, texts = _inequality(inputs, report)
    groups.check_max_order(inputs["max_order"])
    catalog = None
    if inputs["groups"]:
        catalog = [groups.FiniteGroup.from_json(o) for o in _load_json(inputs["groups"])]
    found = groups.search_violation(ineq, groups=catalog, max_order=inputs["max_order"])
    if found is None:
        report["outcome"] = "none within catalog"
        report["note"] = "not a proof of non-existence; the catalog is finite"
        return 0
    report["outcome"] = "violation found"
    _group_report(found, report)
    report["entropy_point"] = {texts[s]: found.point[s].to_json()
                               for s in subsets(ineq.m)}
    report["slack"] = found.slack.to_json()
    return 2


def _cmd_counterexample(inputs: dict, report: dict) -> int:
    ineq, _ = _inequality(inputs, report)
    groups.check_max_order(inputs["max_order"])
    if inputs["subgroups"] and not inputs["group"]:
        raise ValueError("--subgroups requires --group")
    if inputs["group"]:
        if not inputs["subgroups"]:
            raise ValueError("--group requires --subgroups")
        g = groups.FiniteGroup.from_json(_load_json(inputs["group"]))
        subs = groups.subgroups_from_json(g, _load_json(inputs["subgroups"]))
        found = groups.group_point(ineq, g, subs)
    else:
        found = groups.search_violation(ineq, max_order=inputs["max_order"])
        if found is None:
            report["outcome"] = "no violating group point within catalog"
            return 0
        report["searched"] = True
    ce = cantor.build_counterexample(ineq, found)
    report["outcome"] = "counterexample built"
    _group_report(found, report)
    report["counterexample"] = ce.to_json()
    return 2


def _cmd_cantor(inputs: dict, report: dict) -> int:
    w = cantor.CantorWitness.from_json(_load_json(inputs["witness"]))
    full = (1 << w.m) - 1
    text = inputs["project"]
    if text is not None:
        try:
            positions = [int(p) for p in text.split(",")]
        except ValueError:
            raise ValueError(f"non-integer position in --project {text}") from None
        if len(set(positions)) != len(positions):
            raise ValueError(f"repeated position in --project {text}")
        masks = [mask_of(positions, w.m)]
    else:
        masks = subsets(w.m)
    entries = []
    for mask in masks:
        fiber = None if mask == full else cantor.uniform_fiber(w, mask)
        # the cardinality is the size of the fiber table uniform_fiber cached
        dim = cantor.DimValue(len(w) if fiber is None else len(w.fibers(mask)), w.base)
        entry = {
            "projection": mask_label(mask),
            "cardinality": dim.cardinality,
            "dim_exact": str(dim),
            "dim_float": dim.to_float(),
        }
        if isinstance(fiber, cantor.NonUniform):
            entry["uniform_fiber"] = None
            entry["non_uniform_at"] = list(fiber.value)
        elif fiber is not None:
            entry["uniform_fiber"] = fiber
        entries.append(entry)
    report["m"] = w.m
    report["N"] = w.base
    report["projections"] = entries
    report["outcome"] = "ok"
    return 0


def _cmd_split(inputs: dict, report: dict) -> int:
    body = splitting.FiniteBody.from_json(_load_json(inputs["body"]))
    spec = splitting.SplitSpec.from_json(_load_json(inputs["spec"]))
    result = splitting.find_split_exhaustive(body, spec)
    report["spec"] = spec.to_json()
    if result is None:
        report["outcome"] = "no split exists"
        return 2
    report["outcome"] = "split found"
    report["split"] = result.to_json()
    report["verified"] = True  # the search recounts its split before returning it
    return 0


def _cmd_demo(inputs: dict, report: dict) -> int:
    body = splitting.cube_bar_instance(inputs["k"])
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


_REQUIRED = object()  # the default of an argument the command line must give
_INEQ = ("ineq", ("--ineq",), str, _REQUIRED, 'inequality text, e.g. "H(x) <= H(x,y)"')
_MAX_ORDER = ("max_order", ("--max-order",), int, 16, "largest catalog group order, 1..64")

#: each subcommand's handler, help line and arguments in declaration order:
#: (name, flags, kind, default, help), where a positional has no flags and
#: kind is str, int, a tuple of choices or bool, a flag that is no input
_COMMANDS = {
    "check": (_cmd_check, "decide Shannon-type membership", (
        ("ineq", (), str, _REQUIRED, _INEQ[4]),)),
    "eval": (_cmd_eval, "slack of an inequality on a distribution", (
        _INEQ, ("dist", ("--dist",), str, _REQUIRED, "distribution or support JSON file"))),
    "group-search": (_cmd_group_search, "scan groups for a violating point", (
        _INEQ, _MAX_ORDER,
        ("groups", ("--groups",), str, None, "JSON file with a custom group catalog"))),
    "counterexample": (_cmd_counterexample, "build a dimension counterexample from a group", (
        _INEQ, ("group", ("--group",), str, None, "group JSON file (else: catalog search)"),
        ("subgroups", ("--subgroups",), str, None, "JSON file with subgroup element lists"),
        _MAX_ORDER)),
    "cantor": (_cmd_cantor, "dimensions of a digit-set witness", (
        ("witness", ("--witness",), str, _REQUIRED, "digit-set witness JSON file"),
        ("project", ("--project",), str, None, 'projection coordinates, e.g. "1,3"'))),
    "split": (_cmd_split, "search for a budgeted splitting", (
        ("body", ("--body",), str, _REQUIRED, "body JSON file"),
        ("spec", ("--spec",), str, _REQUIRED, "split spec JSON file"),
        ("exhaustive", ("--exhaustive", "--greedy"), bool, False,
         "accepted and ignored: the one search is exact"))),
    "demo": (_cmd_demo, "built-in demonstrations", (
        ("what", (), ("cube-bar",), _REQUIRED, "the demonstration: cube-bar"),
        ("k", ("--k",), int, _REQUIRED, "cube side, a perfect square in 4..100"))),
}
#: each subcommand's flags and the arguments they name
_FLAGS = {c: {flag: arg for arg in e[2] for flag in arg[1]} for c, e in _COMMANDS.items()}


@functools.cache
def _parser():
    """argparse built from the table, imported on first use; its error()
    raises UsageError, so a refusal is worded as the running argparse
    words it."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise UsageError(message)

    parser = Parser(prog="entrodim", description="Exact workbench for linear entropy "
                    "inequalities and the dimension counterexamples they generate.")
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (_, about, args) in _COMMANDS.items():
        sub = commands.add_parser(command, help=about, description=about)
        for name, flags, kind, default, text in args:
            if kind is bool:
                sub.add_argument(*flags, action="store_true", help=text)
                continue
            options = {"choices": kind} if type(kind) is tuple else {"type": kind}
            if flags:
                required = default is _REQUIRED
                options.update(dest=name, required=required, default=None if required else default)
            sub.add_argument(*flags or [name], help=text, **options)
    return parser


def _read_whole_flags(tokens):
    """The subcommand and its inputs for a line of flags written in full,
    each but a bool flag followed by its value, and positionals, where no
    value or positional starts with "-" and every required argument is
    given; else None."""
    if not tokens or tokens[0] not in _COMMANDS:
        return None
    args, flags = _COMMANDS[tokens[0]][2], _FLAGS[tokens[0]]
    values = {arg[0]: arg[3] for arg in args if arg[2] is not bool}
    positionals = iter([arg for arg in args if not arg[1]])
    rest = iter(tokens[1:])
    for token in rest:
        if token[:1] != "-":
            arg, value = next(positionals, None), token
            if arg is None:
                return None
        elif (arg := flags.get(token)) is None:
            return None
        elif arg[2] is bool:
            continue
        elif (value := next(rest, "-"))[:1] == "-":  # a missing value reads as "-"
            return None
        if arg[2] is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif arg[2] is not str and value not in arg[2]:
            return None
        values[arg[0]] = value
    return None if _REQUIRED in values.values() else (tokens[0], values)


def _read_argv(tokens) -> tuple:
    """The subcommand and its inputs, in table order, as argparse reads the
    tokens: a line of flags written in full is read directly, and argparse
    reads every other line, its refusals and --help included."""
    read = _read_whole_flags(tokens)
    if read is None:
        namespace = _parser().parse_args(tokens)
        args = _COMMANDS[namespace.command][2]
        read = namespace.command, {arg[0]: getattr(namespace, arg[0])
                                   for arg in args if arg[2] is not bool}
    return read


def main(argv=None) -> int:
    try:
        command, inputs = _read_argv(sys.argv[1:] if argv is None else argv)
        start = time.perf_counter()
        report = {"subcommand": command, "inputs": inputs}
        code = _COMMANDS[command][0](inputs, report)
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
