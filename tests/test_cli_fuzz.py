"""The exit-code contract of `cli.main` under fuzzing, for every subcommand.

Command lines come from a token grammar and input files from JSON values
near the shapes each subcommand reads. Whatever the input, `main` must
return 0, 1 or 2 within a few seconds: 1 with exactly one
`error: <Kind>: ...` line on stderr, 0 or 2 with a JSON report on stdout
that has a `subcommand` and an `outcome`, strict JSON with no NaN or
Infinity. `--help` may end the run with SystemExit(0). The draws are
kept small (m <= 3, --max-order <= 6, bodies of at most 12 points,
cube-bar k <= 16 or past its bound), so the time bound catches hangs,
not long scans.
"""

import contextlib
import io
import json
import math
import re
import signal
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from entrodim.cli import main

#: seconds one command may take before the example counts as a hang
TIME_BOUND = 5
#: a coefficient whose value in bits is past the float range
HUGE = "9" * 400
S9 = {"perm_degree": 9, "generators": [[1, 0, 2, 3, 4, 5, 6, 7, 8], [1, 2, 3, 4, 5, 6, 7, 8, 0]]}
WIDE = {"perm_degree": 10**9, "generators": []}
ERROR_LINE = re.compile(r"error: [A-Za-z]+: [^\n]*\n")


class _Hang(BaseException):
    """Raised by the alarm; no `except Exception` in the program catches it."""


def _alarm(signum, frame):
    raise _Hang(f"a command took more than {TIME_BOUND} s")


def _not_json(token):
    """Refuse NaN, Infinity and -Infinity, which no strict JSON reader takes."""
    raise ValueError(f"a report holds {token}, which is not JSON")


# -- inequality text

_VARS = st.lists(st.sampled_from("xyz"), min_size=1, max_size=3, unique=True).map(",".join)
_COEF = st.sampled_from(["", "", "2 ", "1/2 ", "3/7 ", "0 ", "2*", HUGE + " ", f"1/{HUGE} "])
_TERM = st.one_of(
    st.builds("{}H({})".format, _COEF, _VARS),
    st.builds("{}H({}|{})".format, _COEF, _VARS, _VARS),
    st.builds("{}I({};{})".format, _COEF, _VARS, _VARS),
    st.builds("{}I({};{}|{})".format, _COEF, _VARS, _VARS, _VARS),
)
_SIDE = st.one_of(
    st.just("0"),
    _TERM,
    st.lists(st.tuples(st.sampled_from([" + ", " - ", " + "]), _TERM), min_size=1, max_size=3)
    .map(lambda signed: "".join(sum(signed, ()))[3:]),
)
_JUNK = st.sampled_from(["H(", "I(", "x", "w1", ",", ";", "|", ")", "<=", ">=", "=", "+", "-",
                         "/", "0", "2", HUGE, "1e999999999", "é", ""])
_INEQ = st.one_of(
    st.builds("{} {} {}".format, _SIDE, st.sampled_from(["<=", ">=", "="]), _SIDE),
    st.builds("{} {} {}".format, _SIDE, st.sampled_from(["<=", ">="]), _SIDE),
    st.lists(_JUNK, max_size=8).map(" ".join),
)

# -- input files: a valid shape, the same with one defect, or any JSON value

_BAD = st.sampled_from([None, True, -1, 0, 1.5, "1", "x", [], {}, 10**400, "1e999999999"])
_SCALAR = st.one_of(st.none(), st.booleans(), st.integers(-3, 10), st.floats(), st.text(max_size=4))
_ANY = st.recursive(
    _SCALAR,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8,
)


@st.composite
def _near(draw, valid):
    """A value of `valid`, mostly as drawn, else with one entry replaced
    by a bad scalar, else any JSON value."""
    kind = draw(st.integers(0, 5))
    if kind == 5:
        return draw(_ANY)
    value = json.loads(json.dumps(draw(valid)))  # a copy to change
    if kind == 4:
        holder, key = None, None
        node = value
        while isinstance(node, (dict, list)) and node and draw(st.booleans()):
            holder = node
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
            node = node[key]
        if holder is None:
            return draw(_BAD)
        holder[key] = draw(_BAD)
    return value


@st.composite
def _points(draw, m, base):
    """Distinct points of m coordinates in 0..base-1, at most 12 of them."""
    cells = st.tuples(*[st.integers(0, base - 1)] * m).map(list)
    return draw(st.lists(cells, min_size=1, max_size=12, unique_by=tuple))


_M = st.integers(1, 3)
_SUPPORT = _M.flatmap(lambda m: st.fixed_dictionaries({"m": st.just(m), "support": _points(m, 3)}))


@st.composite
def _distribution(draw):
    m = draw(_M)
    points = draw(_points(m, 3))
    weights = draw(st.lists(st.integers(1, 4), min_size=len(points), max_size=len(points)))
    return {"m": m, "atoms": [{"point": p, "prob": f"{w}/{sum(weights)}"}
                              for p, w in zip(points, weights)]}


@st.composite
def _cantor_set(draw):
    m, base = draw(_M), draw(st.integers(2, 3))
    return {"m": m, "N": base, "points": draw(_points(m, base))}


@st.composite
def _spec(draw):
    m = draw(_M)
    parts = st.lists(st.integers(1, m), min_size=1, max_size=m, unique=True).map(sorted)
    levels = draw(st.lists(st.fixed_dictionaries({
        "part": parts,
        "bits": st.sampled_from([0, 1, 1.5, 2, 3, "1/2", "3/2", math.inf, -math.inf, "Infinity"]),
    }), min_size=1, max_size=3, unique_by=lambda level: tuple(level["part"])))
    return {"m": m, "levels": levels}


@st.composite
def _perm_group(draw):
    degree = draw(st.integers(1, 4))
    gens = draw(st.lists(st.permutations(range(degree)), max_size=3))
    return {"perm_degree": degree, "generators": [list(g) for g in gens]}


_TABLES = [[[0]], [[0, 1], [1, 0]], [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
           [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]]
_GROUP = st.one_of(
    _perm_group(),
    st.sampled_from(_TABLES).map(lambda t: {"order": len(t), "table": t}),
    st.sampled_from([S9, WIDE]),
)
_SUBGROUPS = st.lists(st.sampled_from([[0], [0, 1], [0, 2], [0, 3], [0, 1, 2], [0, 1, 2, 3]]),
                      min_size=1, max_size=3)

# -- command lines; "@name" stands for the path of the input file `name`

_MAX_ORDER = st.sampled_from(["1", "4", "6", "0", "-1", "100000", "x"])
_OPTIONAL = st.sampled_from([[]] * 30 + [["--help"], ["--k"], ["--ineq"], ["extra"]])


def _optional(flag, value):
    return st.one_of(st.just([]), value.map(lambda v: [flag, v]))


_ARGV = st.one_of(
    st.tuples(st.just(["check"]), _INEQ.map(lambda t: [t])),
    st.tuples(st.just(["eval", "--ineq"]), _INEQ.map(lambda t: [t, "--dist", "@dist"])),
    st.tuples(st.just(["group-search", "--ineq"]), st.tuples(
        _INEQ.map(lambda t: [t]), _optional("--max-order", _MAX_ORDER),
        _optional("--groups", st.just("@groups"))).map(lambda parts: sum(parts, []))),
    st.tuples(st.just(["counterexample", "--ineq"]), st.tuples(
        _INEQ.map(lambda t: [t]), _optional("--max-order", _MAX_ORDER),
        st.sampled_from([[], ["--group", "@group", "--subgroups", "@subgroups"],
                         ["--group", "@group"], ["--subgroups", "@subgroups"]]),
    ).map(lambda parts: sum(parts, []))),
    st.tuples(st.just(["cantor", "--witness", "@witness"]), _optional(
        "--project", st.sampled_from(["1", "1,2", "2,1", "1,1", "0", "4", "a", ""]))),
    st.tuples(st.just(["split", "--body", "@body", "--spec", "@spec"]),
              st.lists(st.sampled_from(["--greedy", "--exhaustive"]), max_size=1)),
    st.tuples(st.just(["demo"]), st.tuples(
        st.sampled_from(["cube-bar"] * 5 + ["sphere"]),
        st.sampled_from(["4", "9", "16", "4", "9", "16", "-1", "1", "5", "121", "x"]),
    ).map(lambda wk: [wk[0], "--k", wk[1]])),
).map(lambda head_tail: head_tail[0] + head_tail[1])

_CASE = st.tuples(
    st.tuples(_ARGV, _OPTIONAL).map(lambda a: a[0] + a[1]),
    st.fixed_dictionaries({
        "dist": _near(st.one_of(_distribution(), _SUPPORT)),
        "groups": _near(st.lists(_GROUP, min_size=1, max_size=2)),
        "group": _near(_GROUP),
        "subgroups": _near(_SUBGROUPS),
        "witness": _near(_cantor_set()),
        "body": _near(_cantor_set()),
        "spec": _near(_spec()),
    }),
)


@settings(max_examples=250, deadline=None)
@given(_CASE)
@example((["eval", "--ineq", f"{HUGE} H(x) >= 0", "--dist", "@dist"],
          {"dist": {"m": 1, "support": [[0], [1]]}}))
@example((["group-search", "--ineq", f"{HUGE} H(x,y) <= H(x)", "--max-order", "4"], {}))
@example((["counterexample", "--ineq", f"{HUGE} H(x,y) <= H(x)"], {}))
@example((["group-search", "--ineq", "H(x,y) <= H(x) + H(y)", "--groups", "@groups"],
          {"groups": [S9]}))
@example((["counterexample", "--ineq", "H(x,y) <= H(x)", "--group", "@group",
           "--subgroups", "@subgroups"], {"group": WIDE, "subgroups": [[0]]}))
@example((["demo", "cube-bar", "--k", "16", "--help"], {}))
@example((["eval", "--ineq", f"1/{'9' * 3000} H(x) + 1/{'7' * 2999}1 H(y) <= 0",
           "--dist", "@dist"], {"dist": {"m": 2, "support": [[0, 0], [1, 0], [0, 1]]}}))
def test_main_keeps_the_exit_code_contract(case):
    argv, files = case
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(TIME_BOUND)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            paths = {}
            for name, obj in files.items():
                paths["@" + name] = str(Path(tmp) / f"{name}.json")
                Path(paths["@" + name]).write_text(json.dumps(obj))
            argv = [paths.get(a, a) for a in argv]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    assert exc.code == 0 and "--help" in argv, exc.code
                    assert out.getvalue().startswith("usage: entrodim")
                    return
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2), code
    if code == 1:
        assert out.getvalue() == ""
        assert ERROR_LINE.fullmatch(err.getvalue()), err.getvalue()
    else:
        assert err.getvalue() == ""
        report = json.loads(out.getvalue(), parse_constant=_not_json)
        assert report["subcommand"] == argv[0]
        assert "outcome" in report
