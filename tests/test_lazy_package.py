"""The package runs a submodule's code only when something first uses it.

Each test starts a fresh interpreter, since this process has long since
imported every module. A module that has not run yet is a lazy module
object in sys.modules; `type(...) is types.ModuleType` reads none of its
attributes, so asking does not load it. The interpreters run with -S, as
an installation's `site` may import modules (`typing`, say) that no
command needs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: the package's own names: its modules, and the one function perfbench's
#: tests read from it
PUBLIC = sorted([
    "cantor", "core", "distributions", "dsl", "groups", "linear", "points", "shannon",
    "simplex", "splitting", "mask_positions",
])

#: standard modules no command needs, each milliseconds of a fresh
#: process's start (dataclasses imports inspect, argparse imports gettext
#: and shutil)
UNUSED_STDLIB = ("argparse", "dataclasses", "gettext", "inspect", "shutil", "typing")

RAN = """
import sys, types
def ran():
    return sorted(
        name for name in ("cantor", "cli", "core", "distributions", "dsl", "groups",
                          "linear", "points", "shannon", "simplex", "splitting")
        if type(sys.modules.get("entrodim." + name)) is types.ModuleType
    )
"""


def python(*args):
    """Run a fresh interpreter that imports entrodim from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-S", *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_import_runs_only_linear_and_dsl():
    proc = python("-c", RAN + "import entrodim\nprint(ran())")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(["dsl", "linear"])


@pytest.mark.parametrize(
    "argv, also",
    [
        (["check", "H(x,y) <= H(x) + H(y)"], ["cli", "shannon"]),
        # refuted by no point of the table nor certified by its peel: the LP runs
        (["check", "1/3 H(c) + 1 H(a) + 1 H(e) + 1 H(d,b,e) + 1 H(a,b,e) <= 1 H(a,b) + 1 H(a,e) "
                   "+ 1/3 H(b,c) + 1 H(b,e) + 1/3 H(c,d) + 1 H(d,e)"],
         ["cli", "shannon", "simplex"]),
        (["check", "H(a,b,c,d,e,f) <= H(a,b,c) + H(d,e,f)"], ["cli", "shannon"]),
        (["group-search", "--ineq", "H(x,y) <= H(x)", "--max-order", "4"],
         ["cli", "core", "groups", "points"]),
        (["group-search", "--ineq", "H(x) <= H(x,y)", "--max-order", "4"],
         ["cli", "core", "groups"]),
        (["counterexample", "--ineq", "H(x,y) <= H(x)", "--max-order", "4"],
         ["cantor", "cli", "core", "groups", "points"]),
        (["cantor", "--witness", "@body"], ["cantor", "cli", "points"]),
        (["eval", "--ineq", "H(x,y) <= H(x)", "--dist", "@dist"],
         ["cli", "core", "distributions", "points"]),
        (["split", "--body", "@body", "--spec", "@spec"], ["cli", "core", "points", "splitting"]),
    ],
    ids=["check", "check-m5", "check-m6", "group-search", "group-search-none-found", "counterexample", "cantor",
         "eval", "split"],
)
def test_a_command_runs_only_the_modules_it_uses(tmp_path, argv, also):
    files = {
        "@body": {"m": 2, "N": 2, "points": [[0, 0], [1, 1]]},
        "@spec": {"m": 2, "levels": [{"part": [1], "bits": 1}]},
        "@dist": {"m": 2, "atoms": [{"point": [0, 0], "prob": "1/2"},
                                    {"point": [1, 1], "prob": "1/2"}]},
    }
    for key, obj in files.items():
        path = tmp_path / f"{key[1:]}.json"
        path.write_text(json.dumps(obj))
        argv = [str(path) if a == key else a for a in argv]
    code = RAN + (
        "import contextlib, io, json\n"
        "import entrodim, entrodim.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = entrodim.cli.main(json.loads(sys.argv[1]))\n"
        "print(code, ran())\n"
        f"print(sorted(set({UNUSED_STDLIB!r}) & set(sys.modules)))\n"
    )
    proc = python("-c", code, json.dumps(argv))
    assert proc.returncode == 0, proc.stderr
    first, unused = proc.stdout.strip().split("\n")
    exit_code, ran = first.split(" ", 1)
    assert exit_code in ("0", "2")
    assert ran == str(sorted(["dsl", "linear", *also]))
    assert unused == "[]"


def test_public_surface():
    # each public name lives in its module only
    code = (
        "import json\n"
        "import entrodim\n"
        "out = {'dir': sorted(n for n in dir(entrodim) if not n.startswith('_'))}\n"
        "star = {}\n"
        "exec('from entrodim import *', star)\n"
        "out['star'] = sorted(n for n in star if not n.startswith('_'))\n"
        "out['same'] = entrodim.mask_positions is entrodim.linear.mask_positions\n"
        "for key, name in (('moved', 'LinearInequality'), ('unknown', 'no_such_name')):\n"
        "    try:\n"
        "        getattr(entrodim, name)\n"
        "    except AttributeError as exc:\n"
        "        out[key] = str(exc)\n"
        "print(json.dumps(out))\n"
    )
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["dir"] == PUBLIC
    assert out["star"] == PUBLIC
    assert out["same"] is True
    assert out["moved"] == "module 'entrodim' has no attribute 'LinearInequality'"
    assert out["unknown"] == "module 'entrodim' has no attribute 'no_such_name'"


def test_cli_runs_as_a_module():
    # -X importtime writes a line to stderr per module imported
    proc = python("-X", "importtime", "-m", "entrodim.cli", "check", "H(x,y) <= H(x) + H(y)")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["outcome"] == "shannon-type"
    imported = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()}
    assert "entrodim.dsl" in imported
    assert not imported & set(UNUSED_STDLIB)
