"""The package runs a submodule's code only when something first uses it.

Each test starts a fresh interpreter, since this process has long since
imported every module. A module that has not run yet is a lazy module
object in sys.modules; `type(...) is types.ModuleType` reads none of its
attributes, so asking does not load it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: the package's public names, by the module that defines them
EXPORTS = {
    "core": [
        "MAX_VARIABLES", "EntropyVector", "ExactLogLin", "LinearInequality",
        "PointSet", "SizeLimitError", "eval_slack", "loglin_sign", "mask_label",
        "mask_of", "mask_positions", "subsets",
    ],
    "dsl": [
        "InequalityParseError", "ZeroInequalityError", "format_inequality",
        "parse_inequality", "parse_with_names",
    ],
    "distributions": ["JointDistribution", "SupportSet", "exact_entropy_vector"],
    "simplex": [],
    "shannon": [
        "ElementalSet", "FarkasWitness", "ShannonCertificate", "VerificationError",
        "elemental_inequalities", "is_shannon_type", "verify_certificate",
        "verify_farkas", "zhang_yeung",
    ],
    "groups": [
        "FiniteGroup", "GroupTableError", "NoIdentity", "NoInverse",
        "NotAssociative", "Subgroup", "Violation", "all_subgroups",
        "builtin_catalog", "coset_entropy_point", "coset_index_map", "cyclic",
        "dihedral", "direct_product", "from_permutations", "group_from_table",
        "search_violation", "subgroup_from_elements", "subgroup_from_generators",
        "symmetric", "witness_set",
    ],
    "cantor": [
        "CantorWitness", "DimValue", "DimensionCounterexample", "NoEpsilon",
        "NonUniform", "NotViolated", "build_counterexample",
        "dim_value", "lemma_fiber_bound", "project", "uniform_fiber",
        "verify_counterexample",
    ],
    "splitting": [
        "FiniteBody", "SplitResult", "SplitSpec", "UnsplitReport",
        "check_unsplit_inequality", "cube_bar_instance", "find_split_exhaustive",
        "loomis_whitney_slack", "projection_count", "verify_split",
    ],
}
PUBLIC = sorted([*EXPORTS, *(n for names in EXPORTS.values() for n in names)])

RAN = """
import sys, types
def ran():
    return sorted(
        name for name in ("cantor", "cli", "core", "distributions", "dsl",
                          "groups", "shannon", "simplex", "splitting")
        if type(sys.modules.get("entrodim." + name)) is types.ModuleType
    )
"""


def python(*args):
    """Run a fresh interpreter that imports entrodim from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_import_runs_only_core_and_dsl():
    proc = python("-c", RAN + "import entrodim\nprint(ran())")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(["core", "dsl"])


@pytest.mark.parametrize(
    "argv, also",
    [
        (["check", "H(x,y) <= H(x) + H(y)"], ["cli", "shannon", "simplex"]),
        (["group-search", "--ineq", "H(x,y) <= H(x)", "--max-order", "4"],
         ["cli", "distributions", "groups"]),
        (["split", "--body", "@body", "--spec", "@spec"], ["cli", "splitting"]),
    ],
    ids=["check", "group-search", "split"],
)
def test_a_command_runs_only_the_modules_it_uses(tmp_path, argv, also):
    files = {
        "@body": {"m": 2, "N": 2, "points": [[0, 0], [1, 1]]},
        "@spec": {"m": 2, "levels": [{"part": [1], "bits": 1}]},
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
    )
    proc = python("-c", code, json.dumps(argv))
    assert proc.returncode == 0, proc.stderr
    exit_code, ran = proc.stdout.strip().split(" ", 1)
    assert exit_code in ("0", "2")
    assert ran == str(sorted(["core", "dsl", *also]))


def test_public_surface():
    code = (
        "import json, sys\n"
        "import entrodim\n"
        "exports = json.loads(sys.argv[1])\n"
        "out = {'dir': sorted(n for n in dir(entrodim) if not n.startswith('_'))}\n"
        "star = {}\n"
        "exec('from entrodim import *', star)\n"
        "out['star'] = sorted(n for n in star if not n.startswith('_'))\n"
        "out['not_same'] = [\n"
        "    n for mod, names in exports.items() for n in names\n"
        "    if getattr(entrodim, n) is not getattr(sys.modules['entrodim.' + mod], n)\n"
        "] + [mod for mod in exports if getattr(entrodim, mod) is not sys.modules['entrodim.' + mod]]\n"
        "try:\n"
        "    entrodim.no_such_name\n"
        "except AttributeError as exc:\n"
        "    out['unknown'] = str(exc)\n"
        "print(json.dumps(out))\n"
    )
    proc = python("-c", code, json.dumps(EXPORTS))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert len(PUBLIC) == 80
    assert out["dir"] == PUBLIC
    assert out["star"] == PUBLIC
    assert out["not_same"] == []
    assert out["unknown"] == "module 'entrodim' has no attribute 'no_such_name'"


def test_cli_runs_as_a_module():
    proc = python("-m", "entrodim.cli", "check", "H(x,y) <= H(x) + H(y)")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["outcome"] == "shannon-type"
