"""
entrodim: an exact workbench for linear entropy inequalities.

Parse inequalities over joint entropies, decide Shannon-type membership
with verifiable certificates, realize entropy vectors from finite-group
cosets, and convert violating group points into Cantor-type digit sets
whose projection dimensions defeat the corresponding dimension
inequality.  All load-bearing comparisons are exact (rational arithmetic
and big-integer product tests); floats appear only as renderings.

Importing the package runs only `core` and `dsl`. The other submodules
are in `sys.modules` from the start, but each one's code runs on its
first attribute access (`importlib.util.LazyLoader`), so a command that
never touches, say, `groups` never compiles it. The names below are
served from their modules by the package's `__getattr__`.
"""

import importlib.util as _util
import sys as _sys

from . import core, dsl

#: module -> the public names the package re-exports from it
_EXPORTS = {
    "core": (
        "MAX_VARIABLES", "EntropyVector", "ExactLogLin", "LinearInequality",
        "PointSet", "SizeLimitError", "eval_slack", "loglin_sign", "mask_label",
        "mask_of", "mask_positions", "subsets",
    ),
    "dsl": (
        "InequalityParseError", "ZeroInequalityError", "format_inequality",
        "parse_inequality", "parse_with_names",
    ),
    "distributions": ("JointDistribution", "SupportSet", "exact_entropy_vector"),
    "simplex": (),
    "shannon": (
        "ElementalSet", "FarkasWitness", "ShannonCertificate", "VerificationError",
        "elemental_inequalities", "is_shannon_type", "verify_certificate",
        "verify_farkas", "zhang_yeung",
    ),
    "groups": (
        "FiniteGroup", "GroupTableError", "NoIdentity", "NoInverse",
        "NotAssociative", "Subgroup", "Violation", "all_subgroups",
        "builtin_catalog", "coset_entropy_point", "coset_index_map", "cyclic",
        "dihedral", "direct_product", "from_permutations", "group_from_table",
        "search_violation", "subgroup_from_elements", "subgroup_from_generators",
        "symmetric", "witness_set",
    ),
    "cantor": (
        "CantorWitness", "DimValue", "DimensionCounterexample", "NoEpsilon",
        "NonUniform", "NotViolated", "build_counterexample",
        "dim_value", "lemma_fiber_bound", "project", "uniform_fiber",
        "verify_counterexample",
    ),
    "splitting": (
        "FiniteBody", "SplitResult", "SplitSpec", "UnsplitReport",
        "check_unsplit_inequality", "cube_bar_instance", "find_split_exhaustive",
        "loomis_whitney_slack", "projection_count", "verify_split",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_OWNER])
__version__ = "0.1.0"


def _register_lazily(name):
    """Put submodule `name` in sys.modules, to run on first attribute access."""
    spec = _util.find_spec(f"{__name__}.{name}")
    spec.loader = _util.LazyLoader(spec.loader)
    module = _util.module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[name] = module


for _name in _EXPORTS:
    if _name not in globals():  # core and dsl have run above
        _register_lazily(_name)


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_OWNER[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})
