"""
entrodim: an exact workbench for linear entropy inequalities.

Parse inequalities over joint entropies, decide Shannon-type membership
with verifiable certificates, realize entropy vectors from finite-group
cosets, and convert violating group points into Cantor-type digit sets
whose projection dimensions defeat the corresponding dimension
inequality.  All load-bearing comparisons are exact (rational arithmetic
and big-integer product tests); floats appear only as renderings.

Importing the package runs only `linear` and `dsl`. The other submodules
are in `sys.modules` from the start, but each one's code runs on its
first attribute access (`importlib.util.LazyLoader`), so a command that
never touches, say, `groups` never compiles it. Each public name lives in
its module only: `entrodim.groups.search_violation`, say.
"""

import importlib.util as _util
import sys as _sys

from . import dsl, linear
from .linear import mask_positions  # read as entrodim.mask_positions by perfbench's tests

__version__ = "0.1.0"


def _register_lazily(name):
    """Put submodule `name` in sys.modules, to run on first attribute access."""
    spec = _util.find_spec(f"{__name__}.{name}")
    spec.loader = _util.LazyLoader(spec.loader)
    module = _util.module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[name] = module


for _name in ("core", "points", "distributions", "simplex", "shannon", "groups", "cantor",
              "splitting"):
    _register_lazily(_name)
