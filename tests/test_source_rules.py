"""Rules on the package's source, read from its syntax trees.

Each module under src/entrodim is parsed once. A rule names every place
that breaks it, one per line: runtime imports are stdlib-only; no module
imports dataclasses or typing; every imported name is used; every
private module-level name is used in its module; every exception class
is raised or subclassed somewhere in the package.
"""

import ast
import builtins
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "entrodim"
TREES = {path: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _absolute_imports(tree):
    """(line, module name) of each absolute import in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def _stdlib_only():
    for path, tree in TREES.items():
        for line, name in _absolute_imports(tree):
            top = name.partition(".")[0]
            if top not in sys.stdlib_module_names and top != "entrodim":
                yield f"{path}:{line}: import of {name}"


def _no_dataclasses_or_typing():
    for path, tree in TREES.items():
        for line, name in _absolute_imports(tree):
            if name.partition(".")[0] in ("dataclasses", "typing"):
                yield f"{path}:{line}: import of {name}"


def _imports_used():
    for path, tree in TREES.items():
        if path.name == "__init__.py":
            continue  # its imports are the package's exports
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    imported[(alias.asname or alias.name).partition(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        yield from (f"{path}:{line}: {name} is imported and never used"
                    for name, line in imported.items() if name not in used)


def _private_names_used():
    for path, tree in TREES.items():
        defined = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        yield from (f"{path}:{line}: {name} is private and never used in its module"
                    for name, line in defined.items() if name not in used)


def _last_name(node):
    """X for X, m.X, X(...) and m.X(...)."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _exceptions_raised():
    classes, used = {}, set()
    for path, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = {_last_name(b) for b in node.bases}
                classes[node.name] = (f"{path}:{node.lineno}", bases)
                used |= bases
            elif isinstance(node, ast.Raise) and node.exc is not None:
                used.add(_last_name(node.exc))

    def is_exception(name):
        if name in classes:
            return any(is_exception(b) for b in classes[name][1])
        obj = getattr(builtins, name or "", None)
        return isinstance(obj, type) and issubclass(obj, BaseException)

    yield from (f"{where}: {name} is never raised or subclassed in src/entrodim"
                for name, (where, _) in classes.items() if is_exception(name) and name not in used)


@pytest.mark.parametrize("rule", [
    _stdlib_only, _no_dataclasses_or_typing, _imports_used, _private_names_used,
    _exceptions_raised,
], ids=lambda rule: rule.__name__.lstrip("_"))
def test_source_rule(rule):
    assert TREES
    bad = list(rule())
    assert not bad, "\n".join(bad)
