"""Every public name is reached by the package itself or by the acceptance gate.

A name exported from ``btzgeo/__init__.py`` must be used somewhere in
``src/btzgeo/`` outside its own definition (so the CLI or a ``verify`` suite
can reach it), or in ``tests/test_acceptance.py``.  A name that only unit
tests reach is code that nothing here runs or verifies.

No module in ``src/btzgeo/`` or ``tests/`` imports a name it never reads
(``__future__`` features and the re-exports of ``btzgeo/__init__.py`` aside),
and no module in ``src/btzgeo/`` reaches an underscore-prefixed name of
another btzgeo module.
"""

import ast
from pathlib import Path

import btzgeo

PACKAGE = Path(btzgeo.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
ACCEPTANCE = TESTS / "test_acceptance.py"


def _exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _used(tree):
    """Names read in ``tree``, skipping each function or class's own body."""
    used = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        else:
            name = None
        if name is not None and name not in inside:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return used


def test_every_public_name_is_reached():
    used = _used(ast.parse(ACCEPTANCE.read_text()))
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            used |= _used(ast.parse(path.read_text()))
    unreached = sorted(_exported() - used)
    assert not unreached, f"public names with no caller in src/ or the gate: {unreached}"


def _unused_imports(tree):
    """Names bound by an import in ``tree`` and never loaded in it."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in bound.items() if name not in loaded)


def test_no_unused_imports():
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(TESTS.glob("*.py"))
    unused = [
        f"{path.name}:{line} {name}"
        for path in paths
        for line, name in _unused_imports(ast.parse(path.read_text()))
    ]
    assert not unused, f"imported but never read: {unused}"


def test_unused_import_scan_sees_plain_and_from_imports():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import math\nimport os.path\nfrom json import dumps as d, loads\n"
        "loads(os.path.sep)\n"
    )
    assert _unused_imports(tree) == [(2, "math"), (4, "d")]


def _private_imports(tree):
    """Underscore names that ``tree`` takes from other btzgeo modules, by
    ``from`` import or as an attribute of a module bound by ``from . import``."""
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "btzgeo"
        ):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(alias.name)
                if not node.module:
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
        ):
            found.append(node.attr)
    return found


def test_no_private_imports_across_modules():
    private = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _private_imports(ast.parse(path.read_text()))
    ]
    assert not private, f"private names taken from another module: {private}"


def test_private_import_scan_sees_from_imports_and_module_attributes():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "from os import _exit\nfrom .causal import _as_point, causal_label\n"
        "from btzgeo.models import _check_angle\nfrom . import lorentz, models as m\n"
        "lorentz._CLASSIFY_TOL, m._ANGLE_TOL, lorentz.q_form\n"
    )
    assert _private_imports(tree) == ["_as_point", "_check_angle", "_CLASSIFY_TOL", "_ANGLE_TOL"]
