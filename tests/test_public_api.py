"""Every public name is reached by the package itself or by the acceptance gate.

A name exported from ``btzgeo/__init__.py`` must be used somewhere in
``src/btzgeo/`` outside its own definition (so the CLI or a ``verify`` suite
can reach it), or in ``tests/test_acceptance.py``.  A name that only unit
tests reach is code that nothing here runs or verifies.
"""

import ast
from pathlib import Path

import btzgeo

PACKAGE = Path(btzgeo.__file__).resolve().parent
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"


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
