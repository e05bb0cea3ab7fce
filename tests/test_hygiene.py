"""Source hygiene: every name a module imports at top level is used in it,
and the package states no check as an `assert`.

The package's `__init__.py` is exempt from the import rule, since its
imports are re-exports. `python -O` strips `assert` statements, so a check
written as one would silently pass there.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "stonekit").glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"] + sorted(
    (ROOT / "tests").glob("*.py")
)


def unused_imports(source: str) -> list:
    """Top-level imported names that no expression in the module refers to."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append((alias.asname or alias.name).split(".")[0])
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_import_is_reported():
    assert unused_imports("import os\nfrom a.b import c, d as e\nprint(c)\n") == [
        "os",
        "e",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def assert_lines(source: str) -> list:
    """Line numbers of the `assert` statements in a module."""
    return [n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Assert)]


def test_assert_is_reported():
    assert assert_lines("def f(x):\n    assert x, 'why'\n    return x\n") == [2]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_assert_statements_in_the_package(path):
    assert assert_lines(path.read_text(encoding="utf-8")) == []
