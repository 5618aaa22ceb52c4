"""Lint: every module-level import in the package modules is used.

A stdlib `ast` scan, so it needs no linter installed. ``__init__.py`` is
skipped: its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

MODULES = sorted(
    p for p in (Path(__file__).resolve().parents[1] / "src" / "gsgs").glob("*.py")
    if p.name != "__init__.py"
)


def unused_imports(source):
    """Names bound by module-level imports that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_scan_flags_an_unused_import():
    source = "import os\nimport numpy as np\nfrom math import sqrt, pi\nx = np.pi + sqrt(2)\n"
    assert unused_imports(source) == [(1, "os"), (3, "pi")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
