"""Lint: every module-level import in the package modules is used, and a
chain step loads no module it does not need.

A stdlib `ast` scan, so it needs no linter installed. ``__init__.py`` is
skipped: its imports are the package's exports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p for p in (SRC / "gsgs").glob("*.py") if p.name != "__init__.py")


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


def test_desk_step_does_not_load_scipy_linalg():
    # scipy.linalg serves only the Cholesky oracle; loading it with the
    # package made every chain process larger.
    script = (
        "import sys\n"
        "import gsgs\n"
        "model = gsgs.simulate_data(gsgs.phantom((64, 64)), 2, ((0, 0), (1, 0), (0, 1)),"
        " 5, 1.0, gsgs.RngState(0))\n"
        "state = gsgs.ChainState(x=model.backprojection(), theta=None, t=0,"
        " rng=gsgs.RngState(1))\n"
        "gsgs.gsgs_step(gsgs.SuperResThetaModel(model), state,"
        " gsgs.GsgsConfig(n_dirs=10, max_iters=1))\n"
        "assert state.t == 1\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True)
    assert out.stdout.strip() == "False"
