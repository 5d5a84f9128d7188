"""Import hygiene: every name a package module imports is used, and the
CLI's import path loads neither scipy, the process pool nor numpy.random.

No linter is a dependency, so the check parses each module with ``ast``.
``__init__.py`` is skipped because its imports are the public re-exports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sllbar"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` and never referenced."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_detector_flags_an_unused_name():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "from .grid import Grid, analyze\n"
              "def f(g: Grid):\n"
              "    return np.zeros(3)\n")
    assert unused_imports(source) == ["analyze (line 3)"]


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    assert unused_imports((PACKAGE / name).read_text()) == []


def cli_import_modules() -> list[str]:
    """Every module loaded by ``import sllbar.cli`` in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", "import sllbar.cli, sys; print(sorted(sys.modules))"],
        env=env, capture_output=True, text=True, check=True)
    return ast.literal_eval(proc.stdout)


def test_cli_import_loads_no_scipy():
    """The transform matrices are built in closed form, so importing the CLI
    loads no scipy (about 0.33 s of a 0.58 s start-up when it did)."""
    loaded = cli_import_modules()
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []


def test_cli_import_loads_no_process_pool():
    """Only ``workers > 1`` needs the pool, which brings in multiprocessing,
    socket, subprocess and logging; ``run_ensemble`` imports it there."""
    loaded = cli_import_modules()
    assert [m for m in loaded if m.startswith("concurrent.futures")] == []


def test_cli_import_loads_no_numpy_random():
    """``numpy.random`` (5.6 MB of peak RSS and about 17 ms on a 2-vCPU VM) is
    first loaded when a run draws its first increment, not when the CLI is
    imported."""
    loaded = cli_import_modules()
    assert [m for m in loaded if m.split(".")[:2] == ["numpy", "random"]] == []
