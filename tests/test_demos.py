"""Demos against the current API: the quick ones run, all of them import."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))

# 04 and 05 take about 12 s each and exercise the same stepping paths.
QUICK_DEMOS = [
    "01_basis_and_transforms.py",
    "02_drift_terms_and_identities.py",
    "03_single_trajectory_blowup.py",
]


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_runs(name, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", DEMOS)
def test_demo_imports_resolve(name):
    """Every name a demo imports from ``sllbar`` exists; the demo is parsed,
    not run."""
    tree = ast.parse((ROOT / "demos" / name).read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and node.module and node.module.split(".")[0] == "sllbar"]
    assert imports, f"{name} imports nothing from sllbar"
    for node in imports:
        module = importlib.import_module(node.module)
        missing = [a.name for a in node.names if not hasattr(module, a.name)]
        assert not missing, f"{name}: {node.module} has no {missing}"
