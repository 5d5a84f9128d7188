"""Smoke test: the quick demos run to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

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
