"""Every benchmark workload still reproduces its reference report.

Runs each ``bench/run.py`` workload in process at the benchmark seed and
checks its outputs with the benchmark's own comparison (rtol 1e-10), so a
change that moves a reference number fails here, not only in a bench run.
"""

import json
import sys
from pathlib import Path

import pytest

from sllbar.cli import run_command

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_matches_reference(name, tmp_path):
    assert run.DEFAULT_SEED == 42 and run.RTOL == 1e-10
    out = tmp_path / name
    argv = [run.WORKLOADS[name].command, "--config", str(run.config_path(name)),
            "--seed", str(run.DEFAULT_SEED), "--output-dir", str(out), "--quiet"]
    assert run_command(argv) == 0
    reference = json.loads((BENCH / "reference" / f"{name}.json").read_text())
    _, problems = run.check_outputs(out, reference, None)
    assert problems == []
