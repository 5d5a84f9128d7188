"""Tests of the benchmark's tracer, step counts and output check.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q bench/tests

The per-step counts below are worked out by hand from one IMEX step:
``_explicit_parts`` synthesizes u and Lap u, analyzes the cubic and the
precession cross product, and builds each G_j (one cross3, one analyze);
``_correction_coeffs`` builds each G_j again, synthesizes it and analyzes
G_j x h_j. ``coupled_increments`` builds one Philox generator per substep.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import layertrace  # noqa: E402
import run  # noqa: E402
from layertrace import METRICS, OVERHEAD, TARGETS, Target, Tracer, layer_metrics  # noqa: E402

import sllbar.cli  # noqa: E402
import sllbar.grid  # noqa: E402
import sllbar.integrator  # noqa: E402

TINY = """
[grid]
dim = 1
lengths = 3.141592653589793
modes = 6

[params]
beta1 = 0.5
beta2 = 1.0
beta3 = 1.0
beta4 = 1.0
beta5 = 1.0

[truncation]
mode = on
radius = 5.0

[solver]
dt = 0.01
t_end = 0.05
record_every = 2
seed = 3
substeps = {substeps}

[noise]
family = eigenmode

{modes}
[initial]
type = constant
vector = 0.1, 0.2, 0

[experiment]
ensemble_m = 2
workers = 1
dt_halvings = 2
refine_levels = 4, 6
"""


def tiny_config(tmp_path: Path, J: int, substeps: int) -> Path:
    modes = "".join(
        f"[noise.mode.{j + 1}]\nsigma = 0.1\nindex = {j + 1}\ndirection = 1, {j}, 0\n\n"
        for j in range(J))
    path = tmp_path / f"tiny_J{J}_s{substeps}.cfg"
    path.write_text(TINY.format(substeps=substeps, modes=modes))
    return path


def traced_run(command: str, cfg: Path, out: Path, targets=TARGETS):
    tracer = Tracer(targets).install()
    try:
        code = sllbar.cli.run_command(
            [command, "--config", str(cfg), "--output-dir", str(out), "--quiet"])
    finally:
        tracer.uninstall()
    assert code == 0
    return tracer, layer_metrics(tracer.spans())


@pytest.mark.parametrize("J,substeps", [(1, 1), (2, 2), (3, 4)])
def test_per_step_counts_match_hand_count(tmp_path, J, substeps):
    cfg = tiny_config(tmp_path, J, substeps)
    _, m = traced_run("simulate", cfg, tmp_path / "out")
    assert m["integrator.steps"] == run.path_steps("simulate", run.read_cfg(cfg)) == 5
    assert m["grid.cross3_per_step"] == 1 + 3 * J
    assert m["grid.synthesize_per_step"] == 2 + J
    assert m["grid.analyze_per_step"] == 2 + 3 * J
    assert m["grid.transforms_per_step"] == 4 + 4 * J
    assert m["noise.diffusion_per_step"] == 2 * J
    assert m["noise.diffusion_useful_frac"] == 0.5
    assert m["noise.philox_per_step"] == substeps
    assert m["noise.increment_calls"] == 5
    assert m["model.theta_calls"] == 5
    assert m["noise.correction_calls"] == 5


@pytest.mark.parametrize("command", ["ensemble", "converge"])
def test_traced_steps_match_config_step_count(tmp_path, command):
    cfg = tiny_config(tmp_path, 2, 1)
    _, m = traced_run(command, cfg, tmp_path / "out")
    assert m["integrator.steps"] == run.path_steps(command, run.read_cfg(cfg))
    if command == "ensemble":
        assert m["ensemble.paths"] == 2
    else:
        # level k of the dt study draws 2^(halvings - k) base increments
        n, paths, h = 5, 2, 2
        dt_study = paths * sum(n * 2**k * 2 ** (h - k) for k in range(h + 1))
        assert m["noise.philox_draws"] == dt_study + 2 * n


def test_missing_target_drops_only_its_metrics(tmp_path):
    cfg = tiny_config(tmp_path, 2, 1)
    targets = [t for t in TARGETS if t.attr != "_correction_coeffs"]
    targets.append(Target("noise", "_renamed_away", "noise.correction"))
    tracer, m = traced_run("simulate", cfg, tmp_path / "out", targets)
    assert tracer.missing == ["noise._renamed_away"]
    assert "noise.correction_s" not in m and "noise.correction_calls" not in m
    assert m["grid.cross3_per_step"] == 7


def test_trace_leaves_outputs_and_bindings_unchanged(tmp_path):
    cfg = tiny_config(tmp_path, 2, 2)
    assert sllbar.cli.run_command(
        ["ensemble", "--config", str(cfg), "--output-dir", str(tmp_path / "plain"),
         "--quiet"]) == 0
    traced_run("ensemble", cfg, tmp_path / "traced")
    for name in ("report.json", "ensemble_norms.csv"):
        assert (tmp_path / "plain" / name).read_bytes() == \
            (tmp_path / "traced" / name).read_bytes()
    assert sllbar.integrator.cross3 is sllbar.grid.cross3
    assert not hasattr(sllbar.grid.synthesize, "__wrapped__")


def test_compare_reports_tolerance():
    ref = {"a": [1.0, 2.5e-3], "b": {"c": "x", "d": None, "e": 7}}
    assert run.compare_reports(json.loads(json.dumps(ref)), ref) == []
    close = {"a": [1.0 + 1e-14, 2.5e-3 * (1 + 1e-12)], "b": {"c": "x", "d": None, "e": 7}}
    assert run.compare_reports(close, ref) == []
    wrong = {"a": [1.0 + 1e-8, 2.5e-3], "b": {"c": "x", "d": None, "e": 7}}
    assert len(run.compare_reports(wrong, ref)) == 1
    reshaped = {"a": [1.0], "b": {"c": "y", "d": None, "e": 7}}
    assert len(run.compare_reports(reshaped, ref)) == 2


def test_benchmark_json_matches_code():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in run.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(k, run.UNITS[k]) for k in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(m.name, m.unit, m.better) for m in METRICS + (OVERHEAD,)]
    for wl in run.WORKLOADS:
        assert (BENCH / "reference" / f"{wl}.json").is_file()
    assert all(t.module in layertrace.MODULES for t in TARGETS)
