"""Subcommand dispatch, exit codes, output files, reproducibility."""

import json
import struct

import pytest

from sllbar.cli import run_command

BASE = """
[grid]
dim = 1
lengths = 3.141592653589793
modes = 8

[params]
beta1 = 0.5
beta2 = 1.0
beta3 = 1.0
beta4 = 1.0
beta5 = 1.0

[solver]
dt = 0.01
t_end = 0.5
record_every = 5
seed = 7

[noise]
family = eigenmode

[noise.mode.1]
sigma = 0.1
index = 1
direction = 1, 0, 0

[noise.mode.2]
sigma = 0.1
index = 2
direction = 0, 0, 1

[initial]
type = constant
vector = 0.2, 0, 0

[experiment]
ensemble_m = 3
burn_in = 0.1
tightness_r = 0.5, 1, 2
moment_powers = 1, 2
dt_halvings = 2
refine_levels = 4, 8

[observable.1]
kind = exp_neg_l2
scale = 2.0
"""


@pytest.fixture
def cfg_file(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text(BASE)
    return str(f)


class TestSimulate:
    def test_outputs_and_exit(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        assert run_command(["simulate", "--config", cfg_file,
                            "--output-dir", str(out), "--quiet"]) == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "final_state.snap").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["stop_events"][0]["stop_reason"] == "completed"
        assert report["config"]["solver"]["seed"] == 7
        assert report["version"].startswith("sllbar-")

    def test_bitwise_reproducible(self, cfg_file, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_command(["simulate", "--config", cfg_file,
                                "--output-dir", str(out), "--quiet"]) == 0
            outs.append(out)
        for fname in ("trajectory.csv", "report.json", "final_state.snap"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_seed_override_changes_output(self, cfg_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_command(["simulate", "--config", cfg_file, "--output-dir", str(a),
                     "--quiet"])
        run_command(["simulate", "--config", cfg_file, "--output-dir", str(b),
                     "--seed", "123", "--quiet"])
        assert (a / "trajectory.csv").read_bytes() != (b / "trajectory.csv").read_bytes()
        rb = json.loads((b / "report.json").read_text())
        assert rb["config"]["solver"]["seed"] == 123

    def test_blowup_is_data_not_error(self, tmp_path):
        text = BASE.replace("t_end = 0.5", "t_end = 0.5\nblowup_k = 0.05")
        f = tmp_path / "run.cfg"
        f.write_text(text)
        out = tmp_path / "out"
        assert run_command(["simulate", "--config", str(f),
                            "--output-dir", str(out), "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["stop_events"][0]["stop_reason"] == "blowup_K"


class TestExitCodes:
    def test_unknown_subcommand_usage_error(self, capsys):
        assert run_command(["transmogrify"]) == 2

    def test_config_error(self, tmp_path):
        f = tmp_path / "bad.cfg"
        f.write_text(BASE.replace("beta2 = 1.0", "beta2 = -1.0"))
        assert run_command(["check", "--config", str(f),
                            "--output-dir", str(tmp_path / "o"), "--quiet"]) == 2

    def test_nonempty_output_dir_io_error(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "stale.txt").write_text("x")
        assert run_command(["check", "--config", cfg_file,
                            "--output-dir", str(out), "--quiet"]) == 4
        assert run_command(["check", "--config", cfg_file, "--output-dir",
                            str(out), "--quiet", "--force"]) == 0

    @pytest.mark.parametrize("command", ["simulate", "check"])
    @pytest.mark.parametrize("payload", [
        b"SLLB\x01\x00\x00\x00\x01\x00",                         # 10-byte header
        b"SLLB" + struct.pack("<III", 2, 1, 8) + b"\x00" * 200,  # version 2
    ], ids=["short_header", "version_2"])
    def test_corrupt_initial_snapshot(self, tmp_path, capsys, command, payload):
        snap = tmp_path / "state.snap"
        snap.write_bytes(payload)
        text = BASE.replace("type = constant\nvector = 0.2, 0, 0",
                            f"type = snapshot\npath = {snap}")
        f = tmp_path / "run.cfg"
        f.write_text(text)
        assert run_command([command, "--config", str(f),
                            "--output-dir", str(tmp_path / "o"), "--quiet"]) == 2
        assert "configuration error: initial.path:" in capsys.readouterr().err

    def test_invariant_blowup_fatal(self, tmp_path):
        text = BASE.replace("t_end = 0.5", "t_end = 0.5\nblowup_k = 0.05")
        f = tmp_path / "run.cfg"
        f.write_text(text)
        assert run_command(["invariant", "--config", str(f),
                            "--output-dir", str(tmp_path / "o"), "--quiet"]) == 3


class TestCheck:
    def test_identity_table_and_noise_condition(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        assert run_command(["check", "--config", cfg_file,
                            "--output-dir", str(out), "--quiet"]) == 0
        lines = (out / "identities.csv").read_text().strip().split("\n")
        assert lines[0].startswith("field,cross_identity")
        assert len(lines) == 21
        residuals = (out / "energy_residuals.csv").read_text().strip().split("\n")
        assert residuals[0] == "t,energy_balance_residual"
        report = json.loads((out / "report.json").read_text())
        assert report["identity_max"]["cross"] < 1e-12
        assert report["identity_max"]["cubic_gradient"] < 1e-8
        # two modes with lambda 1 and 4, sigma 0.1
        expected = 0.01 * 8 + 0.01 * 125
        assert report["noise_condition"]["C_h"] == pytest.approx(expected, rel=1e-12)

    def test_report_echo_round_trip(self, cfg_file, tmp_path):
        from sllbar.config import parse_config

        out = tmp_path / "out"
        assert run_command(["check", "--config", cfg_file,
                            "--output-dir", str(out), "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"] == parse_config(cfg_file).echo()


class TestEnsemble:
    def test_report_contents(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        assert run_command(["ensemble", "--config", cfg_file,
                            "--output-dir", str(out), "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["paths"] == 3
        assert report["blowup_count"] == 0
        assert "p=1" in report["moments"]
        assert "sup_l2_2p" in report["moments"]["p=1"]
        assert (out / "ensemble_norms.csv").exists()
        assert (out / "observables.csv").exists()


class TestInvariant:
    def test_windows_and_tightness(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        assert run_command(["invariant", "--config", cfg_file,
                            "--output-dir", str(out), "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        (name,) = report["window_averages"].keys()
        assert len(report["window_averages"][name]["means"]) == 2
        t = report["tightness"]["H1"]
        assert t["R=0.5"] >= t["R=1"] >= t["R=2"]


class TestConverge:
    def test_dt_and_refinement_tables(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        assert run_command(["converge", "--config", cfg_file,
                            "--output-dir", str(out), "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        gaps = report["dt_study"]["mean_l2_gap_to_next_level"]
        assert len(gaps) == 2 and gaps[0] > gaps[1]
        assert "4->8" in report["refinement_gaps"]
