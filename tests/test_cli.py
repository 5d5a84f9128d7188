"""Subcommand dispatch, exit codes, output files, reproducibility."""

import json
import struct
from pathlib import Path

import numpy as np
import pytest

import sllbar.cli
from sllbar.cli import run_command
from sllbar.config import parse_config
from sllbar.grid import Grid, eigenmode_field
from sllbar.io import write_snapshot

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


def strict_json(path):
    """The JSON in ``path``; raises on NaN or Infinity, which strict JSON lacks."""
    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")

    return json.loads(path.read_text(), parse_constant=reject)


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_stop_writes_strict_json(self, tmp_path):
        # explicit Heun at dt = 0.01 is unstable on mode 5 of N = 16: the
        # state overflows and the run stops nonfinite at t = 0.04
        noise = BASE[BASE.index("[noise]"):BASE.index("[initial]")]
        text = (BASE.replace(noise, "[noise]\nfamily = none\n\n")
                .replace("modes = 8", "modes = 16")
                .replace("refine_levels = 4, 8", "refine_levels = 8, 16")
                .replace("t_end = 0.5", "t_end = 20\nscheme = heun_strat")
                .replace("type = constant\nvector = 0.2, 0, 0", "type = modes\n\n"
                         "[initial.mode.1]\nindex = 5\namplitude = 0.1, 0.2, 0"))
        f = tmp_path / "run.cfg"
        f.write_text(text)
        out = tmp_path / "out"
        assert run_command(["simulate", "--config", str(f),
                            "--output-dir", str(out), "--quiet"]) == 0
        report = strict_json(out / "report.json")
        assert report["stop_events"][0]["stop_reason"] == "nonfinite"
        assert report["final_norms"] and all(
            v is None for v in report["final_norms"].values())


class TestSummaryLine:
    """run_command prints one line per run: the command's summary and where
    its outputs went; --quiet prints nothing."""

    @pytest.mark.parametrize("quiet", [False, True], ids=["printed", "quiet"])
    @pytest.mark.parametrize("command", ["simulate", "ensemble", "invariant",
                                         "converge", "check"])
    def test_one_line_unless_quiet(self, cfg_file, tmp_path, capsys, command, quiet):
        out = tmp_path / "out"
        argv = [command, "--config", cfg_file, "--output-dir", str(out)]
        assert run_command(argv + ["--quiet"] * quiet) == 0
        printed = capsys.readouterr().out
        if quiet:
            assert printed == ""
        else:
            assert printed.count("\n") == 1 and printed.startswith(f"{command}: ")
            assert printed.endswith(f", outputs in {out}\n")
        assert (out / "report.json").exists()


class TestExitCodes:
    def test_unknown_subcommand_usage_error(self, capsys):
        assert run_command(["transmogrify"]) == 2

    def test_config_error(self, tmp_path):
        f = tmp_path / "bad.cfg"
        f.write_text(BASE.replace("beta2 = 1.0", "beta2 = -1.0"))
        assert run_command(["check", "--config", str(f),
                            "--output-dir", str(tmp_path / "o"), "--quiet"]) == 2

    def test_pad_factor_below_two(self, tmp_path, capsys):
        f = tmp_path / "bad.cfg"
        f.write_text(BASE.replace("modes = 8", "modes = 8\npad_factor = 1.5"))
        assert run_command(["simulate", "--config", str(f),
                            "--output-dir", str(tmp_path / "o"), "--quiet"]) == 2
        assert "configuration error: grid.pad_factor:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_observable_index_outside_grid(self, tmp_path, capsys):
        f = tmp_path / "bad.cfg"
        f.write_text(BASE + "\n[observable.2]\nkind = tanh_mode\nindex = 99\n")
        assert run_command(["ensemble", "--config", str(f),
                            "--output-dir", str(tmp_path / "o"), "--quiet"]) == 2
        assert "configuration error: observable.2:" in capsys.readouterr().err

    def test_observables_sharing_a_name_exit_2(self, tmp_path, capsys):
        """Two observables whose scales ``:g`` prints alike parse, but the run
        rejects them before writing one column for both."""
        f = tmp_path / "bad.cfg"
        f.write_text(BASE + "\n[observable.2]\nkind = exp_neg_l2\nscale = 2.0000001\n")
        assert len(parse_config(f).experiment.observables) == 2
        assert run_command(["ensemble", "--config", str(f),
                            "--output-dir", str(tmp_path / "o"), "--quiet"]) == 2
        assert ("configuration error: path 0: observables 0 and 1 share the name "
                "'exp_neg_l2[s=2]'" in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed", ["-3", str(2**64)])
    def test_seed_override_outside_uint64(self, cfg_file, tmp_path, capsys, seed):
        assert run_command(["simulate", "--config", cfg_file, "--output-dir",
                            str(tmp_path / "o"), "--seed", seed, "--quiet"]) == 2
        assert "configuration error: seed" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["simulate", "ensemble"])
    def test_nonfinite_initial_snapshot(self, tmp_path, capsys, command):
        """A NaN coefficient is a bad initial datum, not a path that stops at
        its first step with NaN in report.json."""
        grid = Grid(1, (np.pi,), (8,))
        u = eigenmode_field(grid, (1,), (0.1, 0, 0))
        u[2, 5] = np.nan
        snap = tmp_path / "state.snap"
        write_snapshot(u, snap, grid)
        text = BASE.replace("type = constant\nvector = 0.2, 0, 0",
                            f"type = snapshot\npath = {snap}")
        code, out = run_text(tmp_path, command, text)
        assert code == 2
        assert not (out / "report.json").exists()
        assert ("configuration error: initial.path:" in capsys.readouterr().err)

    def test_invariant_blowup_fatal(self, tmp_path):
        text = BASE.replace("t_end = 0.5", "t_end = 0.5\nblowup_k = 0.05")
        f = tmp_path / "run.cfg"
        f.write_text(text)
        assert run_command(["invariant", "--config", str(f),
                            "--output-dir", str(tmp_path / "o"), "--quiet"]) == 3


class TestCheck:
    def test_blowup_at_t0_exits_3(self, tmp_path, capsys):
        # u0's H^1 norm is about 0.35, so the energy-balance run stops at t = 0
        code, out = run_text(tmp_path, "check",
                             BASE.replace("t_end = 0.5", "t_end = 0.5\nblowup_k = 0.05"))
        assert code == 3
        assert not (out / "report.json").exists()
        assert "blow-up: the energy-balance run stopped at t=0" in capsys.readouterr().err

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
    def test_flat_growth_fit_writes_strict_json(self, tmp_path):
        # noise off from u = 0: H2 stays 0, the fitted b is 0 and the
        # curvature ratio has no finite value
        noise = BASE[BASE.index("[noise]"):BASE.index("[initial]")]
        text = (BASE.replace(noise, "[noise]\nfamily = none\n\n")
                .replace("vector = 0.2, 0, 0", "vector = 0, 0, 0")
                .replace("t_end = 0.5", "t_end = 0.3")
                .replace("record_every = 5", "record_every = 1")
                .replace("ensemble_m = 3", "ensemble_m = 2"))
        cfg = tmp_path / "flat.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert run_command(["ensemble", "--config", str(cfg),
                            "--output-dir", str(out), "--quiet"]) == 0
        report = strict_json(out / "report.json")
        assert report["h2_growth"]["b"] == 0.0
        assert report["h2_growth"]["curvature_ratio"] is None

    def test_blowup_at_t0_exits_3(self, tmp_path, capsys):
        # u0's H^1 norm is about 0.35, so every path stops at t = 0
        code, out = run_text(tmp_path, "ensemble",
                             BASE.replace("t_end = 0.5", "t_end = 0.5\nblowup_k = 0.05"))
        assert code == 3
        assert not (out / "report.json").exists()
        assert "blow-up: all 3 paths stopped at t=0" in capsys.readouterr().err

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


    def test_d2_outputs_identical_at_one_and_two_workers(self, tmp_path):
        text = (BASE.replace("dim = 1", "dim = 2")
                .replace("lengths = 3.141592653589793",
                         "lengths = 3.141592653589793, 2.0")
                .replace("modes = 8", "modes = 6, 5")
                .replace("index = 1\n", "index = 1, 0\n")
                .replace("index = 2\n", "index = 1, 2\n")
                .replace("t_end = 0.5", "t_end = 0.2"))
        outs = []
        for workers in (1, 2):
            f = tmp_path / f"w{workers}.cfg"
            f.write_text(text.replace("ensemble_m = 3",
                                      f"ensemble_m = 3\nworkers = {workers}"))
            outs.append(tmp_path / f"out{workers}")
            assert run_command(["ensemble", "--config", str(f),
                                "--output-dir", str(outs[-1]), "--quiet"]) == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        report = json.loads((outs[0] / "report.json").read_text())
        assert report["config"]["grid"]["modes"] == [6, 5] and report["paths"] == 3
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


class TestExperimentValues:
    @pytest.mark.parametrize("command,edit,key", [
        ("ensemble", ("moment_powers = 1, 2", "moment_powers = 1, 0.5"), "moment_powers"),
        ("invariant", ("tightness_r = 0.5, 1, 2", "tightness_r = 0.5, -1"),
         "tightness_r"),
    ])
    def test_bad_value_exits_2_at_parse_time(self, tmp_path, capsys, command, edit,
                                             key):
        code, out = run_text(tmp_path, command, BASE.replace(*edit))
        assert code == 2
        assert f"configuration error: experiment.{key}: each must be" in (
            capsys.readouterr().err)
        assert not out.exists()


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

    @pytest.mark.parametrize("edit,key", [
        (("t_end = 0.5", "t_end = 0.2"), "burn_in"),  # default start 0.05 < 0.1
        (("burn_in = 0.1", "burn_in = 0.1\nwindows = 0.1:0.3, 0.3:0.6"), "windows"),
        (("burn_in = 0.1", "burn_in = 0.3\nwindows = 0.3:0.4, 0.4:0.5"), "burn_in"),
    ], ids=["default_before_burn_in", "explicit_past_t_end", "explicit_burn_in_too_long"])
    def test_bad_windows_exit_2_before_any_path(self, tmp_path, capsys, monkeypatch,
                                                edit, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(BASE.replace(*edit))

        def no_paths(*args, **kwargs):
            raise AssertionError("the ensemble ran")

        monkeypatch.setattr(sllbar.cli, "run_ensemble", no_paths)
        out = tmp_path / "out"
        assert run_command(["invariant", "--config", str(cfg),
                            "--output-dir", str(out), "--quiet"]) == 2
        assert f"configuration error: experiment.{key}:" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_window_without_a_sample_exits_2_before_any_path(self, tmp_path, capsys,
                                                              monkeypatch):
        # samples at t = 0, 0.3 and 0.5: the default window [0.125, 0.25) holds none
        def no_paths(*args, **kwargs):
            raise AssertionError("the ensemble ran")

        monkeypatch.setattr(sllbar.cli, "run_ensemble", no_paths)
        code, out = run_text(tmp_path, "invariant",
                             BASE.replace("record_every = 5", "record_every = 30"))
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error: solver.record_every: window (0.125, 0.25)" in err
        assert not out.exists() or not any(out.iterdir())

    def test_observable_key_its_kind_never_reads_exits_2(self, tmp_path, capsys):
        code, out = run_text(tmp_path, "invariant", BASE.replace(
            "scale = 2.0", "scale = 2.0\ncap = 0.001\nspace = H1\nindex = 7"))
        assert code == 2
        assert ("configuration error: observable.1.cap: not read by kind 'exp_neg_l2'"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_negative_burn_in_exits_2(self, tmp_path, capsys):
        """A window starting before t = 0 once passed with a negative burn-in."""
        text = ANNOTATED.read_text()
        old = "burn_in = 2.5"
        assert old in text
        code, out = run_text(tmp_path, "invariant", text.replace(
            old, "burn_in = -1.0\nwindows = -0.5:0.5"))
        assert code == 2
        assert ("configuration error: experiment.burn_in: must be >= 0"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_simulate_and_ensemble_ignore_the_windows(self, tmp_path):
        cfg = tmp_path / "short.cfg"
        cfg.write_text(BASE.replace("t_end = 0.5", "t_end = 0.2"))
        for command in ("simulate", "ensemble"):
            assert run_command([command, "--config", str(cfg), "--output-dir",
                                str(tmp_path / command), "--quiet"]) == 0


class TestConverge:
    def test_dt_and_refinement_tables(self, cfg_file, tmp_path):
        out = tmp_path / "out"
        assert run_command(["converge", "--config", cfg_file,
                            "--output-dir", str(out), "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        gaps = report["dt_study"]["mean_l2_gap_to_next_level"]
        assert len(gaps) == 2 and gaps[0] > gaps[1]
        assert "4->8" in report["refinement_gaps"]

    def test_outputs_identical_at_one_and_two_workers(self, tmp_path):
        outs = []
        for workers in (1, 2):
            f = tmp_path / f"w{workers}.cfg"
            f.write_text(BASE.replace("ensemble_m = 3",
                                      f"ensemble_m = 3\nworkers = {workers}"))
            outs.append(tmp_path / f"out{workers}")
            assert run_command(["converge", "--config", str(f),
                                "--output-dir", str(outs[-1]), "--quiet"]) == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


ANNOTATED = Path(__file__).resolve().parents[1] / "demos" / "configs" / "annotated.cfg"


class TestConfigErrorsLeaveNoDirectory:
    """A config that a command rejects before stepping leaves no output
    directory behind, but never removes one the user already had."""

    @pytest.mark.parametrize("command,old,new", [
        ("invariant", "record_every = 10", "record_every = 600"),
        ("converge", "refine_levels = 8, 16, 32", "refine_levels = 16, 8, 32"),
    ], ids=["invariant_window_without_sample", "converge_parse_time"])
    def test_fresh_directory_removed(self, tmp_path, capsys, command, old, new):
        text = ANNOTATED.read_text()
        assert old in text
        code, out = run_text(tmp_path, command, text.replace(old, new))
        assert code == 2
        assert "configuration error: " in capsys.readouterr().err
        assert not out.exists()

    def test_converge_level_check_removes_fresh_directory(self, tmp_path, capsys):
        # the coarsest refine level is checked after the directory is made
        text = TestConvergeConfigChecks.grid_sized_snapshot(tmp_path)
        code, out = run_text(tmp_path, "converge", text)
        assert code == 2
        assert "experiment.refine_levels: level 4" in capsys.readouterr().err
        assert not out.exists()

    def test_existing_empty_directory_survives(self, tmp_path):
        text = ANNOTATED.read_text().replace("record_every = 10", "record_every = 600")
        (tmp_path / "out").mkdir()
        code, out = run_text(tmp_path, "invariant", text)
        assert code == 2
        assert out.is_dir() and not any(out.iterdir())


def run_text(tmp_path, command, text):
    f = tmp_path / "run.cfg"
    f.write_text(text)
    out = tmp_path / "out"
    return run_command([command, "--config", str(f), "--output-dir", str(out),
                        "--quiet"]), out


MODE_6 = "type = modes\n\n[initial.mode.1]\nindex = 6\namplitude = 0.1, 0, 0"


class TestConvergeConfigChecks:
    """A converge study that cannot run is a configuration error before any
    stepping, not a traceback after the dt study."""

    @pytest.mark.parametrize("old,new", [
        ("refine_levels = 4, 8", "refine_levels = 16, 8"),
        ("refine_levels = 4, 8", "refine_levels = 0, 16"),
        ("refine_levels = 4, 8", "refine_levels = 8, 8"),
        ("dt_halvings = 2", "dt_halvings = -1"),
    ], ids=["decreasing", "zero", "repeated", "negative_halvings"])
    def test_bad_study_exits_2(self, tmp_path, capsys, old, new):
        code, out = run_text(tmp_path, "converge",
                             BASE.replace("modes = 8", "modes = 16").replace(old, new))
        assert code == 2
        assert "configuration error: experiment." in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.fixture
    def no_dt_study(self, monkeypatch):
        """Fails the test if converge starts its dt study."""
        def no_stepping(*args, **kwargs):
            raise AssertionError("dt study started")

        monkeypatch.setattr("sllbar.cli.strong_convergence_gaps", no_stepping)

    # each makes a refine level too coarse for the initial or the noise modes
    INITIAL_MODE_6 = (BASE.replace("modes = 8", "modes = 16")
                      .replace("refine_levels = 4, 8", "refine_levels = 4, 16")
                      .replace("type = constant\nvector = 0.2, 0, 0", MODE_6))
    NOISE_MODE_2 = BASE.replace("refine_levels = 4, 8", "refine_levels = 2, 8")

    def test_initial_mode_outside_coarsest_level(self, tmp_path, capsys, no_dt_study):
        code, out = run_text(tmp_path, "converge", self.INITIAL_MODE_6)
        assert code == 2
        assert not (out / "report.json").exists()
        err = capsys.readouterr().err
        assert "configuration error: experiment.refine_levels: level 4: mode index 6" in err

    @staticmethod
    def grid_sized_snapshot(tmp_path):
        """BASE on a 16-mode grid, started from a snapshot saved on that grid."""
        snap = tmp_path / "state.snap"
        grid = Grid(1, (np.pi,), (16,))
        write_snapshot(eigenmode_field(grid, (12,), (0.1, 0, 0)), snap, grid)
        return (BASE.replace("modes = 8", "modes = 16")
                .replace("type = constant\nvector = 0.2, 0, 0",
                         f"type = snapshot\npath = {snap}"))

    def test_snapshot_outside_coarsest_level(self, tmp_path, capsys, no_dt_study):
        """converge reads the snapshot on its coarsest level before the dt study."""
        code, out = run_text(tmp_path, "converge", self.grid_sized_snapshot(tmp_path))
        assert code == 2
        assert not (out / "report.json").exists()
        err = capsys.readouterr().err
        assert ("configuration error: experiment.refine_levels: level 4: "
                "initial.path: snapshot has more modes than grid") in err

    @pytest.mark.parametrize("command", ["simulate", "ensemble", "invariant", "check"])
    def test_grid_sized_snapshot_runs_other_commands(self, tmp_path, command):
        """Only converge builds on the refine levels, so a snapshot, initial
        modes or noise modes too fine for the coarsest one still run the rest."""
        for case, text in (("snapshot", self.grid_sized_snapshot(tmp_path)),
                           ("initial", self.INITIAL_MODE_6),
                           ("noise", self.NOISE_MODE_2)):
            # invariant's default windows need samples in (T/4, T/2) past burn_in
            text = (text.replace("t_end = 0.5", "t_end = 0.05")
                    .replace("record_every = 5", "record_every = 1")
                    .replace("burn_in = 0.1", "burn_in = 0.01"))
            (tmp_path / case).mkdir()
            code, out = run_text(tmp_path / case, command, text)
            assert code == 0, case
            assert (out / "report.json").exists()

    def test_missing_snapshot_is_io_error(self, tmp_path, capsys):
        text = BASE.replace("type = constant\nvector = 0.2, 0, 0",
                            f"type = snapshot\npath = {tmp_path / 'absent.snap'}")
        assert run_text(tmp_path, "converge", text)[0] == 4
        assert "I/O error:" in capsys.readouterr().err

    def test_noise_mode_outside_coarsest_level(self, tmp_path, capsys, no_dt_study):
        code, out = run_text(tmp_path, "converge", self.NOISE_MODE_2)
        assert code == 2
        assert not (out / "report.json").exists()
        assert "experiment.refine_levels: level 2:" in capsys.readouterr().err


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("old,new,message", [
        ("seed = 7", "seed = 7\nblowup_k = nan", "solver: blowup_K"),
        ("beta2 = 1.0", "beta2 = nan", "params.beta2: not a finite number"),
        ("t_end = 0.5", "t_end = inf", "solver.t_end: not a finite number"),
        ("dt = 0.01", "dt = nan", "solver.dt: not a finite number"),
    ], ids=["blowup_k_nan", "beta2_nan", "t_end_inf", "dt_nan"])
    def test_simulate_exits_2(self, tmp_path, capsys, old, new, message):
        assert run_text(tmp_path, "simulate", BASE.replace(old, new))[0] == 2
        assert f"configuration error: {message}" in capsys.readouterr().err

    def test_blowup_k_inf_runs(self, tmp_path):
        code, out = run_text(tmp_path, "simulate",
                             BASE.replace("seed = 7", "seed = 7\nblowup_k = inf"))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["stop_events"][0]["stop_reason"] == "completed"


class TestUnreadInitialInput:
    def test_mode_sections_under_constant_exit_2(self, tmp_path, capsys):
        """Constant data never reads the section, whose amplitude is short."""
        text = BASE.replace("vector = 0.2, 0, 0", "vector = 0.2, 0, 0\n\n"
                            "[initial.mode.1]\nindex = 1\namplitude = 0.1, 0")
        code, out = run_text(tmp_path, "simulate", text)
        assert code == 2
        assert not (out / "report.json").exists()
        assert ("configuration error: initial.type: 'constant' but initial.mode.* "
                "sections present") in capsys.readouterr().err


class TestAbortIsOnlyBlowup:
    def test_broken_worker_pool_is_not_a_blowup(self, tmp_path, monkeypatch):
        """A crashed pool propagates instead of exiting 3 as a blow-up."""
        import concurrent.futures
        from concurrent.futures.process import BrokenProcessPool

        import sllbar.ensemble as ens

        class BrokenPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                raise BrokenProcessPool("worker died")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", BrokenPool)
        monkeypatch.setattr(ens.os, "cpu_count", lambda: 2)
        text = BASE.replace("ensemble_m = 3", "ensemble_m = 3\nworkers = 2")
        with pytest.raises(BrokenProcessPool):
            run_text(tmp_path, "ensemble", text)
