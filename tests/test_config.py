"""Config parsing: validation, defaults, echo round-trip."""

import json
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from sllbar.cli import run_command
from sllbar.config import (
    _KEYS,
    _OBSERVABLE_READS,
    ConfigError,
    ExperimentConfig,
    parse_config,
)
from sllbar.ensemble import OBSERVABLE_KINDS, Observable
from sllbar.grid import Grid, sobolev_norm
from sllbar.integrator import ConfigurationError, SolverConfig
from sllbar.model import ModelParams, TruncationConfig

ANNOTATED = Path(__file__).resolve().parents[1] / "demos" / "configs" / "annotated.cfg"

MINIMAL = """
[grid]
dim = 1
lengths = 3.141592653589793
modes = 8

[params]
beta1 = 1.0
beta2 = 1.0
beta3 = 1.0
beta4 = 1.0
beta5 = 1.0

[solver]
dt = 0.01
t_end = 1.0

[initial]
type = constant
vector = 0.5, 0, 0
"""


def write(tmp_path: Path, text: str) -> str:
    f = tmp_path / "run.cfg"
    f.write_text(text)
    return str(f)


class TestMinimal:
    def test_defaults_materialized(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL))
        echo = cfg.echo()
        assert echo["grid"]["pad_factor"] == 2.0
        assert echo["solver"]["scheme"] == "imex_em_ito"
        assert echo["solver"]["record_every"] == 1
        assert echo["solver"]["seed"] == 0
        assert echo["truncation"]["mode"] == "off"
        assert echo["noise"]["family"] == "none"
        assert echo["experiment"]["ensemble_m"] == 1
        assert cfg.build_noise().J == 0
        u0 = cfg.build_initial()
        assert sobolev_norm(cfg.grid, u0, 0) == pytest.approx(0.5 * math.sqrt(np.pi),
                                                              rel=1e-13)

    def test_defaults_come_from_dataclasses(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL))
        assert cfg.grid == Grid(1, (np.pi,), (8,))
        assert cfg.solver == SolverConfig(dt=0.01, t_end=1.0)
        assert cfg.experiment == ExperimentConfig()

    def test_observable_defaults_come_from_dataclass(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL + "\n[observable.1]\nkind = clip_norm\n"))
        assert cfg.experiment.observables == (Observable("clip_norm"),)

    def test_annotated_example_parses(self):
        cfg = parse_config("demos/configs/annotated.cfg")
        assert cfg.grid.modes == (16,)
        assert cfg.build_noise().J == 2
        assert len(cfg.experiment.observables) == 3

    def test_seed_override(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL))
        assert cfg.with_seed(99).solver.seed == 99


class TestBuiltOnce:
    """parse_config builds the noise model and initial field to check them,
    and every build_noise / build_initial on the config's grid returns
    those."""

    NOISY = MINIMAL + ("\n[noise]\nfamily = eigenmode\n"
                       "[noise.mode.1]\nsigma = 0.5\nindex = 1\ndirection = 0,0,1\n")

    def counted(self, monkeypatch, name):
        import sllbar.config as config

        calls = []
        original = getattr(config, name)
        monkeypatch.setattr(config, name, lambda *a: calls.append(a) or original(*a))
        return calls

    def test_one_parse_and_both_builds_build_once(self, tmp_path, monkeypatch):
        noise_calls = self.counted(monkeypatch, "build_noise_modes")
        initial_calls = self.counted(monkeypatch, "build_initial")
        cfg = parse_config(write(tmp_path, self.NOISY))
        noise, u0 = cfg.build_noise(), cfg.build_initial()
        assert len(noise_calls) == len(initial_calls) == 1
        assert cfg.build_noise() is noise and cfg.build_initial() is u0
        assert len(noise_calls) == len(initial_calls) == 1

    def test_equal_grid_and_seeded_copy_share_the_built_objects(self, tmp_path,
                                                                monkeypatch):
        noise_calls = self.counted(monkeypatch, "build_noise_modes")
        cfg = parse_config(write(tmp_path, self.NOISY))
        seeded = cfg.with_seed(5)
        noise = seeded.build_noise(cfg.grid.with_modes((8,)))
        assert len(noise_calls) == 1
        assert cfg.build_noise() is noise and len(noise_calls) == 1

    def test_other_grid_builds_anew(self, tmp_path, monkeypatch):
        noise_calls = self.counted(monkeypatch, "build_noise_modes")
        cfg = parse_config(write(tmp_path, self.NOISY))
        coarse = cfg.grid.with_modes((4,))
        assert cfg.build_noise(coarse).grid == coarse
        assert cfg.build_initial(coarse).shape == (3, 4)
        assert len(noise_calls) == 2

    def test_kept_initial_field_is_read_only(self):
        u0 = parse_config(str(ANNOTATED)).build_initial()
        with pytest.raises(ValueError, match="read-only"):
            u0[0, 0] = 1.0


class TestRejections:
    def test_negative_beta2(self, tmp_path):
        bad = MINIMAL.replace("beta2 = 1.0", "beta2 = -1.0")
        with pytest.raises(ConfigError, match="beta2"):
            parse_config(write(tmp_path, bad))

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one(self, tmp_path, workers):
        bad = MINIMAL + f"\n[experiment]\nworkers = {workers}\n"
        with pytest.raises(ConfigError, match="experiment.workers"):
            parse_config(write(tmp_path, bad))

    @pytest.mark.parametrize("pad", ["1.0", "1.5", "1.99"])
    def test_pad_factor_below_two(self, tmp_path, pad):
        # the padded grid would alias the cubic terms; Grid itself allows it
        bad = MINIMAL.replace("modes = 8", f"modes = 8\npad_factor = {pad}")
        with pytest.raises(ConfigError, match="^grid.pad_factor: must be >= 2; .* alias"):
            parse_config(write(tmp_path, bad))
        assert Grid(1, (np.pi,), (8,), pad_factor=float(pad)).pad_factor < 2
        ok = MINIMAL.replace("modes = 8", "modes = 8\npad_factor = 3")
        assert parse_config(write(tmp_path, ok)).grid.padded == (24,)

    def test_t_end_not_whole_steps(self, tmp_path):
        bad = MINIMAL.replace("dt = 0.01", "dt = 0.3")
        with pytest.raises(ConfigError, match="solver: t_end"):
            parse_config(write(tmp_path, bad))

    @pytest.mark.parametrize("seed", ["-3", str(2**64)])
    def test_seed_outside_uint64(self, tmp_path, seed):
        bad = MINIMAL.replace("t_end = 1.0", f"t_end = 1.0\nseed = {seed}")
        with pytest.raises(ConfigError, match="solver: seed"):
            parse_config(write(tmp_path, bad))

    def test_largest_seed_accepted(self, tmp_path):
        ok = MINIMAL.replace("t_end = 1.0", f"t_end = 1.0\nseed = {2**64 - 1}")
        assert parse_config(write(tmp_path, ok)).solver.seed == 2**64 - 1

    def test_unknown_key(self, tmp_path):
        bad = MINIMAL + "\n[experiment]\nwalkers = 3\n"
        with pytest.raises(ConfigError, match="walkers"):
            parse_config(write(tmp_path, bad))

    def test_snapshot_every_is_not_a_key(self, tmp_path, capsys):
        """No command writes snapshots, so a file cannot ask for them."""
        path = write(tmp_path, MINIMAL.replace("t_end = 1.0",
                                               "t_end = 1.0\nsnapshot_every = 1"))
        with pytest.raises(ConfigError, match="^solver.snapshot_every: unknown key$"):
            parse_config(path)
        assert run_command(["simulate", "--config", path, "--output-dir",
                            str(tmp_path / "out"), "--quiet"]) == 2
        assert ("configuration error: solver.snapshot_every: unknown key"
                in capsys.readouterr().err)

    def test_unknown_section(self, tmp_path):
        bad = MINIMAL + "\n[turbo]\nx = 1\n"
        with pytest.raises(ConfigError, match="turbo"):
            parse_config(write(tmp_path, bad))

    @pytest.mark.parametrize("body", ["seed = 3\n", ""], ids=["with_key", "empty"])
    def test_default_section_rejected(self, tmp_path, body, capsys):
        """configparser merges [DEFAULT] into every section, which once
        reported ``seed = 3`` there as ``grid.seed: unknown key``."""
        path = write(tmp_path, f"[DEFAULT]\n{body}" + MINIMAL)
        with pytest.raises(ConfigError, match="^DEFAULT: unknown section$"):
            parse_config(path)
        assert run_command(["simulate", "--config", path, "--output-dir",
                            str(tmp_path / "out"), "--quiet"]) == 2
        assert "DEFAULT: unknown section" in capsys.readouterr().err

    def test_truncation_on_without_radius(self, tmp_path):
        bad = MINIMAL + "\n[truncation]\nmode = on\n"
        with pytest.raises(ConfigError, match="radius"):
            parse_config(write(tmp_path, bad))

    def test_noise_mode_outside_grid(self, tmp_path):
        bad = MINIMAL + (
            "\n[noise]\nfamily = eigenmode\n"
            "[noise.mode.1]\nsigma = 1.0\nindex = 12\ndirection = 0,0,1\n"
        )
        with pytest.raises(ConfigError, match="noise"):
            parse_config(write(tmp_path, bad))

    @pytest.mark.parametrize("index_line", [
        "index = 99\n", "index = 0, 1\n", "index = -1\n", "",
    ], ids=["out_of_range", "wrong_length", "negative", "missing"])
    def test_tanh_mode_index_checked_against_grid(self, tmp_path, index_line):
        bad = MINIMAL + (
            "\n[observable.1]\nkind = clip_norm\n"
            f"\n[observable.2]\nkind = tanh_mode\n{index_line}"
        )
        with pytest.raises(ConfigError, match=r"^observable\.2: mode index"):
            parse_config(write(tmp_path, bad))

    def test_bad_vector_length(self, tmp_path):
        bad = MINIMAL.replace("vector = 0.5, 0, 0", "vector = 0.5, 0")
        with pytest.raises(ConfigError, match="vector"):
            parse_config(write(tmp_path, bad))

    def test_parse_error_reports_line(self, tmp_path):
        bad = MINIMAL + "\nthis is not a key value pair\n"
        with pytest.raises(ConfigError, match="parse error"):
            parse_config(write(tmp_path, bad))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(str(tmp_path / "absent.cfg"))

    def test_dt_exceeding_horizon(self, tmp_path):
        bad = MINIMAL.replace("dt = 0.01", "dt = 2.0")
        with pytest.raises(ConfigError, match="solver"):
            parse_config(write(tmp_path, bad))

    def test_observable_without_kind(self, tmp_path):
        bad = MINIMAL + "\n[observable.1]\nscale = 2.0\n"
        with pytest.raises(ConfigError, match=r"^observable\.1\.kind: missing required key$"):
            parse_config(write(tmp_path, bad))

    @pytest.mark.parametrize("initial, message", [
        ("type = constant\nvector = 0.5, 0, 0\n[initial.mode.1]\nindex = 1\n"
         "amplitude = 0.1, 0",
         "initial.type: 'constant' but initial.mode.* sections present"),
        ("vector = 0.5, 0, 0\n[initial.mode.1]\nindex = 1\namplitude = 0.1, 0, 0",
         "initial.type: 'constant' but initial.mode.* sections present"),
        ("type = modes\nvector = 0.5, 0, 0\n[initial.mode.1]\nindex = 1\n"
         "amplitude = 0.1, 0, 0",
         "initial.vector: not read by type 'modes'"),
        ("type = snapshot\npath = state.snap\nvector = 0.5, 0, 0",
         "initial.vector: not read by type 'snapshot'"),
        ("type = constant\nvector = 0.5, 0, 0\npath = state.snap",
         "initial.path: not read by type 'constant'"),
        ("type = snapshot\npath = state.snap\n[initial.mode.1]\nindex = 1\n"
         "amplitude = 0.1, 0, 0",
         "initial.type: 'snapshot' but initial.mode.* sections present"),
    ], ids=["modes_under_constant", "modes_under_default", "vector_under_modes",
            "vector_under_snapshot", "path_under_constant", "modes_under_snapshot"])
    def test_initial_input_the_type_never_reads(self, tmp_path, initial, message):
        """Such input used to parse and be silently ignored."""
        bad = MINIMAL.replace("type = constant\nvector = 0.5, 0, 0", initial)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(write(tmp_path, bad))


    @pytest.mark.parametrize("observable, message", [
        ("kind = exp_neg_l2\ncap = 0.001\nspace = H1\nindex = 7",
         "observable.1.cap: not read by kind 'exp_neg_l2'"),
        ("kind = exp_neg_l2\nscale = 2.0\ncomponent = 1",
         "observable.1.component: not read by kind 'exp_neg_l2'"),
        ("kind = clip_norm\nscale = 2.0",
         "observable.1.scale: not read by kind 'clip_norm'"),
        ("kind = clip_norm\nspace = H1\nindex = 1",
         "observable.1.index: not read by kind 'clip_norm'"),
        ("kind = tanh_mode\nindex = 1\ncap = 3.0",
         "observable.1.cap: not read by kind 'tanh_mode'"),
        ("kind = tanh_mode\nindex = 1\nspace = L2",
         "observable.1.space: not read by kind 'tanh_mode'"),
    ], ids=["cap_space_index_under_exp_neg_l2", "component_under_exp_neg_l2",
            "scale_under_clip_norm", "index_under_clip_norm", "cap_under_tanh_mode",
            "space_under_tanh_mode"])
    def test_observable_input_the_kind_never_reads(self, tmp_path, observable, message):
        """Such input used to parse, and the report echoed it as if it took effect;
        the first such key in file order is named."""
        bad = MINIMAL + f"\n[observable.1]\n{observable}\n"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(write(tmp_path, bad))

    def test_unknown_observable_kind_is_named(self, tmp_path):
        bad = MINIMAL + "\n[observable.1]\nkind = l1\ncap = 3.0\n"
        with pytest.raises(ConfigError, match="^observable.1: unknown observable kind 'l1'$"):
            parse_config(write(tmp_path, bad))


class TestExperimentChecks:
    @pytest.mark.parametrize("kwargs, field", [
        ({"ensemble_m": 0}, "ensemble_m"),
        ({"workers": 0}, "workers"),
        ({"windows": ((0.5, 0.25),)}, "windows"),
        ({"windows": ((0.1, 0.2, 0.3),)}, "windows"),
        ({"dt_halvings": -1}, "dt_halvings"),
        ({"refine_levels": (16, 8)}, "refine_levels"),
        ({"refine_levels": (8, 8)}, "refine_levels"),
        ({"refine_levels": (0, 16)}, "refine_levels"),
        ({"refine_levels": (-4,)}, "refine_levels"),
        ({"moment_powers": (1.0, 0.5)}, "moment_powers"),
        ({"tightness_r": (1.0, -1.0)}, "tightness_r"),
    ])
    def test_library_rejects(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field}: "):
            ExperimentConfig(**kwargs)

    def test_config_message_keeps_section_prefix(self, tmp_path):
        bad = MINIMAL + "\n[experiment]\nensemble_m = 0\n"
        with pytest.raises(ConfigError, match="^experiment.ensemble_m: must be >= 1$"):
            parse_config(write(tmp_path, bad))


    def test_study_accepted(self):
        exp = ExperimentConfig(dt_halvings=0, refine_levels=(1, 2, 64))
        assert exp.refine_levels == (1, 2, 64)


STUDY = MINIMAL + """
[experiment]
refine_levels = 4, 8
"""


class TestRefineLevelsBuild:
    """The noise and the initial data are built on the coarsest refine level
    at parse time, so converge fails before stepping."""

    def test_initial_mode_outside_coarsest(self, tmp_path):
        text = STUDY.replace("type = constant\nvector = 0.5, 0, 0",
                             "type = modes\n[initial.mode.1]\nindex = 6\n"
                             "amplitude = 0.1, 0, 0")
        with pytest.raises(ConfigError, match="^experiment.refine_levels: level 4: "
                                              "mode index 6"):
            parse_config(write(tmp_path, text))

    def test_noise_mode_outside_coarsest(self, tmp_path):
        text = STUDY + """
[noise]
family = eigenmode

[noise.mode.1]
sigma = 0.1
index = 5
direction = 1, 0, 0
"""
        with pytest.raises(ConfigError, match="^experiment.refine_levels: level 4:"):
            parse_config(write(tmp_path, text))

    def test_fitting_study_accepted(self, tmp_path):
        text = STUDY.replace("type = constant\nvector = 0.5, 0, 0",
                             "type = modes\n[initial.mode.1]\nindex = 3\n"
                             "amplitude = 0.1, 0, 0")
        assert parse_config(write(tmp_path, text)).experiment.refine_levels == (4, 8)


class TestNonFinite:
    """NaN is rejected everywhere; inf everywhere except blowup_k."""

    CASES = [
        ("beta1 = 1.0", "beta1 = -inf", "params.beta1"),
        ("beta2 = 1.0", "beta2 = nan", "params.beta2"),
        ("dt = 0.01", "dt = nan", "solver.dt"),
        ("t_end = 1.0", "t_end = inf", "solver.t_end"),
        ("lengths = 3.141592653589793", "lengths = inf", "grid.lengths"),
        ("modes = 8", "modes = 8\npad_factor = nan", "grid.pad_factor"),
        ("vector = 0.5, 0, 0", "vector = 0.5, nan, 0", "initial.vector"),
        ("t_end = 1.0", "t_end = 1.0\n[truncation]\nmode = on\nradius = inf",
         "truncation.radius"),
        ("t_end = 1.0", "t_end = 1.0\n[experiment]\nburn_in = nan",
         "experiment.burn_in"),
        ("t_end = 1.0", "t_end = 1.0\n[experiment]\nwindows = 0:inf",
         "experiment.windows"),
        ("t_end = 1.0", "t_end = 1.0\n[experiment]\ntightness_r = 1, nan",
         "experiment.tightness_r"),
        ("t_end = 1.0", "t_end = 1.0\n[observable.1]\nkind = clip_norm\ncap = inf",
         "observable.1.cap"),
    ]

    @pytest.mark.parametrize("old,new,where", CASES, ids=[c[2] for c in CASES])
    def test_rejected(self, tmp_path, old, new, where):
        with pytest.raises(ConfigError, match=f"^{where}: (not a finite number|bad window list)"):
            parse_config(write(tmp_path, MINIMAL.replace(old, new)))

    def test_blowup_k_nan_rejected(self, tmp_path):
        bad = MINIMAL.replace("t_end = 1.0", "t_end = 1.0\nblowup_k = nan")
        with pytest.raises(ConfigError, match="^solver: blowup_K must be positive"):
            parse_config(write(tmp_path, bad))

    def test_blowup_k_inf_accepted(self, tmp_path):
        ok = MINIMAL.replace("t_end = 1.0", "t_end = 1.0\nblowup_k = inf")
        assert parse_config(write(tmp_path, ok)).solver.blowup_K == math.inf

    @pytest.mark.parametrize("kwargs", [
        {"dt": math.nan}, {"dt": math.inf}, {"t_end": math.nan},
        {"t_end": math.inf}, {"blowup_K": math.nan},
    ], ids=["dt_nan", "dt_inf", "t_end_nan", "t_end_inf", "blowup_K_nan"])
    def test_solver_config_library(self, kwargs):
        with pytest.raises(ConfigurationError):
            SolverConfig(**{"dt": 0.01, "t_end": 1.0, **kwargs})

    @pytest.mark.parametrize("name", ["beta1", "beta2", "beta5"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_model_params_library(self, name, value):
        betas = {f"beta{i}": 1.0 for i in range(1, 6)}
        with pytest.raises(ValueError, match=f"^{name}: must be finite"):
            ModelParams(**{**betas, name: value})


# windows, an observable mode index and a radius that mode = off ignores
FULL = MINIMAL + """
[truncation]
mode = off
radius = 5.0

[experiment]
windows = 0.25:0.5,0.5:1
workers = 2

[observable.1]
kind = tanh_mode
index = 3
component = 2
"""


class TestEcho:
    def test_report_round_trip(self, tmp_path):
        path = write(tmp_path, FULL)
        out = tmp_path / "out"
        assert run_command(["check", "--config", path, "--output-dir", str(out),
                            "--quiet"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"] == parse_config(path).echo()

    def test_deliberate_exceptions(self, tmp_path):
        echo = parse_config(write(tmp_path, FULL)).echo()
        assert echo["truncation"] == {"mode": "off", "radius": None}
        assert echo["solver"]["blowup_K"] is None
        assert "truncation" not in echo["solver"]
        assert "workers" not in echo["experiment"]
        assert echo["experiment"]["windows"] == [[0.25, 0.5], [0.5, 1.0]]
        assert echo["experiment"]["observables"] == [{
            "kind": "tanh_mode", "index": [3], "component": 2,
            "scale": 1.0, "space": "L2", "cap": 1.0,
        }]

    def test_sections_list_every_field(self, tmp_path):
        echo = parse_config(write(tmp_path, MINIMAL)).echo()
        assert set(echo) == {"grid", "params", "truncation", "solver", "noise",
                             "initial", "experiment"}
        assert set(echo["solver"]) == {
            "dt", "t_end", "scheme", "blowup_K", "record_every", "seed",
            "substeps", "snapshot_every",
        }
        assert set(echo["experiment"]) == {
            "ensemble_m", "burn_in", "windows", "tightness_r", "moment_powers",
            "dt_halvings", "refine_levels", "observables",
        }


class TestStructuredSpecs:
    def test_eigenmode_noise_and_modes_initial(self, tmp_path):
        text = MINIMAL.replace(
            "[initial]\ntype = constant\nvector = 0.5, 0, 0",
            "[initial]\ntype = modes\n\n[initial.mode.1]\nindex = 1\n"
            "amplitude = 0.1, 0, 0\n\n[initial.mode.2]\nindex = 3\n"
            "amplitude = 0, 0.2, 0",
        ) + (
            "\n[noise]\nfamily = eigenmode\nc_h_bound = 9.0\n"
            "[noise.mode.1]\nsigma = 0.5\nindex = 1\ndirection = 0,0,1\n"
        )
        cfg = parse_config(write(tmp_path, text))
        u0 = cfg.build_initial()
        assert u0[0, 1] == pytest.approx(0.1)
        assert u0[1, 3] == pytest.approx(0.2)
        nm = cfg.build_noise()
        assert nm.J == 1 and nm.c_h_bound == 9.0

    def test_windows_and_observables(self, tmp_path):
        text = MINIMAL + (
            "\n[experiment]\nensemble_m = 4\nburn_in = 0.2\nwindows = 0.25:0.5,0.5:1\n"
            "tightness_r = 1, 2\nmoment_powers = 1, 2\n"
            "\n[observable.1]\nkind = exp_neg_l2\nscale = 2.0\n"
        )
        cfg = parse_config(write(tmp_path, text))
        assert cfg.experiment.windows == ((0.25, 0.5), (0.5, 1.0))
        assert cfg.experiment.observables[0].name.startswith("exp_neg_l2")

    def test_bad_window_order(self, tmp_path):
        text = MINIMAL + "\n[experiment]\nwindows = 0.5:0.25\n"
        with pytest.raises(ConfigError, match="windows"):
            parse_config(write(tmp_path, text))

    def test_numbered_sections_must_be_contiguous(self, tmp_path):
        text = MINIMAL + (
            "\n[noise]\nfamily = eigenmode\n"
            "[noise.mode.2]\nsigma = 0.5\nindex = 1\ndirection = 0,0,1\n"
        )
        with pytest.raises(ConfigError, match="numbered"):
            parse_config(write(tmp_path, text))


class TestSchema:
    """``config._KEYS`` is the one list of sections and keys."""

    @pytest.mark.parametrize("section, cls, renamed, not_keys", [
        ("grid", Grid, {}, ()),
        ("params", ModelParams, {}, ()),
        ("truncation", TruncationConfig, {}, ()),
        ("solver", SolverConfig, {"blowup_k": "blowup_K"},
         ("truncation", "snapshot_every")),
        ("experiment", ExperimentConfig, {}, ("observables",)),
        ("observable.", Observable, {"index": "mode_index"}, ()),
    ], ids=["grid", "params", "truncation", "solver", "experiment", "observable"])
    def test_keys_are_dataclass_fields(self, section, cls, renamed, not_keys):
        """Up to the renames, a section's keys are its dataclass's init fields,
        less the ones the parser fills: the solver carries the truncation
        section, and observables come from the numbered sections. No command
        writes snapshots, so ``snapshot_every`` is the diagnostics' own and
        has no key."""
        keys = {renamed.get(key, key) for key in _KEYS[section]}
        assert keys == {f.name for f in fields(cls) if f.init} - set(not_keys)

    def test_observable_reads_cover_every_kind(self):
        """``config._OBSERVABLE_READS`` names each kind's keys from the schema."""
        assert set(_OBSERVABLE_READS) == set(OBSERVABLE_KINDS)
        for keys in _OBSERVABLE_READS.values():
            assert set(keys) < set(_KEYS["observable."]) - {"kind"}

    def test_annotated_example_names_every_key(self):
        """The README points to annotated.cfg as the format's documentation,
        so each key appears there, set or commented out, in its section."""
        found: dict[str, set[str]] = {}
        section = None
        for line in ANNOTATED.read_text().splitlines():
            line = line.lstrip("#; ")
            header = re.match(r"\[([a-z_.]+?)\d*\]", line)
            if header:
                section = header.group(1)
            elif section and (key := re.match(r"([a-z_0-9]+)\s*=", line)):
                found.setdefault(section, set()).add(key.group(1))
        assert set(found) == set(_KEYS)
        for section, keys in _KEYS.items():
            assert set(keys) <= found[section], section
