"""Run configuration: parsing, validation and echoing.

Configs are INI-style key-value text (see ``demos/configs/annotated.cfg``
for a complete annotated example). Every key is validated against a
whitelist, every default is materialized, and the fully resolved config is
echoed into each JSON report so a run can be reproduced bitwise from its
outputs.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace

import numpy as np

from .ensemble import Observable
from .grid import Grid, SpectralField, constant_field, eigenmode_field, zero_field
from .integrator import ConfigurationError, SolverConfig
from .model import ModelParams, TruncationConfig
from .noise import NoiseModel, build_noise_modes


class ConfigError(ValueError):
    """Invalid configuration file; the message carries the key path."""


_SECTION_KEYS = {
    "grid": {"dim", "lengths", "modes", "pad_factor"},
    "params": {"beta1", "beta2", "beta3", "beta4", "beta5"},
    "truncation": {"mode", "radius"},
    "solver": {
        "dt", "t_end", "scheme", "blowup_k", "record_every", "seed",
        "substeps", "snapshot_every",
    },
    "noise": {"family", "c_h_bound", "tail_estimate"},
    "initial": {"type", "vector", "path"},
    "experiment": {
        "ensemble_m", "burn_in", "windows", "tightness_r", "moment_powers",
        "workers", "dt_halvings", "refine_levels",
    },
}
_NOISE_MODE_KEYS = {"sigma", "index", "direction"}
_INITIAL_MODE_KEYS = {"index", "amplitude"}
_OBSERVABLE_KEYS = {"kind", "index", "component", "scale", "space", "cap"}


@dataclass(frozen=True)
class ExperimentConfig:
    ensemble_m: int = 1
    burn_in: float = 0.0
    windows: tuple[tuple[float, float], ...] | None = None
    tightness_r: tuple[float, ...] = ()
    moment_powers: tuple[float, ...] = (1.0,)
    workers: int = 1
    dt_halvings: int = 3
    refine_levels: tuple[int, ...] = ()
    observables: tuple[Observable, ...] = ()


@dataclass(frozen=True)
class RunConfig:
    grid: Grid
    params: ModelParams
    solver: SolverConfig
    noise_spec: dict
    initial_spec: dict
    experiment: ExperimentConfig

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, solver=replace(self.solver, seed=int(seed)))

    def build_noise(self, grid: Grid | None = None) -> NoiseModel:
        return build_noise_modes(self.noise_spec, grid or self.grid)

    def build_initial(self, grid: Grid | None = None) -> SpectralField:
        return build_initial(self.initial_spec, grid or self.grid)

    def echo(self) -> dict:
        """Fully materialized configuration (no hidden defaults)."""
        g, s, e = self.grid, self.solver, self.experiment
        return {
            "grid": {
                "dim": g.dim,
                "lengths": list(g.lengths),
                "modes": list(g.modes),
                "pad_factor": g.pad_factor,
            },
            "params": {
                "beta1": self.params.beta1,
                "beta2": self.params.beta2,
                "beta3": self.params.beta3,
                "beta4": self.params.beta4,
                "beta5": self.params.beta5,
            },
            "truncation": {
                "mode": s.truncation.mode,
                "radius": s.truncation.radius,
            },
            "solver": {
                "dt": s.dt,
                "t_end": s.t_end,
                "scheme": s.scheme,
                "blowup_K": None if math.isinf(s.blowup_K) else s.blowup_K,
                "record_every": s.record_every,
                "seed": s.seed,
                "substeps": s.substeps,
                "snapshot_every": s.snapshot_every,
            },
            "noise": _jsonable(self.noise_spec),
            "initial": _jsonable(self.initial_spec),
            # workers is an execution detail: any level gives identical
            # outputs, so it is deliberately not part of the echo
            "experiment": {
                "ensemble_m": e.ensemble_m,
                "burn_in": e.burn_in,
                "windows": [list(w) for w in e.windows] if e.windows else None,
                "tightness_r": list(e.tightness_r),
                "moment_powers": list(e.moment_powers),
                "dt_halvings": e.dt_halvings,
                "refine_levels": list(e.refine_levels),
                "observables": [_observable_echo(o) for o in e.observables],
            },
        }


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def _observable_echo(o: Observable) -> dict:
    return {
        "kind": o.kind,
        "index": list(o.mode_index),
        "component": o.component,
        "scale": o.scale,
        "space": o.space,
        "cap": o.cap,
    }


def build_initial(spec: dict, grid: Grid) -> SpectralField:
    """Initial datum from a descriptor: constant vector, eigenmode sum,
    or a coefficient snapshot file."""
    kind = spec.get("type", "constant")
    if kind == "constant":
        return constant_field(grid, spec["vector"])
    if kind == "modes":
        u = zero_field(grid)
        for mode in spec["modes"]:
            index = tuple(int(i) for i in np.atleast_1d(mode["index"]))
            u = u + eigenmode_field(grid, index, mode["amplitude"])
        return u
    if kind == "snapshot":
        from .io import read_snapshot

        u = read_snapshot(spec["path"], pad_factor=grid.pad_factor)
        if u.grid.lengths != grid.lengths or u.grid.dim != grid.dim:
            raise ConfigError("initial.path: snapshot box does not match grid")
        if u.grid.modes != grid.modes:
            from .grid import embed

            if all(a <= b for a, b in zip(u.grid.modes, grid.modes)):
                return embed(u, grid)
            raise ConfigError("initial.path: snapshot has more modes than grid")
        return u
    raise ConfigError(f"initial.type: unknown type {kind!r}")


class _Section:
    """Typed access to one config section with key-path error messages."""

    def __init__(self, parser: configparser.ConfigParser, name: str,
                 allowed: set[str]):
        self.name = name
        self.data = dict(parser[name]) if parser.has_section(name) else {}
        for key in self.data:
            if key not in allowed:
                raise ConfigError(f"{name}.{key}: unknown key")

    def has(self, key: str) -> bool:
        return key in self.data

    def _raw(self, key: str, default=None, required=False):
        if key not in self.data:
            if required:
                raise ConfigError(f"{self.name}.{key}: missing required key")
            return default
        return self.data[key]

    def get_float(self, key, default=None, required=False):
        raw = self._raw(key, default, required)
        if raw is None or isinstance(raw, float):
            return raw
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{self.name}.{key}: not a number: {raw!r}") from None

    def get_int(self, key, default=None, required=False):
        raw = self._raw(key, default, required)
        if raw is None or isinstance(raw, int):
            return raw
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{self.name}.{key}: not an integer: {raw!r}") from None

    def get_str(self, key, default=None, required=False):
        raw = self._raw(key, default, required)
        return raw if raw is None else str(raw).strip()

    def get_floats(self, key, default=None, required=False):
        raw = self._raw(key, default, required)
        if raw is None or isinstance(raw, tuple):
            return raw
        try:
            return tuple(float(x) for x in str(raw).split(","))
        except ValueError:
            raise ConfigError(f"{self.name}.{key}: not a number list: {raw!r}") from None

    def get_ints(self, key, default=None, required=False):
        raw = self._raw(key, default, required)
        if raw is None or isinstance(raw, tuple):
            return raw
        try:
            return tuple(int(x) for x in str(raw).split(","))
        except ValueError:
            raise ConfigError(f"{self.name}.{key}: not an integer list: {raw!r}") from None


def _numbered_sections(parser: configparser.ConfigParser, prefix: str) -> list[str]:
    found = []
    for name in parser.sections():
        if name.startswith(prefix):
            suffix = name[len(prefix):]
            if not suffix.isdigit():
                raise ConfigError(f"{name}: section suffix must be a number")
            found.append((int(suffix), name))
    found.sort()
    expected = list(range(1, len(found) + 1))
    if [i for i, _ in found] != expected:
        raise ConfigError(f"{prefix}* sections must be numbered 1..{len(found)}")
    return [name for _, name in found]


def parse_config(path: str) -> RunConfig:
    """Parse and fully validate a run configuration file."""
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";"), strict=True
    )
    try:
        with open(path) as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"parse error: {exc}") from exc

    known_prefixes = ("noise.mode.", "initial.mode.", "observable.")
    for name in parser.sections():
        if name in _SECTION_KEYS:
            continue
        if any(name.startswith(p) for p in known_prefixes):
            continue
        raise ConfigError(f"{name}: unknown section")

    # grid
    sec = _Section(parser, "grid", _SECTION_KEYS["grid"])
    if not parser.has_section("grid"):
        raise ConfigError("grid: missing section")
    dim = sec.get_int("dim", required=True)
    lengths = sec.get_floats("lengths", required=True)
    modes = sec.get_ints("modes", required=True)
    pad = sec.get_float("pad_factor", default=2.0)
    if dim in (1, 2, 3):
        if len(lengths) == 1 and dim > 1:
            lengths = lengths * dim
        if len(modes) == 1 and dim > 1:
            modes = modes * dim
    try:
        grid = Grid(dim, lengths, modes, pad)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc

    # params
    if not parser.has_section("params"):
        raise ConfigError("params: missing section")
    sec = _Section(parser, "params", _SECTION_KEYS["params"])
    betas = {k: sec.get_float(k, required=True)
             for k in ("beta1", "beta2", "beta3", "beta4", "beta5")}
    try:
        params = ModelParams(**betas)
    except ValueError as exc:
        raise ConfigError(f"params.{exc}") from exc

    # truncation
    sec = _Section(parser, "truncation", _SECTION_KEYS["truncation"])
    mode = sec.get_str("mode", default="off")
    radius = sec.get_float("radius")
    try:
        trunc = TruncationConfig(mode, radius if mode == "on" else None)
    except ValueError as exc:
        raise ConfigError(f"truncation.{exc}") from exc

    # solver
    if not parser.has_section("solver"):
        raise ConfigError("solver: missing section")
    sec = _Section(parser, "solver", _SECTION_KEYS["solver"])
    blowup = sec.get_float("blowup_k")
    try:
        solver = SolverConfig(
            dt=sec.get_float("dt", required=True),
            t_end=sec.get_float("t_end", required=True),
            scheme=sec.get_str("scheme", default="imex_em_ito"),
            blowup_K=math.inf if blowup is None else blowup,
            record_every=sec.get_int("record_every", default=1),
            seed=sec.get_int("seed", default=0),
            truncation=trunc,
            substeps=sec.get_int("substeps", default=1),
            snapshot_every=sec.get_int("snapshot_every"),
        )
    except ConfigurationError as exc:
        raise ConfigError(f"solver: {exc}") from exc

    # noise
    sec = _Section(parser, "noise", _SECTION_KEYS["noise"])
    family = sec.get_str("family", default="none")
    noise_spec: dict = {"family": family}
    if sec.has("c_h_bound"):
        noise_spec["c_h_bound"] = sec.get_float("c_h_bound")
    if sec.has("tail_estimate"):
        noise_spec["tail_estimate"] = sec.get_float("tail_estimate")
    mode_sections = _numbered_sections(parser, "noise.mode.")
    if family == "none":
        if mode_sections:
            raise ConfigError("noise.family: 'none' but noise.mode.* sections present")
    elif family == "eigenmode":
        if not mode_sections:
            raise ConfigError("noise: family 'eigenmode' needs noise.mode.* sections")
        modes_list = []
        for name in mode_sections:
            msec = _Section(parser, name, _NOISE_MODE_KEYS)
            modes_list.append({
                "sigma": msec.get_float("sigma", required=True),
                "index": msec.get_ints("index", required=True),
                "direction": msec.get_floats("direction", required=True),
            })
        noise_spec["modes"] = modes_list
    else:
        raise ConfigError(f"noise.family: unknown family {family!r}")
    try:
        build_noise_modes(noise_spec, grid)  # validate indices against the grid
    except ValueError as exc:
        raise ConfigError(f"noise: {exc}") from exc

    # initial data
    if not parser.has_section("initial"):
        raise ConfigError("initial: missing section")
    sec = _Section(parser, "initial", _SECTION_KEYS["initial"])
    itype = sec.get_str("type", default="constant")
    initial_spec: dict = {"type": itype}
    init_mode_sections = _numbered_sections(parser, "initial.mode.")
    if itype == "constant":
        vec = sec.get_floats("vector", required=True)
        if len(vec) != 3:
            raise ConfigError("initial.vector: need 3 components")
        initial_spec["vector"] = vec
    elif itype == "modes":
        if not init_mode_sections:
            raise ConfigError("initial: type 'modes' needs initial.mode.* sections")
        entries = []
        for name in init_mode_sections:
            msec = _Section(parser, name, _INITIAL_MODE_KEYS)
            amp = msec.get_floats("amplitude", required=True)
            if len(amp) != 3:
                raise ConfigError(f"{name}.amplitude: need 3 components")
            entries.append({
                "index": msec.get_ints("index", required=True),
                "amplitude": amp,
            })
        initial_spec["modes"] = entries
    elif itype == "snapshot":
        initial_spec["path"] = sec.get_str("path", required=True)
    else:
        raise ConfigError(f"initial.type: unknown type {itype!r}")
    if itype != "snapshot":
        try:
            build_initial(initial_spec, grid)
        except ValueError as exc:
            raise ConfigError(f"initial: {exc}") from exc

    # experiment
    sec = _Section(parser, "experiment", _SECTION_KEYS["experiment"])
    windows = None
    if sec.has("windows"):
        raw = sec.get_str("windows")
        try:
            windows = tuple(
                tuple(float(x) for x in part.split(":")) for part in raw.split(",")
            )
        except ValueError:
            raise ConfigError(f"experiment.windows: bad window list {raw!r}") from None
        if any(len(w) != 2 or w[0] >= w[1] for w in windows):
            raise ConfigError("experiment.windows: each window must be t0:t1 with t0 < t1")
    observables = []
    for name in _numbered_sections(parser, "observable."):
        osec = _Section(parser, name, _OBSERVABLE_KEYS)
        kind = osec.get_str("kind", required=True)
        try:
            observables.append(Observable(
                kind=kind,
                mode_index=osec.get_ints("index", default=()),
                component=osec.get_int("component", default=0),
                scale=osec.get_float("scale", default=1.0),
                space=osec.get_str("space", default="L2"),
                cap=osec.get_float("cap", default=1.0),
            ))
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from exc
    experiment = ExperimentConfig(
        ensemble_m=sec.get_int("ensemble_m", default=1),
        burn_in=sec.get_float("burn_in", default=0.0),
        windows=windows,
        tightness_r=sec.get_floats("tightness_r", default=()),
        moment_powers=sec.get_floats("moment_powers", default=(1.0,)),
        workers=sec.get_int("workers", default=1),
        dt_halvings=sec.get_int("dt_halvings", default=3),
        refine_levels=sec.get_ints("refine_levels", default=()),
        observables=tuple(observables),
    )
    if experiment.ensemble_m < 1:
        raise ConfigError("experiment.ensemble_m: must be >= 1")
    if experiment.workers < 1:
        raise ConfigError("experiment.workers: must be >= 1")

    return RunConfig(
        grid=grid,
        params=params,
        solver=solver,
        noise_spec=noise_spec,
        initial_spec=initial_spec,
        experiment=experiment,
    )
