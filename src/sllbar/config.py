"""Run configuration: parsing, validation and echoing.

Configs are INI-style key-value text (see ``demos/configs/annotated.cfg``
for a complete annotated example). The dataclasses are the schema:
``Grid``, ``ModelParams``, ``TruncationConfig``, ``SolverConfig``,
``ExperimentConfig`` and ``Observable`` own every default and every value
check, and the parser hands each of them only the keys a file sets. Keys
are checked against a whitelist, and ``RunConfig.echo`` writes the fully
resolved dataclasses into each JSON report, so a run can be reproduced
bitwise from its outputs.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .ensemble import Observable
from .grid import Grid, check_mode_index, constant_field, eigenmode_field, embed
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

    def __post_init__(self):
        if self.ensemble_m < 1:
            raise ValueError("ensemble_m: must be >= 1")
        if self.workers < 1:
            raise ValueError("workers: must be >= 1")
        if any(len(w) != 2 or w[0] >= w[1] for w in self.windows or ()):
            raise ValueError("windows: each window must be t0:t1 with t0 < t1")
        if self.dt_halvings < 0:
            raise ValueError("dt_halvings: must be >= 0")
        # 0 < first level < second level < ...
        levels = tuple(self.refine_levels)
        if any(a >= b for a, b in zip((0,) + levels, levels)):
            raise ValueError(
                "refine_levels: must be strictly increasing mode counts >= 1")


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

    def build_initial(self, grid: Grid | None = None) -> np.ndarray:
        return build_initial(self.initial_spec, grid or self.grid)

    def echo(self) -> dict:
        """Every field of the resolved config, one section per config
        section, with three deliberate exceptions noted below."""
        echo = _jsonable(asdict(self))
        echo["noise"] = echo.pop("noise_spec")
        echo["initial"] = echo.pop("initial_spec")
        solver, experiment = echo["solver"], echo["experiment"]
        echo["truncation"] = solver.pop("truncation")
        # JSON has no infinity: no blow-up threshold is echoed as null
        if math.isinf(self.solver.blowup_K):
            solver["blowup_K"] = None
        # workers is an execution detail: any level gives identical
        # outputs, so it is deliberately not part of the echo
        del experiment["workers"]
        # an observable's mode is echoed under its config key
        for obs in experiment["observables"]:
            obs["index"] = obs.pop("mode_index")
        return echo


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


def build_initial(spec: dict, grid: Grid) -> np.ndarray:
    """Initial coefficients on ``grid`` from a descriptor: constant vector,
    eigenmode sum, or a coefficient snapshot file."""
    kind = spec.get("type", "constant")
    if kind == "constant":
        return constant_field(grid, spec["vector"])
    if kind == "modes":
        u = np.zeros((3, *grid.modes))
        for mode in spec["modes"]:
            index = tuple(int(i) for i in np.atleast_1d(mode["index"]))
            u = u + eigenmode_field(grid, index, mode["amplitude"])
        return u
    if kind == "snapshot":
        from .io import SnapshotFormatError, read_snapshot

        try:
            snap_grid, u = read_snapshot(spec["path"], pad_factor=grid.pad_factor)
        except SnapshotFormatError as exc:
            raise ConfigError(f"initial.path: {exc}") from exc
        if snap_grid.lengths != grid.lengths or snap_grid.dim != grid.dim:
            raise ConfigError("initial.path: snapshot box does not match grid")
        if snap_grid.modes != grid.modes:
            if all(a <= b for a, b in zip(snap_grid.modes, grid.modes)):
                return embed(snap_grid, u, grid)
            raise ConfigError("initial.path: snapshot has more modes than grid")
        return u
    raise ConfigError(f"initial.type: unknown type {kind!r}")


def _float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(_float(x) for x in raw.split(","))


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(x) for x in raw.split(","))


def _windows(raw: str) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(_float(x) for x in part.split(":")) for part in raw.split(","))


# what a converter's ValueError says about the raw text; every number but
# blowup_k (whose default is inf) must be finite
_BAD_VALUE = {
    float: "not a number:",
    _float: "not a finite number:",
    int: "not an integer:",
    _floats: "not a finite number list:",
    _ints: "not an integer list:",
    _windows: "bad window list",
}


class _Section:
    """Typed access to one config section with key-path error messages."""

    def __init__(self, parser: configparser.ConfigParser, name: str,
                 allowed: set[str]):
        self.name = name
        self.data = dict(parser[name]) if parser.has_section(name) else {}
        for key in self.data:
            if key not in allowed:
                raise ConfigError(f"{name}.{key}: unknown key")

    def get(self, key, convert=str.strip, default=None, required=False):
        if key not in self.data:
            if required:
                raise ConfigError(f"{self.name}.{key}: missing required key")
            return default
        raw = self.data[key]
        try:
            return convert(raw)
        except ValueError:
            raise ConfigError(f"{self.name}.{key}: {_BAD_VALUE[convert]} {raw!r}") from None

    def given(self, **converters) -> dict:
        """Converted values of the keys the file sets. Absent keys are left
        out, so the dataclass receiving them supplies its own defaults."""
        return {key: self.get(key, convert)
                for key, convert in converters.items() if key in self.data}


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
    dim = sec.get("dim", int, required=True)
    lengths = sec.get("lengths", _floats, required=True)
    modes = sec.get("modes", _ints, required=True)
    if dim in (2, 3):
        if len(lengths) == 1:
            lengths = lengths * dim
        if len(modes) == 1:
            modes = modes * dim
    # convert before each try, whose handler would re-prefix a converter error
    optional = sec.given(pad_factor=_float)
    if optional.get("pad_factor", 2.0) < 2:
        raise ConfigError("grid.pad_factor: must be >= 2; a coarser padded grid "
                          "aliases the cubic terms")
    try:
        grid = Grid(dim, lengths, modes, **optional)
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc

    # params
    if not parser.has_section("params"):
        raise ConfigError("params: missing section")
    sec = _Section(parser, "params", _SECTION_KEYS["params"])
    betas = {f.name: sec.get(f.name, _float, required=True) for f in fields(ModelParams)}
    try:
        params = ModelParams(**betas)
    except ValueError as exc:
        raise ConfigError(f"params.{exc}") from exc

    # truncation; the radius is ignored while the cutoff is off
    sec = _Section(parser, "truncation", _SECTION_KEYS["truncation"])
    optional = sec.given(mode=str.strip, radius=_float)
    try:
        trunc = TruncationConfig(**optional)
    except ValueError as exc:
        raise ConfigError(f"truncation.{exc}") from exc
    if trunc.mode == "off":
        trunc = TruncationConfig.off()

    # solver
    if not parser.has_section("solver"):
        raise ConfigError("solver: missing section")
    sec = _Section(parser, "solver", _SECTION_KEYS["solver"])
    optional = sec.given(scheme=str.strip, blowup_k=float, record_every=int,
                         seed=int, substeps=int, snapshot_every=int)
    if "blowup_k" in optional:
        optional["blowup_K"] = optional.pop("blowup_k")
    try:
        solver = SolverConfig(
            dt=sec.get("dt", _float, required=True),
            t_end=sec.get("t_end", _float, required=True),
            truncation=trunc,
            **optional,
        )
    except ConfigurationError as exc:
        raise ConfigError(f"solver: {exc}") from exc

    # noise
    sec = _Section(parser, "noise", _SECTION_KEYS["noise"])
    family = sec.get("family", default="none")
    noise_spec: dict = {"family": family,
                        **sec.given(c_h_bound=_float, tail_estimate=_float)}
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
                "sigma": msec.get("sigma", _float, required=True),
                "index": msec.get("index", _ints, required=True),
                "direction": msec.get("direction", _floats, required=True),
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
    itype = sec.get("type", default="constant")
    initial_spec: dict = {"type": itype}
    init_mode_sections = _numbered_sections(parser, "initial.mode.")
    if itype == "constant":
        vec = sec.get("vector", _floats, required=True)
        if len(vec) != 3:
            raise ConfigError("initial.vector: need 3 components")
        initial_spec["vector"] = vec
    elif itype == "modes":
        if not init_mode_sections:
            raise ConfigError("initial: type 'modes' needs initial.mode.* sections")
        entries = []
        for name in init_mode_sections:
            msec = _Section(parser, name, _INITIAL_MODE_KEYS)
            amp = msec.get("amplitude", _floats, required=True)
            if len(amp) != 3:
                raise ConfigError(f"{name}.amplitude: need 3 components")
            entries.append({
                "index": msec.get("index", _ints, required=True),
                "amplitude": amp,
            })
        initial_spec["modes"] = entries
    elif itype == "snapshot":
        initial_spec["path"] = sec.get("path", required=True)
    else:
        raise ConfigError(f"initial.type: unknown type {itype!r}")
    try:
        build_initial(initial_spec, grid)
    except ConfigError:
        raise  # a snapshot error already names initial.path
    except ValueError as exc:
        raise ConfigError(f"initial: {exc}") from exc

    # experiment
    sec = _Section(parser, "experiment", _SECTION_KEYS["experiment"])
    observables = []
    for name in _numbered_sections(parser, "observable."):
        osec = _Section(parser, name, _OBSERVABLE_KEYS)
        optional = osec.given(index=_ints, component=int, scale=_float,
                              space=str.strip, cap=_float)
        if "index" in optional:
            optional["mode_index"] = optional.pop("index")
        try:
            obs = Observable(osec.get("kind", required=True), **optional)
            if obs.kind == "tanh_mode":
                check_mode_index(grid, obs.mode_index)
            observables.append(obs)
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from exc
    optional = sec.given(ensemble_m=int, burn_in=_float, windows=_windows,
                         tightness_r=_floats, moment_powers=_floats, workers=int,
                         dt_halvings=int, refine_levels=_ints)
    try:
        experiment = ExperimentConfig(observables=tuple(observables), **optional)
    except ValueError as exc:
        raise ConfigError(f"experiment.{exc}") from exc
    # converge builds both on every refine level; fail here, not after its dt
    # study. Only converge itself reads a snapshot there (see _cmd_converge).
    if experiment.refine_levels:
        coarse = grid.with_modes((experiment.refine_levels[0],) * dim)
        try:
            build_noise_modes(noise_spec, coarse)
            if itype != "snapshot":
                build_initial(initial_spec, coarse)
        except ValueError as exc:
            raise ConfigError(
                f"experiment.refine_levels: level {coarse.modes[0]}: {exc}"
            ) from exc

    return RunConfig(
        grid=grid,
        params=params,
        solver=solver,
        noise_spec=noise_spec,
        initial_spec=initial_spec,
        experiment=experiment,
    )
