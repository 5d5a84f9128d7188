"""Run configuration: parsing, validation and echoing.

Configs are INI-style key-value text (see ``demos/configs/annotated.cfg``
for a complete annotated example). One table, ``_KEYS``, lists every
section and key with its converter; a key it does not list is rejected.
The dataclasses ``Grid``, ``ModelParams``, ``TruncationConfig``,
``SolverConfig``, ``ExperimentConfig`` and ``Observable`` own every default
and every value check, and the parser hands each of them only the keys a
file sets. ``RunConfig.echo`` writes the fully resolved dataclasses into
each JSON report, so a run can be reproduced bitwise from its outputs.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .ensemble import Observable
from .grid import Grid, check_mode_index, constant_field, eigenmode_field, embed
from .integrator import SolverConfig
from .io import jsonable
from .model import ModelParams, TruncationConfig
from .noise import NoiseModel, build_noise_modes


class ConfigError(ValueError):
    """Invalid configuration file; the message carries the key path."""


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
        if any(p < 1 for p in self.moment_powers):
            raise ValueError("moment_powers: each must be >= 1")
        if any(r < 0 for r in self.tightness_r):
            raise ValueError("tightness_r: each must be >= 0")
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
    """A parsed run. ``noise`` and ``initial`` hold the noise model and the
    (read-only) initial field :func:`parse_config` built on ``grid``: every
    ``build_noise`` / ``build_initial`` call that asks for no other grid
    returns them, and a call for another grid, or on a config made without
    them, builds anew. They are not part of the echo."""

    grid: Grid
    params: ModelParams
    solver: SolverConfig
    noise_spec: dict
    initial_spec: dict
    experiment: ExperimentConfig
    noise: NoiseModel | None = field(default=None, compare=False, repr=False)
    initial: np.ndarray | None = field(default=None, compare=False, repr=False)

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, solver=replace(self.solver, seed=int(seed)))

    def build_noise(self, grid: Grid | None = None) -> NoiseModel:
        if self.noise is not None and grid in (None, self.grid):
            return self.noise
        return build_noise_modes(self.noise_spec, grid or self.grid)

    def build_initial(self, grid: Grid | None = None) -> np.ndarray:
        if self.initial is not None and grid in (None, self.grid):
            return self.initial
        return build_initial(self.initial_spec, grid or self.grid)

    def echo(self) -> dict:
        """Every field of the resolved config but the two built objects, whose
        specs take their keys, one section per config section, with two
        deliberate exceptions noted below; an infinite blowup_K is null."""
        echo = jsonable(asdict(replace(self, noise=None, initial=None)))
        echo["noise"] = echo.pop("noise_spec")
        echo["initial"] = echo.pop("initial_spec")
        solver, experiment = echo["solver"], echo["experiment"]
        echo["truncation"] = solver.pop("truncation")
        # workers is an execution detail: any level gives identical
        # outputs, so it is deliberately not part of the echo
        del experiment["workers"]
        # an observable's mode is echoed under its config key
        for obs in experiment["observables"]:
            obs["index"] = obs.pop("mode_index")
        return echo


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

# The whole key schema: each section, or numbered-section prefix, maps its
# keys to their converters, in the order they are read. Two keys take a
# dataclass field's other name: solver.blowup_k (SolverConfig.blowup_K) and
# observable.N.index (Observable.mode_index).
_KEYS = {
    "grid": {"dim": int, "lengths": _floats, "modes": _ints, "pad_factor": _float},
    "params": {"beta1": _float, "beta2": _float, "beta3": _float, "beta4": _float,
               "beta5": _float},
    "truncation": {"mode": str.strip, "radius": _float},
    "solver": {"dt": _float, "t_end": _float, "scheme": str.strip, "blowup_k": float,
               "record_every": int, "seed": int, "substeps": int},
    "noise": {"family": str.strip, "c_h_bound": _float, "tail_estimate": _float},
    "noise.mode.": {"sigma": _float, "index": _ints, "direction": _floats},
    "initial": {"type": str.strip, "vector": _floats, "path": str.strip},
    "initial.mode.": {"index": _ints, "amplitude": _floats},
    "experiment": {"ensemble_m": int, "burn_in": _float, "windows": _windows,
                   "tightness_r": _floats, "moment_powers": _floats, "workers": int,
                   "dt_halvings": int, "refine_levels": _ints},
    "observable.": {"kind": str.strip, "index": _ints, "component": int,
                    "scale": _float, "space": str.strip, "cap": _float},
}
# the observable keys each kind reads; any other is rejected, as for initial
_OBSERVABLE_READS = {"tanh_mode": ("index", "component", "scale"),
                     "exp_neg_l2": ("scale",), "clip_norm": ("space", "cap")}


def _section(parser: configparser.ConfigParser, name: str, schema: dict | None = None,
             required=()) -> dict:
    """Converted values of the keys section ``name`` sets, in ``schema`` order
    (``_KEYS[name]`` by default). Absent optional keys are left out, so the
    dataclass receiving them supplies its own defaults."""
    schema = _KEYS[name] if schema is None else schema
    data = dict(parser[name]) if parser.has_section(name) else {}
    for key in data:
        if key not in schema:
            raise ConfigError(f"{name}.{key}: unknown key")
    for key in required:
        if key not in data:
            raise ConfigError(f"{name}.{key}: missing required key")
    values = {}
    for key, convert in schema.items():
        if key in data:
            try:
                values[key] = convert(data[key])
            except ValueError:
                raise ConfigError(
                    f"{name}.{key}: {_BAD_VALUE[convert]} {data[key]!r}") from None
    return values


def _made(prefix: str, build, *args, **kw):
    """``build(*args, **kw)``, a ValueError re-raised as a ConfigError whose
    message starts with ``prefix``. A ConfigError already names its key and
    passes through as it is."""
    try:
        return build(*args, **kw)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _numbered_sections(parser: configparser.ConfigParser, prefix: str) -> list[str]:
    found = []
    for name in parser.sections():
        if name.startswith(prefix):
            suffix = name[len(prefix):]
            if not suffix.isdigit():
                raise ConfigError(f"{name}: section suffix must be a number")
            found.append((int(suffix), name))
    found.sort()
    if [i for i, _ in found] != list(range(1, len(found) + 1)):
        raise ConfigError(f"{prefix}* sections must be numbered 1..{len(found)}")
    return [name for _, name in found]


def parse_config(path: str) -> RunConfig:
    """Parse and fully validate a run configuration file."""
    # no section header can hold a newline, so a [DEFAULT] section is read as
    # an ordinary one and rejected below instead of merging into every section
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";"), strict=True,
        default_section="\n",
    )
    try:
        with open(path) as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"parse error: {exc}") from exc

    prefixes = tuple(name for name in _KEYS if name.endswith("."))
    for name in parser.sections():
        if name not in _KEYS and not name.startswith(prefixes):
            raise ConfigError(f"{name}: unknown section")
    for name in ("grid", "params", "solver", "initial"):
        if not parser.has_section(name):
            raise ConfigError(f"{name}: missing section")

    # grid; one length or mode count stands for every axis
    sec = _section(parser, "grid", required=("dim", "lengths", "modes"))
    for key in ("lengths", "modes"):
        if sec["dim"] in (2, 3) and len(sec[key]) == 1:
            sec[key] *= sec["dim"]
    if sec.get("pad_factor", 2.0) < 2:
        raise ConfigError("grid.pad_factor: must be >= 2; a coarser padded grid "
                          "aliases the cubic terms")
    grid = _made("grid: ", Grid, **sec)

    params = _made("params.", ModelParams,
                   **_section(parser, "params", required=_KEYS["params"]))

    # truncation; the radius is ignored while the cutoff is off
    trunc = _made("truncation.", TruncationConfig, **_section(parser, "truncation"))
    if trunc.mode == "off":
        trunc = TruncationConfig.off()

    sec = _section(parser, "solver", required=("dt", "t_end"))
    if "blowup_k" in sec:
        sec["blowup_K"] = sec.pop("blowup_k")
    solver = _made("solver: ", SolverConfig, truncation=trunc, **sec)

    # noise
    noise_spec: dict = {"family": "none", **_section(parser, "noise")}
    family = noise_spec["family"]
    mode_sections = _numbered_sections(parser, "noise.mode.")
    if family == "none":
        if mode_sections:
            raise ConfigError("noise.family: 'none' but noise.mode.* sections present")
    elif family == "eigenmode":
        if not mode_sections:
            raise ConfigError("noise: family 'eigenmode' needs noise.mode.* sections")
        schema = _KEYS["noise.mode."]
        noise_spec["modes"] = [_section(parser, name, schema, required=schema)
                               for name in mode_sections]
    else:
        raise ConfigError(f"noise.family: unknown family {family!r}")
    noise = _made("noise: ", build_noise_modes, noise_spec, grid)  # checks indices

    # initial data; input that the type never reads is rejected
    initial_spec: dict = {"type": "constant", **_section(parser, "initial")}
    itype = initial_spec["type"]
    mode_sections = _numbered_sections(parser, "initial.mode.")
    if itype not in ("constant", "modes", "snapshot"):
        raise ConfigError(f"initial.type: unknown type {itype!r}")
    for key, reader in (("vector", "constant"), ("path", "snapshot")):
        if key in initial_spec and itype != reader:
            raise ConfigError(f"initial.{key}: not read by type {itype!r}")
        if key not in initial_spec and itype == reader:
            raise ConfigError(f"initial.{key}: missing required key")
    if itype == "constant" and len(initial_spec["vector"]) != 3:
        raise ConfigError("initial.vector: need 3 components")
    if itype == "modes":
        if not mode_sections:
            raise ConfigError("initial: type 'modes' needs initial.mode.* sections")
        schema = _KEYS["initial.mode."]
        initial_spec["modes"] = [_section(parser, name, schema, required=schema)
                                 for name in mode_sections]
        for name, mode in zip(mode_sections, initial_spec["modes"]):
            if len(mode["amplitude"]) != 3:
                raise ConfigError(f"{name}.amplitude: need 3 components")
    elif mode_sections:
        raise ConfigError(f"initial.type: {itype!r} but initial.mode.* sections present")
    u0 = _made("initial: ", build_initial, initial_spec, grid)
    u0.setflags(write=False)

    # experiment
    observables = []
    for name in _numbered_sections(parser, "observable."):
        sec = _section(parser, name, _KEYS["observable."], required=("kind",))
        # an unknown kind reads every key here, and Observable names the kind
        reads = _OBSERVABLE_READS.get(sec["kind"], _KEYS["observable."])
        for key in parser[name]:  # in file order, as _section names an unknown key
            if key not in (*reads, "kind"):
                raise ConfigError(f"{name}.{key}: not read by kind {sec['kind']!r}")
        if "index" in sec:
            sec["mode_index"] = sec.pop("index")
        obs = _made(f"{name}: ", Observable, **sec)
        if obs.kind == "tanh_mode":
            _made(f"{name}: ", check_mode_index, grid, obs.mode_index)
        observables.append(obs)
    experiment = _made("experiment.", ExperimentConfig, observables=tuple(observables),
                       **_section(parser, "experiment"))
    # converge builds both on every refine level; fail here, not after its dt
    # study. Only converge itself reads a snapshot there (see _cmd_converge).
    if experiment.refine_levels:
        coarse = grid.with_modes((experiment.refine_levels[0],) * grid.dim)
        where = f"experiment.refine_levels: level {coarse.modes[0]}: "
        _made(where, build_noise_modes, noise_spec, coarse)
        if itype != "snapshot":
            _made(where, build_initial, initial_spec, coarse)

    return RunConfig(grid=grid, params=params, solver=solver, noise_spec=noise_spec,
                     initial_spec=initial_spec, experiment=experiment, noise=noise,
                     initial=u0)
