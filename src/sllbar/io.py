"""On-disk formats: CSV series, JSON reports, binary coefficient snapshots.

All writers are deterministic: fixed column order, sorted JSON keys, fixed
float formatting, no timestamps. A report always carries the config echo and
seed needed to reproduce the run bitwise.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import ResidualSeries
from .ensemble import EnsembleStats
from .grid import Grid
from .integrator import NORM_KEYS, TrajectoryRecord

SNAPSHOT_MAGIC = b"SLLB"
SNAPSHOT_VERSION = 1


class SnapshotFormatError(ValueError):
    """Snapshot file is corrupt or has an unsupported version."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_columns(path, rows, columns: dict[str, np.ndarray], index: str = "t") -> None:
    """CSV: an ``index`` column of ``rows``, then one column per entry in order."""
    lines = [",".join([index, *columns])]
    for i, key in enumerate(rows):
        lines.append(",".join([_fmt(key)] + [_fmt(col[i]) for col in columns.values()]))
    Path(path).write_text("\n".join(lines) + "\n")


def write_trajectory_csv(record: TrajectoryRecord, path) -> None:
    """One row per sample: t, l2, l4, h1, h2, h3, grad_l2, theta_arg."""
    _write_columns(path, record.times, {k: record.norms[k] for k in NORM_KEYS})


def write_ensemble_csv(stats: EnsembleStats, path) -> None:
    """Cross-path mean and variance of each recorded norm per sample time."""
    columns = {}
    for key in NORM_KEYS:
        columns[f"mean_{key}"] = stats.mean_norms[key]
        columns[f"var_{key}"] = stats.var_norms[key]
    _write_columns(path, stats.times, columns)


def write_observables_csv(stats: EnsembleStats, path) -> None:
    """Cross-path mean and standard error of each observable per sample time."""
    columns = {}
    for name in stats.obs:
        columns[f"mean_{name}"] = stats.mean_obs[name]
        columns[f"se_{name}"] = stats.se_obs[name]
    _write_columns(path, stats.times, columns)


def write_residual_csv(series: ResidualSeries, path, name: str = "residual") -> None:
    _write_columns(path, series.times, {name: series.values})


def write_identities_csv(rows: list[tuple[float, float, float]], path) -> None:
    """One row per random field: its number, the cross identity and the cubic
    gradient and integration-by-parts residuals."""
    names = ("cross_identity", "cubic_gradient_residual", "cubic_ibp_residual")
    _write_columns(path, range(len(rows)), dict(zip(names, zip(*rows))), index="field")


def jsonable(value):
    """``value`` in the types strict JSON holds; a nonfinite float is None."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def write_report_json(report: dict, path) -> None:
    text = json.dumps(jsonable(report), sort_keys=True, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n")


def report_skeleton(config_echo: dict) -> dict:
    return {
        "version": f"sllbar-{__version__}",
        "config": config_echo,
        "seed": config_echo["solver"]["seed"],
    }


def write_snapshot(coeffs: np.ndarray, path, grid: Grid) -> None:
    """Binary layout: magic "SLLB", u32 version, u32 dim, u32 N_i per axis,
    f64 L_i per axis, then 3 row-major blocks of f64 coefficients
    (component-major, axis 0 slowest). All integers and floats little-endian.
    """
    if coeffs.shape != grid.field_shape:
        raise ValueError(f"coeffs shape {coeffs.shape}, expected {grid.field_shape}")
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<II", SNAPSHOT_VERSION, grid.dim))
        fh.write(struct.pack(f"<{grid.dim}I", *grid.modes))
        fh.write(struct.pack(f"<{grid.dim}d", *grid.lengths))
        fh.write(np.ascontiguousarray(coeffs, dtype="<f8").tobytes())


def _unpack(fh, fmt: str, path) -> tuple:
    size = struct.calcsize(fmt)
    raw = fh.read(size)
    if len(raw) != size:
        raise SnapshotFormatError(f"{path}: truncated header")
    return struct.unpack(fmt, raw)


def read_snapshot(path, pad_factor: float = 2.0) -> tuple[Grid, np.ndarray]:
    """The grid and the ``(3, *modes)`` coefficients of a snapshot file.

    Raises :class:`SnapshotFormatError` on a corrupt or unsupported file,
    including one whose coefficients are not all finite.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != SNAPSHOT_MAGIC:
            raise SnapshotFormatError(f"{path}: bad magic {magic!r}")
        version, dim = _unpack(fh, "<II", path)
        if version != SNAPSHOT_VERSION:
            raise SnapshotFormatError(f"{path}: unsupported version {version}")
        if dim not in (1, 2, 3):
            raise SnapshotFormatError(f"{path}: bad dim {dim}")
        modes = _unpack(fh, f"<{dim}I", path)
        lengths = _unpack(fh, f"<{dim}d", path)
        block = fh.read()
    size = 3 * 8 * math.prod(modes)
    if len(block) < size:
        raise SnapshotFormatError(f"{path}: truncated coefficient block")
    if len(block) > size:
        raise SnapshotFormatError(f"{path}: trailing bytes after coefficient block")
    try:
        grid = Grid(dim, lengths, modes, pad_factor)
    except ValueError as exc:
        raise SnapshotFormatError(f"{path}: invalid grid: {exc}") from exc
    coeffs = np.frombuffer(block, dtype="<f8").astype(np.float64).reshape((3, *modes))
    if not np.isfinite(coeffs).all():
        raise SnapshotFormatError(f"{path}: nonfinite coefficients")
    return grid, coeffs
