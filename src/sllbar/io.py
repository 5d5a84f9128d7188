"""On-disk formats: CSV series, JSON reports, binary coefficient snapshots.

All writers are deterministic: fixed column order, sorted JSON keys, fixed
float formatting, no timestamps. A report always carries the config echo and
seed needed to reproduce the run bitwise.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from . import __version__
from .diagnostics import ResidualSeries
from .ensemble import EnsembleStats
from .grid import Grid, SpectralField
from .integrator import NORM_KEYS, TrajectoryRecord

SNAPSHOT_MAGIC = b"SLLB"
SNAPSHOT_VERSION = 1


class SnapshotFormatError(ValueError):
    """Snapshot file is corrupt or has an unsupported version."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_trajectory_csv(record: TrajectoryRecord, path) -> None:
    """One row per sample: t, l2, l4, h1, h2, h3, grad_l2, theta_arg."""
    lines = ["t," + ",".join(NORM_KEYS)]
    for i, t in enumerate(record.times):
        row = [_fmt(t)] + [_fmt(record.norms[k][i]) for k in NORM_KEYS]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_ensemble_csv(stats: EnsembleStats, path) -> None:
    """Cross-path mean and variance of each recorded norm per sample time."""
    header = ["t"]
    for key in NORM_KEYS:
        header += [f"mean_{key}", f"var_{key}"]
    lines = [",".join(header)]
    for i, t in enumerate(stats.times):
        row = [_fmt(t)]
        for key in NORM_KEYS:
            row += [_fmt(stats.mean_norms[key][i]), _fmt(stats.var_norms[key][i])]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_observables_csv(stats: EnsembleStats, path) -> None:
    names = list(stats.obs)
    header = ["t"]
    for name in names:
        header += [f"mean_{name}", f"se_{name}"]
    lines = [",".join(header)]
    M = stats.M
    for i, t in enumerate(stats.times):
        row = [_fmt(t)]
        for name in names:
            col = stats.obs[name][:, i]
            mean = col.mean()
            se = col.std(ddof=1) / np.sqrt(M) if M > 1 else 0.0
            row += [_fmt(mean), _fmt(se)]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_residual_csv(series: ResidualSeries, path, name: str = "residual") -> None:
    lines = [f"t,{name}"]
    for t, v in zip(series.times, series.values):
        lines.append(f"{_fmt(t)},{_fmt(v)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_report_json(report: dict, path) -> None:
    Path(path).write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")


def report_skeleton(config_echo: dict) -> dict:
    return {
        "version": f"sllbar-{__version__}",
        "config": config_echo,
        "seed": config_echo["solver"]["seed"],
    }


def write_snapshot(field: SpectralField, path) -> None:
    """Binary layout: magic "SLLB", u32 version, u32 dim, u32 N_i per axis,
    f64 L_i per axis, then 3 row-major blocks of f64 coefficients
    (component-major, axis 0 slowest). All integers and floats little-endian.
    """
    grid = field.grid
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<II", SNAPSHOT_VERSION, grid.dim))
        fh.write(struct.pack(f"<{grid.dim}I", *grid.modes))
        fh.write(struct.pack(f"<{grid.dim}d", *grid.lengths))
        fh.write(np.ascontiguousarray(field.coeffs, dtype="<f8").tobytes())


def read_snapshot(path, pad_factor: float = 2.0) -> SpectralField:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != SNAPSHOT_MAGIC:
            raise SnapshotFormatError(f"{path}: bad magic {magic!r}")
        version, dim = struct.unpack("<II", fh.read(8))
        if version != SNAPSHOT_VERSION:
            raise SnapshotFormatError(f"{path}: unsupported version {version}")
        if dim not in (1, 2, 3):
            raise SnapshotFormatError(f"{path}: bad dim {dim}")
        modes = struct.unpack(f"<{dim}I", fh.read(4 * dim))
        lengths = struct.unpack(f"<{dim}d", fh.read(8 * dim))
        count = 3 * int(np.prod(modes))
        data = np.frombuffer(fh.read(count * 8), dtype="<f8")
        if data.size != count:
            raise SnapshotFormatError(f"{path}: truncated coefficient block")
        if fh.read(1):
            raise SnapshotFormatError(f"{path}: trailing bytes after coefficient block")
    grid = Grid(dim, lengths, modes, pad_factor)
    coeffs = data.astype(np.float64).reshape((3, *modes))
    return SpectralField(grid, coeffs)
