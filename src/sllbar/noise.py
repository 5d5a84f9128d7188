"""Transport-noise coefficients, diffusion operator and Wiener increments.

The noise is a finite family {h_j} of spatial coefficient fields driving
independent scalar Wiener processes. Each h_j enters through the affine
diffusion map

    G_j(u) = Pi( -u x h_j + h_j - Lap h_j ),

and the Stratonovich integral is simulated in Ito form with the correction
drift ``-1/2 sum_j Pi(G_j(u) x h_j)``.

The family must satisfy the square-summability condition
``sum_j |h_j|_{H^3}^2 <= C_h < infinity``; the finite truncation reports its
C_h so configured tail bounds can be checked.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    Grid,
    SpectralField,
    analyze,
    apply_laplacian,
    cross3,
    eigenmode_field,
    quad_weight,
    sobolev_norm,
    synthesize,
    zero_field,
)


class NoiseTailWarning(UserWarning):
    """The computed C_h exceeded the configured bound."""


def coefficient_from_physical(grid: Grid, values: np.ndarray):
    """Convert padded-grid values to a spectral coefficient field.

    Returns ``(field, projection_loss)`` where the loss is the relative
    discrete L^2 mass dropped by the retained-mode projection. Use this to
    feed physical-space noise coefficients into an explicit family.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (3, *grid.padded):
        raise ValueError(
            f"values shape {values.shape} does not match padded grid "
            f"{(3, *grid.padded)}"
        )
    field = SpectralField(grid, analyze(grid, values))
    total_sq = float((values * values).sum()) * quad_weight(grid)
    kept_sq = float((field.coeffs * field.coeffs).sum())
    if total_sq == 0.0:
        return field, 0.0
    loss = math.sqrt(max(0.0, total_sq - kept_sq) / total_sq)
    return field, loss


@dataclass
class NoiseModel:
    """Immutable noise family with precomputed Laplacians and C_h."""

    grid: Grid
    h: list[SpectralField]
    lap_h: list[SpectralField]
    C_h: float
    c_h_bound: float | None = None
    tail_estimate: float = 0.0
    h_phys: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        if not self.h_phys:
            self.h_phys = [synthesize(self.grid, hj.coeffs) for hj in self.h]

    @property
    def J(self) -> int:
        return len(self.h)

    @classmethod
    def empty(cls, grid: Grid) -> "NoiseModel":
        return cls(grid, [], [], 0.0)


def build_noise_modes(spec: dict, grid: Grid) -> NoiseModel:
    """Construct a NoiseModel from a descriptor.

    Supported families::

        {"family": "none"}
        {"family": "eigenmode",
         "modes": [{"sigma": s, "index": (k1, ..), "direction": (vx, vy, vz)}, ...],
         "c_h_bound": optional float, "tail_estimate": optional float}
        {"family": "explicit", "coefficients": [array (3, *modes), ...], ...}

    Eigenmode entries build ``h_j = sigma_j e_k(x) v_j`` with v_j normalized
    to a unit vector. Explicit coefficient arrays are taken as given (already
    spectral); physical-space input should be converted with
    :func:`sllbar.grid.to_spectral` first, which reports projection loss by
    construction (retained modes only).
    """
    family = spec.get("family", "none")
    fields: list[SpectralField] = []
    if family == "none":
        pass
    elif family == "eigenmode":
        for m, mode in enumerate(spec.get("modes", [])):
            sigma = float(mode["sigma"])
            index = tuple(int(i) for i in np.atleast_1d(mode["index"]))
            if len(index) != grid.dim:
                raise ValueError(f"noise mode {m}: index must have {grid.dim} entries")
            for ax, (k, N) in enumerate(zip(index, grid.modes)):
                if k < 0 or k >= N:
                    raise ValueError(
                        f"noise mode {m}: index {k} outside grid modes on axis {ax}"
                    )
            direction = np.asarray(mode["direction"], dtype=float)
            nrm = float(np.linalg.norm(direction))
            if nrm == 0.0:
                raise ValueError(f"noise mode {m}: direction must be nonzero")
            fields.append(eigenmode_field(grid, index, sigma * direction / nrm))
    elif family == "explicit":
        for m, coeffs in enumerate(spec.get("coefficients", [])):
            arr = np.asarray(coeffs, dtype=float)
            if arr.shape != (3, *grid.modes):
                raise ValueError(
                    f"noise mode {m}: coefficient shape {arr.shape} does not match grid"
                )
            fields.append(SpectralField(grid, arr.copy()))
    else:
        raise ValueError(f"unknown noise family {family!r}")

    return NoiseModel(
        grid,
        fields,
        [apply_laplacian(hj) for hj in fields],
        _c_h(fields),
        c_h_bound=spec.get("c_h_bound"),
        tail_estimate=float(spec.get("tail_estimate", 0.0)),
    )


def _c_h(fields: list[SpectralField]) -> float:
    """``C_h = sum_j |h_j|_{H^3}^2`` of a noise family."""
    return float(sum(sobolev_norm(hj, 3) ** 2 for hj in fields))


def check_noise_condition(noise: NoiseModel) -> float:
    """Recompute ``sum_j |h_j|_{H^3}^2``; warn if a configured bound is exceeded.

    Matches the build-time C_h exactly (same helper).
    """
    total = _c_h(noise.h)
    if noise.c_h_bound is not None and total > noise.c_h_bound:
        warnings.warn(
            f"noise condition sum {total:.6g} exceeds configured bound "
            f"{noise.c_h_bound:.6g}",
            NoiseTailWarning,
            stacklevel=2,
        )
    return total


def _diffusion_coeffs(grid: Grid, u_vals: np.ndarray, noise: NoiseModel,
                      j: int) -> np.ndarray:
    cross = cross3(u_vals, noise.h_phys[j])
    return noise.h[j].coeffs - noise.lap_h[j].coeffs - analyze(grid, cross)


def diffusion_apply(u: SpectralField, noise: NoiseModel, j: int) -> SpectralField:
    """Diffusion map ``G_j(u) = Pi(-u x h_j + h_j - Lap h_j)``."""
    if j < 0 or j >= noise.J:
        raise IndexError(f"noise mode {j} out of range (J={noise.J})")
    u_vals = synthesize(u.grid, u.coeffs)
    return SpectralField(u.grid, _diffusion_coeffs(u.grid, u_vals, noise, j))


def _correction_coeffs(grid: Grid, u_vals: np.ndarray,
                       noise: NoiseModel) -> np.ndarray:
    acc = np.zeros((3, *grid.modes))
    for j in range(noise.J):
        G = _diffusion_coeffs(grid, u_vals, noise, j)
        G_vals = synthesize(grid, G)
        acc += analyze(grid, cross3(G_vals, noise.h_phys[j]))
    return -0.5 * acc


def ito_correction(u: SpectralField, noise: NoiseModel) -> SpectralField:
    """Stratonovich-to-Ito correction drift ``-1/2 sum_j Pi(G_j(u) x h_j)``."""
    if noise.J == 0:
        return zero_field(u.grid)
    u_vals = synthesize(u.grid, u.coeffs)
    return SpectralField(u.grid, _correction_coeffs(u.grid, u_vals, noise))


@dataclass(frozen=True)
class WienerIncrement:
    """Per-mode Gaussian increments for one time step."""

    step: int
    values: np.ndarray


_STREAM_WIENER = 0x5757  # stream tag keeping Wiener draws apart from other uses


def sample_increments(seed: int, path: int, step: int, J: int,
                      dt: float) -> WienerIncrement:
    """N(0, dt) increments from a counter-based generator.

    The Philox counter is keyed on (path, step); mode j takes the j-th draw
    of that stream, so the value for a given (seed, path, j, step) never
    depends on J or on evaluation order, and parallel schedules cannot
    change results.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if J == 0:
        return WienerIncrement(step, np.zeros(0))
    bg = np.random.Philox(
        key=np.uint64(seed),
        counter=[_STREAM_WIENER, int(path), int(step), 0],
    )
    values = np.random.Generator(bg).standard_normal(J) * math.sqrt(dt)
    return WienerIncrement(step, values)


def coupled_increments(seed: int, path: int, step: int, J: int, dt: float,
                       substeps: int = 1) -> WienerIncrement:
    """Increment over [step dt, (step+1) dt] built from a finer base path.

    Sums ``substeps`` base increments of size ``dt / substeps`` keyed at the
    base resolution, so runs at dt, 2 dt, 4 dt, ... driven with matching
    ``substeps`` share one Brownian path. ``substeps = 1`` reduces to
    :func:`sample_increments`.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    if substeps == 1:
        return sample_increments(seed, path, step, J, dt)
    base_dt = dt / substeps
    total = np.zeros(J)
    for i in range(substeps):
        total += sample_increments(seed, path, step * substeps + i, J, base_dt).values
    return WienerIncrement(step, total)
