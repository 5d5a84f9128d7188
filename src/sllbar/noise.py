"""Transport-noise coefficients, diffusion operator and Wiener increments.

The noise is a finite family {h_j} of spatial coefficient fields driving
independent scalar Wiener processes. Each h_j enters through the affine
diffusion map

    G_j(u) = Pi( -u x h_j + h_j - Lap h_j ),

and the Stratonovich integral is simulated in Ito form with the correction
drift ``-1/2 sum_j Pi(G_j(u) x h_j)``.

Every family is built from Neumann eigenmodes, ``h_j = sigma_j e_k(x) v_j``.
The family must satisfy the square-summability condition
``sum_j |h_j|_{H^3}^2 <= C_h < infinity``; the finite truncation reports its
C_h so configured tail bounds can be checked.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    Grid,
    Workspace,
    analyze,
    cross3,
    eigenmode_field,
    eigenvalue_array,
    sobolev_norm,
    synthesize,
)


class NoiseTailWarning(UserWarning):
    """The computed C_h exceeded the configured bound."""


@dataclass
class NoiseModel:
    """Immutable noise family with precomputed Laplacians, h_j - Lap h_j and C_h.

    ``h`` and ``lap_h`` hold one ``(3, *grid.modes)`` coefficient array per mode.
    """

    grid: Grid
    h: list[np.ndarray]
    lap_h: list[np.ndarray]
    C_h: float
    c_h_bound: float | None = None
    tail_estimate: float = 0.0
    h_phys: list[np.ndarray] = field(default_factory=list)
    h_minus_lap: list[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.h_phys:
            self.h_phys = [synthesize(self.grid, hj) for hj in self.h]
        self.h_minus_lap = [hj - lh for hj, lh in zip(self.h, self.lap_h)]

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

    Eigenmode entries build ``h_j = sigma_j e_k(x) v_j`` with v_j normalized
    to a unit vector; :func:`sllbar.grid.eigenmode_field` checks each index.
    """
    family = spec.get("family", "none")
    fields: list[np.ndarray] = []
    if family == "none":
        pass
    elif family == "eigenmode":
        for m, mode in enumerate(spec.get("modes", [])):
            sigma = float(mode["sigma"])
            direction = np.asarray(mode["direction"], dtype=float)
            nrm = float(np.linalg.norm(direction))
            if nrm == 0.0:
                raise ValueError(f"noise mode {m}: direction must be nonzero")
            try:
                fields.append(eigenmode_field(grid, np.atleast_1d(mode["index"]),
                                              sigma * direction / nrm))
            except ValueError as exc:
                raise ValueError(f"noise mode {m}: {exc}") from exc
    else:
        raise ValueError(f"unknown noise family {family!r}")

    return NoiseModel(
        grid,
        fields,
        [hj * -eigenvalue_array(grid) for hj in fields],
        float(sum(sobolev_norm(grid, hj, 3) ** 2 for hj in fields)),  # C_h
        c_h_bound=spec.get("c_h_bound"),
        tail_estimate=float(spec.get("tail_estimate", 0.0)),
    )


def check_noise_condition(noise: NoiseModel) -> float:
    """The build-time ``C_h = sum_j |h_j|_{H^3}^2``; warn if it exceeds a
    configured bound."""
    if noise.c_h_bound is not None and noise.C_h > noise.c_h_bound:
        warnings.warn(
            f"noise condition sum {noise.C_h:.6g} exceeds configured bound "
            f"{noise.c_h_bound:.6g}",
            NoiseTailWarning,
            stacklevel=2,
        )
    return noise.C_h


def _diffusion_coeffs(grid: Grid, u_vals: np.ndarray, noise: NoiseModel,
                      j: int, ws: Workspace | None = None) -> np.ndarray:
    """Coefficients of ``G_j(u) = Pi(-u x h_j + h_j - Lap h_j)`` from u's values.

    With a workspace ``ws`` the cross product is written into ``ws.prod``.
    """
    cross = cross3(u_vals, noise.h_phys[j], out=None if ws is None else ws.prod)
    return noise.h_minus_lap[j] - analyze(grid, cross)


def _correction_coeffs(grid: Grid, u_vals: np.ndarray, noise: NoiseModel,
                       ws: Workspace | None = None) -> np.ndarray:
    """Coefficients of the Ito correction ``-1/2 sum_j Pi(G_j(u) x h_j)``.

    With a workspace ``ws`` each G_j's values are written into ``ws.lap``
    and each cross product into ``ws.prod``.
    """
    G_out, cross_out = (None, None) if ws is None else (ws.lap, ws.prod)
    acc = np.zeros((3, *grid.modes))
    for j in range(noise.J):
        G = _diffusion_coeffs(grid, u_vals, noise, j, ws)
        G_vals = synthesize(grid, G, out=G_out)
        acc += analyze(grid, cross3(G_vals, noise.h_phys[j], out=cross_out))
    return -0.5 * acc


@dataclass(frozen=True)
class WienerIncrement:
    """Per-mode Gaussian increments for one time step."""

    step: int
    values: np.ndarray


_STREAM_WIENER = 0x5757  # stream tag keeping Wiener draws apart from other uses
_PHILOX = threading.local()


def sample_increments(seed: int, path: int, step: int, J: int,
                      dt: float) -> WienerIncrement:
    """N(0, dt) increments from a counter-based generator.

    The Philox counter is keyed on (path, step); mode j takes the j-th draw
    of that stream, so the value for a given (seed, path, j, step) never
    depends on J or on evaluation order, and parallel schedules cannot
    change results. Each thread reuses one generator and resets its whole
    state (key, counter and buffered bits) on every call, which gives the
    same values as a freshly built ``Generator(Philox(key=seed,
    counter=[0x5757, path, step, 0]))``.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if J == 0:
        return WienerIncrement(step, np.zeros(0))
    if not hasattr(_PHILOX, "gen"):
        _PHILOX.gen = np.random.Generator(np.random.Philox(0))
    _PHILOX.gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [_STREAM_WIENER, int(path), int(step), 0],
                  "key": [int(seed), 0]},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    values = _PHILOX.gen.standard_normal(J) * math.sqrt(dt)
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
