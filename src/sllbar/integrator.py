"""Time stepping for the Galerkin system.

Two schemes are provided:

* ``imex_em_ito`` (default): Euler-Maruyama on the Ito form with the
  diagonal linear part ``b1 Lap - b2 Lap^2`` treated implicitly. The stiff
  biharmonic symbol is damped unconditionally; all nonlinear terms, the Ito
  correction and the noise are explicit at the beginning-of-step state.
* ``heun_strat``: explicit Stratonovich Heun (predictor-corrector on drift
  and diffusion, no Ito correction), intended as a cross-check on mildly
  stiff grids.

Both steps act on raw coefficient arrays ``(3, *modes)``:
``step(coeffs, grid, params, noise, trunc, dW, dt) -> coeffs`` with ``dW``
the array of J Wiener increments. The nonlinear drift terms and the
diffusion fields G_j are assembled in one place, :func:`_explicit_parts`,
which both schemes call; :func:`sllbar.model.drift_terms` is a term-by-term
view of the same arrays. It takes G_j and the Ito correction from the
coefficient-space operators of :mod:`sllbar.noise` at d >= 2, and from the
padded-grid route at d = 1, whose per-step counts the benchmark pins.

:func:`run_trajectory` decides the discrete stopping time tau in one loop.
The H^1 norm is checked against ``blowup_K`` at every step from t = 0, the
nonfinite check starts at step 1, and the run otherwise stops at ``t_end``.
The stop sample u(tau) is always recorded, on or off the ``record_every``
grid. A study that needs every path to reach ``t_end`` raises
:class:`BlowupAbort` when one does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import reduce

import numpy as np

from .grid import (
    Grid,
    analyze,
    cross3,
    eigenvalue_array,
    lp_norm,
    sobolev_norm,
    sobolev_norms,
    synthesize,
    workspace,
)
from .model import ModelParams, TruncationConfig, truncation_scale
from .noise import (
    NoiseModel,
    _correction_coeffs,
    _diffusion_coeffs,
    _operator_parts,
    coupled_increments,
)


class ConfigurationError(ValueError):
    """A solver configuration cannot be run as requested."""


DENOMINATOR_FLOOR = 1e-8

STOP_COMPLETED = "completed"
STOP_BLOWUP = "blowup_K"
STOP_NONFINITE = "nonfinite"


class BlowupAbort(RuntimeError):
    """A study that needs the full horizon lost paths to early stops."""


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_end: float
    scheme: str = "imex_em_ito"
    blowup_K: float = np.inf
    record_every: int = 1
    seed: int = 0
    truncation: TruncationConfig = TruncationConfig.off()
    substeps: int = 1
    snapshot_every: int | None = None

    def __post_init__(self):
        if not 0 < self.dt < np.inf:
            raise ConfigurationError("dt must be positive and finite")
        if not self.dt < self.t_end < np.inf:
            raise ConfigurationError("t_end must be finite and exceed dt")
        if abs(self.t_end / self.dt - self.n_steps) > 1e-9 * self.n_steps:
            raise ConfigurationError(
                f"t_end {self.t_end} is not a whole number of dt {self.dt} steps"
            )
        if self.scheme not in ("imex_em_ito", "heun_strat"):
            raise ConfigurationError(f"unknown scheme {self.scheme!r}")
        if not self.blowup_K > 0:  # NaN fails too; inf disables the stop
            raise ConfigurationError("blowup_K must be positive or inf")
        if self.record_every < 1:
            raise ConfigurationError("record_every must be >= 1")
        if self.substeps < 1:
            raise ConfigurationError("substeps must be >= 1")
        if self.snapshot_every is not None and self.snapshot_every < 1:
            raise ConfigurationError("snapshot_every must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError(f"seed {self.seed} is outside [0, 2**64)")

    @property
    def n_steps(self) -> int:
        """Number of dt steps from 0 to t_end."""
        return int(round(self.t_end / self.dt))


NORM_KEYS = ("l2", "l4", "h1", "h2", "h3", "grad_l2", "theta_arg")


@dataclass
class TrajectoryRecord:
    """Sampled norms, stop event and optional coefficient snapshots."""

    grid: Grid
    times: np.ndarray
    sample_steps: np.ndarray  # integer step m of each sample; times = m * dt
    norms: dict[str, np.ndarray]
    stop_reason: str
    stop_time: float
    final: np.ndarray  # coefficients (3, *grid.modes) at the stop
    config: SolverConfig
    path: int
    J: int
    obs: dict[str, np.ndarray] = dc_field(default_factory=dict)
    snapshot_steps: np.ndarray | None = None
    snapshots: np.ndarray | None = None


def linear_factor(lam, dt: float, params: ModelParams):
    """Implicit per-mode divisor ``1 + dt (b1 lam + b2 lam^2)``.

    ``lam`` is one eigenvalue or an array of them; the result has its shape.
    Raises when any divisor is at or below ``DENOMINATOR_FLOOR``.
    """
    if dt <= 0:
        raise ConfigurationError("dt must be positive")
    factor = 1.0 + dt * (params.beta1 * lam + params.beta2 * lam * lam)
    low = np.min(factor)
    if low <= DENOMINATOR_FLOOR:
        bad = float(np.ravel(lam)[np.argmin(factor)])
        raise ConfigurationError(
            f"denominator: implicit factor {low:.3e} at lambda={bad:.6g} "
            f"(reduce dt or adjust beta1)"
        )
    return factor


def _divisor_array(grid: Grid, dt: float, params: ModelParams) -> np.ndarray:
    return grid._constant(("divisor", dt, params), lambda: linear_factor(
        eigenvalue_array(grid), dt, params))


def _explicit_parts(coeffs: np.ndarray, grid: Grid, params: ModelParams,
                    noise: NoiseModel, trunc: TruncationConfig,
                    include_correction: bool):
    """Explicitly treated drift terms and the diffusion fields, sharing transforms.

    This is the only assembly of the nonlinear drift. Returns
    ``(terms, [G_j coeffs])`` where ``terms`` maps, in summation order,
    ``penalty`` (b3 Pi((1 - |u|^2) u), as b3 (u - Pi(|u|^2 u))),
    ``precession`` (-b4 Pi(u x Lap u)), ``nonlocal``
    (b5 theta_R(|grad u|) Lap Pi(|u|^2 u)) and, when ``include_correction``
    is set and J > 0, ``ito_correction`` to coefficient arrays. The linear
    part is not included. Padded-grid values and products go into this
    thread's :func:`~sllbar.grid.workspace` for the grid; every returned
    array is freshly allocated.
    """
    neg_lam = grid._neg_eigenvalues
    ws = workspace(grid)
    vals = synthesize(grid, coeffs, out=ws.vals)
    mag2 = np.add.reduce(np.multiply(vals, vals, out=ws.prod), axis=0,
                         out=ws.mag2)  # .sum(axis=0) without its Python wrapper
    cubic = analyze(grid, np.multiply(vals, mag2, out=ws.prod))
    lap_vals = synthesize(grid, neg_lam * coeffs, out=ws.lap)
    theta = truncation_scale(grid, coeffs, trunc)
    terms = {
        "penalty": params.beta3 * (coeffs - cubic),
        "precession": -params.beta4 * analyze(grid, cross3(vals, lap_vals,
                                                           out=ws.prod)),
        "nonlocal": (params.beta5 * theta) * neg_lam * cubic,
    }
    if grid.dim == 1:
        Gs = [_diffusion_coeffs(grid, vals, noise, j, ws) for j in range(noise.J)]
        corr = (_correction_coeffs(grid, vals, noise, ws)
                if include_correction and noise.J > 0 else None)
    else:
        Gs, corr = _operator_parts(noise, coeffs, include_correction)
    if corr is not None:
        terms["ito_correction"] = corr
    return terms, Gs


def imex_em_step(coeffs: np.ndarray, grid: Grid, params: ModelParams,
                 noise: NoiseModel, trunc: TruncationConfig, dW: np.ndarray,
                 dt: float) -> np.ndarray:
    """One semi-implicit Euler-Maruyama step on the Ito form."""
    div = _divisor_array(grid, dt, params)
    terms, Gs = _explicit_parts(coeffs, grid, params, noise, trunc,
                                include_correction=True)
    acc = coeffs + dt * reduce(np.add, terms.values())
    for j, G in enumerate(Gs):
        acc += G * dW[j]
    acc /= div
    return acc


def heun_strat_step(coeffs: np.ndarray, grid: Grid, params: ModelParams,
                    noise: NoiseModel, trunc: TruncationConfig, dW: np.ndarray,
                    dt: float) -> np.ndarray:
    """One explicit Stratonovich Heun step (predictor-corrector)."""
    lam = eigenvalue_array(grid)
    linear = -params.beta1 * lam - params.beta2 * lam * lam
    terms0, G0 = _explicit_parts(coeffs, grid, params, noise, trunc,
                                 include_correction=False)
    a0 = reduce(np.add, terms0.values()) + linear * coeffs
    pred = coeffs + dt * a0
    for j, G in enumerate(G0):
        pred = pred + G * dW[j]
    terms1, G1 = _explicit_parts(pred, grid, params, noise, trunc,
                                 include_correction=False)
    a1 = reduce(np.add, terms1.values()) + linear * pred
    out = coeffs + 0.5 * dt * (a0 + a1)
    for j in range(noise.J):
        out = out + 0.5 * (G0[j] + G1[j]) * dW[j]
    return out


def _sample_norms(grid: Grid, coeffs: np.ndarray, h1: float) -> tuple[float, ...]:
    """One row of ``NORM_KEYS``; ``h1`` is the H^1 norm the stop check took."""
    l2, grad, h2, h3 = sobolev_norms(
        grid, coeffs, ((0, False), (1, True), (2, False), (3, False)))
    # theta argument: the same quantity the truncation reads
    return (l2, lp_norm(grid, coeffs, 4), h1, h2, h3, grad, grad)


def run_trajectory(u0: np.ndarray, params: ModelParams, noise: NoiseModel,
                   config: SolverConfig, path: int = 0,
                   observables=()) -> TrajectoryRecord:
    """Step from u0 to t_end (or an earlier stop), recording sampled norms.

    The run's grid is ``noise.grid``; u0 holds coefficients on it.
    This loop is the one place where the stopping step is decided. At each
    step m, from 0, it sets the stop reason (nonfinite, from step 1; then
    H^1 norm above ``blowup_K``; then ``m == n_steps``), records when m is
    on the ``record_every`` grid or a stop was just set, snapshots on the
    ``snapshot_every`` grid, and then stops or steps. One H^1 norm per step
    serves the stop check and the record, and u is scanned for nonfinite
    entries only when that norm is not finite, as it is for every nonfinite
    u (a finite u whose norm overflows stops as ``blowup_K``).
    Configuration problems (implicit denominator too small) surface before
    any stepping. Identical inputs give bitwise-identical records.
    """
    grid = noise.grid
    if u0.shape != grid.field_shape:
        raise ConfigurationError(f"initial data shape {u0.shape} does not match "
                                 f"the noise model grid {grid.field_shape}")
    if config.scheme == "imex_em_ito":
        _divisor_array(grid, config.dt, params)  # denominator guard, pre-run
        stepper = imex_em_step
    else:
        stepper = heun_strat_step

    n_steps = config.n_steps
    dt = config.dt

    sample_steps: list[int] = []
    norm_rows: list[tuple[float, ...]] = []
    obs_rows: list[list[float]] = []
    snap_steps: list[int] = []
    snaps: list[np.ndarray] = []

    u = u0.copy()
    stop_reason = None
    m = 0
    while True:
        h1 = sobolev_norm(grid, u, 1)
        if m and not math.isfinite(h1) and not np.isfinite(u).all():
            stop_reason = STOP_NONFINITE
        elif h1 > config.blowup_K:
            stop_reason = STOP_BLOWUP
        elif m == n_steps:
            stop_reason = STOP_COMPLETED
        if m % config.record_every == 0 or stop_reason:
            sample_steps.append(m)
            norm_rows.append(_sample_norms(grid, u, h1))
            obs_rows.append([float(psi(grid, u)) for psi in observables])
        if config.snapshot_every is not None and m % config.snapshot_every == 0:
            snap_steps.append(m)
            snaps.append(u)  # never written to: each step returns a new array
        if stop_reason:
            break
        inc = coupled_increments(config.seed, path, m, noise.J, dt, config.substeps)
        u = stepper(u, grid, params, noise, config.truncation, inc.values, dt)
        m += 1

    norms_arr = np.asarray(norm_rows)
    obs_arr = np.asarray(obs_rows)
    steps = np.asarray(sample_steps)
    return TrajectoryRecord(
        grid=grid,
        times=steps * dt,  # m * dt avoids accumulated rounding
        sample_steps=steps,
        norms={key: norms_arr[:, i].copy() for i, key in enumerate(NORM_KEYS)},
        stop_reason=stop_reason,
        stop_time=float(m * dt),
        final=u,
        config=config,
        path=path,
        J=noise.J,
        obs={psi.name: obs_arr[:, i].copy() for i, psi in enumerate(observables)},
        snapshot_steps=np.asarray(snap_steps) if snaps else None,
        snapshots=np.asarray(snaps) if snaps else None,
    )
