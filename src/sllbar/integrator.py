"""Time stepping for the Galerkin system.

Two schemes are provided:

* ``imex_em_ito`` (default): Euler-Maruyama on the Ito form with the
  diagonal linear part ``b1 Lap - b2 Lap^2`` treated implicitly. The stiff
  biharmonic symbol is damped unconditionally; all nonlinear terms, the Ito
  correction and the noise are explicit at the beginning-of-step state.
* ``heun_strat``: explicit Stratonovich Heun (predictor-corrector on drift
  and diffusion, no Ito correction), intended as a cross-check on mildly
  stiff grids.

A run builds one :class:`StepKernel`, which holds the scheme's linear part and
the run's own :class:`~sllbar.grid.Workspace`: the padded-grid buffers live
exactly as long as the run. Both steps act on raw coefficient arrays
``(3, *modes)``: ``step(kernel, coeffs, dW) -> coeffs`` with ``dW`` the array
of J Wiener increments. The nonlinear drift terms and the one noise increment
sum_j G_j(u) dW_j are assembled in :func:`_explicit_parts`, which each stage
calls once; :func:`sllbar.model.drift_terms` is a view of the same drift
arrays. The increment and the Ito correction come from the
coefficient-space operators of :mod:`sllbar.noise` at d >= 2, and from the
padded-grid route at d = 1, whose per-step counts the benchmark pins. The
cubic |u|^2 u is formed on the run grid, exact at pad 2; the quadratic u x
Lap u on ``Grid.quadratic_grid`` at d >= 2, exact on its ceil(1.5 N) nodes
(:mod:`sllbar.grid`, Conventions), and on the run grid with the noise's
products at d = 1. The steps sum in place, in the order (and so with the
bits) of the plain sums.

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

import numpy as np

from .grid import (
    Grid,
    Workspace,
    _mag2,
    _sobolev_weight,
    _weighted_norms,
    analyze,
    cross3,
    cyclic,
    eigenvalue_array,
    l4_norm,
    sobolev_norms,
    synthesize,
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
MIN_PAD_FACTOR = 2  # a coarser padded grid aliases the cubic products

STOP_COMPLETED = "completed"
STOP_BLOWUP = "blowup_K"
STOP_NONFINITE = "nonfinite"


class BlowupAbort(RuntimeError):
    """A study that needs the full horizon lost paths to early stops."""


def _check_dt(dt: float) -> None:
    if not 0 < dt < np.inf:  # NaN fails too
        raise ConfigurationError("dt must be positive and finite")


def _check_pad(grid: Grid) -> None:
    if grid.pad_factor < MIN_PAD_FACTOR:
        raise ConfigurationError(f"pad_factor {grid.pad_factor:g} is below "
                                 f"{MIN_PAD_FACTOR}: the padded products alias")


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
        _check_dt(self.dt)
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
    Raises unless dt is positive and finite, and when any divisor is at or
    below ``DENOMINATOR_FLOOR``.
    """
    _check_dt(dt)
    factor = 1.0 + dt * (params.beta1 * lam + params.beta2 * lam * lam)
    low = np.min(factor)
    if low <= DENOMINATOR_FLOOR:
        bad = float(np.ravel(lam)[np.argmin(factor)])
        raise ConfigurationError(
            f"denominator: implicit factor {low:.3e} at lambda={bad:.6g} "
            f"(reduce dt or adjust beta1)"
        )
    return factor


class StepKernel:
    """One run's stepping plan on ``noise.grid``, built before its first step.

    ``stepper`` is the scheme's step and ``ws`` the run's own workspace. The
    linear part is ``divisor``, the :func:`linear_factor` of ``imex_em_ito``
    (its check raises here), or ``symbol``, the ``-b1 lam - b2 lam^2`` of
    ``heun_strat``; the other is None, so a step of the wrong scheme fails.
    Either scheme raises unless dt is positive and finite.
    """

    def __init__(self, params: ModelParams, noise: NoiseModel,
                 trunc: TruncationConfig, dt: float, scheme: str = "imex_em_ito"):
        _check_dt(dt)
        self.grid, self.params, self.noise, self.trunc, self.dt = (
            noise.grid, params, noise, trunc, dt)
        _check_pad(self.grid)
        lam = eigenvalue_array(self.grid)
        self.divisor = self.symbol = None
        if scheme == "imex_em_ito":
            self.stepper, self.divisor = imex_em_step, linear_factor(lam, dt, params)
        elif scheme == "heun_strat":
            self.stepper = heun_strat_step
            self.symbol = -params.beta1 * lam - params.beta2 * lam * lam
        else:
            raise ConfigurationError(f"unknown scheme {scheme!r}")
        self.ws = Workspace(self.grid)

    def parts(self, coeffs: np.ndarray, include_correction: bool, dW: np.ndarray):
        """:func:`_explicit_parts` of ``coeffs`` in this run's workspace."""
        return _explicit_parts(coeffs, self.grid, self.params, self.noise, self.trunc,
                               self.ws, include_correction, dW)


def _explicit_parts(coeffs: np.ndarray, grid: Grid, params: ModelParams,
                    noise: NoiseModel, trunc: TruncationConfig, ws: Workspace,
                    include_correction: bool, dW: np.ndarray | None = None):
    """Explicitly treated drift terms and the noise increment, sharing transforms.

    This is the only assembly of the nonlinear drift. Returns ``(terms,
    increment)``: ``terms`` maps, in summation order, ``penalty`` (b3 Pi((1 -
    |u|^2) u), as b3 (u - Pi(|u|^2 u))), ``precession`` (-b4 Pi(u x Lap u)),
    ``nonlocal`` (b5 theta_R(|grad u|) Lap Pi(|u|^2 u)) and, when
    ``include_correction`` is set and J > 0, ``ito_correction`` to coefficient
    arrays; ``increment`` is ``sum_j G_j(u) dW_j``, None without ``dW`` or if
    J = 0. The linear part is not included. Padded-grid values, products and
    |u|^2 (in ``lap[0]``) go into the workspace ``ws``: at d = 1 the values of
    u and Lap u in :func:`~sllbar.grid.cyclic` form on the run grid, at d >= 2
    u |u|^2 over u's run-grid values and then the precession's values on
    ``grid.quadratic_grid``, in ``ws.quadratic``. Every returned array is fresh.
    """
    neg_lam = grid._neg_eigenvalues
    vals = synthesize(grid, coeffs, out=ws.vals)
    if grid.dim == 1:  # every product of the d = 1 route runs cyclic
        cubic = analyze(grid, np.multiply(vals, _mag2(vals, ws), out=ws.prod))
        qgrid, prod = grid, ws.prod
        vals = cyclic(vals)
        lap_vals = cyclic(synthesize(grid, neg_lam * coeffs, out=ws.lap))
    else:  # u's run-grid values are spent once the cubic is formed over them
        cubic = analyze(grid, np.multiply(vals, _mag2(vals, ws), out=vals))
        qgrid, (vals, lap_vals, prod) = grid.quadratic_grid, ws.quadratic
        vals = synthesize(qgrid, coeffs, out=vals)
        lap_vals = synthesize(qgrid, neg_lam * coeffs, out=lap_vals)
    theta = truncation_scale(grid, coeffs, trunc)
    terms = {
        "penalty": params.beta3 * (coeffs - cubic),
        "precession": -params.beta4 * analyze(qgrid, cross3(vals, lap_vals, out=prod)),
        "nonlocal": (params.beta5 * theta) * neg_lam * cubic,
    }
    if grid.dim == 1:
        inc = None
        if dW is not None and noise.J:
            inc = _diffusion_coeffs(grid, vals, noise, 0, ws) * dW[0]
            for j in range(1, noise.J):
                inc += _diffusion_coeffs(grid, vals, noise, j, ws) * dW[j]
        corr = (_correction_coeffs(grid, vals, noise, ws)
                if include_correction and noise.J > 0 else None)
    else:
        inc, corr = _operator_parts(noise, coeffs, dW, include_correction, ws)
    if corr is not None:
        terms["ito_correction"] = corr
    return terms, inc


def _drift_sum(terms: dict[str, np.ndarray]) -> np.ndarray:
    """The terms summed left to right in dict order, into a fresh array."""
    first, second, *rest = terms.values()
    acc = first + second
    for term in rest:
        acc += term
    return acc


def imex_em_step(kernel: StepKernel, coeffs: np.ndarray, dW: np.ndarray) -> np.ndarray:
    """One semi-implicit Euler-Maruyama step on the Ito form."""
    terms, inc = kernel.parts(coeffs, True, dW)
    acc = _drift_sum(terms)
    acc *= kernel.dt
    acc += coeffs
    if inc is not None:
        acc += inc
    acc /= kernel.divisor
    return acc


def heun_strat_step(kernel: StepKernel, coeffs: np.ndarray, dW: np.ndarray) -> np.ndarray:
    """One explicit Stratonovich Heun step (predictor-corrector)."""
    dt, linear = kernel.dt, kernel.symbol
    terms0, inc0 = kernel.parts(coeffs, False, dW)
    a0 = _drift_sum(terms0)
    a0 += linear * coeffs
    pred = coeffs + dt * a0
    if inc0 is not None:
        pred += inc0
    terms1, inc1 = kernel.parts(pred, False, dW)
    a1 = _drift_sum(terms1)
    a1 += linear * pred
    out = coeffs + 0.5 * dt * (a0 + a1)
    if inc0 is not None:
        out += 0.5 * (inc0 + inc1)
    return out


def _sample_norms(kernel: StepKernel, coeffs: np.ndarray, h1: float) -> tuple[float, ...]:
    """One row of ``NORM_KEYS``; ``h1`` is the H^1 norm the stop check took."""
    l2, grad, h2, h3 = sobolev_norms(
        kernel.grid, coeffs, ((0, False), (1, True), (2, False), (3, False)))
    # theta argument: the same quantity the truncation reads
    return (l2, l4_norm(kernel.grid, coeffs, kernel.ws), h1, h2, h3, grad, grad)


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
    Configuration problems (two observables with one name, an implicit
    denominator too small, a pad factor below ``MIN_PAD_FACTOR``) surface
    before any stepping. Identical inputs give bitwise-identical records.
    """
    grid = noise.grid
    if u0.shape != grid.field_shape:
        raise ConfigurationError(f"initial data shape {u0.shape} does not match "
                                 f"the noise model grid {grid.field_shape}")
    first = {}
    for i, psi in enumerate(observables):
        if first.setdefault(psi.name, i) != i:
            raise ConfigurationError(f"observables {first[psi.name]} and {i} share "
                                     f"the name {psi.name!r}")
    dt, n_steps = config.dt, config.n_steps
    kernel = StepKernel(params, noise, config.truncation, dt, config.scheme)
    h1_weight = (_sobolev_weight(grid, 1.0, False),)  # sobolev_norm(grid, u, 1)

    sample_steps: list[int] = []
    norm_rows: list[tuple[float, ...]] = []
    obs_rows: list[list[float]] = []
    snap_steps: list[int] = []
    snaps: list[np.ndarray] = []

    u = u0.copy()
    stop_reason = None
    m = 0
    while True:
        (h1,) = _weighted_norms(u, h1_weight)
        if m and not math.isfinite(h1) and not np.isfinite(u).all():
            stop_reason = STOP_NONFINITE
        elif h1 > config.blowup_K:
            stop_reason = STOP_BLOWUP
        elif m == n_steps:
            stop_reason = STOP_COMPLETED
        if m % config.record_every == 0 or stop_reason:
            sample_steps.append(m)
            norm_rows.append(_sample_norms(kernel, u, h1))
            obs_rows.append([float(psi(grid, u)) for psi in observables])
        if config.snapshot_every is not None and m % config.snapshot_every == 0:
            snap_steps.append(m)
            snaps.append(u)  # never written to: each step returns a new array
        if stop_reason:
            break
        inc = coupled_increments(config.seed, path, m, noise.J, dt, config.substeps)
        u = kernel.stepper(kernel, u, inc.values)
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
