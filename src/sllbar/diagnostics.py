"""Executable identities, residuals and refinement checks.

These turn the structural facts the scheme relies on into numbers:

* the precession term is L^2-orthogonal to the state,
* the cubic term satisfies exact gradient / integration-by-parts identities,
* noise-off trajectories balance the L^2 energy identity to O(dt),
* trajectories satisfy the weak and very-weak integral formulations against
  basis test functions up to an O(dt) quadrature defect,
* Galerkin refinement with frozen noise keys shrinks the solution gap.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .grid import (
    Grid,
    analyze,
    cross3,
    eigenvalue_array,
    embed,
    gradient_values,
    lp_norm,
    quad_weight,
    sobolev_norm,
    synthesize,
)
from .integrator import (
    STOP_COMPLETED,
    BlowupAbort,
    SolverConfig,
    TrajectoryRecord,
    run_trajectory,
)
from .model import ModelParams, cubic_field, precession, truncation_scale
from .noise import (NoiseModel, coupled_increments, _correction_coeffs,
                    _diffusion_coeffs)


@dataclass
class ResidualSeries:
    times: np.ndarray
    values: np.ndarray
    normalization: float

    def __post_init__(self):
        if len(self.times) != len(self.values):
            raise ValueError("times and values must have equal length")


def identity_cross(grid: Grid, coeffs: np.ndarray) -> float:
    """Normalized ``(Pi(u x Lap u), u)``; vanishes identically."""
    num = float((precession(grid, coeffs) * coeffs).sum())  # Parseval-exact
    denom = sobolev_norm(grid, coeffs, 1) * sobolev_norm(grid, coeffs, 2)
    if denom == 0.0:
        return 0.0
    return num / denom


def _gradient_quadratics(grid: Grid, coeffs: np.ndarray):
    """Quadrature values of |u.grad u|^2 and |u|^2 |grad u|^2."""
    vals = synthesize(grid, coeffs)
    grads = gradient_values(grid, coeffs)
    w = quad_weight(grid)
    mag2 = (vals * vals).sum(axis=0)
    u_dot_grad_sq = np.zeros(grid.padded)
    grad_sq = np.zeros(grid.padded)
    for g in grads:
        u_dot_grad_sq += ((vals * g).sum(axis=0)) ** 2
        grad_sq += (g * g).sum(axis=0)
    return float(u_dot_grad_sq.sum() * w), float((mag2 * grad_sq).sum() * w)


def identity_cubic_gradient(grid: Grid,
                            coeffs: np.ndarray) -> tuple[float, float, float]:
    """``(grad(|u|^2 u), grad u) = 2 |u.grad u|^2 + | |u| |grad u| |^2``.

    The left side pairs the spectrally differentiated projected cubic with
    grad u by quadrature; modes dropped by the projection are orthogonal to
    the retained gradient modes, so the pairing equals the unprojected one.
    """
    gw = gradient_values(grid, cubic_field(grid, coeffs))
    gu = gradient_values(grid, coeffs)
    w = quad_weight(grid)
    lhs = float(sum((a * b).sum() for a, b in zip(gw, gu)) * w)
    cross_sq, mixed_sq = _gradient_quadratics(grid, coeffs)
    rhs = 2.0 * cross_sq + mixed_sq
    residual = (lhs - rhs) / max(1.0, abs(lhs))
    return lhs, rhs, residual


def identity_cubic_ibp(grid: Grid,
                       coeffs: np.ndarray) -> tuple[float, float, float]:
    """``(Lap(|u|^2 u), u) = -2 |u.grad u|^2 - | |u| |grad u| |^2``."""
    lap_cubic = synthesize(grid, -eigenvalue_array(grid) * cubic_field(grid, coeffs))
    u_vals = synthesize(grid, coeffs)
    lhs = float((lap_cubic * u_vals).sum() * quad_weight(grid))
    cross_sq, mixed_sq = _gradient_quadratics(grid, coeffs)
    rhs = -2.0 * cross_sq - mixed_sq
    residual = (lhs - rhs) / max(1.0, abs(lhs))
    return lhs, rhs, residual


def energy_balance_l2(traj: TrajectoryRecord,
                      params: ModelParams) -> ResidualSeries:
    """Per-step defect of the deterministic L^2 energy identity.

    For a noise-off trajectory the forward difference of ``|u|^2 / 2``
    balances the dissipation terms; the b5 contribution is evaluated through
    the integration-by-parts identity, with theta_R from the record's own
    truncation setting. Reads the record's coefficient snapshots, which
    ``run_trajectory`` writes every ``snapshot_every`` steps. The defect is
    O(dt) for the semi-implicit scheme.
    """
    if traj.J > 0:
        raise ValueError("energy balance holds for noise-off runs only (J = 0)")
    if traj.snapshots is None:
        raise ValueError("trajectory was run without snapshots")
    if len(traj.snapshots) < 2:
        raise ValueError("need at least two snapshots")
    ts = np.asarray(traj.snapshot_steps) * traj.config.dt
    spacing = float(ts[1] - ts[0])
    grid, states = traj.grid, traj.snapshots
    trunc = traj.config.truncation

    residuals = np.zeros(len(states) - 1)
    half_l2_sq = [0.5 * sobolev_norm(grid, u, 0) ** 2 for u in states]
    sup_l2 = max(sobolev_norm(grid, u, 0) for u in states)
    for m in range(len(states) - 1):
        u = states[m]
        cross_sq, mixed_sq = _gradient_quadratics(grid, u)
        theta = truncation_scale(grid, u, trunc)
        ddt = (half_l2_sq[m + 1] - half_l2_sq[m]) / spacing
        residuals[m] = (
            ddt
            + params.beta1 * sobolev_norm(grid, u, 1, seminorm=True) ** 2
            + params.beta2 * sobolev_norm(grid, u, 2, seminorm=True) ** 2
            + params.beta3 * lp_norm(grid, u, 4) ** 4
            - params.beta3 * sobolev_norm(grid, u, 0) ** 2
            + params.beta5 * theta * (2.0 * cross_sq + mixed_sq)
        )
    normalization = max(1.0, sup_l2**2)
    return ResidualSeries(ts[:-1], residuals / normalization, normalization)


def weak_form_residual(traj: TrajectoryRecord, params: ModelParams,
                       noise: NoiseModel, phi_index: tuple[int, ...],
                       component: int = 0, form: str = "weak") -> float:
    """Defect of the integral solution identity against one basis mode.

    ``form="weak"`` pairs the biharmonic and nonlocal terms as
    ``(grad Lap u, grad phi)`` / ``(grad(|u|^2 u), grad phi)`` (H^1 test
    functions); ``form="very_weak"`` pairs them as ``(Lap u, Lap phi)`` /
    ``(|u|^2 u, Lap phi)`` (H^2 test functions). Time integrals use
    left-endpoint sums and the Stratonovich integral is evaluated in Ito
    form plus the correction drift. Increments are regenerated from the keys
    stored on the record, so it must have snapshots at every step.

    Returns ``|lhs - rhs|`` normalized by ``sup_t |u|_L2 |phi|_L2``.
    """
    if form not in ("weak", "very_weak"):
        raise ValueError("form must be 'weak' or 'very_weak'")
    if traj.snapshots is None:
        raise ValueError("trajectory was run without snapshots")
    steps = np.asarray(traj.snapshot_steps)
    if not np.array_equal(steps, np.arange(len(steps))):
        raise ValueError("weak-form residual needs snapshots at every step")

    grid = traj.grid
    dt = traj.config.dt
    cfg = traj.config
    phi_index = tuple(int(i) for i in phi_index)
    pick = (component,) + phi_index
    lam_phi = float(eigenvalue_array(grid)[phi_index])

    # gradient of the test mode on the padded grid, for the quadrature pairings
    phi_coeffs = np.zeros((3, *grid.modes))
    phi_coeffs[pick] = 1.0
    grad_phi = gradient_values(grid, phi_coeffs)
    w = quad_weight(grid)

    total = 0.0
    sup_l2 = 0.0
    n_steps = len(steps) - 1
    for m in range(n_steps):
        u = traj.snapshots[m]
        sup_l2 = max(sup_l2, sobolev_norm(grid, u, 0))
        vals = synthesize(grid, u)
        mag2 = (vals * vals).sum(axis=0)
        cubic_vals = vals * mag2
        theta = truncation_scale(grid, u, cfg.truncation)

        # common pairings
        pair = -params.beta1 * lam_phi * u[pick]
        pair += params.beta3 * float(u[pick])
        # (u x grad u, grad phi) by quadrature
        gu = gradient_values(grid, u)
        cross_pair = 0.0
        for g, gphi in zip(gu, grad_phi):
            cross_pair += float((cross3(vals, g) * gphi).sum() * w)
        pair += params.beta4 * cross_pair

        cubic_coeffs = analyze(grid, cubic_vals)
        pair += -params.beta3 * float(cubic_coeffs[pick])
        if form == "weak":
            # +b2 (grad Lap u, grad phi) and -b5 theta (grad(|u|^2 u), grad phi)
            pair += params.beta2 * (-(lam_phi**2)) * u[pick]
            gw = gradient_values(grid, cubic_coeffs)
            grad_pair = 0.0
            for g, gphi in zip(gw, grad_phi):
                grad_pair += float((g * gphi).sum() * w)
            pair += -params.beta5 * theta * grad_pair
        else:
            # -b2 (Lap u, Lap phi) and +b5 theta (|u|^2 u, Lap phi)
            pair += -params.beta2 * (lam_phi**2) * u[pick]
            pair += params.beta5 * theta * (-lam_phi) * float(cubic_coeffs[pick])

        if noise.J > 0:
            pair += float(_correction_coeffs(grid, vals, noise)[pick])
            inc = coupled_increments(cfg.seed, traj.path, m, noise.J, dt,
                                     cfg.substeps)
            for j in range(noise.J):
                Gj = _diffusion_coeffs(grid, vals, noise, j)
                total += float(Gj[pick]) * inc.values[j]

        total += dt * float(pair)

    u_last = traj.snapshots[n_steps]
    sup_l2 = max(sup_l2, sobolev_norm(grid, u_last, 0))
    lhs = float(u_last[pick])
    rhs = float(traj.snapshots[0][pick]) + total
    return abs(lhs - rhs) / max(sup_l2, 1e-300)


def strong_convergence_gaps(u0: np.ndarray, params: ModelParams,
                            noise: NoiseModel, config: SolverConfig,
                            halvings: int = 3, paths: int = 8) -> list[float]:
    """Mean L^2 gap at t_end between successive dt-halved runs.

    All levels share one Brownian path per Monte Carlo path via base-step
    increment coupling; the returned list has one entry per halving and
    decreases for a convergent scheme (strong order >= 1/2 here).
    """
    gaps = np.zeros(halvings)
    for path in range(paths):
        finals = []
        for k in range(halvings + 1):
            cfg = replace(config, dt=config.dt / 2**k,
                          substeps=config.substeps * 2 ** (halvings - k),
                          record_every=10**9, snapshot_every=None)
            rec = run_trajectory(u0, params, noise, cfg, path=path)
            if rec.stop_reason != STOP_COMPLETED:
                raise BlowupAbort(
                    f"path {path} at dt={cfg.dt:g} stopped early: {rec.stop_reason}"
                )
            finals.append(rec.final)
        for k in range(halvings):
            gaps[k] += float(
                np.sqrt(((finals[k] - finals[k + 1]) ** 2).sum())
            )
    return list(gaps / paths)


def refinement_gap(u0_builder: Callable[[Grid], np.ndarray],
                   params: ModelParams,
                   noise_builder: Callable[[Grid], NoiseModel],
                   config: SolverConfig, box: Grid,
                   n_coarse: int, n_fine: int, path: int = 0) -> float:
    """Sup over sampled times of the L^2 gap between two resolutions.

    Both runs consume identical increment keys; the coarse solution is
    embedded into the fine mode set for the comparison. The noise family
    must be representable on the coarse grid (the builder raises otherwise).
    """
    if n_coarse >= n_fine:
        raise ValueError("n_coarse must be smaller than n_fine")
    gaps = []
    records = []
    for n in (n_coarse, n_fine):
        grid = box.with_modes((n,) * box.dim)
        cfg = replace(config, snapshot_every=config.record_every)
        records.append(
            run_trajectory(u0_builder(grid), params, noise_builder(grid), cfg,
                           path=path)
        )
    coarse, fine = records
    if coarse.stop_time != fine.stop_time:
        raise BlowupAbort("runs stopped at different times; cannot compare")
    fine_grid = fine.grid
    for cs, fs in zip(coarse.snapshots, fine.snapshots):
        cf = embed(coarse.grid, cs, fine_grid)
        gaps.append(float(np.sqrt(((cf - fs) ** 2).sum())))
    return max(gaps)
