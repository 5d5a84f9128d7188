"""Executable identities, residuals and refinement checks.

These turn the structural facts the scheme relies on into numbers:

* the precession term is L^2-orthogonal to the state,
* the cubic term satisfies exact gradient / integration-by-parts identities,
  both read off one :func:`identity_cubic` pass,
* noise-off trajectories balance the L^2 energy identity to O(dt),
* trajectories satisfy the weak and very-weak integral formulations against
  basis test functions up to an O(dt) quadrature defect,
* Galerkin refinement with frozen noise keys shrinks the solution gap.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import (
    Grid,
    Workspace,
    analyze,
    check_mode_index,
    cross3,
    cyclic,
    eigenmode_field,
    eigenvalue_array,
    embed,
    gradient_values,
    is_integer,
    l4_norm,
    quad_weight,
    sobolev_norm,
    sobolev_norms,
    synthesize,
)
from .ensemble import run_trajectories
from .integrator import STOP_COMPLETED, BlowupAbort, SolverConfig, TrajectoryRecord
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


def _gradient_quadratics(grid: Grid, vals: np.ndarray,
                         grads: list[np.ndarray]) -> float:
    """``P = 2 |u.grad u|^2 + | |u| |grad u| |^2`` by quadrature, from the
    padded-grid values of u and of its gradient."""
    w = quad_weight(grid)
    mag2 = (vals * vals).sum(axis=0)
    u_dot_grad_sq = np.zeros(grid.padded)
    grad_sq = np.zeros(grid.padded)
    for g in grads:
        u_dot_grad_sq += ((vals * g).sum(axis=0)) ** 2
        grad_sq += (g * g).sum(axis=0)
    return 2.0 * float(u_dot_grad_sq.sum() * w) + float((mag2 * grad_sq).sum() * w)


def identity_cubic(grid: Grid, coeffs: np.ndarray) -> tuple[tuple[float, ...], ...]:
    """``(lhs, rhs, residual)`` of the gradient form ``(grad(|u|^2 u), grad u)
    = P`` and then of the integration by parts ``(Lap(|u|^2 u), u) = -P``,
    with ``P = 2 |u.grad u|^2 + | |u| |grad u| |^2``. The left sides pair the
    projected cubic's gradient with grad u, or its Laplacian with u, by
    quadrature; modes dropped by the projection are orthogonal to the
    retained ones, so the pairings equal the unprojected ones. The cubic, u's
    values and grad u are computed once for both forms.
    """
    cubic = cubic_field(grid, coeffs)
    u_vals = synthesize(grid, coeffs)
    gu = gradient_values(grid, coeffs)
    w = quad_weight(grid)
    p = _gradient_quadratics(grid, u_vals, gu)
    grad_cubic = gradient_values(grid, cubic)
    grad_lhs = float(sum((a * b).sum() for a, b in zip(grad_cubic, gu)) * w)
    lap_cubic = synthesize(grid, -eigenvalue_array(grid) * cubic)
    ibp_lhs = float((lap_cubic * u_vals).sum() * w)
    return tuple((lhs, rhs, (lhs - rhs) / max(1.0, abs(lhs)))
                 for lhs, rhs in ((grad_lhs, p), (ibp_lhs, -p)))


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
    trunc, ws = traj.config.truncation, Workspace(traj.grid)

    residuals = np.zeros(len(states) - 1)
    norms = [sobolev_norms(grid, u, ((0, False), (1, True), (2, True)))
             for u in states]  # each snapshot's L^2 norm and H^1, H^2 seminorms
    for m, (u, (l2, h1, h2)) in enumerate(zip(states[:-1], norms)):
        l4 = l4_norm(grid, u, ws)  # leaves u's values in ws.vals, read by P
        p = _gradient_quadratics(grid, ws.vals, gradient_values(grid, u))
        theta = truncation_scale(grid, u, trunc, grad_l2=h1)
        ddt = (0.5 * norms[m + 1][0] ** 2 - 0.5 * l2 ** 2) / spacing
        residuals[m] = (ddt + params.beta1 * h1 ** 2 + params.beta2 * h2 ** 2
                        + params.beta3 * l4 ** 4 - params.beta3 * l2 ** 2
                        + params.beta5 * theta * p)
    normalization = max(1.0, max(l2 for l2, _, _ in norms) ** 2)
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
    phi_index = check_mode_index(grid, phi_index)
    if not is_integer(component) or component not in (0, 1, 2):
        raise ValueError(f"component must be 0, 1 or 2, got {component!r}")
    pick = (component,) + phi_index
    lam_phi = float(eigenvalue_array(grid)[phi_index])

    phi = eigenmode_field(grid, phi_index, np.eye(3)[component])  # the test mode
    grad_phi = gradient_values(grid, phi)  # padded-grid values, for the pairings
    w = quad_weight(grid)
    ws = Workspace(grid)

    total = 0.0
    sup_l2 = 0.0
    n_steps = len(steps) - 1
    for m in range(n_steps):
        u = traj.snapshots[m]
        sup_l2 = max(sup_l2, sobolev_norm(grid, u, 0))
        vals = synthesize(grid, u, out=ws.vals)
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
            cyc = cyclic(vals)  # the noise pairings take u's values cyclic
            pair += float(_correction_coeffs(grid, cyc, noise, ws)[pick])
            inc = coupled_increments(cfg.seed, traj.path, m, noise.J, dt,
                                     cfg.substeps)
            for j in range(noise.J):
                Gj = _diffusion_coeffs(grid, cyc, noise, j, ws)
                total += float(Gj[pick]) * inc.values[j]

        total += dt * float(pair)

    u_last = traj.snapshots[n_steps]
    sup_l2 = max(sup_l2, sobolev_norm(grid, u_last, 0))
    lhs = float(u_last[pick])
    rhs = float(traj.snapshots[0][pick]) + total
    return abs(lhs - rhs) / max(sup_l2, 1e-300)


def strong_convergence_gaps(u0: np.ndarray, params: ModelParams,
                            noise: NoiseModel, config: SolverConfig, *,
                            halvings: int, paths: int, workers: int = 1) -> list[float]:
    """Mean L^2 gap at t_end between successive dt-halved runs.

    All levels share one Brownian path per Monte Carlo path via base-step
    increment coupling; the returned list has one entry per halving and
    decreases for a convergent scheme (strong order >= 1/2 here). Each (level,
    path) run is a :func:`~sllbar.ensemble.run_trajectories` job on up to
    ``workers`` processes; the gaps are the same at any count.
    """
    if halvings < 0:
        raise ValueError(f"halvings must be >= 0, got {halvings}")
    if paths < 1:
        raise ValueError(f"paths must be >= 1, got {paths}")
    levels = [replace(config, dt=config.dt / 2**k, record_every=10**9,
                      snapshot_every=None, substeps=config.substeps * 2 ** (halvings - k))
              for k in range(halvings + 1)]
    records = run_trajectories([(u0, params, noise, cfg, path, ())
                                for cfg in levels for path in range(paths)], workers)
    for rec in records:
        if rec.stop_reason != STOP_COMPLETED:
            raise BlowupAbort(f"path {rec.path} at dt={rec.config.dt:g} stopped "
                              f"early: {rec.stop_reason}")
    gaps = []
    for k in range(halvings):  # in path order: np.sum's pairwise order moves bits
        total = 0.0
        for a, b in zip(records[k * paths:(k + 1) * paths], records[(k + 1) * paths:]):
            total += float(np.sqrt(((a.final - b.final) ** 2).sum()))
        gaps.append(total / paths)
    return gaps


def refinement_gap(coarse: tuple[np.ndarray, NoiseModel],
                   fine: tuple[np.ndarray, NoiseModel], params: ModelParams,
                   config: SolverConfig) -> float:
    """Sup over sampled times of the L^2 gap between two resolutions.

    ``coarse`` and ``fine`` are built ``(u0, noise)`` levels, each on its
    noise model's grid; the fine grid is the coarse one's box with more modes
    on every axis. Both runs are path 0, with identical increment keys, in
    this process; the coarse solution is embedded into the fine mode set for
    the comparison. Both must reach ``t_end`` (:class:`BlowupAbort` otherwise).
    """
    grids = coarse[1].grid, fine[1].grid
    if grids[0].with_modes(grids[1].modes) != grids[1] or any(
            nc >= nf for nc, nf in zip(grids[0].modes, grids[1].modes)):
        raise ValueError("the fine level must be the coarse level's box with more "
                         "modes on every axis")
    cfg = replace(config, snapshot_every=config.record_every)
    runs = run_trajectories([(u0, params, noise, cfg, 0, ())
                             for u0, noise in (coarse, fine)])
    for rec in runs:
        if rec.stop_reason != STOP_COMPLETED:
            raise BlowupAbort(f"run at N={rec.grid.modes[0]} stopped early at "
                              f"t={rec.stop_time:g}: {rec.stop_reason}")
    return max(float(np.sqrt(((embed(grids[0], cs, grids[1]) - fs) ** 2).sum()))
               for cs, fs in zip(runs[0].snapshots, runs[1].snapshots))
