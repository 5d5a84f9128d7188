"""Acceptance suite: every criterion at its stated tolerance.

Each test carries its tolerance inline; a terminal-summary hook prints one
pass/fail line per criterion. The stochastic experiments (5, 9, 10, 11)
dominate the runtime (several minutes total); everything else is seconds.
"""

import math
import time

import numpy as np
import pytest

from sllbar.cli import run_command
from sllbar.diagnostics import (
    identity_cross,
    identity_cubic_gradient,
    refinement_gap,
    weak_form_residual,
)
from sllbar.ensemble import (
    Observable,
    h2_time_average,
    invariant_average,
    run_ensemble,
    tightness_statistic,
)
from sllbar.grid import (
    Grid,
    constant_field,
    eigenmode_field,
    random_field,
    sobolev_norm,
    synthesize,
)
from sllbar.integrator import SolverConfig, run_trajectory
from sllbar.model import ModelParams, TruncationConfig
from sllbar.noise import NoiseModel, build_noise_modes

TINY = 1e-300  # keeps a nonlinearity positive-coefficient but inert


def two_mode_noise(grid, sigma=0.1, directions=((1, 0, 0), (0, 0, 1))):
    return build_noise_modes(
        {"family": "eigenmode", "modes": [
            {"sigma": sigma, "index": (1,), "direction": directions[0]},
            {"sigma": sigma, "index": (2,), "direction": directions[1]},
        ]},
        grid,
    )


def small_data_setting():
    """d=1 box of length pi, N=16, J=2; the small-data invariant-measure
    configuration shared by criteria 9, 10 and 11."""
    grid = Grid(1, (np.pi,), (16,))
    params = ModelParams(0.5, 1.0, 1.0, 1.0, 1.0)
    noise = two_mode_noise(grid, sigma=0.1)
    u0 = constant_field(grid, (0.05, 0.0, 0.0))
    assert sobolev_norm(grid, u0, 1) <= 0.1
    return grid, params, noise, u0


def test_01_logistic_oracle():
    """beta3 alone, constant data: |u(1)|^2 matches the logistic closed form
    within 1e-4, in under a second."""
    grid = Grid(1, (np.pi,), (4,))
    params = ModelParams(0.0, TINY, 1.0, TINY, TINY)
    cfg = SolverConfig(dt=1e-4, t_end=1.0, record_every=1000)
    start = time.perf_counter()
    rec = run_trajectory(constant_field(grid, (0.5, 0, 0)), params,
                         NoiseModel.empty(grid), cfg)
    elapsed = time.perf_counter() - start
    vals = synthesize(grid, rec.final)
    mag2 = float((vals * vals).sum(axis=0).flat[0])
    r0 = 0.25
    exact = r0 * math.exp(2.0) / (1 - r0 + r0 * math.exp(2.0))
    # 0.711236 is the closed form rounded to six figures
    assert exact == pytest.approx(0.711236, abs=2e-6)
    assert abs(mag2 - exact) < 1e-4
    assert abs(mag2 - 0.711236) < 1e-4
    assert elapsed < 1.0


def test_02_linear_mode_decay():
    """Single mode, nonlinearities off: error vs exp(-(b1 l + b2 l^2) t)
    halves with dt (factor 2 +- 0.2 over 3 halvings), in under a second."""
    grid = Grid(1, (np.pi,), (4,))
    params = ModelParams(1.0, 1.0, TINY, TINY, TINY)
    u0 = eigenmode_field(grid, (1,), (1.0, 0.0, 0.0))
    rate = params.beta1 * 1.0 + params.beta2 * 1.0
    start = time.perf_counter()
    errors = []
    for k in range(4):
        cfg = SolverConfig(dt=0.01 / 2**k, t_end=1.0, record_every=10**6)
        rec = run_trajectory(u0, params, NoiseModel.empty(grid), cfg)
        errors.append(abs(rec.final[0, 1] - math.exp(-rate)))
    elapsed = time.perf_counter() - start
    for a, b in zip(errors[:-1], errors[1:]):
        assert a / b == pytest.approx(2.0, abs=0.2)
    assert elapsed < 1.0


@pytest.mark.parametrize("grid", [
    Grid(1, (np.pi,), (12,)),
    Grid(2, (np.pi, 2.0), (6, 5)),
    Grid(3, (np.pi, 1.0, 1.5), (4, 4, 4)),
], ids=["d1", "d2", "d3"])
def test_03_cross_product_identity(grid):
    """Normalized (Pi(u x Lap u), u) below 1e-12 on 100 random fields."""
    rng = np.random.default_rng(314)
    worst = max(abs(identity_cross(grid, random_field(grid, rng))) for _ in range(100))
    assert worst < 1e-12


def test_04_cubic_identities():
    """Gradient identity residual below 1e-8 on 100 random fields; the
    closed-form case u = (cos x, 0, 0) gives 3 pi / 8 within 1e-10."""
    grid = Grid(1, (np.pi,), (10,))
    rng = np.random.default_rng(1618)
    worst = max(
        abs(identity_cubic_gradient(grid, random_field(grid, rng))[2])
        for _ in range(100)
    )
    assert worst < 1e-8
    amp = 1 / math.sqrt(2 / np.pi)
    u = eigenmode_field(grid, (1,), (amp, 0.0, 0.0))
    lhs, rhs, _ = identity_cubic_gradient(grid, u)
    assert rhs == pytest.approx(3 * np.pi / 8, abs=1e-10)
    assert lhs == pytest.approx(3 * np.pi / 8, abs=1e-10)


def test_05_ito_stratonovich_equivalence():
    """d=1, N=16, J=2, M=64 paths with shared increment keys: the mean sup-t
    L2 gap between the Ito IMEX and Stratonovich Heun runs shrinks under
    dt-halving with empirical order >= 0.5, within 5 minutes."""
    L = 10 * np.pi  # wide box keeps the explicit scheme stable at N=16
    grid = Grid(1, (L,), (16,))
    params = ModelParams(0.5, 1.0, 1.0, 1.0, 1.0)
    noise = two_mode_noise(grid, sigma=0.2)
    u0 = constant_field(grid, (0.2, 0, 0)) + eigenmode_field(grid, (1,), (0, 0.2, 0))
    M, halvings, dt0, t_end = 64, 3, 8e-3, 1.0

    start = time.perf_counter()
    sup_gap = np.zeros(halvings + 1)
    for path in range(M):
        for k in range(halvings + 1):
            dt = dt0 / 2**k
            common = dict(dt=dt, t_end=t_end, seed=21, record_every=10**6,
                          substeps=2 ** (halvings - k),
                          snapshot_every=int(round(0.04 / dt)))
            em = run_trajectory(u0, params, noise,
                                SolverConfig(scheme="imex_em_ito", **common),
                                path=path)
            he = run_trajectory(u0, params, noise,
                                SolverConfig(scheme="heun_strat", **common),
                                path=path)
            diff = em.snapshots - he.snapshots
            sup_gap[k] += np.sqrt((diff**2).sum(axis=(1, 2))).max()
    sup_gap /= M
    elapsed = time.perf_counter() - start

    assert np.all(np.diff(sup_gap) < 0)
    orders = [math.log2(sup_gap[k] / sup_gap[k + 1]) for k in range(halvings)]
    assert min(orders) >= 0.5
    assert elapsed < 300.0


def test_06_truncation_neutrality():
    """With R at 10x the observed max gradient norm the truncated and plain
    schemes produce bitwise-identical trajectories."""
    grid = Grid(1, (np.pi,), (16,))
    params = ModelParams(0.5, 1.0, 1.0, 1.0, 1.0)
    noise = two_mode_noise(grid, sigma=0.1)
    u0 = constant_field(grid, (0.2, 0, 0)) + eigenmode_field(grid, (1,), (0, 0.2, 0))
    base = SolverConfig(dt=0.01, t_end=2.0, seed=6, record_every=1)
    probe = run_trajectory(u0, params, noise, base)
    R = 10.0 * float(probe.norms["grad_l2"].max())

    trunc_cfg = SolverConfig(dt=0.01, t_end=2.0, seed=6, record_every=1,
                             truncation=TruncationConfig.on(R))
    rec_on = run_trajectory(u0, params, noise, trunc_cfg)
    assert np.array_equal(rec_on.final, probe.final)
    for key in probe.norms:
        assert np.array_equal(rec_on.norms[key], probe.norms[key])


DETERMINISM_CFG = """
[grid]
dim = 1
lengths = 3.141592653589793
modes = 12

[params]
beta1 = 0.5
beta2 = 1.0
beta3 = 1.0
beta4 = 1.0
beta5 = 1.0

[solver]
dt = 0.01
t_end = 0.5
record_every = 5
seed = 77

[noise]
family = eigenmode

[noise.mode.1]
sigma = 0.1
index = 1
direction = 1, 0, 0

[noise.mode.2]
sigma = 0.1
index = 2
direction = 0, 0, 1

[initial]
type = constant
vector = 0.2, 0, 0

[experiment]
ensemble_m = 4
moment_powers = 1
workers = {workers}

[observable.1]
kind = exp_neg_l2
scale = 2.0
"""


def test_07_determinism(tmp_path):
    """Identical config+seed gives bitwise-identical CSV and JSON across
    repeated runs and across ensemble parallelism levels."""
    files = {}
    for tag, workers in (("w1a", 1), ("w1b", 1), ("w2", 2)):
        cfg_file = tmp_path / f"{tag}.cfg"
        cfg_file.write_text(DETERMINISM_CFG.format(workers=workers))
        out = tmp_path / tag
        assert run_command(["ensemble", "--config", str(cfg_file),
                            "--output-dir", str(out), "--quiet"]) == 0
        files[tag] = {
            name: (out / name).read_bytes()
            for name in ("report.json", "ensemble_norms.csv", "observables.csv")
        }
    assert files["w1a"] == files["w1b"]  # repeated run
    assert files["w1a"] == files["w2"]   # different parallelism level

    sim_bytes = []
    for tag in ("s1", "s2"):
        cfg_file = tmp_path / f"{tag}.cfg"
        cfg_file.write_text(DETERMINISM_CFG.format(workers=1))
        out = tmp_path / tag
        assert run_command(["simulate", "--config", str(cfg_file),
                            "--output-dir", str(out), "--quiet"]) == 0
        sim_bytes.append((out / "trajectory.csv").read_bytes()
                         + (out / "report.json").read_bytes())
    assert sim_bytes[0] == sim_bytes[1]


def test_08_galerkin_refinement():
    """d=1 nonlinear stochastic run with frozen noise keys: refinement gaps
    over 16->32, 32->64, 64->128 are strictly decreasing."""
    box = Grid(1, (np.pi,), (16,))
    params = ModelParams(0.5, 0.01, 1.0, 1.0, 1.0)
    cfg = SolverConfig(dt=5e-4, t_end=0.25, record_every=40, seed=13)

    def u0(grid):
        return (constant_field(grid, (1.5, 0, 0))
                + eigenmode_field(grid, (1,), (0, 1.5, 0))
                + eigenmode_field(grid, (2,), (0, 0, 0.75)))

    def noise(grid):
        return two_mode_noise(grid, sigma=0.5)

    gaps = [
        refinement_gap(u0, params, noise, cfg, box, nc, nf)
        for nc, nf in ((16, 32), (32, 64), (64, 128))
    ]
    assert gaps[0] > gaps[1] > gaps[2]


def test_08_galerkin_refinement_d2():
    """Criterion 8 at d=2, where the step applies the noise through
    coefficient-space operators: refinement gaps over 4->8, 8->16, 16->32
    are strictly decreasing."""
    box = Grid(2, (np.pi, np.pi), (4, 4))
    params = ModelParams(0.5, 0.01, 1.0, 1.0, 1.0)
    cfg = SolverConfig(dt=5e-4, t_end=0.25, record_every=40, seed=13)

    def u0(grid):
        return modes_field(grid, (1.5, 0, 0), [
            ((1, 0), (0, 1.5, 0)), ((0, 2), (0, 0, 0.75)), ((1, 1), (0.5, 0, 0))])

    def noise(grid):
        return build_noise_modes({"family": "eigenmode", "modes": [
            {"sigma": 0.5, "index": (1, 0), "direction": (1, 0, 0)},
            {"sigma": 0.5, "index": (0, 2), "direction": (0, 0, 1)},
        ]}, grid)

    gaps = [
        refinement_gap(u0, params, noise, cfg, box, nc, nf)
        for nc, nf in ((4, 8), (8, 16), (16, 32))
    ]
    assert gaps[0] > gaps[1] > gaps[2]


@pytest.fixture(scope="module")
def growth_stats():
    grid, params, noise, u0 = small_data_setting()
    cfg = SolverConfig(dt=0.01, t_end=50.0, record_every=10, seed=101)
    return run_ensemble(u0, params, noise, cfg, 32, workers=2)


def test_09_h2_time_average_growth(growth_stats):
    """Small data, J=2, T=50, M=32: the quadratic fit of the cumulative H^2
    time average satisfies |c| T / b < 0.05, within 15 minutes."""
    assert growth_stats.blowup_count == 0
    report = h2_time_average(growth_stats)
    assert report.b > 0
    assert report.curvature_ratio < 0.05


@pytest.fixture(scope="module")
def tightness_stats():
    grid, params, noise, u0 = small_data_setting()
    cfg = SolverConfig(dt=0.01, t_end=100.0, record_every=10, seed=102)
    return run_ensemble(u0, params, noise, cfg, 32, workers=2)


def test_10_tightness(tightness_stats):
    """Same setting at T=100: some configured R has exceedance fraction
    below 0.01, and the statistic is monotone nonincreasing in R."""
    r_list = (0.5, 1.0, 2.0, 4.0, 8.0)
    values = [tightness_statistic(tightness_stats, r, "H1") for r in r_list]
    assert min(values) < 0.01
    assert all(a >= b for a, b in zip(values[:-1], values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)


OBSERVABLE_CATALOG = (
    Observable("exp_neg_l2", scale=2.0),
    Observable("clip_norm", space="L2", cap=3.0),
    Observable("clip_norm", space="H1", cap=4.0),
    Observable("tanh_mode", mode_index=(0,), component=0, scale=1.0),
)


@pytest.fixture(scope="module")
def invariant_runs():
    grid, params, noise, u0a = small_data_setting()
    # second small initial datum in the same attraction basin
    u0b = constant_field(grid, (0.03, 0, 0)) + eigenmode_field(
        grid, (1,), (0.0, 0.02, 0.0)
    )
    assert sobolev_norm(grid, u0b, 1) <= 0.1
    T = 200.0
    out = []
    for u0, seed in ((u0a, 201), (u0b, 202)):
        cfg = SolverConfig(dt=0.01, t_end=T, record_every=20, seed=seed)
        stats = run_ensemble(u0, params, noise, cfg, 16,
                             observables=OBSERVABLE_CATALOG, workers=2)
        assert stats.blowup_count == 0
        out.append(stats)
    return out


def test_11_invariant_averaging_stabilization(invariant_runs):
    """T=200: the window averages over [T/4, T/2] and [T/2, T] differ by
    less than 5% relative for every catalog observable, and two distinct
    small initial data agree within 3 combined standard errors."""
    stats_a, stats_b = invariant_runs
    T = 200.0
    for psi in OBSERVABLE_CATALOG:
        rep_a = invariant_average(stats_a, psi.name, burn_in=T / 4)
        rep_b = invariant_average(stats_b, psi.name, burn_in=T / 4)
        for rep in (rep_a, rep_b):
            m1, m2 = rep.window_means
            assert abs(m1 - m2) / max(abs(m1), abs(m2)) < 0.05
        diff = abs(rep_a.window_means[1] - rep_b.window_means[1])
        combined = math.hypot(rep_a.window_ses[1], rep_b.window_ses[1])
        assert diff <= 3.0 * combined


def test_12_noise_condition_closed_form():
    """C_h for eigenmode families matches sum sigma_j^2 (1 + lambda_j)^3
    within 1e-10: 8 sigma^2 for one unit-eigenvalue mode, 39.25 for the
    two-mode case sigma = (1, 1/2), lambda = (1, 4)."""
    grid = Grid(1, (np.pi,), (8,))
    sigma = 0.5
    single = build_noise_modes(
        {"family": "eigenmode",
         "modes": [{"sigma": sigma, "index": (1,), "direction": (0, 0, 1)}]},
        grid,
    )
    assert abs(single.C_h - 8 * sigma**2) < 1e-10
    double = build_noise_modes(
        {"family": "eigenmode", "modes": [
            {"sigma": 1.0, "index": (1,), "direction": (0, 0, 1)},
            {"sigma": 0.5, "index": (2,), "direction": (1, 0, 0)},
        ]},
        grid,
    )
    assert abs(double.C_h - 39.25) < 1e-10


def assert_residuals_halve(grid, noise, u0, phis):
    """Both the weak and very-weak residuals against each (test mode,
    component) of ``phis`` fall by a factor of 2 +- 0.4 per dt halving, over
    4 dt levels from 0.01 to t = 0.2 on one coupled Brownian path."""
    params = ModelParams(0.5, 1.0, 1.0, 1.0, 1.0)
    halvings = 3
    residuals = {}
    for level in range(halvings + 1):
        dt = 0.01 / 2**level
        cfg = SolverConfig(dt=dt, t_end=0.2, seed=31, snapshot_every=1,
                           record_every=10**6, substeps=2 ** (halvings - level))
        traj = run_trajectory(u0, params, noise, cfg)
        for phi, comp in phis:
            for form in ("weak", "very_weak"):
                residuals.setdefault((phi, comp, form), []).append(
                    weak_form_residual(traj, params, noise, phi, comp, form)
                )
    for key, values in residuals.items():
        for a, b in zip(values[:-1], values[1:]):
            assert a / b == pytest.approx(2.0, abs=0.4), key


def modes_field(grid, constant, modes):
    return constant_field(grid, constant) + sum(
        eigenmode_field(grid, k, v) for k, v in modes)


def test_13_weak_form_residuals():
    """Five basis test functions on a d=1 stochastic run: both the weak and
    very-weak residuals decrease by a factor of about 2 per dt halving."""
    grid = Grid(1, (2 * np.pi,), (16,))
    u0 = modes_field(grid, (0.3, 0, 0), [((1,), (0, 0.3, 0)), ((2,), (0, 0, 0.15)),
                                         ((4,), (0.1, 0, 0)), ((5,), (0, 0.1, 0))])
    phis = [((1,), 0), ((2,), 2), ((3,), 1), ((4,), 0), ((5,), 1)]
    assert_residuals_halve(grid, two_mode_noise(grid, sigma=0.1), u0, phis)


def test_13_weak_form_residuals_d2():
    """Criterion 13 at d=2, N=8, where the step applies the noise through
    coefficient-space operators. The test modes see the Ito correction:
    with the step's correction dropped or halved, 3 or more of the 5 fail."""
    grid = Grid(2, (2 * np.pi, 2 * np.pi), (8, 8))
    noise = build_noise_modes({"family": "eigenmode", "modes": [
        {"sigma": 0.1, "index": (1, 0), "direction": (1, 0, 0)},
        {"sigma": 0.1, "index": (0, 1), "direction": (0, 0, 1)},
    ]}, grid)
    u0 = modes_field(grid, (0.3, 0, 0), [
        ((1, 0), (0, 0.3, 0)), ((0, 1), (0, 0, 0.15)), ((1, 1), (0.1, 0, 0)),
        ((2, 0), (0, 0.1, 0))])
    phis = [((1, 0), 1), ((0, 1), 2), ((1, 1), 0), ((2, 0), 1), ((0, 2), 1)]
    assert_residuals_halve(grid, noise, u0, phis)


def test_13_weak_form_residuals_d3():
    """Criterion 13 at d=3, N=6, as at d=2; with the step's Ito correction
    dropped or halved, 3 of the 5 test modes fail (at sigma = 0.1, halving
    it went unseen)."""
    grid = Grid(3, (2 * np.pi,) * 3, (6, 6, 6))
    noise = build_noise_modes({"family": "eigenmode", "modes": [
        {"sigma": 0.2, "index": (1, 0, 0), "direction": (1, 0, 0)},
        {"sigma": 0.2, "index": (0, 1, 0), "direction": (0, 0, 1)},
        {"sigma": 0.2, "index": (0, 0, 1), "direction": (0, 1, 0)},
    ]}, grid)
    u0 = modes_field(grid, (0.3, 0, 0), [
        ((1, 0, 0), (0, 0.3, 0)), ((0, 1, 0), (0, 0, 0.15)),
        ((0, 0, 1), (0.1, 0, 0)), ((1, 1, 0), (0, 0.1, 0))])
    phis = [((1, 0, 0), 1), ((0, 1, 0), 2), ((0, 0, 1), 0), ((1, 1, 0), 1),
            ((2, 0, 0), 1)]
    assert_residuals_halve(grid, noise, u0, phis)
