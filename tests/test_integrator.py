"""Time stepping: schemes, stopping, recording, determinism, convergence."""

import math
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

import sllbar.grid
import sllbar.integrator
import sllbar.model
import sllbar.noise
from sllbar.grid import (
    Grid,
    Workspace,
    analyze,
    constant_field,
    cross3,
    cyclic,
    eigenmode_field,
    eigenvalue_array,
    random_field,
    sobolev_norm,
    synthesize,
)
from sllbar.integrator import (
    ConfigurationError,
    _explicit_parts,
    SolverConfig,
    StepKernel,
    heun_strat_step,
    imex_em_step,
    linear_factor,
    run_trajectory,
)
from sllbar.model import ModelParams, TruncationConfig
from sllbar.noise import (
    NoiseModel,
    build_noise_modes,
    coupled_increments,
    _diffusion_coeffs,
    sample_increments,
)

RNG = np.random.default_rng(123)
TINY = 1e-300  # effectively disables a nonlinear term while staying positive
G4 = Grid(1, (np.pi,), (4,))


def linear_params(beta1=1.0, beta2=1.0):
    return ModelParams(beta1, beta2, TINY, TINY, TINY)


def small_noise(grid, sigma=0.1):
    return build_noise_modes(
        {"family": "eigenmode", "modes": [
            {"sigma": sigma, "index": (1,), "direction": (1.0, 0.0, 0.0)},
            {"sigma": sigma, "index": (2,), "direction": (0.0, 0.0, 1.0)},
        ]},
        grid,
    )


class TestLinearFactor:
    def test_arithmetic(self):
        p = ModelParams(1.0, 1.0, 1.0, 1.0, 1.0)
        assert linear_factor(1.0, 0.1, p) == pytest.approx(1.2, abs=1e-15)

    def test_mean_mode_unity(self):
        p = ModelParams(-3.0, 2.0, 1.0, 1.0, 1.0)
        assert linear_factor(0.0, 0.5, p) == 1.0

    def test_cancellation_still_valid(self):
        p = ModelParams(-1.0, 1.0, 1.0, 1.0, 1.0)
        assert linear_factor(1.0, 0.1, p) == pytest.approx(1.0, abs=1e-15)

    def test_denominator_guard(self):
        p = ModelParams(-10.0, 0.001, 1.0, 1.0, 1.0)
        with pytest.raises(ConfigurationError, match="denominator"):
            linear_factor(1.0, 0.2, p)

    def test_array_matches_scalar(self):
        p = ModelParams(-3.0, 2.0, 1.0, 1.0, 1.0)
        lam = np.array([[0.0, 1.0], [4.0, 9.0]])
        out = linear_factor(lam, 0.05, p)
        assert out.shape == lam.shape
        assert [linear_factor(x, 0.05, p) for x in lam.ravel()] == list(out.ravel())

    def test_array_guard_names_worst_mode(self):
        p = ModelParams(-10.0, 0.001, 1.0, 1.0, 1.0)
        with pytest.raises(ConfigurationError, match="lambda=4"):
            linear_factor(np.array([0.0, 1.0, 4.0]), 0.2, p)

    @pytest.mark.parametrize("dt", [0.0, -0.1, np.nan, np.inf])
    def test_dt_not_positive_and_finite_rejected(self, dt):
        """A NaN dt once made every divisor NaN."""
        with pytest.raises(ConfigurationError, match="^dt must be positive and finite$"):
            linear_factor(np.array([0.0, 1.0]), dt, ModelParams(1.0, 1.0, 1.0, 1.0, 1.0))


class TestStepKernel:
    def test_denominator_raises_at_build(self):
        p = ModelParams(-50.0, 0.0001, TINY, TINY, TINY)
        with pytest.raises(ConfigurationError, match="denominator"):
            StepKernel(p, NoiseModel.empty(G4), TruncationConfig.off(), 0.1)
        # the explicit scheme has no divisor to check
        StepKernel(p, NoiseModel.empty(G4), TruncationConfig.off(), 0.1, "heun_strat")

    @pytest.mark.parametrize("scheme", ["imex_em_ito", "heun_strat"])
    @pytest.mark.parametrize("dt", [0.0, -0.1, np.nan, np.inf])
    def test_dt_not_positive_and_finite_rejected(self, scheme, dt):
        """``SolverConfig``'s dt rule holds for a kernel built directly; the
        explicit scheme, which has no divisor to check, once took any dt."""
        with pytest.raises(ConfigurationError, match="^dt must be positive and finite$"):
            StepKernel(linear_params(), NoiseModel.empty(G4), TruncationConfig.off(),
                       dt, scheme)

    @pytest.mark.parametrize("pad_factor", [1.0, 1.25, 1.5])
    def test_pad_factor_below_two_raises(self, pad_factor):
        """A padded grid coarser than 2N aliases the products. At pad factor
        1.25 this run once completed, its final state off the pad-2 run's by
        1.8e-3 of its largest entry."""
        g = Grid(1, (np.pi,), (8,), pad_factor=pad_factor)
        noise = build_noise_modes({"family": "eigenmode", "modes": [
            {"sigma": 0.5, "index": (5,), "direction": (1, 0, 0)}]}, g)
        u0 = (constant_field(g, (0.3, 0, 0)) + eigenmode_field(g, (5,), (0, 0.6, 0))
              + eigenmode_field(g, (6,), (0, 0, 0.6)))
        with pytest.raises(ConfigurationError,
                           match=f"^pad_factor {pad_factor:g} is below 2: .* alias"):
            run_trajectory(u0, ModelParams(0.5, 1, 1, 1, 1), noise,
                           SolverConfig(dt=0.001, t_end=0.05, seed=3))

    def test_unknown_scheme_and_wrong_step_rejected(self):
        noise, trunc = NoiseModel.empty(G4), TruncationConfig.off()
        with pytest.raises(ConfigurationError, match="unknown scheme"):
            StepKernel(linear_params(), noise, trunc, 0.1, "euler")
        u0 = eigenmode_field(G4, (1,), (1.0, 0.0, 0.0))
        heun = StepKernel(linear_params(), noise, trunc, 0.1, "heun_strat")
        imex = StepKernel(linear_params(), noise, trunc, 0.1)
        with pytest.raises(TypeError):
            imex_em_step(heun, u0, np.zeros(0))
        with pytest.raises(TypeError):
            heun_strat_step(imex, u0, np.zeros(0))


class TestImexStep:
    def test_single_mode_decay(self):
        u0 = eigenmode_field(G4, (1,), (1.0, 0.0, 0.0))
        inc = sample_increments(0, 0, 0, 0, 0.1)
        kernel = StepKernel(linear_params(), NoiseModel.empty(G4),
                            TruncationConfig.off(), 0.1)
        nxt = imex_em_step(kernel, u0, inc.values)
        assert nxt[0, 1] == pytest.approx(1 / 1.2, rel=1e-14)

    def test_zero_is_equilibrium(self):
        u0 = constant_field(G4, (0, 0, 0))
        inc = sample_increments(0, 0, 0, 0, 0.1)
        p = ModelParams(1.0, 1.0, 1.0, 1.0, 1.0)
        kernel = StepKernel(p, NoiseModel.empty(G4), TruncationConfig.off(), 0.1)
        nxt = imex_em_step(kernel, u0, inc.values)
        assert np.abs(nxt).max() == 0.0

    def test_unit_constant_is_equilibrium(self):
        u0 = constant_field(G4, (0.0, 1.0, 0.0))
        inc = sample_increments(0, 0, 0, 0, 0.1)
        p = ModelParams(1.0, 1.0, 1.0, 1.0, 1.0)
        kernel = StepKernel(p, NoiseModel.empty(G4), TruncationConfig.off(), 0.1)
        nxt = imex_em_step(kernel, u0, inc.values)
        assert np.abs(nxt - u0).max() < 1e-13


COUNTED = ("synthesize", "analyze", "cross3", "_diffusion_coeffs",
           "_correction_coeffs")


def record_calls(monkeypatch) -> list[tuple[str, tuple[int, ...] | None]]:
    """Record each call of the COUNTED functions through every module binding,
    in order, with the padded shape it works on: the grid's for a transform,
    the operands' for ``cross3``, None for a noise helper."""
    calls = []
    for mod in (sllbar.grid, sllbar.model, sllbar.noise, sllbar.integrator):
        for name in COUNTED:
            fn = getattr(mod, name, None)
            if fn is None:
                continue

            def recorded(*args, _fn=fn, _name=name, **kwargs):
                shape = (args[0].shape[1:] if _name == "cross3" else
                         args[0].padded if _name in ("synthesize", "analyze") else None)
                calls.append((_name, shape))
                return _fn(*args, **kwargs)

            monkeypatch.setattr(mod, name, recorded)
    return calls


class TestStepPlan:
    @pytest.mark.parametrize("J", [1, 2, 3, 4])
    @pytest.mark.parametrize("grid", [Grid(2, (np.pi, 2.0), (6, 5)),
                                      Grid(3, (np.pi, 1.0, 2.5), (5, 3, 4))],
                             ids=["d2", "d3"])
    def test_imex_step_at_d2_and_d3_applies_noise_in_coefficient_space(
            self, monkeypatch, grid, J):
        """The d >= 2 IMEX step, by hand, at any J. The cubic |u|^2 u has
        frequencies up to 3(N - 1) and its projection reads up to 4(N - 1),
        so it takes the run grid (pad 2): 1 synthesize of u, then 1 analyze.
        The quadratic u x Lap u reads up to 3(N - 1) < 2M, so it takes the
        3/2 grid, M = ceil(1.5 N) nodes per axis: 2 synthesize (u, Lap u),
        1 cross3 and 1 analyze. G_j and the correction act on coefficients
        and take no padded-grid route. Total: 3 synthesize (2 before the
        precession left the run grid), 2 analyze (one per grid), 1 cross3."""
        noise = build_noise_modes({"family": "eigenmode", "modes": [
            {"sigma": 0.1, "index": (j % 2, j // 2) + (1,) * (grid.dim - 2),
             "direction": (1.0, j, 0.0)} for j in range(J)]}, grid)
        u = random_field(grid, RNG, amplitude=0.3)
        dW = RNG.standard_normal(J) * math.sqrt(1e-3)
        params = ModelParams(0.5, 1.0, 1.0, 1.0, 1.0)
        kernel = StepKernel(params, noise, TruncationConfig.on(0.5), 1e-3)
        calls = record_calls(monkeypatch)
        out = imex_em_step(kernel, u, dW)
        assert np.isfinite(out).all()
        run, quad = grid.padded, tuple(math.ceil(1.5 * N) for N in grid.modes)
        assert quad != run
        assert calls == [("synthesize", run), ("analyze", run),
                         ("synthesize", quad), ("synthesize", quad),
                         ("cross3", quad), ("analyze", quad)]

    @pytest.mark.parametrize("J", [1, 2, 3])
    @pytest.mark.parametrize("scheme", ["imex_em_ito", "heun_strat"])
    @pytest.mark.parametrize("grid", [Grid(1, (np.pi,), (7,)),
                                      Grid(2, (np.pi, 2.0), (6, 5)),
                                      Grid(3, (np.pi, 1.0, 2.5), (5, 3, 4))],
                             ids=["d1", "d2", "d3"])
    def test_cross3_operands_are_cyclic_at_d1_only(self, monkeypatch, grid, scheme, J):
        """At d = 1 every product of a step, 1 + 3J (IMEX) or 2 (1 + J) (Heun),
        takes two cyclic (5, ...) operands; at d >= 2 the one product per
        stage takes (3, ...) operands."""
        index = [((j % 2 + 1, j // 2) + (1,))[:grid.dim] for j in range(J)]
        noise = build_noise_modes({"family": "eigenmode", "modes": [
            {"sigma": 0.1, "index": k, "direction": (1.0, j, 0.0)}
            for j, k in enumerate(index)]}, grid)
        kernel = StepKernel(ModelParams(0.5, 1.0, 1.0, 1.0, 1.0), noise,
                            TruncationConfig.on(0.5), 1e-3, scheme)
        rows = []

        def recording(a, b, out=None, _fn=sllbar.grid.cross3):
            rows.append((len(a), len(b)))
            return _fn(a, b, out)

        for mod in (sllbar.grid, sllbar.noise, sllbar.integrator):
            monkeypatch.setattr(mod, "cross3", recording)
        u = random_field(grid, RNG, amplitude=0.3)
        out = kernel.stepper(kernel, u, RNG.standard_normal(J) * math.sqrt(1e-3))
        assert np.isfinite(out).all()
        stages = 1 if scheme == "imex_em_ito" else 2
        if grid.dim == 1:
            per_stage = 1 + 3 * J if scheme == "imex_em_ito" else 1 + J
            assert rows == [(5, 5)] * (stages * per_stage)
        else:
            assert rows == [(3, 3)] * stages


class TestHeunStep:
    def test_deterministic_second_order(self):
        """Noise off, linear single mode: classical Heun, O(dt^2) error."""
        lam = 1.0
        a = 2.0  # beta1 lam + beta2 lam^2 with beta1 = beta2 = 1
        u0 = eigenmode_field(G4, (1,), (1.0, 0.0, 0.0))
        errs = []
        for dt in (0.02, 0.01):
            cfg = SolverConfig(dt=dt, t_end=1.0, scheme="heun_strat",
                               record_every=10**6)
            rec = run_trajectory(u0, linear_params(), NoiseModel.empty(G4), cfg)
            errs.append(abs(rec.final[0, 1] - math.exp(-a)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.15)

    def test_one_step_unroll_with_constant_noise(self):
        """From u = 0 with constant h: both stages see G = h, so the update
        is exactly h dW."""
        grid = Grid(1, (np.pi,), (4,))
        hvec = np.array([0.2, -0.4, 0.7])
        c = np.zeros((3, 4))
        c[:, 0] = hvec * math.sqrt(np.pi)
        nm = build_noise_modes({"family": "eigenmode", "modes": [  # h = hvec
            {"sigma": float(np.linalg.norm(hvec)) * math.sqrt(np.pi),
             "index": (0,), "direction": hvec}]}, grid)
        p = ModelParams(TINY, TINY, TINY, TINY, TINY)
        u0 = constant_field(grid, (0, 0, 0))
        inc = sample_increments(3, 0, 0, 1, 0.05)
        kernel = StepKernel(p, nm, TruncationConfig.off(), 0.05, "heun_strat")
        nxt = heun_strat_step(kernel, u0, inc.values)
        expected = c * inc.values[0]
        assert np.abs(nxt - expected).max() < 1e-14


def heun_reference(u, grid, params, noise, trunc, dW, dt):
    """The Heun step as a loop over modes, each G_j from ``_diffusion_coeffs``."""
    lam = eigenvalue_array(grid)
    linear = -params.beta1 * lam - params.beta2 * lam * lam
    ws = Workspace(grid)

    def drift_and_diffusion(v):
        terms, _ = _explicit_parts(v, grid, params, noise, trunc, ws, False)
        vals = cyclic(synthesize(grid, v, out=ws.vals))  # as the noise takes it
        return (sum(terms.values()) + linear * v,
                [_diffusion_coeffs(grid, vals, noise, j, ws) for j in range(noise.J)])

    a0, G0 = drift_and_diffusion(u)
    pred = u + dt * a0
    for j, G in enumerate(G0):
        pred = pred + G * dW[j]
    a1, G1 = drift_and_diffusion(pred)
    out = u + 0.5 * dt * (a0 + a1)
    for j in range(noise.J):
        out = out + 0.5 * (G0[j] + G1[j]) * dW[j]
    return out


@pytest.mark.parametrize("grid, indices", [
    (Grid(1, (np.pi,), (8,)), [(1,), (2,), (1,)]),
    (Grid(2, (np.pi, 2.0), (6, 5)), [(1, 1), (2, 1), (1, 1)]),
    (Grid(3, (np.pi, 2.0, 1.5), (5, 4, 3)), [(1, 0, 0), (0, 2, 1), (1, 0, 0)]),
], ids=["d1", "d2", "d3"])
def test_heun_step_matches_per_mode_reference(grid, indices):
    """One increment per stage gives the per-mode G_j sums to rounding. At
    d = 3 the indices hold zeros, which the increment-only operator route
    Heun takes applies as scalars."""
    noise = build_noise_modes({"family": "eigenmode", "modes": [
        {"sigma": 0.3, "index": indices[0], "direction": (1.0, 0.0, 0.5)},
        {"sigma": 0.2, "index": indices[1], "direction": (0.0, 1.0, 1.0)},
        {"sigma": 0.4, "index": indices[2], "direction": (-1.0, 2.0, 0.0)},
    ]}, grid)
    u = random_field(grid, RNG, amplitude=0.3)
    dW = RNG.standard_normal(noise.J) * math.sqrt(1e-5)
    params = ModelParams(0.5, 1.0, 1.0, 1.0, 1.0)
    trunc = TruncationConfig.on(0.5)
    got = heun_strat_step(StepKernel(params, noise, trunc, 1e-5, "heun_strat"), u, dW)
    ref = heun_reference(u, grid, params, noise, trunc, dW, 1e-5)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def reference_parts(kernel, coeffs, include_correction, dW):
    """``kernel.parts`` with the d = 1 increment and Ito correction summed
    again by ``functools.reduce``, the plain sums the in-place ones replace."""
    terms, inc = kernel.parts(coeffs, include_correction, dW)
    grid, noise, ws = kernel.grid, kernel.noise, Workspace(kernel.grid)
    if grid.dim == 1 and noise.J:
        vals = cyclic(synthesize(grid, coeffs, out=ws.vals))
        Gs = [_diffusion_coeffs(grid, vals, noise, j, ws) for j in range(noise.J)]
        inc = reduce(np.add, (G * dW[j] for j, G in enumerate(Gs)))
        if include_correction:
            terms["ito_correction"] = -0.5 * reduce(np.add, (
                analyze(grid, cross3(cyclic(synthesize(grid, G, out=ws.lap)),
                                     noise.h_phys[j], out=ws.prod))
                for j, G in enumerate(Gs)), np.zeros(grid.field_shape))
    return terms, inc


def reference_step(kernel, coeffs, dW):
    """Both schemes' steps from :func:`reference_parts`, summed by ``reduce``
    into fresh arrays."""
    if kernel.divisor is not None:
        terms, inc = reference_parts(kernel, coeffs, True, dW)
        acc = coeffs + kernel.dt * reduce(np.add, terms.values())
        if inc is not None:
            acc = acc + inc
        return acc / kernel.divisor
    dt, linear = kernel.dt, kernel.symbol
    terms0, inc0 = reference_parts(kernel, coeffs, False, dW)
    a0 = reduce(np.add, terms0.values()) + linear * coeffs
    pred = coeffs + dt * a0
    if inc0 is not None:
        pred = pred + inc0
    terms1, inc1 = reference_parts(kernel, pred, False, dW)
    a1 = reduce(np.add, terms1.values()) + linear * pred
    out = coeffs + 0.5 * dt * (a0 + a1)
    if inc0 is not None:
        out = out + 0.5 * (inc0 + inc1)
    return out


@pytest.mark.parametrize("J", [0, 2])
@pytest.mark.parametrize("scheme", ["imex_em_ito", "heun_strat"])
@pytest.mark.parametrize("grid", [Grid(1, (np.pi,), (9,)),
                                  Grid(2, (np.pi, 2.0), (6, 5)),
                                  Grid(3, (np.pi, 1.0, 2.5), (5, 3, 4))],
                         ids=["d1", "d2", "d3"])
def test_step_is_bitwise_the_plain_reference_sum(grid, scheme, J):
    """The steps' in-place sums give the bits of the plain ``reduce`` sums,
    for both schemes, over 5 steps of a nonzero field."""
    noise = build_noise_modes({"family": "eigenmode", "modes": [
        {"sigma": 0.3, "index": (1 + j,) + (j,) * (grid.dim - 1),
         "direction": (1.0, -0.5 * j, 0.5)} for j in range(J)]}, grid)
    kernel = StepKernel(ModelParams(0.5, 1.0, 1.0, 1.0, 1.0), noise,
                        TruncationConfig.on(0.5), 1e-3, scheme)
    u = random_field(grid, RNG, amplitude=0.3)
    for _ in range(5):
        dW = RNG.standard_normal(J) * math.sqrt(1e-3)
        ref = reference_step(kernel, u, dW)
        u = kernel.stepper(kernel, u, dW)
        assert u.tobytes() == ref.tobytes()


class TestRunTrajectory:
    def test_logistic_oracle(self):
        p = ModelParams(0.0, TINY, 1.0, TINY, TINY)
        cfg = SolverConfig(dt=1e-4, t_end=1.0, record_every=1000)
        rec = run_trajectory(constant_field(G4, (0.5, 0, 0)), p,
                             NoiseModel.empty(G4), cfg)
        vals = synthesize(G4, rec.final)
        mag2 = float((vals * vals).sum(axis=0).flat[0])
        r0 = 0.25
        exact = r0 * math.e**2 / (1 - r0 + r0 * math.e**2)
        assert abs(mag2 - exact) < 1e-4
        assert rec.stop_reason == "completed"

    def test_immediate_blowup_stop(self):
        u0 = eigenmode_field(G4, (1,), (1.0, 0.0, 0.0))  # H1 norm sqrt(2)
        cfg = SolverConfig(dt=0.01, t_end=1.0, blowup_K=0.01)
        rec = run_trajectory(u0, linear_params(), NoiseModel.empty(G4), cfg)
        assert rec.stop_reason == "blowup_K"
        assert rec.stop_time == 0.0
        assert len(rec.times) == 1

    def test_blowup_mid_run_records_crossing(self):
        # beta1 < 0 destabilizes the mode; it grows until the threshold
        u0 = eigenmode_field(G4, (1,), (0.5, 0.0, 0.0))
        p = ModelParams(-3.0, 0.1, TINY, TINY, TINY)
        cfg = SolverConfig(dt=0.01, t_end=5.0, blowup_K=2.0, record_every=7)
        rec = run_trajectory(u0, p, NoiseModel.empty(G4), cfg)
        assert rec.stop_reason == "blowup_K"
        assert 0.0 < rec.stop_time <= 5.0
        assert rec.norms["h1"][-1] > 2.0
        assert np.all(np.diff(rec.times) > 0)

    def test_monotone_decay_pure_biharmonic(self):
        u0 = eigenmode_field(G4, (2,), (1.0, 0.0, 0.0))
        p = ModelParams(TINY, 1.0, TINY, TINY, TINY)
        cfg = SolverConfig(dt=0.01, t_end=0.5, record_every=5)
        rec = run_trajectory(u0, p, NoiseModel.empty(G4), cfg)
        assert np.all(np.diff(rec.norms["l2"]) < 0)

    def test_nonfinite_detection(self):
        """Explicit Heun on a stiff grid overflows and is caught."""
        grid = Grid(1, (np.pi,), (16,))
        u0 = eigenmode_field(grid, (15,), (1.0, 0.0, 0.0))
        cfg = SolverConfig(dt=0.01, t_end=10.0, scheme="heun_strat",
                           record_every=100)
        with np.errstate(over="ignore", invalid="ignore"):
            rec = run_trajectory(u0, linear_params(), NoiseModel.empty(grid), cfg)
        assert rec.stop_reason == "nonfinite"
        assert rec.stop_time < 10.0

    def test_denominator_surfaced_before_stepping(self):
        p = ModelParams(-50.0, 0.0001, TINY, TINY, TINY)
        cfg = SolverConfig(dt=0.1, t_end=1.0)
        u0 = eigenmode_field(G4, (1,), (0.1, 0.0, 0.0))
        with pytest.raises(ConfigurationError, match="denominator"):
            run_trajectory(u0, p, NoiseModel.empty(G4), cfg)

    @pytest.mark.parametrize("shape", [(3, 8), (3, 4, 4), (4,)],
                             ids=["other_modes", "other_dim", "bare_modes"])
    def test_initial_data_off_the_noise_grid_rejected(self, shape):
        """The run's grid is the noise model's; u0 must hold its coefficients."""
        cfg = SolverConfig(dt=0.01, t_end=0.1)
        with pytest.raises(ConfigurationError, match="does not match"):
            run_trajectory(np.zeros(shape), linear_params(), small_noise(G4), cfg)

    def test_recording_grid_and_columns(self):
        u0 = random_field(G4, RNG, amplitude=0.1)
        cfg = SolverConfig(dt=0.01, t_end=0.2, record_every=4, seed=5)
        rec = run_trajectory(u0, linear_params(), small_noise(G4), cfg)
        # samples at steps 0, 4, 8, 12, 16, 20
        assert np.allclose(rec.times, [0.0, 0.04, 0.08, 0.12, 0.16, 0.2])
        assert np.array_equal(rec.norms["theta_arg"], rec.norms["grad_l2"])
        assert set(rec.norms) == {"l2", "l4", "h1", "h2", "h3", "grad_l2", "theta_arg"}

    def test_determinism_bitwise(self):
        u0 = random_field(G4, RNG, amplitude=0.3)
        cfg = SolverConfig(dt=0.005, t_end=0.3, record_every=3, seed=17)
        p = ModelParams(0.5, 1.0, 1.0, 1.0, 1.0)
        nm = small_noise(G4)
        a = run_trajectory(u0, p, nm, cfg, path=4)
        b = run_trajectory(u0, p, nm, cfg, path=4)
        assert np.array_equal(a.final, b.final)
        for key in a.norms:
            assert np.array_equal(a.norms[key], b.norms[key])

    def test_truncation_neutrality_bitwise(self):
        u0 = random_field(G4, RNG, amplitude=0.3)
        p = ModelParams(0.5, 1.0, 1.0, 1.0, 1.0)
        nm = small_noise(G4)
        probe = run_trajectory(
            u0, p, nm, SolverConfig(dt=0.005, t_end=0.3, seed=3, record_every=1)
        )
        R = 10.0 * probe.norms["grad_l2"].max()
        on = SolverConfig(dt=0.005, t_end=0.3, seed=3, record_every=1,
                          truncation=TruncationConfig.on(R))
        off = SolverConfig(dt=0.005, t_end=0.3, seed=3, record_every=1)
        rec_on = run_trajectory(u0, p, nm, on)
        rec_off = run_trajectory(u0, p, nm, off)
        assert np.array_equal(rec_on.final, rec_off.final)
        for key in rec_on.norms:
            assert np.array_equal(rec_on.norms[key], rec_off.norms[key])

    def test_truncation_active_changes_run(self):
        u0 = random_field(G4, RNG, amplitude=0.5)
        p = ModelParams(0.5, 1.0, 1.0, 1.0, 1.0)
        nm = small_noise(G4)
        probe = run_trajectory(
            u0, p, nm, SolverConfig(dt=0.005, t_end=0.3, seed=3, record_every=1)
        )
        R = 0.3 * probe.norms["grad_l2"].max()
        on = SolverConfig(dt=0.005, t_end=0.3, seed=3, record_every=1,
                          truncation=TruncationConfig.on(R))
        rec_on = run_trajectory(u0, p, nm, on)
        assert not np.array_equal(rec_on.final, probe.final)

    def test_strong_self_convergence(self):
        """Mean L2 gap between dt and dt/2 runs decreases over three halvings."""
        from sllbar.diagnostics import strong_convergence_gaps

        grid = Grid(1, (np.pi,), (8,))
        u0 = random_field(grid, np.random.default_rng(5), amplitude=0.2)
        p = ModelParams(0.5, 1.0, 1.0, 1.0, 1.0)
        nm = small_noise(grid, sigma=0.2)
        cfg = SolverConfig(dt=0.02, t_end=0.5, seed=9)
        gaps = strong_convergence_gaps(u0, p, nm, cfg, halvings=3, paths=8)
        assert gaps[0] > gaps[1] > gaps[2]
        # consistent with strong order >= 1/2 overall
        order = math.log2(gaps[0] / gaps[2]) / 2
        assert order >= 0.5

    def test_snapshots(self):
        u0 = random_field(G4, RNG, amplitude=0.1)
        cfg = SolverConfig(dt=0.01, t_end=0.1, record_every=2, snapshot_every=1)
        rec = run_trajectory(u0, linear_params(), NoiseModel.empty(G4), cfg)
        assert rec.snapshots.shape == (11, 3, 4)
        assert np.array_equal(rec.snapshots[0], u0)
        assert np.array_equal(rec.snapshots[-1], rec.final)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(dt=-0.1, t_end=1.0)
        with pytest.raises(ConfigurationError):
            SolverConfig(dt=0.5, t_end=0.1)
        with pytest.raises(ConfigurationError):
            SolverConfig(dt=0.01, t_end=1.0, scheme="rk4")
        with pytest.raises(ConfigurationError):
            SolverConfig(dt=0.01, t_end=1.0, record_every=0)

    def test_t_end_not_whole_steps_rejected(self):
        # round(1.0 / 0.3) = 3 steps would silently stop at t = 0.9
        with pytest.raises(ConfigurationError, match="whole number"):
            SolverConfig(dt=0.3, t_end=1.0)

    @pytest.mark.parametrize("dt,t_end", [
        (0.01, 0.05), (0.01, 1.0), (0.1, 0.3), (0.01 / 2**3, 0.05),
    ])
    def test_t_end_float_rounding_accepted(self, dt, t_end):
        # t_end / dt is off an integer only by float rounding here
        assert SolverConfig(dt=dt, t_end=t_end).t_end == t_end

    @pytest.mark.parametrize("dt,t_end,n", [
        (0.01, 0.05, 5), (0.1, 0.3, 3), (0.01 / 2**3, 0.05, 40),
    ])
    def test_n_steps_is_the_run_length(self, dt, t_end, n):
        cfg = SolverConfig(dt=dt, t_end=t_end)
        assert cfg.n_steps == n
        rec = run_trajectory(constant_field(G4, (0.5, 0, 0)), linear_params(),
                             NoiseModel.empty(G4), cfg)
        assert len(rec.times) == n + 1


def reference_record(u0, params, noise, cfg, path=0):
    """What run_trajectory must return, computed the long way round.

    Steps the whole horizon first, then reads off tau (the first step that
    is nonfinite, from step 1, or whose H^1 norm exceeds blowup_K; else
    n_steps), the samples on the record grid plus tau, and the snapshots.
    """
    grid = noise.grid
    step = imex_em_step if cfg.scheme == "imex_em_ito" else heun_strat_step
    kernel = StepKernel(params, noise, cfg.truncation, cfg.dt, cfg.scheme)
    states = [u0.copy()]
    with np.errstate(all="ignore"):
        for m in range(cfg.n_steps):
            inc = coupled_increments(cfg.seed, path, m, noise.J, cfg.dt,
                                     cfg.substeps)
            states.append(step(kernel, states[-1], inc.values))
        h1 = [sobolev_norm(grid, u, 1) for u in states]
    nonfinite = [m > 0 and not np.isfinite(c).all() for m, c in enumerate(states)]
    stops = [m for m in range(cfg.n_steps + 1)
             if nonfinite[m] or h1[m] > cfg.blowup_K]
    tau = stops[0] if stops else cfg.n_steps
    if nonfinite[tau]:
        reason = "nonfinite"
    elif h1[tau] > cfg.blowup_K:
        reason = "blowup_K"
    else:
        reason = "completed"
    recorded = sorted(set(range(0, tau + 1, cfg.record_every)) | {tau})
    every = cfg.snapshot_every
    snapped = list(range(0, tau + 1, every)) if every else []
    return dict(
        tau=tau, reason=reason, recorded=recorded, snapped=snapped,
        states=states, h1=h1,
        norms={"l2": [sobolev_norm(grid, states[m], 0) for m in recorded],
               "h1": [h1[m] for m in recorded],
               "h2": [sobolev_norm(grid, states[m], 2) for m in recorded]},
    )


class TestStopRuleAgainstReference:
    """run_trajectory's single loop against :func:`reference_record`."""

    def check(self, u0, params, noise, cfg):
        with np.errstate(all="ignore"):
            rec = run_trajectory(u0, params, noise, cfg)
        ref = reference_record(u0, params, noise, cfg)
        assert rec.stop_reason == ref["reason"]
        assert rec.stop_time == ref["tau"] * cfg.dt
        assert np.array_equal(rec.sample_steps, ref["recorded"])
        assert np.array_equal(rec.times, [m * cfg.dt for m in ref["recorded"]])
        for key, values in ref["norms"].items():
            assert np.array_equal(rec.norms[key], values, equal_nan=True), key
        assert np.array_equal(rec.final, ref["states"][ref["tau"]],
                              equal_nan=True)
        if ref["snapped"]:
            assert np.array_equal(rec.snapshot_steps, ref["snapped"])
            assert np.array_equal(
                rec.snapshots, [ref["states"][m] for m in ref["snapped"]],
                equal_nan=True)
        else:
            assert rec.snapshot_steps is None and rec.snapshots is None
        return rec, ref

    def test_completed_record_every_not_dividing(self):
        grid = Grid(1, (np.pi,), (8,))
        u0 = eigenmode_field(grid, (1,), (0.3, 0.1, 0.0))
        cfg = SolverConfig(dt=0.01, t_end=0.1, record_every=3, seed=4,
                           snapshot_every=4)
        rec, ref = self.check(u0, ModelParams(0.5, 1.0, 1.0, 1.0, 1.0),
                              small_noise(grid), cfg)
        assert ref["recorded"] == [0, 3, 6, 9, 10]
        assert rec.stop_reason == "completed"

    def test_blowup_at_t0(self):
        u0 = eigenmode_field(G4, (2,), (1.0, 0.0, 0.0))
        cfg = SolverConfig(dt=0.01, t_end=0.1, blowup_K=0.5, record_every=3,
                           snapshot_every=2)
        rec, ref = self.check(u0, linear_params(), small_noise(G4), cfg)
        assert (rec.stop_reason, ref["recorded"], ref["snapped"]) == (
            "blowup_K", [0], [0])

    def test_blowup_off_the_record_grid(self):
        # beta1 < 0 grows the mode; place K so the first crossing is step 10
        u0 = eigenmode_field(G4, (1,), (0.5, 0.0, 0.0))
        p = ModelParams(-3.0, 0.1, TINY, TINY, TINY)
        noise = small_noise(G4)
        free = SolverConfig(dt=0.01, t_end=0.3, record_every=7, seed=2)
        h1 = reference_record(u0, p, noise, free)["h1"]
        assert h1[10] > max(h1[:10])
        cfg = replace(free, blowup_K=(max(h1[:10]) + h1[10]) / 2,
                      snapshot_every=4)
        rec, ref = self.check(u0, p, noise, cfg)
        assert (rec.stop_reason, ref["tau"]) == ("blowup_K", 10)
        assert ref["recorded"] == [0, 7, 10]

    def test_finite_state_with_overflowing_norm_is_a_blowup(self):
        """The cubic terms take u ~ 1e60 to a finite u ~ 1e178 in one step,
        whose H^1 norm overflows: nonfinite norm, finite state, blowup_K."""
        u0 = eigenmode_field(G4, (1,), (1e60, 0.0, 0.0))
        cfg = SolverConfig(dt=0.01, t_end=0.05, blowup_K=1e100)
        with np.errstate(over="ignore"):
            rec, ref = self.check(u0, ModelParams(0.5, 1.0, 1.0, 1.0, 1.0),
                                  small_noise(G4), cfg)
        assert np.isfinite(ref["states"][1]).all()
        assert ref["h1"][1] == math.inf
        assert (rec.stop_reason, ref["tau"]) == ("blowup_K", 1)

    def test_nan_at_step_0_is_not_flagged(self):
        """The nonfinite check starts at step 1; a NaN initial datum stops
        at step 1, once it has been stepped."""
        u0 = eigenmode_field(G4, (1,), (0.3, 0.0, 0.0))
        u0[2, 0] = np.nan
        cfg = SolverConfig(dt=0.01, t_end=0.05, record_every=2)
        rec, ref = self.check(u0, linear_params(), small_noise(G4), cfg)
        assert math.isnan(rec.norms["h1"][0])
        assert (rec.stop_reason, ref["tau"], ref["recorded"]) == ("nonfinite", 1, [0, 1])

    def test_heun_nonfinite_stop_with_snapshots(self):
        """Explicit Heun on a stiff grid overflows; the stop sample is the
        first nonfinite state."""
        grid = Grid(1, (np.pi,), (16,))
        u0 = eigenmode_field(grid, (15,), (1.0, 0.0, 0.0))
        cfg = SolverConfig(dt=0.01, t_end=1.0, scheme="heun_strat",
                           record_every=5, snapshot_every=3)
        rec, ref = self.check(u0, linear_params(), small_noise(grid), cfg)
        assert rec.stop_reason == "nonfinite"
        assert ref["tau"] < cfg.n_steps and ref["tau"] % 5  # off the record grid
