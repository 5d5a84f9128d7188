"""Identity residuals, energy balance, weak forms, refinement."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sllbar.diagnostics
import sllbar.grid
import sllbar.model
from sllbar.diagnostics import (
    energy_balance_l2,
    identity_cross,
    identity_cubic,
    refinement_gap,
    strong_convergence_gaps,
    weak_form_residual,
)
from sllbar.grid import (
    Grid,
    analyze,
    constant_field,
    eigenmode_field,
    l4_norm,
    random_field,
    sobolev_norm,
    synthesize,
)
from sllbar.integrator import BlowupAbort, SolverConfig, run_trajectory
from sllbar.model import ModelParams, TruncationConfig, theta_R
from sllbar.noise import NoiseModel, build_noise_modes

RNG = np.random.default_rng(2718)
TINY = 1e-300
G8 = Grid(1, (np.pi,), (8,))
COS_AMP = 1 / math.sqrt(2 / np.pi)


def zeros(grid):
    """The zero field on ``grid``."""
    return np.zeros((3, *grid.modes))


def small_noise(grid, sigma=0.1):
    return build_noise_modes(
        {"family": "eigenmode", "modes": [
            {"sigma": sigma, "index": (1,), "direction": (1.0, 0.0, 0.0)},
            {"sigma": sigma, "index": (2,), "direction": (0.0, 0.0, 1.0)},
        ]},
        grid,
    )


class TestCrossIdentity:
    def test_zero_and_constant(self):
        assert identity_cross(G8, zeros(G8)) == 0.0
        assert identity_cross(G8, constant_field(G8, (1.0, 2.0, 3.0))) == 0.0

    @pytest.mark.parametrize("grid", [
        Grid(1, (np.pi,), (9,)),
        Grid(2, (np.pi, 1.5), (5, 6)),
        Grid(3, (1.0, 2.0, 1.5), (4, 3, 4)),
    ])
    def test_random_fields(self, grid):
        for _ in range(20):
            assert abs(identity_cross(grid, random_field(grid, RNG))) < 1e-12


class TestCubicIdentities:
    def test_constant_both_zero(self):
        for lhs, rhs, res in identity_cubic(G8, constant_field(G8, (0.7, 0.1, 0))):
            assert abs(lhs) < 1e-13 and abs(rhs) < 1e-13 and abs(res) < 1e-13

    def test_cos_closed_form(self):
        """u = (cos x, 0, 0): both sides equal 3 pi / 8."""
        u = eigenmode_field(G8, (1,), (COS_AMP, 0.0, 0.0))
        (lhs, rhs, res), (lhs_i, rhs_i, res_i) = identity_cubic(G8, u)
        assert rhs == pytest.approx(3 * np.pi / 8, abs=1e-10)
        assert lhs == pytest.approx(3 * np.pi / 8, abs=1e-10)
        assert lhs_i == pytest.approx(-3 * np.pi / 8, abs=1e-10)
        assert rhs_i == pytest.approx(-3 * np.pi / 8, abs=1e-10)

    @pytest.mark.parametrize("grid", [
        Grid(1, (np.pi,), (9,)),
        Grid(2, (np.pi, 1.5), (5, 4)),
    ])
    def test_random_fields(self, grid):
        for _ in range(20):
            u = random_field(grid, RNG)
            for _, _, res in identity_cubic(grid, u):
                assert abs(res) < 1e-8

    @pytest.mark.parametrize("grid", [G8, Grid(2, (np.pi, 1.5), (5, 4)),
                                      Grid(3, (np.pi, 1.0, 2.5), (3, 4, 2))],
                             ids=["d1", "d2", "d3"])
    @pytest.mark.parametrize("form", [0, 1], ids=["gradient", "ibp"])
    def test_each_transform_of_u_taken_once(self, monkeypatch, grid, form):
        """Either form is read off one pass, which synthesizes u and takes its
        gradient once and hands both to P and to the pairings; the cubic costs
        one synthesize and one analyze, and its gradient and its Laplacian one
        transform each. The gradient form's right side is P, positive on a
        random field, and the integration-by-parts form's is -P."""
        counts = count_transforms(monkeypatch)
        _, rhs, res = identity_cubic(grid, random_field(grid, RNG))[form]
        assert counts == {"synthesize": 3, "analyze": 1, "gradient_values": 2}
        assert abs(res) < 1e-8 and (-1) ** form * rhs > 0


def count_transforms(monkeypatch, names=("synthesize", "analyze", "gradient_values")
                     ) -> dict[str, int]:
    """Calls of the grid functions ``names`` (by default the transforms) from
    now on, counted at the grid, model and diagnostics bindings."""
    counts = dict.fromkeys(names, 0)
    for mod in (sllbar.grid, sllbar.model, sllbar.diagnostics):
        for name in counts:
            if hasattr(mod, name):
                def counted(*args, _fn=getattr(mod, name), _name=name, **kw):
                    counts[_name] += 1
                    return _fn(*args, **kw)

                monkeypatch.setattr(mod, name, counted)
    return counts


@st.composite
def random_fields(draw):
    dim = draw(st.integers(1, 3))
    modes = tuple(draw(st.lists(st.integers(1, 6), min_size=dim, max_size=dim)))
    lengths = tuple(draw(st.lists(st.floats(0.5, 4.0), min_size=dim, max_size=dim)))
    seed = draw(st.integers(0, 2**32 - 1))
    grid = Grid(dim, lengths, modes)
    return grid, random_field(grid, np.random.default_rng(seed))


@settings(max_examples=30, deadline=None)
@given(random_fields())
def test_exact_identities_on_random_fields(field):
    """Transform round trip, the cross identity and both cubic identities
    hold on random grids and fields, at the fixed-grid tests' tolerances."""
    grid, u = field
    back = analyze(grid, synthesize(grid, u))
    assert np.abs(back - u).max() <= 1e-12 * np.abs(u).max()
    assert abs(identity_cross(grid, u)) < 1e-12
    for _, _, res in identity_cubic(grid, u):
        assert abs(res) < 1e-8


class TestEnergyBalance:
    def params(self):
        return ModelParams(0.7, 1.0, 0.9, 1.1, 0.8)

    def run(self, u0, params, dt, t_end, trunc=TruncationConfig.off(),
            noise=None, snapshot_every=1, grid=G8):
        cfg = SolverConfig(dt=dt, t_end=t_end, snapshot_every=snapshot_every,
                           truncation=trunc)
        noise = noise if noise is not None else NoiseModel.empty(grid)
        return run_trajectory(u0, params, noise, cfg)

    def test_zero_trajectory(self):
        traj = self.run(zeros(G8), self.params(), 0.01, 0.1)
        series = energy_balance_l2(traj, self.params())
        assert np.abs(series.values).max() == 0.0
        assert np.allclose(series.times, 0.01 * np.arange(10))

    def test_constant_logistic_residual_formula(self):
        """Constant-field run: the defect reduces to the scalar forward-Euler
        remainder dt * b3^2 (1-a^2)^2 a^2 V / 2 at each step."""
        p = ModelParams(0.0, TINY, 1.0, TINY, TINY)
        dt = 1e-3
        traj = self.run(constant_field(G8, (0.5, 0, 0)), p, dt, 0.05)
        series = energy_balance_l2(traj, p)
        V = G8.volume
        for m, coeffs in enumerate(traj.snapshots[:-1]):
            a = float(coeffs[0, 0]) / math.sqrt(V)
            expected = dt * (1.0 - a * a) ** 2 * a * a * V / 2.0
            assert series.values[m] * series.normalization == pytest.approx(
                expected, rel=1e-8
            )

    def test_linear_decay_o_dt(self):
        u0 = eigenmode_field(G8, (1,), (0.5, 0.3, 0.0))
        p = ModelParams(1.0, 1.0, TINY, TINY, TINY)
        maxima = []
        for dt in (1e-2, 5e-3):
            traj = self.run(u0, p, dt, 0.2)
            maxima.append(np.abs(energy_balance_l2(traj, p).values).max())
        assert maxima[0] / maxima[1] == pytest.approx(2.0, abs=0.3)

    def test_generic_run_o_dt_slope(self):
        """Smooth data on a mildly stiff grid: log-log slope 1 +- 0.2 over
        four dt levels (under-resolved stiff transients would flatten it)."""
        grid = Grid(1, (2 * np.pi,), (8,))
        u0 = 0.4 * random_field(grid, np.random.default_rng(1), decay=1.0)
        u0[:, 3:] = 0.0
        p = self.params()
        dts = (1e-2, 5e-3, 2.5e-3, 1.25e-3)
        maxima = []
        for dt in dts:
            traj = self.run(u0, p, dt, 0.2, grid=grid)
            maxima.append(np.abs(energy_balance_l2(traj, p).values).max())
        slope = np.polyfit(np.log(dts), np.log(maxima), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.2)

    @pytest.mark.parametrize("grid", [G8, Grid(2, (np.pi, 1.5), (5, 4))],
                             ids=["d1", "d2"])
    def test_each_snapshot_transformed_once(self, monkeypatch, grid):
        """Each balanced snapshot is synthesized once, for its L^4 norm and P
        together, and differentiated once; nothing is analyzed."""
        p = self.params()
        traj = self.run(0.3 * random_field(grid, RNG), p, 0.01, 0.05, grid=grid)
        counts = count_transforms(monkeypatch)
        balanced = len(energy_balance_l2(traj, p).values)
        assert counts == {"synthesize": balanced, "analyze": 0,
                          "gradient_values": balanced}

    @pytest.mark.parametrize("trunc", [TruncationConfig.off(), TruncationConfig.on(0.5)],
                             ids=["off", "on"])
    def test_one_norm_pass_per_snapshot(self, monkeypatch, trunc):
        """The L^2 norm and the H^1 and H^2 seminorms of each snapshot come
        from one ``sobolev_norms`` pass, and theta_R reads that H^1 seminorm."""
        p = self.params()
        traj = self.run(0.3 * random_field(G8, RNG), p, 0.01, 0.1, trunc=trunc)
        counts = count_transforms(monkeypatch, ("sobolev_norm", "sobolev_norms"))
        energy_balance_l2(traj, p)
        assert counts == {"sobolev_norm": 0, "sobolev_norms": len(traj.snapshots)}

    def test_truncation_read_from_record(self):
        """A truncation-on run is balanced with theta_R of that run; the
        reference pairs b5 theta with (Lap(|u|^2 u), u) computed spectrally."""
        p, dt = self.params(), 0.01
        u0 = 0.6 * random_field(G8, np.random.default_rng(5))
        R = sobolev_norm(G8, u0, 1, seminorm=True) / 1.3
        trunc = TruncationConfig.on(R)
        traj = self.run(u0, p, dt, 0.1, trunc=trunc)
        series = energy_balance_l2(traj, p)

        states = traj.snapshots
        thetas = [theta_R(sobolev_norm(G8, u, 1, seminorm=True), R) for u in states]
        assert 0.0 < thetas[0] < 1.0
        normalization = max(1.0, max(sobolev_norm(G8, u, 0) for u in states) ** 2)

        def reference(theta_of):
            out = []
            for m, u in enumerate(states[:-1]):
                ddt = 0.5 * (sobolev_norm(G8, states[m + 1], 0) ** 2
                             - sobolev_norm(G8, u, 0) ** 2) / dt
                out.append((
                    ddt
                    + p.beta1 * sobolev_norm(G8, u, 1, seminorm=True) ** 2
                    + p.beta2 * sobolev_norm(G8, u, 2, seminorm=True) ** 2
                    + p.beta3 * l4_norm(G8, u) ** 4
                    - p.beta3 * sobolev_norm(G8, u, 0) ** 2
                    - p.beta5 * theta_of[m] * identity_cubic(G8, u)[1][0]
                ) / normalization)
            return np.asarray(out)

        expected = reference(thetas)
        assert np.abs(series.values - expected).max() < 1e-9 * np.abs(expected).max()
        untruncated = reference([1.0] * len(states))
        assert np.abs(series.values - untruncated).max() > 1e-3 * np.abs(expected).max()

    def test_noise_on_rejected(self):
        traj = self.run(random_field(G8, RNG, amplitude=0.1), self.params(),
                        0.01, 0.05, noise=small_noise(G8))
        with pytest.raises(ValueError, match="noise-off"):
            energy_balance_l2(traj, self.params())

    def test_without_snapshots_rejected(self):
        traj = self.run(zeros(G8), self.params(), 0.01, 0.1,
                        snapshot_every=None)
        with pytest.raises(ValueError, match="snapshots"):
            energy_balance_l2(traj, self.params())


class TestWeakForm:
    def params(self):
        return ModelParams(0.6, 1.0, 0.9, 1.1, 0.8)

    def trajectory(self, dt=0.005, t_end=0.1, noise=None, u0=None, seed=2):
        noise = noise if noise is not None else small_noise(G8)
        u0 = u0 if u0 is not None else 0.3 * random_field(
            G8, np.random.default_rng(4), decay=2.0
        )
        cfg = SolverConfig(dt=dt, t_end=t_end, seed=seed, snapshot_every=1)
        return run_trajectory(u0, self.params(), noise, cfg), noise

    def test_zero_trajectory_zero_residual(self):
        nm = NoiseModel.empty(G8)
        cfg = SolverConfig(dt=0.01, t_end=0.05, snapshot_every=1)
        traj = run_trajectory(zeros(G8), self.params(), nm, cfg)
        for form in ("weak", "very_weak"):
            assert weak_form_residual(traj, self.params(), nm, (1,), 0, form) == 0.0

    def test_constant_test_function_machine_zero(self):
        """phi = constant mode: all derivative pairings vanish and the
        explicit zero-order terms reproduce the scheme exactly."""
        traj, nm = self.trajectory()
        for comp in range(3):
            res = weak_form_residual(traj, self.params(), nm, (0,), comp, "weak")
            assert res < 1e-12

    def test_weak_and_very_weak_agree(self):
        traj, nm = self.trajectory()
        for k in (1, 3):
            a = weak_form_residual(traj, self.params(), nm, (k,), 0, "weak")
            b = weak_form_residual(traj, self.params(), nm, (k,), 0, "very_weak")
            assert abs(a - b) < 1e-10

    def test_residual_halves_with_dt(self):
        ratios = []
        for k, comp in (((2,), 0), ((1,), 2)):
            values = []
            for level in range(2):
                dt = 0.01 / 2**level
                noise = small_noise(G8)
                u0 = 0.3 * random_field(G8, np.random.default_rng(4), decay=2.0)
                cfg = SolverConfig(dt=dt, t_end=0.1, seed=2, snapshot_every=1,
                                   substeps=2 ** (1 - level))
                traj = run_trajectory(u0, self.params(), noise, cfg)
                values.append(
                    weak_form_residual(traj, self.params(), noise, k, comp, "weak")
                )
            ratios.append(values[0] / values[1])
        for r in ratios:
            assert r == pytest.approx(2.0, abs=0.4)

    def test_requires_full_snapshots(self):
        cfg = SolverConfig(dt=0.01, t_end=0.05, snapshot_every=2)
        traj = run_trajectory(zeros(G8), self.params(),
                              NoiseModel.empty(G8), cfg)
        with pytest.raises(ValueError):
            weak_form_residual(traj, self.params(), NoiseModel.empty(G8), (1,))
        cfg = SolverConfig(dt=0.01, t_end=0.05)
        traj = run_trajectory(zeros(G8), self.params(),
                              NoiseModel.empty(G8), cfg)
        with pytest.raises(ValueError):
            weak_form_residual(traj, self.params(), NoiseModel.empty(G8), (1,))

    @pytest.mark.parametrize("phi_index,component,message", [
        ((-1,), 0, "mode index -1 outside"),
        ((8,), 0, "mode index 8 outside"),
        ((1, 0), 0, "must have 1 entries"),
        ((1,), -1, "component must be 0, 1 or 2"),
        ((1,), 3, "component must be 0, 1 or 2"),
        ((1.5,), 0, "mode index entries must be integers"),
        ((1,), 1.0, "component must be 0, 1 or 2, got 1.0"),
        ((1,), True, "component must be 0, 1 or 2, got True"),
    ], ids=["negative_mode", "mode_past_n", "two_axes", "component_-1",
            "component_3", "fractional_mode", "component_fraction", "component_bool"])
    def test_rejects_bad_test_function(self, phi_index, component, message):
        """An index that numpy would wrap or a component outside the three
        is an error, not a pairing against another mode or component."""
        traj, nm = self.trajectory(t_end=0.01)
        with pytest.raises(ValueError, match=message):
            weak_form_residual(traj, self.params(), nm, phi_index, component)


def built_levels(u0, noise, box, *counts):
    """``(u0(g), noise(g))`` on ``box`` at each mode count, as converge builds
    its refine levels."""
    grids = [box.with_modes((n,) * box.dim) for n in counts]
    return [(u0(g), noise(g)) for g in grids]


class TestRefinementGap:
    def test_linear_resolved_coarse(self):
        """Fully resolved linear dynamics: both resolutions evolve the same
        coefficients mode by mode."""
        p = ModelParams(1.0, 1.0, TINY, TINY, TINY)
        box = Grid(1, (np.pi,), (4,))
        cfg = SolverConfig(dt=0.01, t_end=0.2, record_every=4)
        levels = built_levels(lambda g: eigenmode_field(g, (2,), (0.5, 0.0, 0.1)),
                              NoiseModel.empty, box, 4, 8)
        assert refinement_gap(*levels, p, cfg) < 1e-10

    def test_zero_initial_zero_gap(self):
        p = ModelParams(1.0, 1.0, 1.0, 1.0, 1.0)
        box = Grid(1, (np.pi,), (4,))
        cfg = SolverConfig(dt=0.01, t_end=0.1, record_every=2)
        levels = built_levels(zeros, NoiseModel.empty, box, 4, 8)
        assert refinement_gap(*levels, p, cfg) == 0.0

    def test_gap_decreases_with_resolution(self):
        p = ModelParams(0.5, 0.05, 1.0, 1.0, 0.5)
        box = Grid(1, (np.pi,), (8,))
        cfg = SolverConfig(dt=0.005, t_end=0.25, record_every=5, seed=11)
        u0 = lambda g: constant_field(g, (0.4, 0.0, 0.0)) + eigenmode_field(
            g, (1,), (0.0, 0.4, 0.0)
        )
        l8, l16, l32 = built_levels(u0, lambda g: small_noise(g, sigma=0.15), box,
                                    8, 16, 32)
        g1 = refinement_gap(l8, l16, p, cfg)
        g2 = refinement_gap(l16, l32, p, cfg)
        assert g2 < g1

    def test_rejects_bad_levels(self):
        """The fine level must be the coarse level's box with more modes."""
        p = ModelParams(1.0, 1.0, 1.0, 1.0, 1.0)
        box = Grid(1, (np.pi,), (4,))
        cfg = SolverConfig(dt=0.01, t_end=0.1)
        wider = Grid(1, (2 * np.pi,), (16,))
        for coarse, fine in (built_levels(zeros, NoiseModel.empty, box, 8, 8),
                             built_levels(zeros, NoiseModel.empty, box, 16, 8),
                             built_levels(zeros, NoiseModel.empty, box, 8)
                             + built_levels(zeros, NoiseModel.empty, wider, 16)):
            with pytest.raises(ValueError, match="more modes on every axis"):
                refinement_gap(coarse, fine, p, cfg)

    def test_fine_grid_blowup_aborts(self):
        """A top-mode datum is rougher on the fine grid: with blowup_K between
        the two H^1 norms only the fine run stops (at t = 0), and the pair
        cannot be compared."""
        p = ModelParams(1.0, 1.0, 1.0, 1.0, 1.0)
        box = Grid(1, (np.pi,), (4,))

        def top_mode(g):
            return eigenmode_field(g, (g.modes[0] - 1,), (0.1, 0.0, 0.0))

        levels = built_levels(top_mode, NoiseModel.empty, box, 4, 8)
        h1 = [sobolev_norm(noise.grid, u0, 1) for u0, noise in levels]
        cfg = SolverConfig(dt=0.01, t_end=0.1, record_every=2,
                           blowup_K=math.sqrt(h1[0] * h1[1]))
        assert issubclass(BlowupAbort, RuntimeError)
        with pytest.raises(BlowupAbort, match="N=8 stopped early at t=0: blowup_K"):
            refinement_gap(*levels, p, cfg)

    def test_both_runs_stopped_at_start_abort(self):
        """With blowup_K below the H^1 norm of u0 both runs stop at t = 0 and
        agree trivially; that is no refinement gap."""
        p = ModelParams(1.0, 1.0, 1.0, 1.0, 1.0)
        box = Grid(1, (np.pi,), (4,))

        def u0(g):
            return eigenmode_field(g, (1,), (0.5, 0.0, 0.0))

        cfg = SolverConfig(dt=0.01, t_end=0.1, record_every=2,
                           blowup_K=0.5 * sobolev_norm(box, u0(box), 1))
        with pytest.raises(BlowupAbort, match="N=4 stopped early at t=0: blowup_K"):
            refinement_gap(*built_levels(u0, NoiseModel.empty, box, 4, 8), p, cfg)

    def test_noise_not_representable_on_coarse(self):
        """A noise mode the coarse level does not retain fails when that level
        is built, before anything runs."""
        box = Grid(1, (np.pi,), (8,))
        spec = {"family": "eigenmode", "modes": [
            {"sigma": 0.1, "index": (6,), "direction": (1, 0, 0)},
        ]}
        assert build_noise_modes(spec, box).J == 1
        with pytest.raises(ValueError, match="mode index 6"):
            built_levels(zeros, lambda g: build_noise_modes(spec, g), box, 4, 8)


class TestStrongConvergenceGaps:
    def test_early_stop_aborts(self):
        u0 = eigenmode_field(G8, (2,), (1.0, 0.0, 0.0))
        cfg = SolverConfig(dt=0.01, t_end=0.1, blowup_K=0.5)
        with pytest.raises(BlowupAbort, match="stopped early: blowup_K"):
            strong_convergence_gaps(u0, ModelParams(1.0, 1.0, 1.0, 1.0, 1.0),
                                    small_noise(G8), cfg, halvings=1, paths=1)

    def test_unstable_coarse_level_aborts_naming_path_and_dt(self):
        """Explicit Heun at dt = 1.6e-3 is unstable for the top mode of N = 8
        (b2 lam^2 dt = 3.8 > 2) and stable at the halved dt, where the same
        run completes; the coarse level's stop still aborts the study."""
        u0 = constant_field(G8, (0.2, 0, 0)) + eigenmode_field(G8, (7,), (0, 0.01, 0))
        p = ModelParams(1.0, 1.0, 1.0, 1.0, 1.0)
        cfg = SolverConfig(dt=0.0016, t_end=0.16, scheme="heun_strat", blowup_K=10.0)
        assert strong_convergence_gaps(u0, p, small_noise(G8), replace(cfg, dt=0.0008),
                                       halvings=0, paths=2) == []
        with pytest.raises(BlowupAbort,
                           match="^path 0 at dt=0.0016 stopped early: blowup_K$"):
            strong_convergence_gaps(u0, p, small_noise(G8), cfg, halvings=1, paths=2)

    def test_same_gaps_at_any_worker_count(self):
        u0 = constant_field(G8, (0.2, 0, 0)) + eigenmode_field(G8, (2,), (0, 0.3, 0))
        args = (u0, ModelParams(0.5, 1.0, 1.0, 1.0, 1.0), small_noise(G8, sigma=0.2),
                SolverConfig(dt=0.01, t_end=0.1, seed=5))
        one = strong_convergence_gaps(*args, halvings=2, paths=3)
        assert len(one) == 2 and one[0] > 0.0
        assert strong_convergence_gaps(*args, halvings=2, paths=3, workers=2) == one

    @pytest.mark.parametrize("kwargs,message", [
        ({"paths": 0}, "paths must be >= 1"),
        ({"paths": -2}, "paths must be >= 1"),
        ({"halvings": -1}, "halvings must be >= 0"),
    ], ids=["paths_0", "paths_-2", "halvings_-1"])
    def test_rejects_bad_counts(self, kwargs, message):
        """No path gives a NaN mean, and a negative halving count no study."""
        u0 = eigenmode_field(G8, (2,), (0.1, 0.0, 0.0))
        cfg = SolverConfig(dt=0.01, t_end=0.02)
        with pytest.raises(ValueError, match=message):
            strong_convergence_gaps(u0, ModelParams(1.0, 1.0, 1.0, 1.0, 1.0),
                                    small_noise(G8), cfg,
                                    **{"halvings": 1, "paths": 1, **kwargs})
