"""Monte Carlo driver, moments, growth fit, tightness, window averages."""

import math
from pathlib import Path

import numpy as np
import pytest

from sllbar.cli import run_command
from sllbar.config import ExperimentConfig
from sllbar.ensemble import (
    EnsembleStats,
    Observable,
    _path_mean_se,
    h2_time_average,
    invariant_average,
    invariant_windows,
    moment_estimates,
    run_ensemble,
    run_trajectories,
    tightness_statistic,
)
from sllbar.grid import Grid, constant_field, eigenmode_field, sobolev_norm
from sllbar.integrator import BlowupAbort, SolverConfig, run_trajectory
from sllbar.model import ModelParams
from sllbar.noise import NoiseModel, build_noise_modes

ROOT = Path(__file__).resolve().parents[1]
TINY = 1e-300
G8 = Grid(1, (np.pi,), (8,))


def small_noise(grid, sigma=0.1):
    return build_noise_modes(
        {"family": "eigenmode", "modes": [
            {"sigma": sigma, "index": (1,), "direction": (1.0, 0.0, 0.0)},
            {"sigma": sigma, "index": (2,), "direction": (0.0, 0.0, 1.0)},
        ]},
        grid,
    )


def full_params():
    return ModelParams(0.5, 1.0, 1.0, 1.0, 1.0)


class TestObservable:
    def test_tanh_mode_bounded_and_reads_coefficient(self):
        psi = Observable("tanh_mode", mode_index=(0,), component=0, scale=2.0)
        u = constant_field(G8, (1.0, 0.0, 0.0))
        expected = math.tanh(math.sqrt(np.pi) / 2.0)
        assert psi(G8, u) == pytest.approx(expected, rel=1e-14)
        assert abs(psi(G8, 100.0 * u)) <= 1.0

    def test_exp_neg_l2(self):
        psi = Observable("exp_neg_l2", scale=2.0)
        assert psi(G8, np.zeros((3, 8))) == 1.0
        u = constant_field(G8, (1.0, 0.0, 0.0))
        assert psi(G8, u) == pytest.approx(math.exp(-np.pi / 4.0), rel=1e-13)

    def test_clip_norm(self):
        psi = Observable("clip_norm", space="L2", cap=1.0)
        u = constant_field(G8, (3.0, 0.0, 0.0))
        assert psi(G8, u) == 1.0
        small = constant_field(G8, (0.1, 0.0, 0.0))
        assert psi(G8, small) == pytest.approx(0.1 * math.sqrt(np.pi), rel=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            Observable("sin_mode")
        with pytest.raises(ValueError):
            Observable("clip_norm", space="H7")
        with pytest.raises(ValueError):
            Observable("exp_neg_l2", scale=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_cap_rejected(self, bad):
        """``min(n, nan)`` is n, so a NaN cap once left the norm unclipped; an
        infinite cap would make the observable unbounded."""
        with pytest.raises(ValueError, match="^cap must be positive and finite$"):
            Observable("clip_norm", cap=bad)

    @pytest.mark.parametrize("kind", ["tanh_mode", "exp_neg_l2"])
    def test_nan_scale_rejected(self, kind):
        """A NaN scale once gave NaN observables."""
        with pytest.raises(ValueError, match="^scale must be positive$"):
            Observable(kind, mode_index=(0,) if kind == "tanh_mode" else (),
                       scale=math.nan)

    @pytest.mark.parametrize("index", [(-1,), (16,), (0, 1)],
                             ids=["negative", "past_last", "wrong_length"])
    def test_tanh_mode_index_checked_against_grid(self, index):
        """A library caller gets the same check as a config file: -1 does not
        wrap round to the last mode."""
        grid = Grid(1, (np.pi,), (16,))
        u = eigenmode_field(grid, (15,), (1.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="mode index"):
            Observable("tanh_mode", mode_index=index)(grid, u)

    @pytest.mark.parametrize("psi", [
        Observable("tanh_mode", mode_index=(0,)), Observable("exp_neg_l2"),
        Observable("clip_norm", space="H1")], ids=lambda psi: psi.kind)
    @pytest.mark.parametrize("shape", [(3, 1), (2, 8)], ids=["one_mode", "two_rows"])
    def test_wrong_shape_rejected(self, psi, shape):
        """One mode is not broadcast against the grid's eight."""
        with pytest.raises(ValueError, match="coeffs shape"):
            psi(G8, np.ones(shape))

    def test_names_unique(self):
        a = Observable("tanh_mode", mode_index=(0,), component=1)
        b = Observable("tanh_mode", mode_index=(1,), component=1)
        assert a.name != b.name


class TestRunEnsemble:
    def config(self, **kw):
        base = dict(dt=0.01, t_end=0.2, record_every=4, seed=3)
        base.update(kw)
        return SolverConfig(**base)

    def test_single_path_equals_trajectory(self):
        from sllbar.integrator import run_trajectory

        u0 = constant_field(G8, (0.1, 0.0, 0.0))
        nm = small_noise(G8)
        stats = run_ensemble(u0, full_params(), nm, self.config(), 1)
        rec = run_trajectory(u0, full_params(), nm, self.config(), path=0)
        assert np.array_equal(stats.norms["l2"][0], rec.norms["l2"])
        assert np.all(stats.var_norms["l2"] == 0.0)

    def test_summaries_always_computed(self):
        args = (np.array([0.0, 0.3, 0.4]), np.array([0, 3, 4]),
                {"l2": np.array([[1.0, 2.0, 5.0], [3.0, 6.0, 5.0]])},
                {"psi": np.array([[0.5, 1.0, 0.1], [0.5, 3.0, 0.1]])},
                ["completed"] * 2, [0.4, 0.4])
        stats = EnsembleStats(*args)
        assert stats.M == 2
        assert np.array_equal(stats.mean_norms["l2"], [2.0, 4.0, 5.0])
        assert np.array_equal(stats.var_norms["l2"], [2.0, 8.0, 0.0])
        assert np.array_equal(stats.mean_obs["psi"], [0.5, 2.0, 0.1])
        assert np.array_equal(stats.se_obs["psi"], [0.0, 1.0, 0.0])
        assert np.array_equal(stats.weights, [1.0, 1.0 / 3.0])
        with pytest.raises(TypeError):
            EnsembleStats(*args, mean_norms={})

    def test_noise_off_paths_identical(self):
        u0 = constant_field(G8, (0.3, 0.0, 0.0))
        stats = run_ensemble(u0, full_params(), NoiseModel.empty(G8),
                             self.config(), 8)
        for key in stats.norms:
            assert np.all(stats.var_norms[key] == 0.0)

    def test_seed_determinism_bitwise(self):
        u0 = constant_field(G8, (0.1, 0.0, 0.0))
        nm = small_noise(G8)
        a = run_ensemble(u0, full_params(), nm, self.config(), 4)
        b = run_ensemble(u0, full_params(), nm, self.config(), 4)
        for key in a.norms:
            assert np.array_equal(a.norms[key], b.norms[key])

    def test_worker_count_invariance(self):
        u0 = constant_field(G8, (0.1, 0.0, 0.0))
        nm = small_noise(G8)
        obs = (Observable("exp_neg_l2"),)
        seq = run_ensemble(u0, full_params(), nm, self.config(), 4,
                           observables=obs, workers=1)
        par = run_ensemble(u0, full_params(), nm, self.config(), 4,
                           observables=obs, workers=2)
        for key in seq.norms:
            assert np.array_equal(seq.norms[key], par.norms[key])
        for key in seq.obs:
            assert np.array_equal(seq.obs[key], par.obs[key])

    def test_config_error_names_offending_path(self):
        from sllbar.integrator import ConfigurationError

        u0 = constant_field(G8, (0.1, 0.0, 0.0))
        bad = ModelParams(-50.0, 1e-4, 1.0, 1.0, 1.0)  # denominator flips sign
        with pytest.raises(ConfigurationError, match="path 0"):
            run_ensemble(u0, bad, NoiseModel.empty(G8),
                         SolverConfig(dt=0.1, t_end=1.0), 2)

    def test_observables_sharing_a_name_rejected(self):
        """Equal names would key one column for two observables; an exact
        duplicate and a scale that ``:g`` rounds to the same name both raise
        before the first step."""
        from sllbar.integrator import ConfigurationError

        u0 = constant_field(G8, (0.1, 0.0, 0.0))
        for second in (Observable("exp_neg_l2"), Observable("exp_neg_l2", scale=1.0000001)):
            obs = (Observable("exp_neg_l2"), Observable("clip_norm"), second)
            with pytest.raises(ConfigurationError, match=r"^path 0: observables 0 and 2 "
                               r"share the name 'exp_neg_l2\[s=1\]'$"):
                run_ensemble(u0, full_params(), small_noise(G8), self.config(), 2,
                             observables=obs)

    def test_initial_data_off_the_noise_grid_names_path(self):
        from sllbar.integrator import ConfigurationError

        u0 = constant_field(Grid(1, (np.pi,), (4,)), (0.1, 0.0, 0.0))
        with pytest.raises(ConfigurationError,
                           match="^path 0: initial data shape .* does not match"):
            run_ensemble(u0, full_params(), small_noise(G8), self.config(), 2)

    @pytest.mark.parametrize("workers,M,cpus,expected", [
        (100000, 3, 8, 3),
        (100000, 16, 4, 4),
        (2, 16, 4, 2),
    ])
    def test_pool_size_capped(self, monkeypatch, workers, M, cpus, expected):
        import concurrent.futures

        import sllbar.ensemble as ens

        sizes = []

        class FakePool:
            """Records the requested size and maps in this process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(ens.os, "cpu_count", lambda: cpus)
        cfg = SolverConfig(dt=0.05, t_end=0.1)
        stats = run_ensemble(constant_field(G8, (0.1, 0.0, 0.0)), full_params(),
                             NoiseModel.empty(G8), cfg, M, workers=workers)
        assert sizes == [expected]
        assert stats.M == M

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_trajectories_is_one_run_per_job_in_job_order(self, workers):
        """Jobs mixing two configs and three paths come back in job order,
        each record bitwise the record of its own run_trajectory call."""
        u0 = constant_field(G8, (0.1, 0.0, 0.0)) + eigenmode_field(G8, (1,), (0, 0.2, 0))
        nm, obs = small_noise(G8, sigma=0.2), (Observable("exp_neg_l2"),)
        cfgs = (self.config(record_every=2),
                SolverConfig(dt=0.005, t_end=0.1, seed=5, substeps=2, snapshot_every=4))
        jobs = [(u0, full_params(), nm, cfg, path, obs)
                for path in (2, 0, 1) for cfg in cfgs]
        records = run_trajectories(jobs, workers=workers)
        assert len(records) == len(jobs)
        for (*args, path, observables), rec in zip(jobs, records):
            ref = run_trajectory(*args, path=path, observables=observables)
            assert (rec.path, rec.config, rec.stop_reason, rec.stop_time) == (
                ref.path, ref.config, ref.stop_reason, ref.stop_time)
            for a, b in ((rec.final, ref.final), (rec.times, ref.times),
                         (rec.snapshots, ref.snapshots),
                         *((rec.norms[k], ref.norms[k]) for k in ref.norms),
                         *((rec.obs[k], ref.obs[k]) for k in ref.obs)):
                assert np.array_equal(a, b)

    def test_blowup_paths_counted(self):
        # immediate threshold crossing: every path stops at t=0 uniformly
        u0 = eigenmode_field(G8, (1,), (1.0, 0.0, 0.0))
        cfg = self.config(blowup_K=0.01)
        stats = run_ensemble(u0, full_params(), small_noise(G8), cfg, 3)
        assert stats.blowup_count == 3
        assert stats.stop_reasons == ["blowup_K"] * 3

    def test_paths_stopping_at_different_times_abort(self):
        """Each path has two samples (t = 0 and its stop), but the stop
        times differ, so the series share no sample grid."""
        u0 = eigenmode_field(G8, (1,), (0.5, 0.0, 0.0))
        p = ModelParams(-3.0, 0.1, TINY, TINY, TINY)  # beta1 < 0: growth
        cfg = self.config(blowup_K=1.2, record_every=20)
        with pytest.raises(BlowupAbort, match="different sample grids"):
            run_ensemble(u0, p, small_noise(G8, sigma=0.5), cfg, 4)


class TestMoments:
    def make_stats(self, M=6, t_end=0.4):
        u0 = constant_field(G8, (0.2, 0.0, 0.0))
        cfg = SolverConfig(dt=0.01, t_end=t_end, record_every=2, seed=5)
        return run_ensemble(u0, full_params(), small_noise(G8), cfg, M)

    def test_zero_dynamics_zero_moments(self):
        cfg = SolverConfig(dt=0.01, t_end=0.2, record_every=2)
        stats = run_ensemble(np.zeros((3, 8)), full_params(), NoiseModel.empty(G8),
                             cfg, 2)
        for key, (est, se) in moment_estimates(stats, 1).items():
            assert est == 0.0 and se == 0.0

    def test_deterministic_zero_se(self):
        cfg = SolverConfig(dt=0.01, t_end=0.2, record_every=2)
        u0 = constant_field(G8, (0.4, 0.0, 0.0))
        stats = run_ensemble(u0, full_params(), NoiseModel.empty(G8), cfg, 4)
        for key, (est, se) in moment_estimates(stats, 2).items():
            assert se == 0.0

    def test_jensen_ordering(self):
        stats = self.make_stats()
        m1 = moment_estimates(stats, 1)
        m2 = moment_estimates(stats, 2)
        for key in ("sup_l2_2p", "int_h2_p", "int_l4_p"):
            se = max(m1[key][1], m2[key][1], 1e-12)
            assert m1[key][0] ** 2 <= m2[key][0] + 4 * se

    def test_invalid_power(self):
        with pytest.raises(ValueError):
            moment_estimates(self.make_stats(M=2), 0.5)

    def test_nan_power_rejected(self):
        """``p < 1`` let NaN through, and every estimate came back NaN."""
        with pytest.raises(ValueError, match="^p must be >= 1$"):
            moment_estimates(self.make_stats(M=2), math.nan)

    def test_doubling_m_moves_less_than_four_se(self):
        """Doubling M under a split seed shifts estimates by < 4 combined SEs."""
        u0 = constant_field(G8, (0.2, 0.0, 0.0))
        nm = small_noise(G8, sigma=0.2)
        stats_m = run_ensemble(
            u0, full_params(), nm,
            SolverConfig(dt=0.01, t_end=0.5, record_every=2, seed=5), 16,
        )
        stats_2m = run_ensemble(
            u0, full_params(), nm,
            SolverConfig(dt=0.01, t_end=0.5, record_every=2, seed=5040), 32,
        )
        a = moment_estimates(stats_m, 1)
        b = moment_estimates(stats_2m, 1)
        for key in a:
            combined = math.hypot(a[key][1], b[key][1])
            assert abs(a[key][0] - b[key][0]) < 4 * combined


class TestH2Growth:
    def test_zero_trajectories(self):
        cfg = SolverConfig(dt=0.01, t_end=0.5, record_every=2)
        stats = run_ensemble(np.zeros((3, 8)), full_params(), NoiseModel.empty(G8),
                             cfg, 2)
        rep = h2_time_average(stats)
        assert np.abs(rep.series).max() == 0.0
        assert (rep.a, rep.b, rep.c) == (0.0, 0.0, 0.0) or abs(rep.c) < 1e-12

    def test_linear_decay_flattens(self):
        """Pure dissipation: the cumulative integral converges, so the fitted
        linear and quadratic coefficients shrink with the horizon."""
        u0 = eigenmode_field(G8, (2,), (0.5, 0.0, 0.0))
        p = ModelParams(1.0, 1.0, TINY, TINY, TINY)
        reports = []
        for t_end in (2.0, 8.0):
            cfg = SolverConfig(dt=0.01, t_end=t_end, record_every=5)
            stats = run_ensemble(u0, p, NoiseModel.empty(G8), cfg, 1)
            reports.append(h2_time_average(stats))
        assert abs(reports[1].b) < abs(reports[0].b)

    def test_needs_enough_samples(self):
        cfg = SolverConfig(dt=0.01, t_end=0.1, record_every=5)
        stats = run_ensemble(np.zeros((3, 8)), full_params(), NoiseModel.empty(G8),
                             cfg, 1)
        with pytest.raises(ValueError):
            h2_time_average(stats)


class TestTightness:
    def make_stats(self):
        u0 = constant_field(G8, (0.3, 0.0, 0.0))
        cfg = SolverConfig(dt=0.01, t_end=1.0, record_every=4, seed=8)
        return run_ensemble(u0, full_params(), small_noise(G8), cfg, 4)

    def test_bounds_and_extremes(self):
        stats = self.make_stats()
        top = stats.norms["h1"].max() * 2.0
        assert tightness_statistic(stats, top, "H1") == 0.0
        assert tightness_statistic(stats, 0.0, "H1") == 1.0

    def test_monotone_in_r(self):
        stats = self.make_stats()
        rs = np.linspace(0.0, stats.norms["h1"].max() * 1.1, 12)
        vals = [tightness_statistic(stats, r, "H1") for r in rs]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_l2_variant(self):
        stats = self.make_stats()
        assert tightness_statistic(stats, 0.0, "L2") == 1.0
        with pytest.raises(ValueError):
            tightness_statistic(stats, 1.0, "H3")

    @pytest.mark.parametrize("R", [-1.0, math.nan])
    def test_invalid_radius(self, R):
        """A NaN radius once read 0.0: no sample exceeds NaN."""
        with pytest.raises(ValueError, match="^R must be >= 0$"):
            tightness_statistic(self.make_stats(), R, "H1")


class TestInvariantAverage:
    def test_zero_state_exp_observable(self):
        cfg = SolverConfig(dt=0.01, t_end=1.0, record_every=4)
        obs = (Observable("exp_neg_l2"),)
        stats = run_ensemble(np.zeros((3, 8)), full_params(), NoiseModel.empty(G8),
                             cfg, 2, observables=obs)
        rep = invariant_average(stats, obs[0].name, burn_in=0.25)
        assert rep.window_means == [1.0, 1.0]
        assert np.all(stats.mean_obs[obs[0].name] == 1.0)
        assert np.all(stats.se_obs[obs[0].name] == 0.0)

    def test_fixed_point_run_constant_average(self):
        u0 = constant_field(G8, (0.0, 1.0, 0.0))  # |u| = 1 equilibrium
        cfg = SolverConfig(dt=0.01, t_end=1.0, record_every=4)
        obs = (Observable("exp_neg_l2", scale=2.0),)
        stats = run_ensemble(u0, full_params(), NoiseModel.empty(G8), cfg, 2,
                             observables=obs)
        rep = invariant_average(stats, obs[0].name, burn_in=0.25)
        expected = math.exp(-np.pi / 4.0)
        for m in rep.window_means:
            assert m == pytest.approx(expected, rel=1e-12)

    def test_window_validation(self):
        cfg = SolverConfig(dt=0.01, t_end=1.0, record_every=4)
        obs = (Observable("exp_neg_l2"),)
        stats = run_ensemble(np.zeros((3, 8)), full_params(), NoiseModel.empty(G8),
                             cfg, 1, observables=obs)
        name = obs[0].name
        with pytest.raises(ValueError):
            invariant_average(stats, name, burn_in=0.6)  # horizon < 2 burn_in
        with pytest.raises(ValueError):
            invariant_average(stats, name, burn_in=0.1, windows=[(0.5, 1.5)])
        with pytest.raises(ValueError):
            invariant_average(stats, name, burn_in=0.2, windows=[(0.1, 0.5)])
        with pytest.raises(ValueError, match="contains no samples"):
            # samples every 0.04: none in [0.5, 0.51)
            invariant_average(stats, name, burn_in=0.1, windows=[(0.5, 0.51)])
        with pytest.raises(KeyError, match="not recorded"):
            invariant_average(stats, 0, burn_in=0.25)  # a name, not a position

    @pytest.mark.parametrize("burn_in", [-1.0, -1e-300, math.nan])
    def test_negative_or_nan_burn_in_is_rejected(self, burn_in):
        """A window may then not start before t = 0, as ``invariant`` with
        ``burn_in = -1`` and ``windows = -0.5:0.5`` once reported one."""
        with pytest.raises(ValueError, match="must be >= 0"):
            invariant_windows(np.linspace(0.0, 1.0, 11), burn_in, [(-0.5, 0.5)])
        with pytest.raises(ValueError, match="^burn_in: must be >= 0$"):
            ExperimentConfig(burn_in=burn_in)

    def test_missing_observable(self):
        cfg = SolverConfig(dt=0.01, t_end=1.0, record_every=4)
        stats = run_ensemble(np.zeros((3, 8)), full_params(), NoiseModel.empty(G8),
                             cfg, 1)
        with pytest.raises(ValueError):
            invariant_average(stats, 0, burn_in=0.2)


class TestTimeWeights:
    """Samples weigh their record interval; a stride that does not divide
    the step count leaves a short last interval."""

    @pytest.mark.parametrize("record_every", [3, 7])
    def test_fixed_point_h2_integral_exact(self, record_every):
        u0 = constant_field(G8, (1.0, 0.0, 0.0))  # |u| = 1 equilibrium
        cfg = SolverConfig(dt=0.01, t_end=0.1, record_every=record_every)
        stats = run_ensemble(u0, full_params(), NoiseModel.empty(G8), cfg, 2)
        assert stats.weights[-1] == (10 % record_every) / record_every
        expected = 0.1 * sobolev_norm(G8, u0, 2) ** 2
        est, se = moment_estimates(stats, 1)["int_h2_p"]
        assert est == pytest.approx(expected, rel=1e-12)
        assert se == 0.0

    def test_decaying_run_estimators_match_hand_sums(self):
        # slow linear decay, so the short last interval carries weight
        u0 = eigenmode_field(G8, (1,), (0.5, 0.0, 0.0))
        p = ModelParams(0.1, 0.1, TINY, TINY, TINY)
        obs = (Observable("exp_neg_l2", scale=0.5),)
        cfg = SolverConfig(dt=0.01, t_end=1.0, record_every=3)
        stats = run_ensemble(u0, p, NoiseModel.empty(G8), cfg, 2, observables=obs)
        assert list(stats.sample_steps[-3:]) == [96, 99, 100]
        t = stats.times
        gaps = np.diff(t)  # each sample's own interval; the last is dt

        h2_sq = stats.norms["h2"][0] ** 2  # noise off: every path is equal
        integral = sum(h2_sq[i] * gaps[i] for i in range(len(gaps)))
        assert h2_time_average(stats).series[-1] == pytest.approx(integral, rel=1e-12)

        h1 = stats.norms["h1"][0]
        R = float(np.median(h1))
        over = sum(gaps[i] for i in range(len(gaps)) if h1[i] > R)
        assert tightness_statistic(stats, R, "H1") == pytest.approx(over / stats.horizon, rel=1e-12)

        psi = stats.obs[obs[0].name][0]
        inside = [i for i in range(len(gaps)) if 0.5 <= t[i] < 1.0]
        mean = (sum(psi[i] * gaps[i] for i in inside)
                / sum(gaps[i] for i in inside))
        rep = invariant_average(stats, obs[0].name, burn_in=0.5, windows=[(0.5, 1.0)])
        assert rep.window_means[0] == pytest.approx(mean, rel=1e-12)
        assert rep.window_ses == [0.0]


class TestAgreeingPaths:
    """Where every path holds the same value, the statistics are exact."""

    def test_mean_is_the_common_value(self):
        x = np.full((8, 3), 0.0886226925452758)
        assert x.mean(axis=0)[0] != x[0, 0]  # the summed mean is one ulp off
        mean, var, se = _path_mean_se(x)
        assert np.array_equal(mean, x[0])
        assert not var.any() and not se.any()

    def test_ensemble_writes_the_simulated_value_at_t0(self, tmp_path):
        cfg = str(ROOT / "demos" / "configs" / "annotated.cfg")
        assert run_command(["simulate", "--config", cfg, "--output-dir",
                            str(tmp_path / "sim"), "--quiet"]) == 0
        assert run_command(["ensemble", "--config", cfg, "--output-dir",
                            str(tmp_path / "ens"), "--quiet"]) == 0

        def first_row(path, column):
            header, row = path.read_text().splitlines()[:2]
            return row.split(",")[header.split(",").index(column)]

        written = first_row(tmp_path / "ens" / "ensemble_norms.csv", "mean_l2")
        assert written == "0.0886226925452758"
        assert written == first_row(tmp_path / "sim" / "trajectory.csv", "l2")
