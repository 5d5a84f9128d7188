"""Drift nonlinearities: truncation function, cubic, precession, assembly."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sllbar.grid import (
    Grid,
    analyze,
    collocation_points,
    constant_field,
    eigenmode_field,
    eigenvalue_array,
    random_field,
    sobolev_norm,
    synthesize,
)
from sllbar.integrator import (ConfigurationError, StepKernel, imex_em_step,
                               linear_factor)
from sllbar.model import (
    ModelParams,
    TruncationConfig,
    cubic_field,
    drift_terms,
    precession,
    theta_R,
    truncation_scale,
)
from sllbar.noise import NoiseModel, build_noise_modes

RNG = np.random.default_rng(7)
G8 = Grid(1, (np.pi,), (8,))
COS_AMP = 1 / math.sqrt(2 / np.pi)  # coefficient giving a raw cos(kx) profile


class TestModelParams:
    def test_beta1_any_sign(self):
        ModelParams(-2.0, 1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("idx", [2, 3, 4, 5])
    def test_positive_betas_enforced(self, idx):
        values = {f"beta{i}": 1.0 for i in range(1, 6)}
        values[f"beta{idx}"] = -0.5
        with pytest.raises(ValueError):
            ModelParams(**values)
        values[f"beta{idx}"] = 0.0
        with pytest.raises(ValueError):
            ModelParams(**values)


class TestThetaR:
    def test_plateau_one(self):
        assert theta_R(0.5, 1.0) == 1.0
        assert theta_R(0.0, 2.0) == 1.0
        assert theta_R(1.0, 1.0) == 1.0  # boundary of the inner plateau

    def test_plateau_zero(self):
        assert theta_R(2.5, 1.0) == 0.0
        assert theta_R(2.0, 1.0) == 0.0  # boundary of the outer plateau

    def test_strictly_between_and_monotone(self):
        v = theta_R(1.5, 1.0)
        assert 0.0 < v < 1.0
        assert theta_R(1.4, 1.0) >= theta_R(1.6, 1.0)
        xs = np.linspace(0.0, 3.0, 301)
        vals = [theta_R(x, 1.0) for x in xs]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_smooth_at_junctions(self):
        # difference quotients stay bounded approaching the plateau edges
        for x0 in (1.0, 2.0):
            h = 1e-6
            dq = (theta_R(x0 + h, 1.0) - theta_R(x0 - h, 1.0)) / (2 * h)
            assert abs(dq) < 1e-2

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            theta_R(1.0, 0.0)
        with pytest.raises(ValueError):
            theta_R(1.0, -1.0)

    def test_nan_radius_rejected(self):
        """``R <= 0`` let a NaN radius through, and the cutoff read 1.0."""
        with pytest.raises(ValueError, match="^R must be positive$"):
            theta_R(1.0, math.nan)

    def test_nan_argument_still_returns(self):
        """A nonfinite state must end as a ``nonfinite`` stop, not a raise
        inside the step that reads theta_R of its gradient norm."""
        assert theta_R(math.nan, 1.0) == 1.0


class TestCubicField:
    def test_constant(self):
        u = constant_field(G8, (0.5, 0.0, 0.0))
        out = synthesize(G8, cubic_field(G8, u))
        assert np.abs(out[0] - 0.125).max() < 1e-13
        assert np.abs(out[1:]).max() < 1e-14

    def test_unit_magnitude_fixed_point(self):
        v = np.array([1.0, 2.0, -2.0]) / 3.0
        u = constant_field(G8, v)
        out = cubic_field(G8, u)
        assert np.abs(out - u).max() < 1e-13

    def test_cos_cubed_identity(self):
        """cos^3 x = (3 cos x + cos 3x) / 4."""
        u = eigenmode_field(G8, (1,), (COS_AMP, 0.0, 0.0))
        out = cubic_field(G8, u)
        expected = np.zeros(8)
        expected[1] = 0.75 * COS_AMP
        expected[3] = 0.25 * COS_AMP
        assert np.abs(out[0] - expected).max() < 1e-10
        assert np.abs(out[1:]).max() < 1e-13

    def test_cubic_scaling(self):
        u = random_field(G8, RNG)
        c = 1.7
        a = cubic_field(G8, c * u)
        b = (c**3) * cubic_field(G8, u)
        assert np.abs(a - b).max() < 1e-12 * max(1.0, np.abs(b).max())


class TestPrecession:
    def test_constant_gives_zero(self):
        u = constant_field(G8, (1.0, 2.0, 3.0))
        assert np.abs(precession(G8, u)).max() < 1e-14

    def test_parallel_laplacian_gives_zero(self):
        u = eigenmode_field(G8, (1,), (0.8, 0.0, 0.0))  # Lap u is parallel to u
        assert np.abs(precession(G8, u)).max() < 1e-13

    def test_two_mode_oracle(self):
        """u = (cos x, cos 2x, 0): third component is -3 cos x cos 2x."""
        u = eigenmode_field(G8, (1,), (COS_AMP, 0.0, 0.0)) + eigenmode_field(
            G8, (2,), (0.0, COS_AMP, 0.0)
        )
        vals = synthesize(G8, precession(G8, u))
        x = collocation_points(G8)[0]
        assert np.abs(vals[2] - (-3.0 * np.cos(x) * np.cos(2 * x))).max() < 1e-12
        assert np.abs(vals[:2]).max() < 1e-13

    @pytest.mark.parametrize("dim,lengths,modes", [
        (1, (np.pi,), (9,)),
        (2, (np.pi, 2.0), (6, 5)),
        (3, (1.0, 1.5, 2.0), (4, 3, 4)),
    ])
    def test_orthogonal_to_state(self, dim, lengths, modes):
        grid = Grid(dim, lengths, modes)
        for _ in range(10):
            u = random_field(grid, RNG)
            val = float((precession(grid, u) * u).sum())  # Parseval: (., .)_L2
            bound = 1e-12 * max(1.0, sobolev_norm(grid, u, 0) * sobolev_norm(grid, u, 2))
            assert abs(val) < bound


def nonlocal_term(u, trunc):
    """The ``nonlocal`` drift entry on G8 with b5 = 1 and no noise."""
    params = ModelParams(0.5, 1.0, 1.0, 1.0, 1.0)
    return drift_terms(G8, u, params, NoiseModel.empty(G8), trunc)["nonlocal"]


class TestNonlocalCubic:
    def test_constant_gives_zero(self):
        u = constant_field(G8, (0.7, -0.1, 0.4))
        assert np.abs(nonlocal_term(u, TruncationConfig.off())).max() < 1e-13

    def test_truncation_beyond_2r_kills_term(self):
        u = random_field(G8, RNG)
        grad = sobolev_norm(G8, u, 1, seminorm=True)
        trunc = TruncationConfig.on(grad / 3.0)  # grad > 2R
        assert np.abs(nonlocal_term(u, trunc)).max() == 0.0

    def test_truncation_below_r_is_identity(self):
        u = random_field(G8, RNG)
        grad = sobolev_norm(G8, u, 1, seminorm=True)
        trunc = TruncationConfig.on(2.0 * grad)  # grad < R
        a = nonlocal_term(u, trunc)
        b = nonlocal_term(u, TruncationConfig.off())
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("shape", [(3, 1), (2, 8)], ids=["one_mode", "two_rows"])
    def test_truncation_scale_rejects_wrong_shape(self, shape):
        with pytest.raises(ValueError, match="coeffs shape"):
            truncation_scale(G8, np.ones(shape), TruncationConfig.on(1.0))

    def test_truncation_config_validation(self):
        with pytest.raises(ValueError):
            TruncationConfig("on", None)
        with pytest.raises(ValueError):
            TruncationConfig("on", -1.0)
        with pytest.raises(ValueError):
            TruncationConfig("sideways", None)

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_nonfinite_radius_rejected(self, radius):
        """theta_R(x, NaN) is 1, so a NaN radius once left the cutoff idle."""
        with pytest.raises(ValueError, match="^radius: required, positive and finite"):
            TruncationConfig("on", radius)

    @pytest.mark.parametrize("pad_factor", [1.0, 1.25, 1.5])
    def test_drift_terms_below_pad_2_raise_as_a_run_does(self, pad_factor):
        """The terms are the step's arrays, so they take the step's pad check.
        On this field the penalty once differed from the pad-2 one by 2.0%,
        0.56% and 4.0e-4 of its largest entry at pads 1, 1.25 and 1.5."""
        grid = Grid(2, (np.pi, np.pi), (8, 8), pad_factor)
        u = random_field(grid, np.random.default_rng(0))
        with pytest.raises(ConfigurationError,
                           match=f"^pad_factor {pad_factor:g} is below 2: .* alias"):
            drift_terms(grid, u, ModelParams(1.0, 1.0, 1.0, 1.0, 1.0),
                        NoiseModel.empty(grid), TruncationConfig.off())


def full_drift(u, params, noise):
    """The whole Ito-form drift on G8: the sum of every named term."""
    terms = drift_terms(G8, u, params, noise, TruncationConfig.off())
    return sum(terms.values())


class TestDriftAssembly:
    def params(self, **kw):
        base = dict(beta1=0.8, beta2=1.1, beta3=0.9, beta4=1.3, beta5=0.7)
        base.update(kw)
        return ModelParams(**base)

    def test_zero_state_zero_drift(self):
        p = self.params()
        d = full_drift(np.zeros((3, 8)), p, NoiseModel.empty(G8))
        assert np.abs(d).max() == 0.0

    def test_constant_penalty_only(self):
        a = 0.4
        p = self.params()
        u = constant_field(G8, (a, 0.0, 0.0))
        d = synthesize(G8, full_drift(u, p, NoiseModel.empty(G8)))
        assert np.abs(d[0] - p.beta3 * (1 - a**2) * a).max() < 1e-12
        assert np.abs(d[1:]).max() < 1e-13

    def test_constant_unit_vector_is_equilibrium(self):
        u = constant_field(G8, (0.0, 1.0, 0.0))
        d = full_drift(u, self.params(), NoiseModel.empty(G8))
        assert np.abs(d).max() < 1e-12

    def test_stratonovich_drops_correction(self):
        u = random_field(G8, RNG)
        p = self.params()
        noise = build_noise_modes(
            {"family": "eigenmode", "modes": [
                {"sigma": 0.3, "index": (1,), "direction": (0.0, 0.0, 1.0)},
            ]},
            G8,
        )
        terms = drift_terms(G8, u, p, noise, TruncationConfig.off())
        strat = sum(t for name, t in terms.items() if name != "ito_correction")
        ito_nonoise = full_drift(u, p, NoiseModel.empty(G8))
        assert np.abs(strat - ito_nonoise).max() < 1e-14


PARITY_GRIDS = [
    Grid(1, (np.pi,), (9,)),
    Grid(2, (np.pi, 2.0), (6, 5)),
    Grid(3, (1.0, 1.5, 2.0), (4, 3, 4)),
]


def parity_noise(grid):
    return build_noise_modes(
        {"family": "eigenmode", "modes": [
            {"sigma": 0.3, "index": (1,) * grid.dim, "direction": (0.0, 0.0, 1.0)},
            {"sigma": 0.2, "index": (0,) * (grid.dim - 1) + (2,),
             "direction": (1.0, 1.0, 0.0)},
        ]},
        grid,
    )


def parity_truncation(grid, u, mode):
    if mode == "off":
        return TruncationConfig.off()
    trunc = TruncationConfig.on(sobolev_norm(grid, u, 1, seminorm=True) / 1.5)
    assert 0.0 < truncation_scale(grid, u, trunc) < 1.0
    return trunc


def correction_reference(grid, u, noise):
    """``-1/2 sum_j Pi(G_j(u) x h_j)`` with ``G_j(u) = Pi(-u x h_j + h_j - Lap h_j)``,
    from np.cross on synthesized values."""
    lam = eigenvalue_array(grid)
    vals = synthesize(grid, u)
    total = np.zeros_like(u)
    for k, a in zip(noise.index, noise.amplitude):
        h = eigenmode_field(grid, k, a)
        h_vals = synthesize(grid, h)
        G = analyze(grid, -np.cross(vals, h_vals, axis=0)) + h + lam * h
        total += analyze(grid, np.cross(synthesize(grid, G), h_vals, axis=0))
    return -0.5 * total


def rel_gap(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


class TestDriftParity:
    """The drift the steppers assemble against the single-term references."""

    P = ModelParams(beta1=0.8, beta2=1.1, beta3=0.9, beta4=1.3, beta5=0.7)

    @pytest.mark.parametrize("mode", ["off", "on"])
    @pytest.mark.parametrize("grid", PARITY_GRIDS, ids=["d1", "d2", "d3"])
    def test_terms_match_references(self, grid, mode):
        p = self.P
        u = random_field(grid, RNG)
        noise = parity_noise(grid)
        trunc = parity_truncation(grid, u, mode)
        theta = truncation_scale(grid, u, trunc)
        lam = eigenvalue_array(grid)
        cubic = cubic_field(grid, u)
        expected = {
            "laplacian": p.beta1 * -lam * u,
            "biharmonic": -p.beta2 * lam**2 * u,
            "penalty": p.beta3 * (u - cubic),
            "precession": -p.beta4 * precession(grid, u),
            "nonlocal": p.beta5 * theta * -lam * cubic,
            "ito_correction": correction_reference(grid, u, noise),
        }
        terms = drift_terms(grid, u, p, noise, trunc)
        assert set(terms) == set(expected)
        for name, ref in expected.items():
            assert rel_gap(terms[name], ref) < 1e-13, name

    @pytest.mark.parametrize("mode", ["off", "on"])
    @pytest.mark.parametrize("grid", PARITY_GRIDS, ids=["d1", "d2", "d3"])
    def test_imex_step_sums_nonlinear_terms(self, grid, mode):
        p, dt = self.P, 1e-3
        u = random_field(grid, RNG)
        noise = parity_noise(grid)
        trunc = parity_truncation(grid, u, mode)
        terms = drift_terms(grid, u, p, noise, trunc)
        nonlinear = sum(terms[k] for k in
                        ("penalty", "precession", "nonlocal", "ito_correction"))
        expected = (u + dt * nonlinear) / linear_factor(
            eigenvalue_array(grid), dt, p)
        step = imex_em_step(StepKernel(p, noise, trunc, dt), u, np.zeros(noise.J))
        assert rel_gap(step, expected) < 1e-13


@st.composite
def precession_cases(draw):
    """A d = 2 or 3 grid with 1..9 modes on each axis, its own box lengths and
    a pad factor of 2, 2.5 or 3, and a seed for a flat-spectrum field."""
    dim = draw(st.sampled_from((2, 3)))
    modes = tuple(draw(st.lists(st.integers(1, 9), min_size=dim, max_size=dim)))
    lengths = tuple(draw(st.lists(st.floats(0.5, 7.0), min_size=dim, max_size=dim)))
    pad = draw(st.sampled_from((2.0, 2.5, 3.0)))
    return Grid(dim, lengths, modes, pad), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(precession_cases())
def test_step_precession_on_the_3_2_grid_is_exact(case):
    """The step forms u x Lap u on ceil(1.5 N) nodes per axis, where the
    midpoint rule is exact for the 3(N - 1) frequencies the projection reads;
    ``model.precession`` forms it on the run grid. A flat spectrum puts as
    much energy in the top modes as in any other."""
    grid, seed = case
    p = TestDriftParity.P
    u = random_field(grid, np.random.default_rng(seed), decay=0.0)
    kernel = StepKernel(p, NoiseModel.empty(grid), TruncationConfig.off(), 1e-3)
    terms, _ = kernel.parts(u, False, None)
    ref = -p.beta4 * precession(grid, u)
    scale = max(np.abs(ref).max(), 1e-300)
    assert np.abs(terms["precession"] - ref).max() <= 1e-13 * scale
