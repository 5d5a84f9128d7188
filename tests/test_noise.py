"""Noise family construction, diffusion map, Ito correction, increments."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sllbar.grid import (
    Grid,
    Workspace,
    analyze,
    constant_field,
    cross3,
    cyclic,
    eigenmode_field,
    eigenvalue_array,
    gradient_values,
    quad_weight,
    random_field,
    sobolev_norm,
    synthesize,
)
from sllbar.integrator import SolverConfig, _explicit_parts, run_trajectory
from sllbar.model import ModelParams, TruncationConfig
from sllbar.noise import (
    NoiseModel,
    NoiseTailWarning,
    build_noise_modes,
    check_noise_condition,
    _correction_coeffs,
    _diffusion_coeffs,
    _operator_parts,
    _product_rule,
    coupled_increments,
    sample_increments,
)

RNG = np.random.default_rng(99)
G8 = Grid(1, (np.pi,), (8,))


def cyclic_values(grid, u, ws):
    """u's values in ``ws.vals``, in the cyclic form the noise helpers take."""
    return cyclic(synthesize(grid, u, out=ws.vals))


def diffusion(u, noise, j):
    """Coefficients of G_j(u) on G8, from the function the steppers call."""
    ws = Workspace(G8)
    return _diffusion_coeffs(G8, cyclic_values(G8, u, ws), noise, j, ws)


def correction(u, noise):
    """Coefficients of the Ito correction on G8, from the function the steppers
    call."""
    ws = Workspace(G8)
    return _correction_coeffs(G8, cyclic_values(G8, u, ws), noise, ws)


def eigenmode_spec(*modes):
    return {"family": "eigenmode", "modes": list(modes)}


def constant_noise(grid, vector):
    """One mode h = vector everywhere: the index-0 eigenmode with sigma =
    |vector| sqrt(volume) and direction vector."""
    sigma = float(np.linalg.norm(vector)) * math.sqrt(grid.volume)
    return build_noise_modes(eigenmode_spec(
        {"sigma": sigma, "index": (0,) * grid.dim, "direction": vector}), grid)


class TestBuild:
    def test_single_mode_c_h(self):
        sigma = 0.6
        nm = build_noise_modes(
            eigenmode_spec({"sigma": sigma, "index": (1,), "direction": (0, 0, 1)}),
            G8,
        )
        assert nm.J == 1
        assert nm.C_h == pytest.approx(8 * sigma**2, rel=1e-14)

    def test_empty_family(self):
        nm = NoiseModel.empty(G8)
        assert nm.J == 0
        assert nm.C_h == 0.0
        assert check_noise_condition(nm) is False

    def test_two_mode_c_h(self):
        nm = build_noise_modes(
            eigenmode_spec(
                {"sigma": 1.0, "index": (1,), "direction": (0, 0, 1)},
                {"sigma": 0.5, "index": (2,), "direction": (1, 0, 0)},
            ),
            G8,
        )
        # sigma^2 (1+lambda)^3: 1*8 + 0.25*125
        assert nm.C_h == pytest.approx(39.25, rel=1e-12)

    def test_c_h_is_the_closed_form_at_d3(self):
        # on [0, pi]^3 each 1 + lambda_k is an integer, so its cube is exact
        # and the oracle rounds only where the closed form does
        grid = Grid(3, (np.pi,) * 3, (4, 4, 4))
        nm = build_noise_modes(eigenmode_spec(*D3_KERNEL_FAMILY), grid)
        lam = eigenvalue_array(grid)
        expected = 0.0
        for k, (a0, a1, a2) in zip(nm.index, nm.amplitude.tolist()):
            expected += (1.0 + lam[tuple(k)]) ** 3 * (a0 * a0 + a1 * a1 + a2 * a2)
        assert nm.C_h == expected

    def test_h_minus_lap_precomputed_exactly(self):
        nm = build_noise_modes(
            eigenmode_spec({"sigma": 1.0, "index": (2,), "direction": (1, 0, 0)}),
            G8,
        )
        h = eigenmode_field(G8, nm.index[0], nm.amplitude[0])
        assert nm.h_minus_lap[0].tobytes() == (h - -eigenvalue_array(G8) * h).tobytes()

    def test_mode_outside_grid_rejected(self):
        with pytest.raises(ValueError):
            build_noise_modes(
                eigenmode_spec({"sigma": 1.0, "index": (8,), "direction": (0, 0, 1)}),
                G8,
            )

    @pytest.mark.parametrize("index", [(8,), (-1,), (1, 2), (2.9,), (True,)])
    def test_index_error_names_mode(self, index):
        with pytest.raises(ValueError, match="^noise mode 0: mode index"):
            build_noise_modes(
                eigenmode_spec({"sigma": 1.0, "index": index, "direction": (0, 0, 1)}),
                G8,
            )

    def test_direction_normalized(self):
        nm = build_noise_modes(
            eigenmode_spec({"sigma": 2.0, "index": (1,), "direction": (0, 0, 5)}),
            G8,
        )
        h = eigenmode_field(G8, nm.index[0], nm.amplitude[0])
        assert sobolev_norm(G8, h, 0) == pytest.approx(2.0, rel=1e-14)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            build_noise_modes(
                eigenmode_spec({"sigma": 1.0, "index": (1,), "direction": (0, 0, 0)}),
                G8,
            )

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_nonfinite_sigma_rejected(self, sigma):
        """A NaN sigma once gave a NaN amplitude and a NaN C_h."""
        with pytest.raises(ValueError, match="^noise mode 0: sigma and direction"):
            build_noise_modes(
                eigenmode_spec({"sigma": sigma, "index": (1,), "direction": (0, 0, 1)}),
                G8,
            )

    @pytest.mark.parametrize("direction", [(math.inf, 0, 0), (1, math.nan, 0)])
    def test_nonfinite_direction_rejected(self, direction):
        """An inf direction once gave the amplitude [nan, 0, 0]."""
        with pytest.raises(ValueError, match="^noise mode 0: sigma and direction"):
            build_noise_modes(
                eigenmode_spec({"sigma": 1.0, "index": (1,), "direction": direction}),
                G8,
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_amplitude_rejected(self, bad):
        """A nonfinite amplitude gives a nonfinite C_h, which is the check."""
        message = "^noise amplitudes and C_h must be finite, C_h = (nan|inf)$"
        with pytest.raises(ValueError, match=message):
            NoiseModel(G8, [(1,), (2,)], [(0.1, 0.0, 0.0), (0.0, bad, 0.0)])

    def test_c_h_overflow_rejected(self):
        """sigma = 1e308 once gave C_h = inf with only RuntimeWarnings; the
        overflow is now the error, with no warning beside it."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = "^noise amplitudes and C_h must be finite, C_h = inf$"
            with pytest.raises(ValueError, match=message):
                build_noise_modes(eigenmode_spec(
                    {"sigma": 1e308, "index": (3,), "direction": (0, 0, 1)}), G8)


class TestStorage:
    def test_index_and_amplitude_arrays(self):
        grid = Grid(2, (np.pi, 2.0), (6, 5))
        nm = build_noise_modes(eigenmode_spec(
            {"sigma": 0.5, "index": (1, 0), "direction": (0, 3, 4)},
            {"sigma": 2.0, "index": (0, 4), "direction": (1, 0, 0)}), grid)
        assert nm.index.dtype.kind == "i" and nm.index.tolist() == [[1, 0], [0, 4]]
        direction = np.array([0.0, 3.0, 4.0])
        assert nm.amplitude.tobytes() == np.array(
            [0.5 * direction / 5.0, [2.0, 0.0, 0.0]]).tobytes()
        assert not nm.index.flags.writeable and not nm.amplitude.flags.writeable
        assert not nm.h_minus_lap_k.flags.writeable
        for k, row, dense in zip(nm.index, nm.h_minus_lap_k, nm.h_minus_lap):
            assert row.tobytes() == dense[(slice(None), *k)].tobytes()

    def test_empty_family_arrays(self):
        nm = NoiseModel.empty(Grid(3, (1.0, 2.0, 3.0), (2, 3, 4)))
        assert nm.index.shape == (0, 3) and nm.amplitude.shape == (0, 3)
        assert build_noise_modes({"family": "none"}, G8).index.shape == (0, 1)
        assert build_noise_modes({"family": "none", "modes": []}, G8).J == 0
        assert build_noise_modes(eigenmode_spec(), G8).J == 0

    def test_family_none_with_modes_rejected(self):
        """``none`` with modes once built J = 0 and dropped the modes."""
        with pytest.raises(ValueError, match="^family 'none' takes no modes, got 1$"):
            build_noise_modes({"family": "none", "modes": [
                {"sigma": 0.5, "index": (1,), "direction": (1, 0, 0)}]}, G8)
        with pytest.raises(ValueError, match="^unknown noise family 'white'$"):
            build_noise_modes({"family": "white"}, G8)

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError, match="one row per mode"):
            NoiseModel(G8, np.array([[1, 0]]), np.array([[0.0, 0.0, 1.0]]))
        with pytest.raises(ValueError):
            NoiseModel(G8, np.array([[1]]), np.array([[0.0, 1.0]]))

    @pytest.mark.parametrize("index", [[[1.5]], [[True]]], ids=["fraction", "bool"])
    def test_fractional_index_rejected(self, index):
        """Index 1.5 once built mode 1."""
        with pytest.raises(ValueError, match="^noise mode indices must be integers"):
            NoiseModel(G8, index, [[1.0, 0.0, 0.0]])
        assert NoiseModel(G8, np.array([[1]], np.uint8), [[1.0, 0.0, 0.0]]).J == 1
        assert NoiseModel.empty(G8).J == 0

    def test_h_phys_built_on_first_read(self):
        nm = build_noise_modes(eigenmode_spec(
            {"sigma": 0.5, "index": (2,), "direction": (0, 1, 0)}), G8)
        assert "h_phys" not in vars(nm)
        vals = nm.h_phys
        h = eigenmode_field(G8, nm.index[0], nm.amplitude[0])
        assert vals[0][:3].tobytes() == synthesize(G8, h).tobytes()
        assert nm.h_phys is vals
        # cyclic form: rows 3-4 repeat rows 0-1, and the rows are read-only
        assert vals[0].shape == (5, *G8.padded)
        assert vals[0][3:].tobytes() == vals[0][:2].tobytes()
        assert not vals[0].flags.writeable

    def test_d3_imex_run_never_builds_h_phys(self):
        grid = Grid(3, (np.pi, 1.0, 2.5), (5, 3, 4))
        nm = build_noise_modes(eigenmode_spec(
            {"sigma": 0.1, "index": (1, 0, 0), "direction": (1, 0, 0)},
            {"sigma": 0.1, "index": (0, 2, 3), "direction": (0, 1, 1)}), grid)
        rec = run_trajectory(random_field(grid, RNG, amplitude=0.3),
                             ModelParams(0.5, 1.0, 1.0, 1.0, 1.0), nm,
                             SolverConfig(dt=1e-3, t_end=5e-3, record_every=2))
        assert rec.stop_reason == "completed"
        assert "h_phys" not in vars(nm) and "h_minus_lap" not in vars(nm)

    def test_held_arrays_do_not_grow_with_the_grid(self):
        # per-mode rows only; the dense h_j are built when something reads them
        def held_bytes(nm):
            held = [v for value in vars(nm).values()
                    for v in (value if isinstance(value, list) else [value])]
            return sum(v.nbytes for v in held if isinstance(v, np.ndarray))

        sizes = []
        for n in (4, 32):
            grid = Grid(3, (np.pi, 1.0, 2.5), (n, n, n))
            sizes.append(held_bytes(build_noise_modes(eigenmode_spec(
                {"sigma": 0.1, "index": (1, 0, 0), "direction": (1, 0, 0)},
                {"sigma": 0.1, "index": (0, 2, 3), "direction": (0, 1, 1)}), grid)))
        assert sizes[0] == sizes[1] > 0


class TestNoiseCondition:
    def test_matches_build(self):
        nm = build_noise_modes(
            eigenmode_spec(
                {"sigma": 0.9, "index": (1,), "direction": (0, 1, 0)},
                {"sigma": 0.1, "index": (4,), "direction": (1, 0, 0)},
            ),
            G8,
        )
        assert nm.C_h == pytest.approx(0.81 * 2 ** 3 + 0.01 * 17 ** 3, rel=1e-14)
        assert check_noise_condition(nm) is False  # no bound to exceed

    def test_quadrature_oracle(self):
        """H^3 sum matches |h|^2 + 3 |grad h|^2 + 3 |Lap h|^2 + |grad Lap h|^2
        computed by quadrature."""
        nm = build_noise_modes(
            eigenmode_spec(
                {"sigma": 0.8, "index": (1,), "direction": (0, 0, 1)},
                {"sigma": 0.25, "index": (3,), "direction": (1, 1, 0)},
            ),
            G8,
        )
        w = quad_weight(G8)
        total = 0.0
        for k, a in zip(nm.index, nm.amplitude):
            h = eigenmode_field(G8, k, a)
            vals = synthesize(G8, h)
            lap = -eigenvalue_array(G8) * h
            lap_vals = synthesize(G8, lap)
            g = gradient_values(G8, h)
            gl = gradient_values(G8, lap)
            total += float((vals * vals).sum()) * w
            total += 3 * sum(float((a * a).sum()) * w for a in g)
            total += 3 * float((lap_vals * lap_vals).sum()) * w
            total += sum(float((a * a).sum()) * w for a in gl)
        assert nm.C_h == pytest.approx(total, rel=1e-10)

    def test_bound_warning(self):
        spec = eigenmode_spec({"sigma": 1.0, "index": (1,), "direction": (0, 0, 1)})
        spec["c_h_bound"] = 1.0  # C_h = 8 exceeds it
        nm = build_noise_modes(spec, G8)
        with pytest.warns(NoiseTailWarning):
            assert check_noise_condition(nm) is True
        spec["c_h_bound"] = 100.0
        nm = build_noise_modes(spec, G8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert check_noise_condition(nm) is False


class TestDiffusionApply:
    def test_zero_state(self):
        nm = build_noise_modes(
            eigenmode_spec({"sigma": 0.5, "index": (2,), "direction": (0, 1, 0)}),
            G8,
        )
        G = diffusion(np.zeros((3, 8)), nm, 0)
        h = eigenmode_field(G8, nm.index[0], nm.amplitude[0])
        expected = h - -eigenvalue_array(G8) * h
        assert np.abs(G - expected).max() < 1e-13

    def test_constant_h_and_u(self):
        c = np.array([0.0, 0.0, 0.9])
        a = np.array([0.3, -0.2, 0.5])
        nm = constant_noise(G8, c)
        G = synthesize(G8, diffusion(constant_field(G8, a), nm, 0))
        expected = -np.cross(a, c) + c
        for comp in range(3):
            assert np.abs(G[comp] - expected[comp]).max() < 1e-12

    def test_parallel_state_drops_cross(self):
        nm = build_noise_modes(
            eigenmode_spec({"sigma": 0.5, "index": (1,), "direction": (0, 0, 1)}),
            G8,
        )
        u = eigenmode_field(G8, (1,), (0.0, 0.0, 2.0))  # u parallel to h pointwise
        G = diffusion(u, nm, 0)
        h = eigenmode_field(G8, nm.index[0], nm.amplitude[0])
        expected = h - -eigenvalue_array(G8) * h
        assert np.abs(G - expected).max() < 1e-12

    def test_affine_in_u(self):
        nm = build_noise_modes(
            eigenmode_spec({"sigma": 0.4, "index": (2,), "direction": (1, 0, 0)}),
            G8,
        )
        u, v = random_field(G8, RNG), random_field(G8, RNG)
        alpha = 0.3
        mix = alpha * u + (1 - alpha) * v
        lhs = diffusion(mix, nm, 0)
        rhs = (
            alpha * diffusion(u, nm, 0)
            + (1 - alpha) * diffusion(v, nm, 0)
        )
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_cross_orthogonality(self):
        """(u x h_j, u) = 0 for every u, h_j."""
        nm = build_noise_modes(
            eigenmode_spec({"sigma": 1.1, "index": (3,), "direction": (0, 1, 1)}),
            G8,
        )
        for _ in range(10):
            u = random_field(G8, RNG)
            vals = synthesize(G8, u)
            cross = np.cross(vals, nm.h_phys[0][:3], axis=0)
            val = float((cross * vals).sum()) * quad_weight(G8)
            assert abs(val) < 1e-12 * max(1.0, sobolev_norm(G8, u, 0) ** 2)


class TestItoCorrection:
    def test_empty_noise(self):
        assert np.abs(correction(random_field(G8, RNG), NoiseModel.empty(G8))).max() == 0.0

    def test_constant_oracle(self):
        """u = (1,0,0), h = (0,0,c): G = (0,c,c), correction = -(c^2,0,0)/2."""
        c = 1.2
        nm = constant_noise(G8, (0.0, 0.0, c))
        u = constant_field(G8, (1.0, 0.0, 0.0))
        corr = synthesize(G8, correction(u, nm))
        assert np.abs(corr[0] - (-0.5 * c**2)).max() < 1e-12
        assert np.abs(corr[1:]).max() < 1e-12

    def test_zero_state_constant_h(self):
        nm = constant_noise(G8, (0.4, -0.3, 0.8))
        corr = correction(np.zeros((3, 8)), nm)
        assert np.abs(corr).max() < 1e-13

    def test_affine_in_u(self):
        nm = build_noise_modes(
            eigenmode_spec(
                {"sigma": 0.5, "index": (1,), "direction": (0, 0, 1)},
                {"sigma": 0.3, "index": (2,), "direction": (1, 0, 0)},
            ),
            G8,
        )
        u, v = random_field(G8, RNG), random_field(G8, RNG)
        alpha = 0.25
        lhs = correction(alpha * u + (1 - alpha) * v, nm)
        rhs = (
            alpha * correction(u, nm)
            + (1 - alpha) * correction(v, nm)
        )
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_parallel_state_reduces_to_additive_part(self):
        """u parallel to h_j pointwise: the correction equals
        -1/2 sum Pi((h_j - Lap h_j) x h_j)."""
        nm = build_noise_modes(
            eigenmode_spec({"sigma": 0.7, "index": (2,), "direction": (0, 1, 0)}),
            G8,
        )
        h = eigenmode_field(G8, nm.index[0], nm.amplitude[0])
        u = 1.8 * h  # parallel pointwise
        got = correction(u, nm)
        additive = h - -eigenvalue_array(G8) * h
        expected = -0.5 * analyze(G8, cross3(synthesize(G8, additive),
                                             nm.h_phys[0][:3]))
        assert np.abs(got - expected).max() < 1e-12


# the noise family of bench/workloads/simulate_d3_kernel.cfg
D3_KERNEL_FAMILY = [
    {"sigma": 0.1, "index": (1, 0, 0), "direction": (1, 0, 0)},
    {"sigma": 0.1, "index": (0, 2, 0), "direction": (0, 1, 0)},
    {"sigma": 0.1, "index": (0, 0, 1), "direction": (0, 0, 1)},
    {"sigma": 0.1, "index": (1, 1, 1), "direction": (1, 1, 0)}]


@st.composite
def noise_cases(draw, dims=(2, 3)):
    """A grid of a dimension in ``dims`` (d = 2 or 3 by default) with unequal
    axes and an eigenmode family on it whose indices may repeat and may hold
    zeros (J may be 0)."""
    d = draw(st.sampled_from(dims))
    modes = draw(st.lists(st.integers(1, 6), min_size=d, max_size=d, unique=True))
    lengths = draw(st.lists(st.floats(1.0, 3.0), min_size=d, max_size=d,
                            unique=True))
    grid = Grid(d, tuple(lengths), tuple(modes), draw(st.sampled_from([2, 2.5, 3])))
    indices: list[tuple[int, ...]] = []
    for _ in range(draw(st.integers(0, 5))):
        if indices and draw(st.booleans()):
            indices.append(draw(st.sampled_from(indices)))
        else:
            indices.append(tuple(draw(st.integers(0, N - 1)) for N in modes))
    unit = st.floats(-1.0, 1.0)
    family = [{"sigma": draw(st.floats(0.05, 2.0)), "index": k,
               "direction": draw(st.tuples(unit, unit, unit).filter(
                   lambda v: np.linalg.norm(v) > 0.1))}
              for k in indices]
    return grid, family


@settings(max_examples=60, deadline=None)
@given(noise_cases(dims=(1, 2, 3)), st.integers(0, 2**32 - 1))
@example((Grid(3, (1.0, 2.0, 3.0), (4, 5, 3), 2.5), [
    {"sigma": 0.7, "index": (0, 0, 0), "direction": (1, 0, 0)},
    {"sigma": 0.3, "index": (1, 0, 2), "direction": (0, 1, 1)},
    {"sigma": 1.1, "index": (1, 0, 2), "direction": (1, -1, 0)}]), 0)
@example((Grid(2, (1.0, 2.0), (3, 4), 3), []), 1)
@example((Grid(3, (1.0, 2.0, 3.0), (3, 4, 5)), D3_KERNEL_FAMILY), 2)
@example((Grid(3, (1.5, 2.5, 1.0), (2, 3, 4), 2.5), [
    {"sigma": 0.9, "index": (0, 0, 0), "direction": (1, 2, 3)}]), 3)
@example((Grid(2, (2.0, 1.2), (4, 3)), [
    {"sigma": 0.4, "index": (0, 2), "direction": (0, 1, 0)},
    {"sigma": 0.6, "index": (3, 0), "direction": (1, 0, 1)},
    {"sigma": 0.2, "index": (0, 2), "direction": (1, 1, 1)}]), 4)
def test_operator_route_matches_transform_route(case, seed):
    """The coefficient operators give the increment sum_j G_j(u) dW_j and the
    Ito correction of the padded-grid route to 1e-12 relative to the largest
    entry, at d = 1 too, where they are the independent reference of the
    route the step takes. A one-hot dW isolates each G_j; a random dW is held to
    the largest entry of sum_j |G_j dW_j|. Most of the correction's gap is
    the transform route's rounding of the constant part Pi((h_j - Lap h_j) x
    h_j), which is exactly zero and which the operator route leaves out."""
    grid, family = case
    noise = build_noise_modes(eigenmode_spec(*family), grid)
    assert noise.J == len(family)
    rng = np.random.default_rng(seed)
    u = random_field(grid, rng)
    ws, parts_ws = Workspace(grid), Workspace(grid)  # vals must outlive the parts
    vals = cyclic_values(grid, u, ws)
    Gs = [_diffusion_coeffs(grid, vals, noise, j, ws) for j in range(noise.J)]
    for dW in [rng.standard_normal(noise.J), *np.eye(noise.J)]:
        inc, corr = _operator_parts(noise, u, dW, True, parts_ws)
        if noise.J == 0:
            assert inc is None and corr is None
            continue
        ref = sum(G * w for G, w in zip(Gs, dW))
        scale = sum(np.abs(G * w) for G, w in zip(Gs, dW)).max()
        assert np.abs(inc - ref).max() <= 1e-12 * scale
        ref = _correction_coeffs(grid, vals, noise, ws)
        assert np.abs(corr - ref).max() <= 1e-12 * np.abs(ref).max()
    assert _operator_parts(noise, u, np.ones(noise.J), False, parts_ws)[1] is None
    assert _operator_parts(noise, u, None, True, parts_ws)[0] is None


def per_group_reference(noise, u, dW, include_correction):
    """The per-group loop the stacked plan replaced, built from the noise's
    rows: per distinct k, the P (or P^2) passes on u, one 3 x 3 mix (B_k =
    sum dW_j c K_j, or c^2 Q_k / 2) and an accumulate into fresh arrays."""
    grid, ks = noise.grid, list(map(tuple, noise.index.tolist()))

    def passes(arr, k, power):  # each symmetric P_{k_i} along its spatial axis
        for ax, ki in enumerate(k):
            if ki:
                P = np.linalg.matrix_power(
                    _product_rule(grid.modes[ax], grid.lengths[ax], ki), power)
                arr = np.moveaxis(np.tensordot(P, arr, axes=(1, ax + 1)), 0, ax + 1)
        return arr

    inc = None if dW is None else np.zeros(u.shape)
    corr = np.zeros(u.shape) if include_correction else None
    for k in dict.fromkeys(ks):
        js = [j for j, kj in enumerate(ks) if kj == k]
        c = math.prod(L ** -0.5 for L, ki in zip(grid.lengths, k) if not ki)
        cK = {j: c * np.cross(noise.amplitude[j], np.eye(3)).T for j in js}
        if inc is not None:
            inc[(slice(None), *k)] += sum(dW[j] * noise.h_minus_lap_k[j] for j in js)
            B = sum(dW[j] * cK[j] for j in js)
            inc += np.tensordot(B, passes(u, k, 1), axes=1)
        if corr is not None:
            cQ = sum(cK[j] @ cK[j] for j in js)
            corr += 0.5 * np.tensordot(cQ, passes(u, k, 2), axes=1)
    return inc, corr


# a k = 0 group, two modes on one k, and G <= 2^d groups (a stack in the head
# of ws.vals at pad 2) or G > 2^d (a stack the workspace makes and keeps)
PLAN_CASES = {
    "d2_one_chunk": (Grid(2, (2.0, 3.0), (5, 4)), [(1, 0), (0, 0), (1, 0), (2, 3)]),
    "d2_own_stack": (Grid(2, (2.0, 3.0), (5, 4)),
                     [(1, 0), (0, 0), (1, 0), (2, 3), (0, 1), (4, 2)]),
    "d3_one_chunk": (Grid(3, (2.0, 1.5, 3.0), (4, 3, 5)),
              [(1, 0, 2), (0, 0, 0), (1, 0, 2), (2, 2, 1), (3, 1, 0)]),
    "d3_own_stack": (Grid(3, (2.0, 1.5, 3.0), (4, 3, 5)),
                     [(1, 0, 2), (0, 0, 0), (1, 0, 2), (2, 2, 1), (3, 1, 0), (0, 1, 0),
                      (0, 0, 4), (1, 1, 1), (2, 0, 3), (3, 2, 4)]),
}


@pytest.mark.parametrize("case", PLAN_CASES)
def test_stacked_plan_matches_the_per_group_loop(case):
    """``_operator_parts`` mixes all groups in one GEMM per part, over the
    workspace's stack for them: the head of ``ws.vals`` when the G groups fit
    it, else an array of the workspace's own, the same on every call, that
    leaves ``ws.vals`` untouched. It holds the per-group loop to 1e-13 of
    max |ref|."""
    grid, indices = PLAN_CASES[case]
    noise = build_noise_modes(eigenmode_spec(*[
        {"sigma": 0.3 + 0.2 * j, "index": k, "direction": (1.0, -j, 0.5 * j + 0.2)}
        for j, k in enumerate(indices)]), grid)
    G = len(noise._plan[3])
    fits = G * math.prod(grid.modes) <= math.prod(grid.padded)
    assert fits == case.endswith("_one_chunk") and G == len(set(indices))
    rng = np.random.default_rng(5)
    u, dW = random_field(grid, rng), rng.standard_normal(noise.J)
    ref_inc, ref_corr = per_group_reference(noise, u, dW, True)
    ws = Workspace(grid)
    ws.vals.fill(-7.25)
    stack = ws.stack_for(G)
    assert np.shares_memory(stack, ws.vals) == fits
    inc, corr = _operator_parts(noise, u, dW, True, ws)
    for got, ref in ((inc, ref_inc), (corr, ref_corr)):
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    assert (ws.vals == -7.25).all() != fits
    assert _operator_parts(noise, u, dW, False, ws)[1] is None
    inc, corr = _operator_parts(noise, u, None, True, ws)
    assert inc is None and np.abs(corr - ref_corr).max() <= 1e-13 * np.abs(ref_corr).max()
    assert _operator_parts(noise, u, None, False, ws) == (None, None)
    empty = NoiseModel.empty(grid)
    assert _operator_parts(empty, u, np.zeros(0), True, ws) == (None, None)
    assert ws.stack_for(G).ctypes.data == stack.ctypes.data


@st.composite
def identity_cases(draw):
    """:func:`noise_cases` at d = 1, 2 or 3, with two modes on one drawn k and
    a third on k with its first entry zeroed always in the family."""
    grid, family = draw(noise_cases(dims=(1, 2, 3)))
    k = tuple(draw(st.integers(0, N - 1)) for N in grid.modes)
    return grid, family + [
        {"sigma": 0.5, "index": k, "direction": (1, 2, 3)},
        {"sigma": 0.8, "index": k, "direction": (0, 1, -1)},
        {"sigma": 0.3, "index": (0, *k[1:]), "direction": (1, 0, 1)}]


@settings(max_examples=60, deadline=None)
@given(identity_cases(), st.integers(0, 2**32 - 1))
@example((Grid(1, (2.0,), (5,), 2.5), [
    {"sigma": 1.1, "index": (4,), "direction": (1, -1, 0)}]), 0)
def test_noise_identities_hold_per_state(case, seed):
    """-u x h_j keeps |u| pointwise, so every state u satisfies (u, L_j u) = 0
    and 2 (u, corr(u)) + sum_j |L_j u|^2 = 0, where L_j u = G_j(u) - (h_j -
    Lap h_j) comes from the transform pairing and corr is the step's Ito
    correction; both hold to 1e-12 relative. At d = 1 the pairing and the
    correction take cyclic operands, as in the step."""
    grid, family = case
    noise = build_noise_modes(eigenmode_spec(*family), grid)
    u = random_field(grid, np.random.default_rng(seed))
    ws = Workspace(grid)
    vals = cyclic(synthesize(grid, u, out=ws.vals))
    Ls = [_diffusion_coeffs(grid, vals, noise, j, ws) - noise.h_minus_lap[j]
          for j in range(noise.J)]
    terms, _ = _explicit_parts(u, grid, ModelParams(1.0, 1.0, 1.0, 1.0, 1.0), noise,
                               TruncationConfig.off(), Workspace(grid), True)
    u_norm = math.sqrt(np.vdot(u, u))
    for L in Ls:
        assert abs(np.vdot(u, L)) <= 1e-12 * u_norm * math.sqrt(np.vdot(L, L))
    energy = sum(np.vdot(L, L) for L in Ls)
    assert abs(2 * np.vdot(u, terms["ito_correction"]) + energy) <= 1e-12 * energy


@pytest.mark.parametrize("grid", [Grid(3, (1.0, 2.0, 3.0), (3, 4, 5)),
                                  Grid(2, (2.0, 1.2), (4, 3))], ids=["d3", "d2"])
def test_operator_plan_excites_only_nonzero_axes(grid):
    """``_plan`` lists the distinct k in order of first appearance, with one
    ``(axis, P, P @ P)`` pass per k_i != 0, P bitwise symmetric, and none for
    k = 0. Row j of K holds c K_j in its group's 3 x 3 block and h_j - Lap h_j
    in its group's constant column, zeros elsewhere, c = prod_{k_i = 0}
    L_i^{-1/2}; halfQ holds c^2 Q_k / 2 per group. Every array in the plan is
    read-only. P_0, which the plan replaces by its scalar, is L_i^{-1/2} I to
    rounding."""
    zero = (0,) * grid.dim
    indices = [zero, (1,) + zero[1:], zero[1:] + (2,), (1,) * grid.dim, zero]
    noise = build_noise_modes(eigenmode_spec(*[
        {"sigma": 0.5, "index": k, "direction": (1, 2, 3)} for k in indices]), grid)
    at, K, halfQ, passes = noise._plan
    distinct = list(dict.fromkeys(indices))
    G = len(distinct)
    assert at[0] == slice(None) and list(zip(*at[1:])) == distinct
    assert K.shape == (noise.J, 12 * G) and halfQ.shape == (3, 3 * G)
    K = K.reshape(noise.J, 3, 4 * G)
    analysis, synthesis, _ = grid._axis_matrices
    for g, (k, axes) in enumerate(zip(distinct, passes)):
        assert [ax for ax, *_ in axes] == [i for i, ki in enumerate(k) if ki]
        for ax, P, P2 in axes:
            ref = analysis[ax] @ (synthesis[ax][:, [k[ax]]] * synthesis[ax])
            assert np.array_equal(P, P.T)
            assert np.allclose(P, ref, atol=1e-15)
            assert np.allclose(P2, ref @ ref, atol=1e-15)
        c = math.prod(L ** -0.5 for L, ki in zip(grid.lengths, k) if ki == 0)
        cKs = []
        for j, kj in enumerate(indices):
            block, const = K[j, :, 3 * g:3 * g + 3], K[j, :, 3 * G + g]
            if kj != k:
                assert not block.any() and not const.any()
                continue
            cKs.append(c * np.cross(noise.amplitude[j], np.eye(3)).T)
            assert np.allclose(block, cKs[-1], rtol=1e-15, atol=0)
            assert const.tobytes() == noise.h_minus_lap_k[j].tobytes()
        assert np.allclose(halfQ[:, 3 * g:3 * g + 3],
                           0.5 * sum(Kj @ Kj for Kj in cKs), atol=1e-15)
    mats = [m for axes in passes for _, *ms in axes for m in ms]
    for arr in (*at[1:], K, halfQ, *mats):
        assert not arr.flags.writeable
    for ax, L in enumerate(grid.lengths):
        P0 = analysis[ax] @ (synthesis[ax][:, [0]] * synthesis[ax])
        assert np.abs(P0 - L ** -0.5 * np.eye(grid.modes[ax])).max() <= 1e-15


@pytest.mark.parametrize("N", [1, 2, 7, 16, 33])
@pytest.mark.parametrize("pad_factor", [2, 2.5, 3])
@pytest.mark.parametrize("L", [np.pi, 1.3])
def test_product_rule_is_the_quadrature_product(N, pad_factor, L):
    """The closed-form P_k against A diag(phi_k(x)) S, the projected product
    with e_k by midpoint quadrature on the padded grid, to 5e-15 of max |P|
    for every k < N; each P is bitwise symmetric and P_0 is L^{-1/2} I."""
    (A,), (S,), _ = Grid(1, (L,), (N,), pad_factor)._axis_matrices
    for k in range(N):
        P = _product_rule(N, L, k)
        assert np.abs(P - A @ (S[:, [k]] * S)).max() <= 5e-15 * np.abs(P).max()
        assert np.array_equal(P, P.T)
    P0 = _product_rule(N, L, 0)
    assert np.abs(P0 - L ** -0.5 * np.eye(N)).max() <= 1e-15


def fresh_increments(seed, path, step, J, dt):
    """The increments of one (seed, path, step) from a newly built generator."""
    bg = np.random.Philox(key=seed, counter=[0x5757, path, step, 0])
    return np.random.Generator(bg).standard_normal(J) * math.sqrt(dt)


class TestIncrements:
    def test_determinism(self):
        a = sample_increments(11, 2, 345, 5, 0.01)
        b = sample_increments(11, 2, 345, 5, 0.01)
        assert np.array_equal(a.values, b.values)
        assert a.step == 345

    def test_prefix_stability(self):
        """The j-th increment does not depend on how many modes are drawn."""
        big = sample_increments(11, 2, 345, 8, 0.01)
        small = sample_increments(11, 2, 345, 3, 0.01)
        assert np.array_equal(big.values[:3], small.values)

    def test_distinct_keys_differ(self):
        base = sample_increments(1, 0, 0, 4, 0.01).values
        assert not np.array_equal(base, sample_increments(2, 0, 0, 4, 0.01).values)
        assert not np.array_equal(base, sample_increments(1, 1, 0, 4, 0.01).values)
        assert not np.array_equal(base, sample_increments(1, 0, 1, 4, 0.01).values)

    def test_invalid_dt(self):
        with pytest.raises(ValueError):
            sample_increments(0, 0, 0, 2, 0.0)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    @pytest.mark.parametrize("substeps", [1, 4])
    def test_nonfinite_dt_rejected(self, dt, substeps):
        """A NaN or infinite dt once gave NaN or infinite increments."""
        with pytest.raises(ValueError, match="^dt must be positive and finite$"):
            sample_increments(0, 0, 0, 2, dt)
        with pytest.raises(ValueError, match="^dt must be positive and finite$"):
            coupled_increments(0, 0, 0, 2, dt, substeps)

    def test_moment_statistics(self):
        dt = 0.02
        n = 10**6
        # one draw per step over many steps, J=1
        vals = np.concatenate(
            [sample_increments(5, 0, s, 64, dt).values for s in range(n // 64)]
        )
        se = math.sqrt(dt / n)
        assert abs(vals.mean()) < 4 * se
        assert vals.var() == pytest.approx(dt, rel=0.01)

    def test_cross_path_correlation(self):
        n = 10**5
        a = np.concatenate(
            [sample_increments(5, 0, s, 50, 1.0).values for s in range(n // 50)]
        )
        b = np.concatenate(
            [sample_increments(5, 1, s, 50, 1.0).values for s in range(n // 50)]
        )
        rho = np.corrcoef(a, b)[0, 1]
        assert abs(rho) < 4 / math.sqrt(n)

    def test_coupling_sums_base_increments(self):
        coarse = coupled_increments(3, 1, 7, 2, 0.4, substeps=4)
        fine = sum(
            sample_increments(3, 1, 7 * 4 + i, 2, 0.1).values for i in range(4)
        )
        assert np.allclose(coarse.values, fine, rtol=0, atol=0)

    def test_coupling_matches_fresh_generators(self):
        seed, path, step, J, dt = 2**63 + 5, 3, 11, 5, 0.4
        ref = np.zeros(J)
        for i in range(4):
            ref += fresh_increments(seed, path, 4 * step + i, J, dt / 4)
        got = coupled_increments(seed, path, step, J, dt, substeps=4).values
        assert got.tobytes() == ref.tobytes()

    def test_variance_preserved_under_coupling(self):
        vals = np.array([
            coupled_increments(9, 0, s, 1, 0.1, substeps=8).values[0]
            for s in range(20000)
        ])
        assert vals.var() == pytest.approx(0.1, rel=0.05)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**32),
                          st.integers(0, 2**40), st.integers(0, 9),
                          st.floats(1e-6, 10.0)),
                min_size=1, max_size=12))
def test_reused_generator_matches_fresh(calls):
    """Interleaved calls, odd J included, match fresh generators bitwise, so
    no key, counter or buffered bits carry over from one call to the next."""
    for seed, path, step, J, dt in calls:
        got = sample_increments(seed, path, step, J, dt).values
        assert got.tobytes() == fresh_increments(seed, path, step, J, dt).tobytes()
