"""Spectral core: eigenpairs, transforms, operators, norms."""

import math

import numpy as np
import pytest

from sllbar.grid import (
    Grid,
    _transform,
    analyze,
    collocation_points,
    constant_field,
    cross3,
    eigenmode_field,
    eigenvalue_array,
    embed,
    gradient_values,
    l4_norm,
    quad_weight,
    random_field,
    sobolev_norm,
    sobolev_norms,
    synthesize,
)
from sllbar.integrator import StepKernel, _sample_norms
from sllbar.model import ModelParams, TruncationConfig, cubic_field, precession
from sllbar.noise import NoiseModel

RNG = np.random.default_rng(20240817)


def grids_for_dims():
    return [
        Grid(1, (np.pi,), (9,)),
        Grid(2, (np.pi, 2.0), (6, 5)),
        Grid(3, (np.pi, 1.0, 2.5), (4, 3, 5)),
    ]


class TestEigenpairs:
    def test_1d_unit_pi_box(self):
        lam = eigenvalue_array(Grid(1, (np.pi,), (4,)))
        assert np.allclose(lam, [0.0, 1.0, 4.0, 9.0])

    def test_2d_mode_11(self):
        lam = eigenvalue_array(Grid(2, (np.pi, np.pi), (4, 4)))
        assert lam[1, 1] == pytest.approx(2.0, abs=1e-14)

    def test_scaling_with_box_length(self):
        lam = eigenvalue_array(Grid(1, (2 * np.pi,), (4,)))
        assert lam[2] == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("grid", grids_for_dims())
    def test_orthonormality(self, grid):
        """Discrete Gram matrix of the synthesized basis functions is the
        identity: ``synthesize`` on unit coefficient vectors."""
        n_modes = int(np.prod(grid.modes))
        units = np.eye(n_modes).reshape(n_modes, *grid.modes)
        flat = np.array([synthesize(grid, np.stack([e, e, e]))[0].ravel() for e in units])
        gram = flat @ flat.T * quad_weight(grid)
        assert np.abs(gram - np.eye(n_modes)).max() < 1e-12


class TestTransforms:
    def test_single_mode_synthesis(self):
        grid = Grid(1, (np.pi,), (4,))
        f = eigenmode_field(grid, (1,), (1.0, 0.0, 0.0))
        x = collocation_points(grid)[0]
        expected = math.sqrt(2 / np.pi) * np.cos(x)
        vals = synthesize(grid, f)
        assert np.abs(vals[0] - expected).max() < 1e-13
        assert np.abs(vals[1:]).max() == 0.0

    def test_constant_field_everywhere(self):
        grid = Grid(2, (np.pi, 1.0), (4, 4))
        c = synthesize(grid, constant_field(grid, (2.0, -1.0, 0.5)))
        for comp, val in enumerate((2.0, -1.0, 0.5)):
            assert np.abs(c[comp] - val).max() < 1e-13

    @pytest.mark.parametrize("grid", grids_for_dims())
    def test_round_trip(self, grid):
        u = random_field(grid, RNG)
        back = analyze(grid, synthesize(grid, u))
        assert np.abs(back - u).max() < 1e-12

    def test_round_trip_large_grid(self):
        # N=80 (160 padded nodes): larger than any grid a shipped config runs
        grid = Grid(1, (np.pi,), (80,))
        u = random_field(grid, RNG)
        back = analyze(grid, synthesize(grid, u))
        assert np.abs(back - u).max() < 1e-12

    @pytest.mark.parametrize("shape", [(3, 1), (2, 5)], ids=["one_mode", "two_rows"])
    @pytest.mark.parametrize("transform", [
        synthesize, gradient_values, cubic_field, precession,
    ], ids=["synthesize", "gradient_values", "cubic_field", "precession"])
    def test_wrong_shape_rejected(self, transform, shape):
        """A (2, 5) array once synthesized to (2, 10) values, and precession
        raised IndexError on it; a (3, 1) one failed inside matmul."""
        grid = Grid(1, (np.pi,), (5,))
        with pytest.raises(ValueError, match=r"^coeffs shape \(\d+, \d+\), "
                                             r"expected \(3, 5\)$"):
            transform(grid, np.ones(shape))


def series_matrices(grid, deriv_axis=None):
    """Per-axis ``(M_i, N_i)`` node-by-mode tables of the cosine series.

    Each axis contributes ``c(k) cos(pi k x / L)``, or its derivative
    ``-(pi k / L) c(k) sin(pi k x / L)`` on ``deriv_axis``.
    """
    mats = []
    for ax, (N, L, x) in enumerate(zip(grid.modes, grid.lengths,
                                       collocation_points(grid))):
        k = np.arange(N)
        c = np.where(k == 0, math.sqrt(1 / L), math.sqrt(2 / L))
        arg = np.pi * np.outer(x, k) / L
        if ax == deriv_axis:
            mats.append(-(np.pi * k / L) * c * np.sin(arg))
        else:
            mats.append(c * np.cos(arg))
    return mats


def _series_spec(grid):
    """einsum labels: coefficients, node values, and the per-axis tables."""
    modes, nodes = "abc"[: grid.dim], "pqr"[: grid.dim]
    return "z" + modes, "z" + nodes, ",".join(n + m for n, m in zip(nodes, modes))


def cosine_series(grid, coeffs, deriv_axis=None):
    """Evaluate ``sum_k c_k phi_k`` on the collocation nodes with plain numpy,
    combining the per-axis tables as separable outer products."""
    zm, zn, tables = _series_spec(grid)
    return np.einsum(f"{zm},{tables}->{zn}", coeffs,
                     *series_matrices(grid, deriv_axis))


def quadrature_adjoint(grid, values):
    """``w * sum_x v(x) phi_k(x)`` for every retained k: the same einsum as
    :func:`cosine_series`, contracted over the nodes instead of the modes."""
    zm, zn, tables = _series_spec(grid)
    return quad_weight(grid) * np.einsum(f"{zn},{tables}->{zm}", values,
                                         *series_matrices(grid))


@pytest.mark.parametrize("pad", [1, 1.5, 2])
def test_d1_transform_matches_plain_product_bitwise(pad):
    """At d=1 ``_transform`` is ``np.dot``; it must give the bits of the
    plain ``arr @ mat.T`` for every matrix, with and without ``out``."""
    for N in range(1, 129):
        grid = Grid(1, (np.pi,), (N,), pad)
        for mats in grid._axis_matrices:
            mat = mats[0]
            arr = RNG.standard_normal((3, mat.shape[1]))
            ref = (arr @ mat.T).tobytes()
            out = np.empty((3, mat.shape[0]))
            assert _transform(arr, mats).tobytes() == ref, (N, mat.shape)
            assert _transform(arr, mats, out) is out
            assert out.tobytes() == ref, (N, mat.shape)


@pytest.mark.parametrize("pad", [1, 1.5, 2, 2.5, 3])
@pytest.mark.parametrize("N", [1, 2, 7, 16, 33, 64])
def test_d1_synthesize_and_analyze_match_plain_product_bitwise(N, pad):
    """At d=1 ``synthesize`` and ``analyze`` are one ``np.dot`` on the Grid's
    transposed views ``_axis0_t``; they must give the bits of ``c @ S.T`` and
    ``v @ A.T``. The views are read-only and share the matrices' memory."""
    grid = Grid(1, (np.pi,), (N,), pad)
    (A,), (S,), _ = grid._axis_matrices
    for view, mat in zip(grid._axis0_t, (A, S)):
        assert not view.flags.writeable
        assert np.shares_memory(view, mat)
        assert view.shape == mat.T.shape and view.strides == mat.T.strides
    c = random_field(grid, RNG)
    ref = (c @ S.T).tobytes()
    out = np.empty(grid.values_shape)
    assert synthesize(grid, c).tobytes() == ref
    assert synthesize(grid, c, out=out) is out
    assert out.tobytes() == ref
    v = RNG.standard_normal(grid.values_shape)
    assert analyze(grid, v).tobytes() == (v @ A.T).tobytes()


class TestReferenceSeries:
    """The transform matrices against the directly summed cosine series.

    The d=3 grid has unequal N_i and, at pad_factor 1.5, padded sizes
    (8, 5, 6) that are neither 2 N_i nor equal to each other, so an axis
    mixed up by a transform pass changes the result. At pad_factor 1 the
    padded grid is the mode grid, and with equal N_i every pass of a d=3
    transform has the same shape.
    """

    GRIDS = [Grid(1, (np.pi,), (80,)), Grid(2, (np.pi, 2.0), (33, 40)),
             Grid(3, (np.pi, 1.0, 2.5), (5, 3, 4), pad_factor=1.5),
             Grid(3, (np.pi, 1.0, 2.5), (4, 3, 5), pad_factor=1),
             Grid(3, (np.pi, 1.0, 2.5), (4, 4, 4), pad_factor=1)]
    IDS = ["d1_N80", "d2_N33x40", "d3_N5x3x4_pad1.5", "d3_N4x3x5_pad1",
           "d3_N4x4x4_pad1"]

    @pytest.mark.parametrize("grid", GRIDS, ids=IDS)
    def test_synthesize(self, grid):
        u = random_field(grid, np.random.default_rng(7))
        ref = cosine_series(grid, u)
        got = synthesize(grid, u)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("grid", GRIDS, ids=IDS)
    def test_gradient(self, grid):
        u = random_field(grid, np.random.default_rng(8))
        for ax, got in enumerate(gradient_values(grid, u)):
            ref = cosine_series(grid, u, deriv_axis=ax)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("grid", GRIDS, ids=IDS)
    def test_analyze(self, grid):
        values = np.random.default_rng(9).standard_normal((3, *grid.padded))
        ref = quadrature_adjoint(grid, values)
        got = analyze(grid, values)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


class TestAxisMatricesAgainstScipy:
    """The closed-form per-axis matrices against scipy's orthonormal
    DCT-II / DST-II of the identity, each to 1e-15 of its folded-in scale."""

    @pytest.mark.parametrize("N", [1, 2, 7, 8, 16, 64, 128])
    @pytest.mark.parametrize("pad_factor", [1, 1.5, 2])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matrices(self, dim, pad_factor, N):
        sfft = pytest.importorskip("scipy.fft")
        grid = Grid(dim, (np.pi, 1.0, 2.5)[:dim], (N,) * dim, pad_factor)
        for L, M, analysis, synthesis, deriv in zip(
                grid.lengths, grid.padded, *grid._axis_matrices):
            s = math.sqrt(L / M)
            dct = sfft.dct(np.eye(M), type=2, norm="ortho", axis=0)[:N]
            dst = sfft.dst(np.eye(M), type=2, norm="ortho", axis=0)
            for mat in (analysis, synthesis, deriv):
                assert mat.flags.c_contiguous and not mat.flags.writeable
            assert np.abs(analysis - s * dct).max() <= 1e-15 * s
            assert np.abs(synthesis - dct.T / s).max() <= 1e-15 / s
            for k in range(1, N):
                scale = (np.pi * k / L) / s
                assert np.abs(deriv[:, k] + scale * dst[k - 1]).max() <= 1e-15 * scale
            assert np.all(deriv[:, 0] == 0.0) and not np.signbit(deriv[:, 0]).any()
            assert np.abs(analysis @ synthesis - np.eye(N)).max() <= 1e-14


class TestCross3:
    @pytest.mark.parametrize("shape", [(7,), (6, 5), (5, 4, 3)],
                             ids=["d1", "d2", "d3"])
    def test_matches_numpy_cross(self, shape):
        rng = np.random.default_rng(10)
        a, b = rng.standard_normal((2, 3, *shape))
        assert np.array_equal(cross3(a, b), np.cross(a, b, axis=0))

    @pytest.mark.parametrize("shape_b", [(3, 1), (3, 8, 1), (3,)],
                             ids=["broadcastable", "extra_axis", "bare_vector"])
    def test_mismatched_shapes_rejected(self, shape_b):
        with pytest.raises(ValueError, match="cross3 shapes differ"):
            cross3(np.ones((3, 8)), np.ones(shape_b))

    def test_writes_into_out(self):
        a, b = np.random.default_rng(11).standard_normal((2, 3, 6, 5))  # views
        expected = cross3(a, b)
        for x, y in [(a, b), (a.copy(), b.copy())]:
            out = np.empty((3, 6, 5))
            assert cross3(x, y, out=out) is out
            assert np.array_equal(out, expected)

    def test_out_aliasing_an_input_rejected(self):
        a, b = np.random.default_rng(12).standard_normal((2, 3, 8))
        kept = a.copy()
        with pytest.raises(ValueError, match="shares memory"):
            cross3(a, b, out=a)
        assert np.array_equal(a, kept)

    def test_out_viewing_an_input_rejected(self):
        a, b = np.random.default_rng(13).standard_normal((2, 3, 4, 4))
        with pytest.raises(ValueError, match="shares memory"):
            cross3(a, b, out=b[:, ::-1])

    def test_out_of_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="cross3 out"):
            cross3(np.ones((3, 8)), np.ones((3, 8)), out=np.empty((3, 7)))


class TestLaplacian:
    """The Laplacian is the per-mode multiplier ``-eigenvalue_array(grid)``."""

    def test_single_mode(self):
        grid = Grid(1, (np.pi,), (4,))
        amp = 0.7 / math.sqrt(2 / np.pi)
        u = eigenmode_field(grid, (1,), (amp, 0.0, 0.0))  # u_x = 0.7 cos(x)
        x = collocation_points(grid)[0]
        lap = synthesize(grid, -eigenvalue_array(grid) * u)
        assert np.abs(lap[0] - (-0.7 * np.cos(x))).max() < 1e-13
        lap2 = synthesize(grid, eigenvalue_array(grid) ** 2 * u)
        assert np.abs(lap2[0] - 0.7 * np.cos(x)).max() < 1e-13

    def test_constant_annihilated(self):
        grid = Grid(2, (1.0, 2.0), (4, 4))
        c = constant_field(grid, (1.0, 2.0, 3.0))
        assert np.abs(-eigenvalue_array(grid) * c).max() == 0.0
        assert np.abs(eigenvalue_array(grid) ** 2 * c).max() == 0.0


class TestGradient:
    def test_cos_x(self):
        grid = Grid(1, (np.pi,), (6,))
        amp = 1 / math.sqrt(2 / np.pi)
        u = eigenmode_field(grid, (1,), (amp, 0.0, 0.0))  # u_x = cos(x)
        x = collocation_points(grid)[0]
        g = gradient_values(grid, u)[0]
        assert np.abs(g[0] - (-np.sin(x))).max() < 1e-13

    def test_constant_zero_gradient(self):
        grid = Grid(3, (1.0, 1.0, 1.0), (3, 3, 3))
        c = constant_field(grid, (4.0, 5.0, 6.0))
        for g in gradient_values(grid, c):
            assert np.abs(g).max() < 1e-13

    @pytest.mark.parametrize("grid", grids_for_dims())
    def test_parseval_gradient(self, grid):
        """Quadrature of |grad u|^2 equals the spectral sum of lambda |c|^2."""
        u = random_field(grid, RNG)
        w = quad_weight(grid)
        quad = sum(float((g * g).sum()) * w for g in gradient_values(grid, u))
        spectral = float((eigenvalue_array(grid) * (u**2).sum(axis=0)).sum())
        assert quad == pytest.approx(spectral, rel=1e-10)


class TestNorms:
    def test_sobolev_single_mode(self):
        grid = Grid(1, (np.pi,), (4,))
        u = eigenmode_field(grid, (1,), (1.0, 0.0, 0.0))  # lambda = 1, |c| = 1
        assert sobolev_norm(grid, u, 1) == pytest.approx(math.sqrt(2), rel=1e-14)

    def test_l2_of_constant(self):
        grid = Grid(2, (np.pi, 2.0), (4, 4))
        a = 1.3
        u = constant_field(grid, (a, 0.0, 0.0))
        assert sobolev_norm(grid, u, 0) == pytest.approx(a * math.sqrt(grid.volume),
                                                         rel=1e-14)

    def test_h3_of_sigma_mode(self):
        grid = Grid(1, (np.pi,), (4,))
        sigma = 0.37
        h = eigenmode_field(grid, (1,), (0.0, 0.0, sigma))
        assert sobolev_norm(grid, h, 3) == pytest.approx(sigma * 2 * math.sqrt(2),
                                                         rel=1e-14)

    def test_seminorm_matches_grad(self):
        grid = Grid(2, (np.pi, 1.0), (5, 4))
        u = random_field(grid, RNG)
        w = quad_weight(grid)
        quad = math.sqrt(
            sum(float((g * g).sum()) * w for g in gradient_values(grid, u))
        )
        assert sobolev_norm(grid, u, 1, seminorm=True) == pytest.approx(quad, rel=1e-10)

    @pytest.mark.parametrize("shape", [(3, 1), (2, 5)], ids=["one_mode", "two_rows"])
    @pytest.mark.parametrize("norm", [
        lambda g, c: sobolev_norm(g, c, 0), lambda g, c: sobolev_norm(g, c, 1),
        lambda g, c: l4_norm(g, c)], ids=["L2", "H1", "L4"])
    def test_wrong_shape_rejected(self, norm, shape):
        """A (3, 1) array once broadcast its one mode against all five
        weights and read 10.2469 in H^1; a (2, 5) one read 8.37."""
        grid = Grid(1, (np.pi,), (5,))
        with pytest.raises(ValueError, match="coeffs shape"):
            norm(grid, np.ones(shape))

    def test_negative_order_rejected(self):
        grid = Grid(1, (1.0,), (4,))
        with pytest.raises(ValueError):
            sobolev_norm(grid, random_field(grid, RNG), -1.0)

    @pytest.mark.parametrize("grid", grids_for_dims(), ids=["d1", "d2", "d3"])
    def test_norms_are_bitwise_the_plain_reduction(self, grid):
        """``sobolev_norms`` sums |c_k|^2 row by row; it must give the bits of
        the plain ``np.add.reduce`` over the component axis, over magnitudes
        from 1e-100 to 1e100."""
        orders = ((0, False), (1, False), (1, True), (2, False), (3, False))
        lam = eigenvalue_array(grid)
        for _ in range(20):
            c = RNG.standard_normal(grid.field_shape) * 10.0 ** RNG.integers(
                -100, 100, grid.field_shape)
            mag2 = np.add.reduce(c * c, axis=0)
            plain = [math.sqrt(float(np.add.reduce(
                mag2 * (lam ** s if semi else (1.0 + lam) ** s), axis=None)))
                for s, semi in orders]
            assert sobolev_norms(grid, c, orders) == plain

    def test_l4_of_constant(self):
        grid = Grid(1, (2.0,), (4,))
        a = 0.9
        u = constant_field(grid, (a, 0.0, 0.0))
        assert l4_norm(grid, u) == pytest.approx((a**4 * grid.volume) ** 0.25,
                                                 rel=1e-13)

    @pytest.mark.parametrize("grid", grids_for_dims())
    def test_norms_match_the_plain_sums_bitwise(self, grid):
        """``sobolev_norms`` forms |c_k|^2 once; each order must give the
        bits of its own weighted sum, and ``sobolev_norm`` those of its order."""
        u = random_field(grid, RNG)
        lam = eigenvalue_array(grid)
        orders = ((0, False), (1, True), (1, False), (2, False), (3, False))
        plain = []
        for s, semi in orders:
            mag2 = (u * u).sum(axis=0)
            weight = np.power(lam if semi else 1.0 + lam, float(s))
            total = mag2.sum() if s == 0 else (weight * mag2).sum()
            plain.append(math.sqrt(float(total)))
        got = sobolev_norms(grid, u, orders)
        assert np.array(got).tobytes() == np.array(plain).tobytes()
        single = [sobolev_norm(grid, u, s, seminorm=semi) for s, semi in orders]
        assert np.array(single).tobytes() == np.array(plain).tobytes()

    @pytest.mark.parametrize("grid", grids_for_dims())
    def test_sampled_norms_match_per_order_norms_bitwise(self, grid):
        u = random_field(grid, RNG)
        h1 = sobolev_norm(grid, u, 1)
        grad = sobolev_norm(grid, u, 1, seminorm=True)
        expected = (sobolev_norm(grid, u, 0), l4_norm(grid, u), h1,
                    sobolev_norm(grid, u, 2), sobolev_norm(grid, u, 3), grad, grad)
        kernel = StepKernel(ModelParams(1.0, 1.0, 1.0, 1.0, 1.0),
                            NoiseModel.empty(grid), TruncationConfig.off(), 0.01)
        got = _sample_norms(kernel, u, h1)
        assert np.array(got).tobytes() == np.array(expected).tobytes()


class TestDealiasing:
    def test_triple_product_exact(self):
        """Coefficients of a pointwise product of three retained-mode fields
        match the closed-form trig expansion on all retained modes."""
        grid = Grid(1, (np.pi,), (8,))
        # f = cos(2x), g = cos(3x), h = cos(6x): product expands into
        # cos(1x), cos(5x), cos(7x), cos(11x) with weight 1/4 each.
        def unit_cos(k):
            return eigenmode_field(grid, (k,), (1 / math.sqrt(2 / np.pi), 0, 0))

        fa = synthesize(grid, unit_cos(2))
        fb = synthesize(grid, unit_cos(3))
        fc = synthesize(grid, unit_cos(6))
        prod = analyze(grid, fa * fb * fc)
        c = prod[0] * math.sqrt(2 / np.pi)  # back to raw cosine amplitudes
        expected = np.zeros(8)
        expected[1] = 0.25  # |2-3+6| would be 5; combinations: 2+3-6=-1 -> cos(1x)
        expected[5] = 0.25  # 2-3+6 = 5
        expected[7] = 0.25  # -2+3+6 = 7
        # 2+3+6 = 11 is beyond the retained range and must not alias back
        assert np.abs(c - expected).max() < 1e-10

    def test_product_of_three_random_fields(self):
        grid = Grid(1, (np.pi,), (6,))
        fine = Grid(1, (np.pi,), (18,))  # holds the full cubic expansion
        ua, ub, uc = (random_field(grid, RNG) for _ in range(3))
        pa, pb, pc = (synthesize(grid, u) for u in (ua, ub, uc))
        got = analyze(grid, pa * pb * pc)
        fa, fb, fc = (synthesize(fine, embed(grid, u, fine)) for u in (ua, ub, uc))
        ref = analyze(fine, fa * fb * fc)[:, :6]
        assert np.abs(got - ref).max() < 1e-10


class TestFieldHelpers:
    def test_zero_coefficients_zero_norm(self):
        grid = Grid(1, (1.0,), (4,))
        zero = np.zeros((3, 4))
        assert [sobolev_norm(grid, zero, s) for s in range(4)] == [0.0] * 4
        assert l4_norm(grid, zero) == 0.0

    def test_embed_preserves_values(self):
        coarse = Grid(1, (np.pi,), (5,))
        fine = Grid(1, (np.pi,), (11,))
        u = random_field(coarse, RNG)
        v = embed(coarse, u, fine)
        assert sobolev_norm(fine, v, 0) == pytest.approx(sobolev_norm(coarse, u, 0),
                                                         rel=1e-14)
        with pytest.raises(ValueError, match="same box"):
            embed(coarse, u, Grid(1, (2.0,), (11,)))
        with pytest.raises(ValueError, match="expected"):
            embed(coarse, u[:, :1], fine)  # would broadcast into the first 5 modes

    @pytest.mark.parametrize("index", [(4,), (-1,), (1, 0), (), (2.9,), (True,),
                                       np.array([2.0])])
    def test_eigenmode_index_checked(self, index):
        with pytest.raises(ValueError, match="mode index"):
            eigenmode_field(Grid(1, (1.0,), (4,)), index, (1.0, 0.0, 0.0))

    @pytest.mark.parametrize("kwargs", [
        {"lengths": (float("nan"),)}, {"lengths": (float("inf"),)},
        {"pad_factor": float("nan")}, {"pad_factor": float("inf")},
    ], ids=["nan_length", "inf_length", "nan_pad_factor", "inf_pad_factor"])
    def test_nonfinite_grid_rejected(self, kwargs):
        args = {"dim": 1, "lengths": (1.0,), "modes": (4,), **kwargs}
        with pytest.raises(ValueError, match="finite"):
            Grid(**args)
