"""The step's Ito correction is exactly 1/2 sum_j L_j^2, at d = 1, 2 and 3.

G_j(u) = L_j u + H_j is affine, with L_j u = -Pi(u x h_j) and H_j = h_j - Lap
h_j, so the Stratonovich-to-Ito correction 1/2 sum_j L_j G_j(u) is C u with C
= 1/2 sum_j L_j^2: its constant part L_j H_j vanishes, as H_j is parallel to
a_j. Every operator is probed through ``StepKernel.parts`` alone, one basis
coefficient at a time:

* H_j is the increment at u = 0 with dW = e_j;
* L_j e_i is the increment at u = e_i with dW = e_j, minus H_j;
* C e_i is the correction at e_i, minus its value at 0.

L_j and H_j are also held to an oracle built from no code the step runs at
that d. With h_j = e_k a_j, L_j = K_j (x) M_k, where K_j w = a_j x w and M_k =
Pi(e_k .) is the tensor product over the axes of P_{k_i}[n, m] = (e_n, e_{k_i}
e_m): the quadrature A diag(e_{k_i}) S of ``Grid._axis_matrices`` at d >= 2,
where the step runs the product rule, and ``noise._product_rule`` at d = 1,
where it runs the padded-grid transforms. H_j is ``h_minus_lap_k[j]`` at k_j.

In the linear limit (b3 = b4 = b5 = 1e-300, below rounding) the IMEX-EM step
is u -> D^-1 (u + dt C u + sum_j (L_j u + H_j) dW_j), with D the implicit
divisor. The increments have mean 0 and do not depend on u, so the mean obeys
E u_n = (D^-1 (I + dt C))^n u0 exactly. The ensemble mean of u(T) is held to
that exact mean, built from the oracle's C = 1/2 sum_j L_j^2 and a divisor
formed here, at d = 1 and d = 2; the halved d = 2 correction misses it.
"""

import math
from functools import reduce

import numpy as np
import pytest

import sllbar.integrator
from sllbar.grid import Grid, constant_field, random_field
from sllbar.integrator import SolverConfig, StepKernel, run_trajectory
from sllbar.model import ModelParams, TruncationConfig
from sllbar.noise import _product_rule, build_noise_modes

# box lengths other than 1; each case has a mode whose index has a zero axis
CASES = {
    "d1": (Grid(1, (2.0,), (8,)), [(1,), (3,), (0,)]),
    "d2": (Grid(2, (2.0, 3.0), (4, 3)), [(1, 0), (2, 1), (1, 0)]),
    "d3": (Grid(3, (2.0, 1.5, 3.0), (3, 2, 3)), [(1, 0, 2), (0, 1, 0), (2, 1, 1)]),
}


def kernel_for(case) -> StepKernel:
    grid, indices = CASES[case]
    noise = build_noise_modes({"family": "eigenmode", "modes": [
        {"sigma": 0.4 + 0.3 * j, "index": k, "direction": (1.0, -j, 0.5 * j + 0.2)}
        for j, k in enumerate(indices)]}, grid)
    return StepKernel(ModelParams(1.0, 1.0, 1.0, 1.0, 1.0), noise,
                      TruncationConfig.off(), 0.01)


def probe(kernel):
    """``(H, L, C)``: the (J, n) rows H_j, the (J, n, n) L_j and the (n, n) C
    on the flattened coefficients, n = 3 prod N_i, from ``kernel.parts``."""
    shape, J = kernel.grid.field_shape, kernel.noise.J
    n = math.prod(shape)

    def parts(u, j):
        terms, inc = kernel.parts(u.reshape(shape), True, np.eye(J)[j])
        return terms["ito_correction"].ravel(), inc.ravel()

    zero = np.zeros(n)
    H = np.array([parts(zero, j)[1] for j in range(J)])
    corr0 = parts(zero, 0)[0]
    L, C = np.zeros((J, n, n)), np.zeros((n, n))
    for i, e in enumerate(np.eye(n)):
        for j in range(J):
            corr, inc = parts(e, j)
            L[j, :, i] = inc - H[j]
        C[:, i] = corr - corr0
    return H, L, C


def oracle(noise):
    """``(H, L)`` from the quadrature (d >= 2) or the product rule (d = 1)."""
    grid = noise.grid
    analysis, synthesis, _ = grid._axis_matrices

    def P(ax, k):
        if grid.dim == 1:
            return _product_rule(grid.modes[0], grid.lengths[0], k)
        return analysis[ax] @ (synthesis[ax][:, [k]] * synthesis[ax])

    H, L = [], []
    for k, a, hl in zip(noise.index, noise.amplitude, noise.h_minus_lap_k):
        M = reduce(np.kron, [P(ax, ki) for ax, ki in enumerate(k)])
        L.append(np.kron(np.cross(a, np.eye(3)).T, M))  # K w = a x w
        h = np.zeros(grid.field_shape)
        h[(slice(None), *k)] = hl
        H.append(h.ravel())
    return np.array(H), np.array(L)


def identity_gap(L, C) -> float:
    """max |C - 1/2 sum_j L_j^2| relative to max |1/2 sum_j L_j^2|."""
    half_sq = 0.5 * sum(Lj @ Lj for Lj in L)
    return float(np.abs(C - half_sq).max() / np.abs(half_sq).max())


@pytest.mark.parametrize("case", CASES)
def test_correction_is_half_the_sum_of_squares(case):
    kernel = kernel_for(case)
    H, L, C = probe(kernel)
    assert identity_gap(L, C) <= 1e-13
    H_ref, L_ref = oracle(kernel.noise)
    assert np.abs(L - L_ref).max() <= 1e-13 * np.abs(L_ref).max()
    assert np.abs(H - H_ref).max() <= 1e-13 * np.abs(H_ref).max()


def halved(plain):
    """The d = 1 ``_correction_coeffs`` with its result halved."""
    return lambda *args: 0.5 * plain(*args)


def halved_operator_correction(plain):
    """The d >= 2 ``_operator_parts`` with its correction halved."""
    def mutant(*args):
        inc, corr = plain(*args)
        return inc, 0.5 * corr
    return mutant


@pytest.mark.parametrize("case, name, mutate", [
    ("d1", "_correction_coeffs", halved),
    ("d2", "_operator_parts", halved_operator_correction),
], ids=["d1", "d2"])
def test_halved_correction_mutant_fails(monkeypatch, case, name, mutate):
    monkeypatch.setattr(sllbar.integrator, name, mutate(getattr(sllbar.integrator, name)))
    _, L, C = probe(kernel_for(case))
    assert identity_gap(L, C) >= 0.4


LINEAR = ModelParams(0.5, 1.0, 1e-300, 1e-300, 1e-300)
MEAN_CASES = {  # grid, noise indices, paths
    "d1": (Grid(1, (math.pi,), (8,)), [(1,), (3,)], 200),
    "d2": (Grid(2, (math.pi, math.pi), (6, 6)), [(1, 0), (2, 1)], 100),
}
MEAN_CONFIG = SolverConfig(dt=0.02, t_end=1.0, record_every=50, seed=0)


def mean_noise(case):
    grid, indices, _ = MEAN_CASES[case]
    return build_noise_modes({"family": "eigenmode", "modes": [
        {"sigma": 1.0, "index": k, "direction": (1.0, -j, 0.5 * j + 0.2)}
        for j, k in enumerate(indices)]}, grid)


def mean_z_scores(noise, paths) -> np.ndarray:
    """z-scores of the ensemble mean of u(T) over ``paths`` paths against the
    exact mean, on the coefficients with nonzero spread."""
    grid, dt, n = noise.grid, MEAN_CONFIG.dt, MEAN_CONFIG.n_steps
    # the constant part, which D leaves undamped, gives C's drift its weight
    u0 = (constant_field(grid, (0.6, 0.3, -0.5))
          + random_field(grid, np.random.default_rng(1), amplitude=0.3))
    finals = np.array([run_trajectory(u0, LINEAR, noise, MEAN_CONFIG, path).final
                       for path in range(paths)]).reshape(paths, -1)
    lam = reduce(np.add.outer, [(np.pi * np.arange(N) / L) ** 2
                                for N, L in zip(grid.modes, grid.lengths)])
    divisor = 1.0 + dt * (LINEAR.beta1 * lam + LINEAR.beta2 * lam**2)
    _, L = oracle(noise)
    C = 0.5 * sum(Lj @ Lj for Lj in L)
    step = (np.eye(len(C)) + dt * C) / np.tile(divisor.ravel(), 3)[:, None]
    exact = np.linalg.matrix_power(step, n) @ u0.ravel()
    spread = finals.std(axis=0, ddof=1)
    keep = spread > 0
    return (finals.mean(axis=0) - exact)[keep] / (spread[keep] / math.sqrt(paths))


@pytest.mark.parametrize("case", MEAN_CASES)
def test_ensemble_mean_is_the_exact_mean(case):
    """At this seed chi^2/dof reads 0.93 (d = 1) and 1.61 (d = 2), and max |z|
    1.74 and 2.73; over seeds 0-9, 0.29-1.61 and 1.02-2.73."""
    z = mean_z_scores(mean_noise(case), MEAN_CASES[case][2])
    assert np.mean(z * z) < 2.5
    assert np.abs(z).max() < 4.0


def test_halved_correction_misses_the_exact_mean(monkeypatch):
    """Measured at 21.4 standard errors; 17.3-24.6 over seeds 0-9."""
    monkeypatch.setattr(sllbar.integrator, "_operator_parts",
                        halved_operator_correction(sllbar.integrator._operator_parts))
    assert np.abs(mean_z_scores(mean_noise("d2"), MEAN_CASES["d2"][2])).max() >= 10
