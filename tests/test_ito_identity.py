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
"""

import math
from functools import reduce

import numpy as np
import pytest

import sllbar.integrator
from sllbar.grid import Grid
from sllbar.integrator import StepKernel
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
