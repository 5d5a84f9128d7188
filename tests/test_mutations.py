"""Mutation gate for the transport noise: each known wrong noise plan fails
one of two checks that the real plan passes at 1e-12.

* identity: -u x h_j keeps |u| pointwise, so every state u satisfies
  2 (u, corr(u)) + sum_j |L_j u|^2 = 0, where corr is the Ito correction the
  step uses and L_j u = G_j(u) - (h_j - Lap h_j) comes from the padded-grid
  transform pairing;
* route: the step's increment (less its constant part sum_j dW_j (h_j - Lap
  h_j)) and correction against the other route's, the padded-grid one at
  d >= 2 and the coefficient operators of ``noise._operator_parts`` at d = 1.

The d >= 2 mutants rewrite the stacked plan ``NoiseModel._plan``: its block
rows of c K_j and of c^2 Q_k / 2 and its P, P^2 passes, including one mode's
c K_j in the previous group's block and the correction without its 1/2. The
d = 1 one scales the step's ``_correction_coeffs``. Each must fail by at least
0.1.

One more mutant moves the d >= 2 precession from its 3/2 grid to ceil(1.25 N)
nodes per axis, where the midpoint rule no longer integrates the 3(N - 1)
frequencies that the projection of u x Lap u reads; checked against the
pad-2 oracle ``model.precession``, it must fail by at least 0.1 as well.

The halved Ito correction is also checked in ``test_ito_identity``, beside
the exact mean it breaks: ``test_halved_correction_mutant_fails`` (the
identity C = 1/2 sum_j L_j^2, d = 1 and 2) and
``test_halved_correction_misses_the_exact_mean`` (the linear-limit ensemble
mean, d = 2, by at least 10 standard errors).
"""

import math

import numpy as np
import pytest

import sllbar.integrator
from sllbar.grid import Grid, Workspace, cyclic, random_field, synthesize
from sllbar.integrator import _explicit_parts
from sllbar.model import ModelParams, TruncationConfig, precession
from sllbar.noise import (
    NoiseModel,
    _correction_coeffs,
    _diffusion_coeffs,
    _operator_parts,
    build_noise_modes,
)

# box lengths other than 1, so c = prod_{k_i = 0} L_i^{-1/2} != 1; a repeated
# k, k with zero entries and k with none
CASES = {
    "d1": (Grid(1, (2.0,), (9,)), [(1,), (3,), (1,), (0,)]),
    "d2": (Grid(2, (2.0, 3.0), (5, 4)), [(1, 0), (0, 2), (1, 0), (2, 1)]),
    "d3": (Grid(3, (2.0, 1.5, 3.0), (4, 3, 5)),
           [(1, 0, 2), (0, 1, 0), (1, 0, 2), (2, 2, 1)]),
}
PARAMS = ModelParams(1.0, 1.0, 1.0, 1.0, 1.0)


def noise_for(case):
    grid, indices = CASES[case]
    return build_noise_modes({"family": "eigenmode", "modes": [
        {"sigma": 0.3 + 0.2 * j, "index": k, "direction": (1.0, -j, 0.5 * j + 0.2)}
        for j, k in enumerate(indices)]}, grid)


def residuals(noise) -> tuple[float, float]:
    """``(identity, route)`` residuals of the step's noise parts at one state."""
    grid = noise.grid
    rng = np.random.default_rng(7)
    u = random_field(grid, rng)
    dW = rng.standard_normal(noise.J)
    terms, inc = _explicit_parts(u, grid, PARAMS, noise, TruncationConfig.off(),
                                 Workspace(grid), True, dW)
    corr = terms["ito_correction"]
    ws = Workspace(grid)
    vals = cyclic(synthesize(grid, u, out=ws.vals))
    Ls = [_diffusion_coeffs(grid, vals, noise, j, ws) - noise.h_minus_lap[j]
          for j in range(noise.J)]
    energy = sum(np.vdot(L, L) for L in Ls)
    identity = abs(2 * np.vdot(u, corr) + energy) / energy

    constant = sum(w * hl for w, hl in zip(dW, noise.h_minus_lap))
    if grid.dim == 1:
        inc_ref, corr_ref = _operator_parts(noise, u, dW, True, Workspace(grid))
        inc_ref = inc_ref - constant
    else:
        inc_ref = sum(w * L for w, L in zip(dW, Ls))
        corr_ref = _correction_coeffs(grid, vals, noise, ws)
    route = max(np.abs(a - b).max() / np.abs(b).max()
                for a, b in ((inc - constant, inc_ref), (corr, corr_ref)))
    return identity, route


def with_blocks(edit):
    """A mutant of ``NoiseModel._plan`` that edits copies of K, as ``(J, 3,
    4G)`` (each group's 3 x 3 blocks of c K_j, then its constant columns), and
    halfQ, as ``(3, 3G)``, in place: ``edit(noise, K, halfQ, G)``."""
    def mutant(noise):
        at, K, halfQ, passes = noise._plan
        K, halfQ = K.reshape(noise.J, 3, -1).copy(), halfQ.copy()
        edit(noise, K, halfQ, len(passes))
        return at, K.reshape(noise.J, -1), halfQ, passes
    return mutant


def scale_halfQ(factor):
    def edit(noise, K, halfQ, G):
        halfQ *= factor
    return with_blocks(edit)


def c_k_one(noise, K, halfQ, G):
    """Every group's c = prod_{k_i = 0} L_i^{-1/2} taken as 1."""
    for g, k in enumerate(zip(*noise._plan[0][1:])):
        c = math.prod(L ** -0.5 for L, ki in zip(noise.grid.lengths, k) if not ki)
        K[:, :, 3 * g:3 * g + 3] /= c
        halfQ[:, 3 * g:3 * g + 3] /= c * c


def negate_cK(noise, K, halfQ, G):
    K[:, :, :3 * G] *= -1.0


def previous_block(noise, K, halfQ, G):
    """The last mode's c K_j (it has the largest sigma) moved from its group's
    3 x 3 block to the previous group's."""
    g = next(g for g in range(G) if K[-1, :, 3 * g:3 * g + 3].any())
    assert g >= 1
    own, prev = slice(3 * g, 3 * g + 3), slice(3 * g - 3, 3 * g)
    K[-1, :, prev], K[-1, :, own] = K[-1, :, own], 0.0


# the first six rewrote each group's (at, c, axes, js, cK, cQ) before the
# groups became one plan; each is the same mutation of the plan
MUTANTS = {
    "cQ_x0": scale_halfQ(0.0),
    "cQ_x0.5": scale_halfQ(0.5),
    "minus_cQ": scale_halfQ(-1.0),
    "c_k=1": with_blocks(c_k_one),
    "Pt_for_P2t": lambda noise: (*noise._plan[:3], [
        tuple((ax, P, P) for ax, P, _ in axes) for axes in noise._plan[3]]),
    "minus_cK": with_blocks(negate_cK),
    "cK_in_previous_block": with_blocks(previous_block),
    "no_half": scale_halfQ(2.0),
}


@pytest.mark.parametrize("case", CASES)
def test_unmutated_plan_passes_both_checks(case):
    identity, route = residuals(noise_for(case))
    assert identity <= 1e-12
    assert route <= 1e-12


@pytest.mark.parametrize("mutant", MUTANTS)
@pytest.mark.parametrize("case", ["d2", "d3"])
def test_operator_plan_mutant_fails(monkeypatch, case, mutant):
    noise = noise_for(case)
    monkeypatch.setattr(noise, "_plan", MUTANTS[mutant](noise))
    identity, route = residuals(noise)
    assert max(identity, route) >= 0.1
    if mutant == "minus_cK":  # cQ = c^2 sum K_j^2 hides the sign from the identity
        assert identity <= 1e-12 and route >= 0.1


def test_d1_correction_mutant_fails(monkeypatch):
    plain = sllbar.integrator._correction_coeffs
    monkeypatch.setattr(sllbar.integrator, "_correction_coeffs",
                        lambda *args: 0.5 * plain(*args))
    identity, route = residuals(noise_for("d1"))
    assert identity >= 0.1 and route >= 0.1


@pytest.mark.parametrize("grid", [Grid(2, (2.0, 3.0), (8, 7)),
                                  Grid(3, (2.0, 1.5, 3.0), (7, 6, 8))],
                         ids=["d2", "d3"])
def test_aliased_quadratic_grid_mutant_fails(monkeypatch, grid):
    """ceil(1.25 N) <= 1.5 (N - 1) from N = 7, so these grids alias at 1.25
    (at N <= 6 the 1.25 grid happens to be exact too). The field holds only
    the upper half of each axis's modes."""
    top = np.zeros(grid.modes)
    top[tuple(slice(N // 2, None) for N in grid.modes)] = 1.0
    u = random_field(grid, np.random.default_rng(3), decay=0.0) * top
    ref = -PARAMS.beta4 * precession(grid, u)

    def gap():
        terms, _ = _explicit_parts(u, grid, PARAMS, NoiseModel.empty(grid),
                                   TruncationConfig.off(), Workspace(grid), False)
        return np.abs(terms["precession"] - ref).max() / np.abs(ref).max()

    assert gap() <= 1e-13
    monkeypatch.setattr(Grid, "quadratic_grid", property(
        lambda g: Grid(g.dim, g.lengths, g.modes, 1.25)))
    assert gap() >= 0.1
