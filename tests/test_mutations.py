"""Mutation gate for the transport noise: each known wrong noise plan fails
one of two checks that the real plan passes at 1e-12.

* identity: -u x h_j keeps |u| pointwise, so every state u satisfies
  2 (u, corr(u)) + sum_j |L_j u|^2 = 0, where corr is the Ito correction the
  step uses and L_j u = G_j(u) - (h_j - Lap h_j) comes from the padded-grid
  transform pairing;
* route: the step's increment (less its constant part sum_j dW_j (h_j - Lap
  h_j)) and correction against the other route's, the padded-grid one at
  d >= 2 and the coefficient operators of ``noise._operator_parts`` at d = 1.

The d >= 2 mutants rewrite the entries of ``NoiseModel._groups``; the d = 1
one scales the step's ``_correction_coeffs``. Each must fail by at least 0.1.
"""

import numpy as np
import pytest

import sllbar.integrator
from sllbar.grid import Grid, Workspace, cyclic, random_field, synthesize
from sllbar.integrator import _explicit_parts
from sllbar.model import ModelParams, TruncationConfig
from sllbar.noise import (
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
        inc_ref, corr_ref = _operator_parts(noise, u, dW, True)
        inc_ref = inc_ref - constant
    else:
        inc_ref = sum(w * L for w, L in zip(dW, Ls))
        corr_ref = _correction_coeffs(grid, vals, noise, ws)
    route = max(np.abs(a - b).max() / np.abs(b).max()
                for a, b in ((inc - constant, inc_ref), (corr, corr_ref)))
    return identity, route


MUTANTS = {
    "cQ_x0": lambda at, c, axes, js, cK, cQ: (at, c, axes, js, cK, 0.0 * cQ),
    "cQ_x0.5": lambda at, c, axes, js, cK, cQ: (at, c, axes, js, cK, 0.5 * cQ),
    "minus_cQ": lambda at, c, axes, js, cK, cQ: (at, c, axes, js, cK, -cQ),
    "c_k=1": lambda at, c, axes, js, cK, cQ: (at, 1.0, axes, js, cK / c, cQ / c**2),
    "Pt_for_P2t": lambda at, c, axes, js, cK, cQ: (
        at, c, tuple((ax, Pt, Pt) for ax, Pt, _ in axes), js, cK, cQ),
    "minus_cK": lambda at, c, axes, js, cK, cQ: (at, c, axes, js, -cK, cQ),
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
    monkeypatch.setattr(noise, "_groups", [MUTANTS[mutant](*g) for g in noise._groups])
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
