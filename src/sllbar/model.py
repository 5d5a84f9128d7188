"""Galerkin drift terms of the stochastic Landau-Lifshitz-Baryakhtar model.

The evolved equation for the magnetization u(t, x) in R^3 is

    du = [ b1 Lap u - b2 Lap^2 u + b3 (1 - |u|^2) u - b4 u x Lap u
           + b5 Lap(|u|^2 u) ] dt  +  sum_j G_j(u) o dW_j

with transport diffusion G_j(u) = -u x h_j + h_j - Lap h_j. This module
holds the coefficients, the truncation cutoff theta_R and the single-term
references :func:`cubic_field` and :func:`precession` that the identity
checks use. The drift itself is assembled once, in
:func:`sllbar.integrator._explicit_parts`; :func:`drift_terms` adds the two
linear terms to those arrays and exposes each term by name. The
Stratonovich-to-Ito correction lives in :mod:`sllbar.noise`.

All pointwise products are evaluated on the padded collocation grid and
projected back to the retained modes, so every nonlinear term is the exact
Galerkin image of its continuous counterpart (pad_factor 2 dealiases cubics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    Grid,
    Workspace,
    analyze,
    cross3,
    eigenvalue_array,
    sobolev_norm,
    synthesize,
)


@dataclass(frozen=True)
class ModelParams:
    """Finite coefficients b1..b5; b1 may take either sign, b2..b5 are > 0."""

    beta1: float
    beta2: float
    beta3: float
    beta4: float
    beta5: float

    def __post_init__(self):
        for name in ("beta1", "beta2", "beta3", "beta4", "beta5"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name}: must be finite, got {value}")
            if value <= 0 and name != "beta1":
                raise ValueError(f"{name}: must be positive, got {value}")


@dataclass(frozen=True)
class TruncationConfig:
    """Smooth cutoff of the nonlocal cubic term by the gradient norm.

    ``mode="off"`` evolves the plain Galerkin system; ``mode="on"`` scales
    the nonlocal cubic term by ``theta_R(|grad u|_L2)``.
    """

    mode: str = "off"
    radius: float | None = None

    def __post_init__(self):
        if self.mode not in ("off", "on"):
            raise ValueError(f"mode: must be 'off' or 'on', got {self.mode!r}")
        if self.mode == "on" and not 0 < (self.radius or 0) < math.inf:  # None, NaN too
            raise ValueError("radius: required, positive and finite when mode is 'on'")

    @classmethod
    def off(cls) -> "TruncationConfig":
        return cls("off", None)

    @classmethod
    def on(cls, radius: float) -> "TruncationConfig":
        return cls("on", radius)


def _bump(t: float) -> float:
    return math.exp(-1.0 / t) if t > 0.0 else 0.0


def theta_R(x: float, R: float) -> float:
    """C^infinity nonincreasing cutoff: exactly 1 on [0, R], 0 on [2R, inf).

    Realized as the standard two-bump partition
    ``phi(2 - x/R) / (phi(2 - x/R) + phi(x/R - 1))`` with
    ``phi(t) = exp(-1/t)`` for t > 0 and 0 otherwise.
    """
    if not R > 0:  # NaN fails too; a NaN x is left to the stop rule
        raise ValueError("R must be positive")
    if x < 0:
        raise ValueError("x must be >= 0")
    lo = _bump(x / R - 1.0)
    if lo == 0.0:
        return 1.0
    hi = _bump(2.0 - x / R)
    if hi == 0.0:
        return 0.0
    return hi / (hi + lo)


def truncation_scale(grid: Grid, coeffs: np.ndarray, trunc: TruncationConfig,
                     grad_l2: float | None = None) -> float:
    """theta_R evaluated at |grad u|_L2 (``grad_l2`` when the caller has taken
    it), or exactly 1.0 when truncation is off."""
    if trunc.mode == "off":
        return 1.0
    return theta_R(sobolev_norm(grid, coeffs, 1, seminorm=True) if grad_l2 is None
                   else grad_l2, trunc.radius)


def cubic_field(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Projected cubic ``Pi(|u|^2 u)`` via padded pointwise evaluation."""
    vals = synthesize(grid, coeffs)
    mag2 = (vals * vals).sum(axis=0)
    return analyze(grid, vals * mag2)


def precession(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Projected precession term ``Pi(u x Lap u)`` on ``grid``'s own padded
    grid: the pad-2 oracle of the step's, which is on the 3/2 grid at d >= 2."""
    vals = synthesize(grid, coeffs)
    lap_vals = synthesize(grid, -eigenvalue_array(grid) * coeffs)
    return analyze(grid, cross3(vals, lap_vals))


def drift_terms(grid: Grid, coeffs: np.ndarray, params: ModelParams, noise,
                trunc: TruncationConfig) -> dict[str, np.ndarray]:
    """Every Ito-form drift contribution, individually retrievable.

    Keys: ``laplacian`` (b1 Lap u), ``biharmonic`` (-b2 Lap^2 u), ``penalty``
    (b3 Pi((1 - |u|^2) u), assembled as b3 (Pi u - Pi(|u|^2 u))),
    ``precession`` (-b4 Pi(u x Lap u)), ``nonlocal`` (+b5 theta_R(.) Pi
    Lap(|u|^2 u)) and, when the noise family is nonempty, ``ito_correction``.
    The nonlinear terms are the arrays the time steppers use, with their pad
    check. Pass ``NoiseModel.empty(grid)`` for the noise-free (Stratonovich) drift.
    """
    from .integrator import _check_pad, _explicit_parts

    _check_pad(grid)
    lam = eigenvalue_array(grid)
    nonlinear, _ = _explicit_parts(coeffs, grid, params, noise, trunc,
                                   Workspace(grid), include_correction=True)
    return {
        "laplacian": params.beta1 * (-lam) * coeffs,
        "biharmonic": -params.beta2 * lam * lam * coeffs,
        **nonlinear,
    }

