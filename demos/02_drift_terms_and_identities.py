"""The model's drift terms and the structural identities they satisfy.

Assembles the Ito drift term by term, shows the smooth gradient cutoff, and
evaluates the two exact identities the energy estimates hinge on: the
precession term is orthogonal to the state, and the cubic term satisfies a
gradient / integration-by-parts pair.
"""

import numpy as np

from sllbar import (
    Grid,
    ModelParams,
    TruncationConfig,
    build_noise_modes,
    drift_terms,
    random_field,
    sobolev_norm,
    theta_R,
)
from sllbar.diagnostics import identity_cross, identity_cubic

grid = Grid(1, (np.pi,), (16,))
params = ModelParams(beta1=0.5, beta2=1.0, beta3=1.0, beta4=1.0, beta5=1.0)
noise = build_noise_modes(
    {"family": "eigenmode", "modes": [
        {"sigma": 0.1, "index": (1,), "direction": (1, 0, 0)},
        {"sigma": 0.1, "index": (2,), "direction": (0, 0, 1)},
    ]},
    grid,
)

rng = np.random.default_rng(7)
u = 0.5 * random_field(grid, rng, decay=1.5)

terms = drift_terms(grid, u, params, noise, TruncationConfig.off())
print("drift term magnitudes (L2 of each contribution):")
for name, coeffs in terms.items():
    print(f"  {name:15s} {np.sqrt((coeffs**2).sum()):.6f}")

# The smooth cutoff is exactly 1 below the radius and exactly 0 above twice
# the radius, with a C-infinity ramp in between.
for x in (0.5, 1.0, 1.3, 1.7, 2.0, 2.5):
    print(f"theta_R({x:.1f}, R=1) = {theta_R(x, 1.0):.6f}")

# Orthogonality: (Pi(u x Lap u), u) vanishes at quadrature precision, which
# is why the precession term never enters the L2 energy balance.
print("normalized cross identity:", identity_cross(grid, u))

# Cubic identities: one pass computes both forms, and each agrees with
# P = 2|u.grad u|^2 + ||u||grad u||^2 at rounding level.
(lhs, rhs, res), (lhs_i, rhs_i, res_i) = identity_cubic(grid, u)
print(f"(grad(|u|^2 u), grad u) = {lhs:.8f};  2|u.grad u|^2 + ||u||grad u||^2"
      f" = {rhs:.8f};  residual = {res:.2e}")
print(f"(Lap(|u|^2 u), u) = {lhs_i:.8f};  -(2|u.grad u|^2 + ...) = {rhs_i:.8f};"
      f"  residual = {res_i:.2e}")

# Truncation: far above the gradient norm it is inert; far below it kills
# the nonlocal term entirely.
grad = sobolev_norm(grid, u, 1, seminorm=True)
on_big = drift_terms(grid, u, params, noise, TruncationConfig.on(10 * grad))["nonlocal"]
on_tiny = drift_terms(grid, u, params, noise, TruncationConfig.on(grad / 3))["nonlocal"]
off = drift_terms(grid, u, params, noise, TruncationConfig.off())["nonlocal"]
print("nonlocal term: |off - on(10x)| =", np.abs(off - on_big).max(),
      " |on(1/3 x)| =", np.abs(on_tiny).max())
