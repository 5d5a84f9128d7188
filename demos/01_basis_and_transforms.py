"""Cosine eigenbasis on a Neumann box: eigenvalues, transforms, dealiasing.

Walks through the spectral core: the eigenpairs of the Neumann Laplacian on
a box, lossless round trips between coefficients and collocation values, and
why the padded grid makes cubic products alias-free, and the 3/2 grid the
quadratic precession.
"""

import numpy as np

from sllbar import Grid, eigenmode_field, random_field, sobolev_norm
from sllbar.grid import analyze, collocation_points, eigenvalue_array, synthesize
from sllbar.model import precession

# A 1-d box of length pi keeps the eigenvalues integer: lambda_k = k^2.
grid = Grid(1, (np.pi,), (8,))
print("eigenvalues on [0, pi]:", eigenvalue_array(grid))

# The basis is L2-orthonormal, so coefficients are physical amplitudes up to
# the mode normalization. Mode 1 with unit coefficient is sqrt(2/pi) cos x.
mode = eigenmode_field(grid, (1,), (1.0, 0.0, 0.0))
x = collocation_points(grid)[0]
print("max |synthesized - sqrt(2/pi) cos x|:",
      np.abs(synthesize(grid, mode)[0] - np.sqrt(2 / np.pi) * np.cos(x)).max())

# A field is its (3, *modes) coefficient array, and padded-grid values are
# plain arrays too: synthesize maps
# (3, *modes) to (3, *padded) and analyze projects back onto the retained
# modes. Round trips are exact for retained modes.
rng = np.random.default_rng(0)
u = random_field(grid, rng)
err = np.abs(analyze(grid, synthesize(grid, u)) - u).max()
print("round-trip error:", err)

# Dealiasing: with pad_factor 2, the product of three retained-mode fields
# has exact retained coefficients. cos(2x) cos(3x) cos(6x) expands into
# frequencies 1, 5, 7 (weight 1/4 each) and 11, which must NOT fold back.
amp = 1 / np.sqrt(2 / np.pi)
fa, fb, fc = (synthesize(grid, eigenmode_field(grid, (k,), (amp, 0, 0)))
              for k in (2, 3, 6))
product = analyze(grid, fa * fb * fc)
print("cubic product coefficients (x component, cosine amplitudes):")
print(np.round(product[0] * np.sqrt(2 / np.pi), 12))

# The quadratic precession u x Lap u needs fewer nodes. Its projection reads
# frequencies up to 3(N - 1) per axis, and the midpoint rule on M nodes
# integrates cos(pi m x / L) exactly for 0 < m < 2M, so M = ceil(1.5 N) is
# enough (Orszag's 3/2 rule); the cubic reads up to 4(N - 1) and needs 2N.
# A d >= 2 step forms the precession on grid.quadratic_grid; at ceil(1.25 N)
# nodes it aliases.
box = Grid(2, (np.pi, 2.0), (8, 8))
v = random_field(box, rng, decay=0.0)  # as much energy in the top modes
reference = precession(box, v)
print("precession on", box.padded, "nodes (pad 2): max |coefficient|",
      np.abs(reference).max())
for pad in (1.5, 1.25):
    other = Grid(2, box.lengths, box.modes, pad)
    print(f"  pad {pad}, {other.padded} nodes: difference from pad 2, relative",
          np.abs(precession(other, v) - reference).max() / np.abs(reference).max())
print("the step's 3/2 grid:", box.quadratic_grid.padded, "nodes")

# Sobolev norms are spectral multipliers; H^3 of sigma * e_1 is
# sigma (1 + lambda_1)^(3/2) = 2 sqrt(2) sigma.
sigma = 0.25
h = eigenmode_field(grid, (1,), (0.0, 0.0, sigma))
print("H^3 norm of sigma e_1:", sobolev_norm(grid, h, 3), "expected:",
      sigma * (1 + 1) ** 1.5)
