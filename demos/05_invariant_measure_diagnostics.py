"""Ensemble statistics and invariant-measure evidence.

Runs a Monte Carlo ensemble with path-keyed increments and evaluates the
three diagnostics that back invariant-measure existence numerically: the
time-averaged H^2 moment grows at most linearly, the fraction of time spent
above a level R can be made small, and bounded observables have stabilizing
ergodic window averages.

(Shorter horizon and fewer paths than the acceptance suite, to stay quick.)
"""

import numpy as np

from sllbar import (
    Grid,
    ModelParams,
    Observable,
    SolverConfig,
    build_noise_modes,
    constant_field,
)
from sllbar.ensemble import (
    h2_time_average,
    invariant_average,
    moment_estimates,
    run_ensemble,
    tightness_statistic,
)

grid = Grid(1, (np.pi,), (16,))
params = ModelParams(beta1=0.5, beta2=1.0, beta3=1.0, beta4=1.0, beta5=1.0)
noise = build_noise_modes(
    {"family": "eigenmode", "modes": [
        {"sigma": 0.1, "index": (1,), "direction": (1, 0, 0)},
        {"sigma": 0.1, "index": (2,), "direction": (0, 0, 1)},
    ]},
    grid,
)
u0 = constant_field(grid, (0.05, 0.0, 0.0))

observables = (
    Observable("exp_neg_l2", scale=2.0),
    Observable("clip_norm", space="L2", cap=3.0),
    Observable("tanh_mode", index=(0,), component=0, scale=1.0),
)

T = 60.0
cfg = SolverConfig(dt=0.01, t_end=T, record_every=20, seed=42)
stats = run_ensemble(u0, params, noise, cfg, 8, observables=observables)
print(f"paths: {stats.M}, early stops: {stats.blowup_count}")

print("\nmoment estimates (p=1, with standard errors):")
for key, (est, se) in moment_estimates(stats, 1).items():
    print(f"  {key:10s} {est:10.4f} +- {se:.4f}")

growth = h2_time_average(stats)
print(f"\ncumulative H^2 time average: fit a + b t + c t^2 over [T/5, T]")
print(f"  b = {growth.b:.4f}, c = {growth.c:.6f}, |c| T / b = "
      f"{growth.curvature_ratio:.4f}  (small: at most linear growth)")

print("\ntightness statistic (fraction of time |u|_H1 > R):")
for R in (0.5, 1.0, 2.0, 4.0):
    print(f"  R = {R:3.1f}: {tightness_statistic(stats, R, 'H1'):.4f}")

print("\nergodic window averages (burn-in T/4, dyadic windows):")
for psi in observables:
    rep = invariant_average(stats, psi.name, burn_in=T / 4)
    (w1, w2), (m1, m2) = rep.windows, rep.window_means
    print(f"  {psi.name}:")
    print(f"    [{w1[0]:5.1f},{w1[1]:5.1f}] -> {m1:.5f} +- {rep.window_ses[0]:.5f}")
    print(f"    [{w2[0]:5.1f},{w2[1]:5.1f}] -> {m2:.5f} +- {rep.window_ses[1]:.5f}")
