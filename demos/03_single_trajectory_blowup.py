"""One stochastic trajectory: recorded norms, stopping, energy balance.

Runs the semi-implicit Euler-Maruyama scheme on a small-data configuration,
prints the sampled norm series, demonstrates the H^1 stopping threshold, and
closes the deterministic L2 energy identity to O(dt).
"""

import numpy as np

from sllbar import (
    Grid,
    ModelParams,
    NoiseModel,
    SolverConfig,
    build_noise_modes,
    constant_field,
    run_trajectory,
)
from sllbar.diagnostics import energy_balance_l2

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

# The zero state is unstable under the cubic penalty: |u| relaxes toward 1,
# i.e. the L2 norm toward sqrt(V) = sqrt(pi) = 1.7725.
cfg = SolverConfig(dt=0.01, t_end=20.0, record_every=200, seed=11)
rec = run_trajectory(u0, params, noise, cfg)
print("   t      |u|_L2    |u|_H1    |grad u|")
for i in range(len(rec.times)):
    print(f"{rec.times[i]:6.2f}   {rec.norms['l2'][i]:.4f}    "
          f"{rec.norms['h1'][i]:.4f}    {rec.norms['grad_l2'][i]:.4f}")
print("stop:", rec.stop_reason, "at t =", rec.stop_time)

# The discrete stopping time tau^K: the first step time with |u|_H1 > K.
# The H^1 norm is checked after every step, not only at the recorded
# samples, and the run stops there; for the simulate subcommand an early
# stop is recorded data, not an error.
for K in (1.0, 5.0):
    stopped = run_trajectory(u0, params, noise,
                             SolverConfig(dt=0.01, t_end=20.0, record_every=200,
                                          seed=11, blowup_K=K))
    print(f"blowup_K={K}:", stopped.stop_reason, "at t =", stopped.stop_time)

# Noise off, the L2 energy identity closes to O(dt): halving dt halves the
# largest defect.
for dt in (1e-2, 5e-3):
    cfg = SolverConfig(dt=dt, t_end=1.0, snapshot_every=1)
    det = run_trajectory(u0, params, NoiseModel.empty(grid), cfg)
    series = energy_balance_l2(det, params)
    print(f"dt={dt}: max |energy balance residual| = "
          f"{np.abs(series.values).max():.3e}")
