"""Spectral Galerkin simulator for the stochastic Landau-Lifshitz-Baryakhtar
equation with Stratonovich transport noise on Neumann boxes."""

__version__ = "0.1.0"

from .grid import (
    Grid,
    constant_field,
    eigenmode_field,
    embed,
    lp_norm,
    random_field,
    sobolev_norm,
)
from .model import (
    ModelParams,
    TruncationConfig,
    cubic_field,
    drift_terms,
    precession,
    theta_R,
)
from .noise import (
    NoiseModel,
    NoiseTailWarning,
    WienerIncrement,
    build_noise_modes,
    check_noise_condition,
    coupled_increments,
    sample_increments,
)
from .integrator import (
    ConfigurationError,
    SolverConfig,
    TrajectoryRecord,
    heun_strat_step,
    imex_em_step,
    linear_factor,
    run_trajectory,
)
from .diagnostics import (
    ResidualSeries,
    energy_balance_l2,
    identity_cross,
    identity_cubic_gradient,
    identity_cubic_ibp,
    refinement_gap,
    weak_form_residual,
)
from .ensemble import (
    EnsembleStats,
    Observable,
    h2_time_average,
    invariant_average,
    moment_estimates,
    run_ensemble,
    tightness_statistic,
)
from .config import ConfigError, ExperimentConfig, RunConfig, build_initial, parse_config
