"""Monte Carlo driver and invariant-measure diagnostics.

Paths are driven by path-keyed counter-based increments, so ensembles are
embarrassingly parallel and bitwise reproducible at any worker count.
Aggregation always runs in fixed path order.

The observable catalog is restricted to bounded functionals that are
sequentially weakly continuous in the state: pointwise functions of finitely
many coefficients or of low-order norms. Arbitrary user callables are
excluded to keep runs reproducible.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field as dc_field

import numpy as np

from .grid import Grid, check_mode_index, sobolev_norm
from .integrator import (
    STOP_COMPLETED,
    BlowupAbort,
    ConfigurationError,
    SolverConfig,
    TrajectoryRecord,
    run_trajectory,
)
from .model import ModelParams
from .noise import NoiseModel

OBSERVABLE_KINDS = ("tanh_mode", "exp_neg_l2", "clip_norm")


@dataclass(frozen=True)
class Observable:
    """Bounded continuous functional of the state.

    * ``tanh_mode``: tanh(c_k[component] / scale) for one retained mode k;
      bounded by 1, reads a single coefficient.
    * ``exp_neg_l2``: exp(-(|u|_L2 / scale)^2); bounded by 1.
    * ``clip_norm``: min(|u|_space, cap) for space in {L2, H1}; bounded by cap.
    """

    kind: str
    mode_index: tuple[int, ...] = ()
    component: int = 0
    scale: float = 1.0
    space: str = "L2"
    cap: float = 1.0

    def __post_init__(self):
        if self.kind not in OBSERVABLE_KINDS:
            raise ValueError(f"unknown observable kind {self.kind!r}")
        if self.kind == "tanh_mode":
            if self.component not in (0, 1, 2):
                raise ValueError("component must be 0, 1 or 2")
            if not self.scale > 0:  # NaN fails too
                raise ValueError("scale must be positive")
        if self.kind == "exp_neg_l2" and not self.scale > 0:
            raise ValueError("scale must be positive")
        if self.kind == "clip_norm":
            if self.space not in ("L2", "H1"):
                raise ValueError("space must be 'L2' or 'H1'")
            if not 0 < self.cap < math.inf:  # NaN fails too
                raise ValueError("cap must be positive and finite")
        object.__setattr__(self, "mode_index", tuple(int(i) for i in self.mode_index))

    @property
    def name(self) -> str:
        if self.kind == "tanh_mode":
            idx = ",".join(str(i) for i in self.mode_index)
            return f"tanh_mode[{idx};c{self.component};s={self.scale:g}]"
        if self.kind == "exp_neg_l2":
            return f"exp_neg_l2[s={self.scale:g}]"
        return f"clip_norm[{self.space};cap={self.cap:g}]"

    def __call__(self, grid: Grid, coeffs: np.ndarray) -> float:
        if coeffs.shape != grid.field_shape:
            raise ValueError(f"coeffs shape {coeffs.shape}, expected {grid.field_shape}")
        if self.kind == "tanh_mode":
            index = check_mode_index(grid, self.mode_index)
            c = float(coeffs[(self.component,) + index])
            return math.tanh(c / self.scale)
        if self.kind == "exp_neg_l2":
            n = sobolev_norm(grid, coeffs, 0)
            return math.exp(-((n / self.scale) ** 2))
        n = sobolev_norm(grid, coeffs, 0 if self.space == "L2" else 1)
        return min(n, self.cap)


def _path_mean_se(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean, variance (ddof 1) and standard error across paths (axis 0).

    Where every path holds the same value the mean is that value and the
    variance and SE are an exact zero, not the rounding artifacts of the
    summed mean and the two-pass variance.
    """
    M = x.shape[0]
    agree = np.all(x == x[0], axis=0)
    mean = np.where(agree, x[0], x.mean(axis=0))
    var = np.where(agree, 0.0, x.var(axis=0, ddof=min(1, M - 1)))
    return mean, var, np.sqrt(var) / math.sqrt(M)


@dataclass
class EnsembleStats:
    """Per-path recorded series and every cross-path statistic of them.

    ``weights[i]`` is the length of the record interval starting at sample i
    in units of the first interval, taken from the integer sample steps: a
    full ``record_every`` interval weighs exactly 1.0 and a short last one
    its fraction. Every time integral or time average is a left-endpoint
    sum with these weights.
    """

    times: np.ndarray
    sample_steps: np.ndarray
    norms: dict[str, np.ndarray]          # name -> (M, S)
    obs: dict[str, np.ndarray]            # name -> (M, S)
    stop_reasons: list[str]
    stop_times: list[float]
    mean_norms: dict[str, np.ndarray] = dc_field(init=False)
    var_norms: dict[str, np.ndarray] = dc_field(init=False)
    mean_obs: dict[str, np.ndarray] = dc_field(init=False)
    se_obs: dict[str, np.ndarray] = dc_field(init=False)
    weights: np.ndarray = dc_field(init=False)

    def __post_init__(self):
        self.mean_norms, self.var_norms, self.mean_obs, self.se_obs = {}, {}, {}, {}
        for k, v in self.norms.items():
            self.mean_norms[k], self.var_norms[k], _ = _path_mean_se(v)
        for k, v in self.obs.items():
            self.mean_obs[k], _, self.se_obs[k] = _path_mean_se(v)
        gaps = np.diff(self.sample_steps)
        self.weights = gaps / gaps[:1]  # empty for a single sample

    @property
    def M(self) -> int:
        return len(self.stop_reasons)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def blowup_count(self) -> int:
        return sum(1 for r in self.stop_reasons if r != STOP_COMPLETED)

    def time_integral(self, x: np.ndarray, cumulative: bool = False) -> np.ndarray:
        """Weighted left-endpoint integral of samples ``x`` (..., S) over time."""
        if len(self.times) < 2:
            raise ValueError("need at least two recorded samples")
        wx = x[..., :-1] * self.weights
        total = np.cumsum(wx, axis=-1) if cumulative else wx.sum(axis=-1)
        return total * (self.times[1] - self.times[0])


def _run_one(args) -> TrajectoryRecord:
    u0, params, noise, config, path, observables = args
    try:
        return run_trajectory(u0, params, noise, config, path=path,
                              observables=observables)
    except ConfigurationError as exc:
        raise ConfigurationError(f"path {path}: {exc}") from exc


def run_trajectories(jobs: list, workers: int = 1) -> list[TrajectoryRecord]:
    """A study's trajectory records in job order; its one place of scheduling.

    A job, ``(u0, params, noise, config, path, observables)``, is one
    :func:`_run_one` call: in process if ``min(workers, len(jobs), os.cpu_count())``
    is 1, else on a pool of that many; the records are the same either way."""
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        return [_run_one(job) for job in jobs]
    # imported here: the pool's modules would add to every CLI start-up
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_one, jobs))


def run_ensemble(u0: np.ndarray, params: ModelParams, noise: NoiseModel,
                 config: SolverConfig, M: int, observables=(),
                 workers: int = 1) -> EnsembleStats:
    """M independent trajectories with path-keyed increments.

    The paths are M :func:`run_trajectories` jobs on up to ``workers``
    processes, and any count yields the same statistics bitwise; records are
    aggregated in path order. Early-stopped paths are kept and reported
    through ``stop_reasons`` / ``blowup_count``; their recorded series must
    share one sample grid, so :class:`BlowupAbort` is raised unless every
    path stops at the same time.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    observables = tuple(observables)
    records = run_trajectories(
        [(u0, params, noise, config, p, observables) for p in range(M)], workers)
    if len({r.stop_time for r in records}) != 1:
        bad = [p for p, r in enumerate(records) if r.stop_reason != STOP_COMPLETED]
        raise BlowupAbort(
            f"paths stopped on different sample grids (early stops at paths {bad})"
        )
    norms = {k: np.stack([r.norms[k] for r in records]) for k in records[0].norms}
    obs = {k: np.stack([r.obs[k] for r in records]) for k in records[0].obs}
    return EnsembleStats(
        times=records[0].times,
        sample_steps=records[0].sample_steps,
        norms=norms,
        obs=obs,
        stop_reasons=[r.stop_reason for r in records],
        stop_times=[r.stop_time for r in records],
    )


def _scalar_mean_se(samples: np.ndarray) -> tuple[float, float]:
    mean, _, se = _path_mean_se(samples)
    return float(mean), float(se)


def moment_estimates(stats: EnsembleStats, p: float) -> dict[str, tuple[float, float]]:
    """Monte Carlo moments mirroring the a priori bounds.

    Estimates, each with its standard error:
      * ``sup_l2_2p``  : E sup_t |u|_L2^(2p)
      * ``sup_h1_2p``  : E sup_t |u|_H1^(2p)
      * ``int_h2_p``   : E (int |u|_H2^2 dt)^p
      * ``int_h3_p``   : E (int |u|_H3^2 dt)^p
      * ``int_l4_p``   : E (int |u|_L4^4 dt)^p
    Time integrals are weighted left-endpoint sums over the recorded samples.
    """
    if not p >= 1:  # NaN fails too
        raise ValueError("p must be >= 1")
    out = {}
    out["sup_l2_2p"] = _scalar_mean_se(stats.norms["l2"].max(axis=1) ** (2 * p))
    out["sup_h1_2p"] = _scalar_mean_se(stats.norms["h1"].max(axis=1) ** (2 * p))
    for key, norm, power in (("int_h2_p", "h2", 2), ("int_h3_p", "h3", 2),
                             ("int_l4_p", "l4", 4)):
        out[key] = _scalar_mean_se(stats.time_integral(stats.norms[norm] ** power) ** p)
    return out


@dataclass
class GrowthReport:
    times: np.ndarray
    series: np.ndarray
    a: float
    b: float
    c: float
    curvature_ratio: float | None  # None when the fitted b is 0


# fewest recorded samples the quadratic growth fit accepts
MIN_GROWTH_SAMPLES = 20


def h2_time_average(stats: EnsembleStats) -> GrowthReport:
    """Cumulative ``int_0^t E |u|_H2^2 ds`` and its quadratic fit.

    Fits ``a + b t + c t^2`` over [T/5, T] by least squares and reports
    ``|c| T / b``; values near zero are evidence of at-most-linear growth of
    the time-averaged H^2 moment.
    """
    if len(stats.times) < MIN_GROWTH_SAMPLES:
        raise ValueError(f"need at least {MIN_GROWTH_SAMPLES} recorded samples")
    mean_h2_sq, _, _ = _path_mean_se(stats.norms["h2"] ** 2)
    series = np.concatenate([[0.0], stats.time_integral(mean_h2_sq, cumulative=True)])
    T = stats.horizon
    mask = stats.times >= T / 5.0
    coeffs = np.polyfit(stats.times[mask], series[mask], deg=2)
    c, b, a = (float(x) for x in coeffs)
    ratio = abs(c) * T / b if b != 0 else None  # JSON has no infinity
    return GrowthReport(stats.times, series, a, b, c, ratio)


def tightness_statistic(stats: EnsembleStats, R: float, space: str = "H1") -> float:
    """Mean fraction of time the chosen norm exceeds R, averaged over paths.

    The Chebyshev-style statistic behind invariant-measure existence: small
    values for some R mean time averages stay bounded in probability. Each
    sample counts for its record interval (left endpoint).
    """
    if not R >= 0:  # NaN fails too
        raise ValueError("R must be >= 0")
    if space not in ("H1", "L2"):
        raise ValueError("space must be 'H1' or 'L2'")
    series = stats.norms["h1" if space == "H1" else "l2"]
    if series.shape[1] < 2:
        raise ValueError("need at least two recorded samples")
    exceed = series[:, :-1] > R  # left endpoint of each interval
    return float((exceed * stats.weights).sum() / (stats.M * stats.weights.sum()))


@dataclass
class WindowReport:
    observable: str
    windows: list[tuple[float, float]]
    window_means: list[float]
    window_ses: list[float]


class WindowError(ValueError):
    """An :func:`invariant_windows` failure; ``reason`` is ``"horizon"`` (T
    below twice the burn-in), ``"range"`` (a window outside [burn_in, T]) or
    ``"empty"`` (a window without a sample)."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


def invariant_windows(times: np.ndarray, burn_in: float, windows=None) -> list[tuple]:
    """The windows of :func:`invariant_average` on [0, T], T = ``times[-1]``
    (default [T/4, T/2] and [T/2, T]); raises ValueError if burn_in < 0, then
    :class:`WindowError` unless 2 burn_in <= T and each is in [burn_in, T]
    and holds a left endpoint of the recorded ``times``."""
    if not burn_in >= 0:  # NaN fails too
        raise ValueError(f"burn-in {burn_in} must be >= 0")
    T = float(times[-1])
    if T < 2 * burn_in:
        raise WindowError("horizon",
                          f"horizon {T} must be at least twice the burn-in {burn_in}")
    windows = [(T / 4.0, T / 2.0), (T / 2.0, T)] if windows is None else list(windows)
    for t0, t1 in windows:
        if t0 < burn_in:
            raise WindowError("range", f"window start {t0} precedes burn-in {burn_in}")
        if t1 > T + 1e-12:
            raise WindowError("range", f"window end {t1} exceeds horizon {T}")
        if not ((times[:-1] >= t0) & (times[:-1] < t1)).any():
            raise WindowError("empty", f"window ({t0}, {t1}) contains no samples")
    return windows


def invariant_average(stats: EnsembleStats, observable: str, burn_in: float,
                      windows: list[tuple[float, float]] | None = None,
                      ) -> WindowReport:
    """Windowed ergodic averages of the observable named ``observable``.

    Returns time averages over the :func:`invariant_windows` (default:
    dyadic windows [T/4, T/2] and [T/2, T]), each with its standard error
    across paths. A sample in a window counts for its record interval (left
    endpoint). The transition estimates, the cross-path mean of psi(u(t)) at
    every recorded time, are ``stats.mean_obs`` and ``stats.se_obs``.
    """
    if not stats.obs:
        raise ValueError("ensemble was run without observables")
    if observable not in stats.obs:
        raise KeyError(f"observable {observable!r} not recorded")
    windows = invariant_windows(stats.times, burn_in, windows)
    left = stats.times[:-1]  # each interval's left endpoint
    series = stats.obs[observable][:, :-1]  # (M, S - 1)

    means, ses = [], []
    for t0, t1 in windows:
        mask = (left >= t0) & (left < t1)
        w = stats.weights[mask]
        m, se = _scalar_mean_se((series[:, mask] * w).sum(axis=1) / w.sum())
        means.append(m)
        ses.append(se)
    return WindowReport(observable, windows, means, ses)
