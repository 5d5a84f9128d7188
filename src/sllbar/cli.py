"""Command-line interface.

Subcommands::

    sllbar simulate  --config run.cfg --output-dir out/   one trajectory
    sllbar ensemble  --config run.cfg --output-dir out/   Monte Carlo stats
    sllbar invariant --config run.cfg --output-dir out/   ergodic averages + tightness
    sllbar converge  --config run.cfg --output-dir out/   dt-halving + refinement study
    sllbar check     --config run.cfg --output-dir out/   identity suite + noise condition

One flow, one owner per stage: :func:`run_command` parses the config and
prepares the output directory; each ``_cmd_*(cfg, out)`` runs its study,
writes its CSV and snapshot files through :mod:`sllbar.io`, and returns
``(report_body, summary)``; :func:`run_command` then merges the body into
the report skeleton, writes ``report.json`` and prints ``<summary>, outputs
in <dir>`` unless ``--quiet``.

Exit codes: 0 success, 2 configuration error (an output directory this call
made is removed again while it is empty), 3 fatal blow-up inside a
study (``BlowupAbort``, also when ``ensemble`` or ``check`` stops at t = 0),
4 I/O error. For ``simulate`` a blow-up stop is data, not an error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, parse_config
from .diagnostics import (
    energy_balance_l2,
    identity_cross,
    identity_cubic,
    refinement_gap,
    strong_convergence_gaps,
)
from .ensemble import (
    MIN_GROWTH_SAMPLES,
    EnsembleStats,
    WindowError,
    h2_time_average,
    invariant_average,
    invariant_windows,
    moment_estimates,
    run_ensemble,
    tightness_statistic,
)
from .grid import random_field
from .integrator import BlowupAbort, ConfigurationError, run_trajectory
from .io import (
    report_skeleton,
    write_ensemble_csv,
    write_identities_csv,
    write_observables_csv,
    write_report_json,
    write_residual_csv,
    write_snapshot,
    write_trajectory_csv,
)
from .noise import NoiseModel, check_noise_condition


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sllbar",
        description="Spectral Galerkin simulator for the stochastic "
        "Landau-Lifshitz-Baryakhtar equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "run one trajectory"),
        ("ensemble", "run a Monte Carlo ensemble"),
        ("invariant", "ergodic window averages and tightness statistics"),
        ("converge", "dt-halving and Galerkin refinement studies"),
        ("check", "identity residual suite and noise condition"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--output-dir", required=True, help="directory for outputs")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
        p.add_argument("--force", action="store_true",
                       help="allow writing into a non-empty output directory")
    return parser


def _prepare_output_dir(out: Path, force: bool) -> None:
    if out.exists() and any(out.iterdir()) and not force:
        raise OSError(f"output directory {out} is not empty (use --force)")
    out.mkdir(parents=True, exist_ok=True)


def _stop_events(reasons, times) -> list[dict]:
    return [
        {"path": p, "stop_reason": r, "stop_time": t}
        for p, (r, t) in enumerate(zip(reasons, times))
    ]


def _run_paths(cfg: RunConfig) -> EnsembleStats:
    exp = cfg.experiment
    return run_ensemble(cfg.build_initial(), cfg.params, cfg.build_noise(),
                        cfg.solver, exp.ensemble_m,
                        observables=exp.observables, workers=exp.workers)


def _write_ensemble_csvs(stats: EnsembleStats, out: Path) -> None:
    write_ensemble_csv(stats, out / "ensemble_norms.csv")
    if stats.obs:
        write_observables_csv(stats, out / "observables.csv")


def _cmd_simulate(cfg: RunConfig, out: Path) -> tuple[dict, str]:
    record = run_trajectory(cfg.build_initial(), cfg.params, cfg.build_noise(),
                            cfg.solver, path=0)
    write_trajectory_csv(record, out / "trajectory.csv")
    write_snapshot(record.final, out / "final_state.snap", record.grid)
    body = {"stop_events": _stop_events([record.stop_reason], [record.stop_time]),
            "final_norms": {k: float(v[-1]) for k, v in record.norms.items()}}
    return body, f"simulate: {record.stop_reason} at t={record.stop_time:g}"


def _cmd_ensemble(cfg: RunConfig, out: Path) -> tuple[dict, str]:
    exp = cfg.experiment
    stats = _run_paths(cfg)
    if stats.horizon == 0.0:
        raise BlowupAbort(f"all {stats.M} paths stopped at t=0 (H^1 norm of u0 above "
                          "blowup_k); moment estimates need two samples")
    _write_ensemble_csvs(stats, out)
    body = {"paths": stats.M, "blowup_count": stats.blowup_count,
            "stop_events": _stop_events(stats.stop_reasons, stats.stop_times)}
    body["moments"] = {
        f"p={p:g}": {k: {"estimate": v[0], "se": v[1]}
                     for k, v in moment_estimates(stats, p).items()}
        for p in exp.moment_powers
    }
    if len(stats.times) >= MIN_GROWTH_SAMPLES:
        growth = h2_time_average(stats)
        body["h2_growth"] = {
            "a": growth.a, "b": growth.b, "c": growth.c,
            "curvature_ratio": growth.curvature_ratio,
        }
    return body, f"ensemble: M={stats.M}, blowups={stats.blowup_count}"


def _cmd_invariant(cfg: RunConfig, out: Path) -> tuple[dict, str]:
    exp = cfg.experiment
    n, every = cfg.solver.n_steps, cfg.solver.record_every
    try:  # before any path is stepped, on the record grid of a full-horizon run
        windows = invariant_windows(np.minimum(np.arange(0, n + every, every), n)
                                    * cfg.solver.dt, exp.burn_in, exp.windows or None)
    except WindowError as exc:  # with no windows set, a default window failed
        key = {"horizon": "experiment.burn_in",
               "range": "experiment.windows" if exp.windows else "experiment.burn_in",
               "empty": "experiment.windows" if exp.windows else "solver.record_every",
               }[exc.reason]
        raise ConfigError(f"{key}: {exc}") from exc
    stats = _run_paths(cfg)
    if stats.blowup_count:
        raise BlowupAbort(
            f"{stats.blowup_count} of {stats.M} paths stopped early; "
            "invariant averages need the full horizon"
        )
    body = {"paths": stats.M, "window_averages": {}}
    for psi in exp.observables:
        wrep = invariant_average(stats, psi.name, exp.burn_in, windows)
        body["window_averages"][psi.name] = {
            "windows": [list(w) for w in wrep.windows],
            "means": wrep.window_means,
            "ses": wrep.window_ses,
        }
    body["tightness"] = {
        space: {f"R={r:g}": tightness_statistic(stats, r, space)
                for r in exp.tightness_r}
        for space in ("H1", "L2")
    }
    _write_ensemble_csvs(stats, out)
    return body, f"invariant: M={stats.M}"


def _cmd_converge(cfg: RunConfig, out: Path) -> tuple[dict, str]:
    """dt-halving gaps on the config's grid, then refinement gaps between
    successive ``refine_levels``. Each level's noise model and initial field
    are built once, noise first, before the dt study, so a level that cannot
    hold them stops the run as a configuration error before any stepping. The
    level on the config's grid reuses the parsed ones."""
    exp = cfg.experiment
    levels = []
    for n in exp.refine_levels:
        grid = cfg.grid.with_modes((n,) * cfg.grid.dim)
        try:
            noise = cfg.build_noise(grid)
            levels.append((n, (cfg.build_initial(grid), noise)))
        except ValueError as exc:  # a ConfigError too, such as a finer snapshot
            raise ConfigError(f"experiment.refine_levels: level {n}: {exc}") from exc

    # dt-halving self-convergence with one shared Brownian path per MC path
    halvings = exp.dt_halvings
    diffs = strong_convergence_gaps(cfg.build_initial(), cfg.params, cfg.build_noise(),
                                    cfg.solver, halvings=halvings, paths=exp.ensemble_m,
                                    workers=exp.workers)
    body = {"dt_study": {
        "dts": [cfg.solver.dt / 2**k for k in range(halvings)],
        "mean_l2_gap_to_next_level": diffs,
        "base_dt": cfg.solver.dt / (2**halvings),
        "paths": exp.ensemble_m,
    }}

    # Galerkin refinement gaps with frozen noise keys
    gaps = body["refinement_gaps"] = {}
    for (nc, coarse), (nf, fine) in zip(levels[:-1], levels[1:]):
        gaps[f"{nc}->{nf}"] = refinement_gap(coarse, fine, cfg.params, cfg.solver)
    return body, f"converge: dt gaps {['%.3e' % d for d in diffs]}, refinement {gaps}"


def _cmd_check(cfg: RunConfig, out: Path) -> tuple[dict, str]:
    noise = cfg.build_noise()
    rng = np.random.default_rng(cfg.solver.seed)
    rows = []
    for _ in range(20):
        u = random_field(cfg.grid, rng)
        gradient, ibp = identity_cubic(cfg.grid, u)
        rows.append((identity_cross(cfg.grid, u), gradient[2], ibp[2]))
    write_identities_csv(rows, out / "identities.csv")

    # short noise-off run: energy-balance residual series as CSV
    steps = max(2, min(50, cfg.solver.n_steps))
    balance_cfg = replace(cfg.solver, t_end=steps * cfg.solver.dt,
                          snapshot_every=1, record_every=max(1, steps // 10))
    traj = run_trajectory(cfg.build_initial(), cfg.params,
                          NoiseModel.empty(cfg.grid), balance_cfg)
    if traj.stop_time == 0.0:
        raise BlowupAbort("the energy-balance run stopped at t=0 (H^1 norm of u0 "
                          "above blowup_k); its residual needs two snapshots")
    series = energy_balance_l2(traj, cfg.params)
    write_residual_csv(series, out / "energy_residuals.csv")

    c_h = check_noise_condition(noise)
    body = {
        "energy_balance_max_residual": float(np.abs(series.values).max()),
        "identity_max": dict(zip(("cross", "cubic_gradient", "cubic_ibp"),
                                 np.abs(rows).max(axis=0).tolist())),
        "noise_condition": {
            "C_h": c_h,
            "bound": noise.c_h_bound,
            "tail_estimate": noise.tail_estimate,
            "bound_exceeded": bool(noise.c_h_bound is not None and c_h > noise.c_h_bound),
        },
    }
    return body, f"check: identity maxima {body['identity_max']}, C_h={c_h:g}"


_COMMANDS = {
    "simulate": _cmd_simulate,
    "ensemble": _cmd_ensemble,
    "invariant": _cmd_invariant,
    "converge": _cmd_converge,
    "check": _cmd_check,
}


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    out = Path(args.output_dir)
    fresh = not out.exists()
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg = cfg.with_seed(args.seed)
        _prepare_output_dir(out, args.force)
        body, summary = _COMMANDS[args.command](cfg, out)
        write_report_json({**report_skeleton(cfg.echo()), **body}, out / "report.json")
        if not args.quiet:
            print(f"{summary}, outputs in {out}")
        return 0
    except (ConfigError, ConfigurationError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        if fresh and out.is_dir() and not any(out.iterdir()):
            out.rmdir()  # made by this call, and nothing was written
        return 2
    except BlowupAbort as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
