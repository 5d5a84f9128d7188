"""The sllbar benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each sample is one ``sllbar.cli.run_command`` call in a fresh child process
(``child.py``), one process at a time, with ``experiment.workers = 1`` in
every frozen workload config and the child's BLAS threads fixed at 1.
Samples are drawn until the next one would pass ``--seconds``; every figure
reported is the median over the samples. Before the timed samples, one more
child runs the workload at ``DEFAULT_SEED`` and its ``report.json`` is
compared leaf by leaf with the stored reference in ``reference/``.

``run_s``, ``steps_per_s`` and ``cpu_s`` are given at a fixed machine
speed: their medians are scaled by ``CAL_REF_S`` over the median time of
the children's calibration loop (``child.calibrate``), which runs just
before and after each ``run_command`` call. On a shared machine whose speed
drifts by tens of percent over minutes, this takes most of the drift out.
The raw medians are kept in the summary line.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics.
With ``--trace 1`` untraced and traced children alternate and the last line
holds the per-layer metrics of ``layertrace.METRICS`` plus
``trace.overhead_frac``. The line before it is a JSON summary: sample
counts and spreads, output-check problems, the environment and the
workload's field size against L2.

``python3 bench/run.py --write-reference`` rewrites the stored references.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from layertrace import METRICS, OVERHEAD, layer_metrics, load_spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

DEFAULT_SEED = 42
MIN_SAMPLES = 3
DEADLINE_S = 170.0   # the whole run must end within 180 s

# Swapping the transform backend (the same sums in another order) moves
# report leaves by about 1e-13 relative. Scaling the Ito correction by
# (1 + 1e-6) moves the most-changed leaf of each workload by 5e-10 to 8e-9.
# ATOL covers leaves that are themselves differences near rounding, such as
# a refinement gap of 5e-11.
RTOL = 1e-10
ATOL = 1e-13

# Typical time of child.calibrate() on the machine the bounds were set on;
# it only fixes the scale of the speed-corrected times.
CAL_REF_S = 0.1

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    command: str
    why: str


def config_path(name: str) -> Path:
    return BENCH / "workloads" / f"{name}.cfg"


# Why each workload exists; BENCHMARK.json repeats these lines.
WORKLOADS = {
    "ensemble_d1_small": Workload(
        "ensemble",
        "user reference run (annotated.cfg, d=1 N=16 J=2 M=8): per-call "
        "overhead, path batching and aggregation; FFT backend unused"),
    "simulate_d3_kernel": Workload(
        "simulate",
        "d=3 N=16 J=4, truncation on: matrix transforms, cross3 and the Ito "
        "correction dominate the step; M=1 so batching barely shows"),
    "converge_d1_fft": Workload(
        "converge",
        "d=1 N=64 on the FFT backend with dt-halving substeps: up to 8 "
        "Philox draws per step, diagnostics and snapshots"),
}

END_TO_END = ("setup_s", "run_s", "steps_per_s", "cpu_s", "peak_rss_mb")
UNITS = {"setup_s": "s", "run_s": "s", "steps_per_s": "1/s", "cpu_s": "s",
         "peak_rss_mb": "MB"}

# ROADMAP re-anchor row (d, N, J) = (3, 16, 4): IMEX step 18.5 ms, of which
# the Ito correction took 8.9 ms.
ROADMAP_D3 = {"step_ms": 18.5, "correction_share": 8.9 / 18.5}


def read_cfg(path: Path) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser(interpolation=None,
                                    inline_comment_prefixes=("#", ";"))
    cfg.read(path)
    return cfg


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def path_steps(command: str, cfg: configparser.ConfigParser) -> int:
    """Steps taken over all paths and resolutions, known from the config."""
    n = round(float(cfg["solver"]["t_end"]) / float(cfg["solver"]["dt"]))
    m = int(cfg.get("experiment", "ensemble_m", fallback="1"))
    if command == "simulate":
        return n
    if command == "ensemble":
        return m * n
    if command == "converge":
        halvings = int(cfg.get("experiment", "dt_halvings", fallback="3"))
        levels = _ints(cfg.get("experiment", "refine_levels", fallback=""))
        # level k runs n 2^k steps per path; each refinement pair runs twice
        return max(1, m) * n * (2 ** (halvings + 1) - 1) + 2 * n * max(0, len(levels) - 1)
    raise ValueError(f"no step count for command {command!r}")


def field_bytes(cfg: configparser.ConfigParser) -> int:
    """Bytes of one physical-space field on the workload's finest grid."""
    dim = int(cfg["grid"]["dim"])
    pad = float(cfg.get("grid", "pad_factor", fallback="2.0"))
    modes = _ints(cfg["grid"]["modes"])
    finest = max(modes + _ints(cfg.get("experiment", "refine_levels", fallback="")))
    return 3 * 8 * math.ceil(pad * finest) ** dim


# ---------------------------------------------------------------- environment

def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cache_sizes() -> dict[str, str]:
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return out
    for entry in entries:
        level = _read(f"{base}/{entry}/level")
        kind = _read(f"{base}/{entry}/type")
        size = _read(f"{base}/{entry}/size")
        if level and kind and size and kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _size_bytes(text: str | None) -> int | None:
    if not text:
        return None
    scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1].upper(), 1)
    return int(text.rstrip("KMGkmg")) * scale


def environment() -> dict:
    import numpy as np
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_ENV,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": _cache_sizes(),
    }


# --------------------------------------------------------------- output check

def _leaves(node, path=""):
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _leaves(node[key], f"{path}/{key}")
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _leaves(item, f"{path}/{i}")
    else:
        yield path, node


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare_reports(got, ref) -> list[str]:
    """Leaf-by-leaf comparison; numbers within RTOL/ATOL, the rest equal."""
    got_leaves = dict(_leaves(got))
    ref_leaves = dict(_leaves(ref))
    problems = [f"{p}: missing" for p in ref_leaves if p not in got_leaves]
    problems += [f"{p}: unexpected" for p in got_leaves if p not in ref_leaves]
    for p, r in ref_leaves.items():
        if p not in got_leaves:
            continue
        g = got_leaves[p]
        if _is_number(r) and _is_number(g):
            if not math.isclose(g, r, rel_tol=RTOL, abs_tol=ATOL):
                problems.append(f"{p}: {g!r} != reference {r!r}")
        elif g != r:
            problems.append(f"{p}: {g!r} != reference {r!r}")
    return problems


def check_outputs(out: Path, reference: dict | None,
                  first_report: bytes | None) -> tuple[bytes | None, list[str]]:
    """Problems with one run's outputs, and its report.json bytes."""
    try:
        raw = (out / "report.json").read_bytes()
        report = json.loads(raw)
    except (OSError, ValueError) as exc:
        return None, [f"report.json: {exc}"]
    problems = [f"{p}: not finite" for p, v in _leaves(report)
                if _is_number(v) and not math.isfinite(v)]
    for csv in sorted(out.glob("*.csv")):
        for row in csv.read_text().splitlines()[1:]:
            if not all(math.isfinite(float(x)) for x in row.split(",")):
                problems.append(f"{csv.name}: non-finite value")
                break
    if reference is not None:
        problems += compare_reports(report, reference)
    if first_report is not None and raw != first_report:
        problems.append("report.json differs from the first run of this seed")
    return raw, problems


# ------------------------------------------------------------------- children

@dataclass
class Sample:
    ok: bool
    problems: list[str]
    result: dict | None = None
    spans: Path | None = None
    wall_s: float = 0.0


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def run_child(name: str, seed: int, work: Path, tag: str, traced: bool,
              timeout: float) -> tuple[Sample, Path]:
    wl = WORKLOADS[name]
    out = work / f"out-{tag}"
    spec = {
        "command": wl.command,
        "config": str(config_path(name)),
        "seed": seed,
        "out": str(out),
        "result": str(work / f"result-{tag}.json"),
        "spans": str(work / f"spans-{tag}.npz") if traced else None,
    }
    t0 = time.monotonic()
    spec["launched"] = t0
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        return Sample(False, [f"{tag}: timed out"], wall_s=time.monotonic() - t0), out
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return Sample(False, [f"{tag}: exit code {proc.returncode}: {' | '.join(tail)}"],
                      wall_s=wall), out
    result = json.loads(Path(spec["result"]).read_text())
    spans = Path(spec["spans"]) if traced else None
    return Sample(True, [], result, spans, wall), out


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4)


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path):
    """Run the reference child and the timed children; return all samples."""
    begin = time.monotonic()
    reference = json.loads((BENCH / "reference" / f"{name}.json").read_text())

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - begin)

    samples: list[tuple[str, Sample]] = []
    sample, out = run_child(name, DEFAULT_SEED, work, "ref", False, remaining())
    if sample.ok:
        _, problems = check_outputs(out, reference, None)
        sample.ok, sample.problems = not problems, problems
    samples.append(("ref", sample))
    shutil.rmtree(out, ignore_errors=True)

    first_report = None
    walls: list[float] = []
    start = time.monotonic()
    i = 0
    while True:
        elapsed = time.monotonic() - start
        if i >= (2 * MIN_SAMPLES if trace else MIN_SAMPLES):
            if elapsed + statistics.median(walls) > seconds:
                break
        if remaining() < 2 * max(walls, default=1.0):
            break
        traced = trace and i % 2 == 1
        kind = "traced" if traced else "timed"
        sample, out = run_child(name, seed, work, f"{kind}{i}", traced, remaining())
        walls.append(sample.wall_s)
        if sample.ok:
            raw, problems = check_outputs(
                out, reference if seed == DEFAULT_SEED else None, first_report)
            first_report = first_report or raw
            sample.ok, sample.problems = not problems, problems
        samples.append((kind, sample))
        shutil.rmtree(out, ignore_errors=True)
        i += 1
    return samples


def end_to_end(samples, steps: int) -> tuple[dict, dict]:
    timed = [s.result for kind, s in samples if kind == "timed" and s.result]
    values = {k: [r[k] for r in timed]
              for k in ("setup_s", "run_s", "cpu_s", "peak_rss_mb", "cal_s")}
    raw = {k: statistics.median(v) for k, v in values.items()}
    # one speed factor per run: a ratio of medians, since a single short
    # calibration says little about the seconds of the call around it
    speed = CAL_REF_S / raw["cal_s"]
    metrics = {
        "setup_s": raw["setup_s"],
        "run_s": raw["run_s"] * speed,
        "steps_per_s": steps / (raw["run_s"] * speed),
        "cpu_s": raw["cpu_s"] * speed,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    info = {
        "speed_factor": speed,
        "raw_median": raw,
        "spread": {k: {"n": len(v), "quartiles": _quartiles(v), "values": v}
                   for k, v in values.items()},
    }
    return metrics, info


def per_layer(samples) -> tuple[dict, dict]:
    traced = [s for kind, s in samples if kind == "traced" and s.result]
    untraced = [s.result["run_s"] for kind, s in samples if kind == "timed" and s.result]
    spans = [load_spans(s.spans) for s in traced]
    per_sample = [layer_metrics(sp) for sp in spans]
    missing = sorted({m for sp in spans for m in sp["missing"]})
    # median_low keeps counts whole: it always returns one sample's value
    metrics = {k: statistics.median_low(d[k] for d in per_sample) for k in per_sample[0]}
    counts = [m.name for m in METRICS if m.unit.startswith("count") and m.name in metrics]
    counts_repeat = all(d[k] == per_sample[0][k] for d in per_sample for k in counts)
    metrics[OVERHEAD.name] = (
        statistics.median(s.result["run_s"] for s in traced) / statistics.median(untraced) - 1.0)
    info = {"traced_samples": len(traced), "untraced_samples": len(untraced),
            "missing_targets": missing, "counts_repeat": counts_repeat}
    return metrics, info


def roadmap_crosscheck(metrics: dict) -> dict:
    """Compare the traced d=3 step with the ROADMAP re-anchor row."""
    step = metrics.get("integrator.step_ms_p50")
    corr = metrics.get("noise.correction_s")
    steps = metrics.get("integrator.steps")
    if step is None or corr is None or not steps:
        return {"available": False}
    share = corr / (steps * step / 1e3)
    same = (0.5 <= step / ROADMAP_D3["step_ms"] <= 2.0
            and abs(share - ROADMAP_D3["correction_share"]) <= 0.15)
    return {"step_ms_p50": step, "correction_share": share,
            "roadmap": ROADMAP_D3, "same_order": same}


def write_references() -> int:
    (BENCH / "reference").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as tmp:
        for name in WORKLOADS:
            sample, out = run_child(name, DEFAULT_SEED, Path(tmp), name, False, DEADLINE_S)
            if not sample.ok:
                print(f"{name}: {sample.problems}", file=sys.stderr)
                return 1
            shutil.copy(out / "report.json", BENCH / "reference" / f"{name}.json")
            print(f"{name}: reference written ({sample.result['run_s']:.2f} s)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite reference/<workload>.json at DEFAULT_SEED")
    args = parser.parse_args(argv)

    if not (SRC / "sllbar" / "cli.py").is_file():
        print(f"sllbar sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.write_reference:
        return write_references()
    if args.workload is None:
        parser.error("--workload is required")

    wl = WORKLOADS[args.workload]
    cfg = read_cfg(config_path(args.workload))
    steps = path_steps(wl.command, cfg)
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as tmp:
        samples = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                          Path(tmp))
        completed = [s for kind, s in samples if kind != "ref" and s.result]
        if not completed or (args.trace and not any(
                kind == "traced" and s.result for kind, s in samples)):
            print("no run completed:", [p for _, s in samples for p in s.problems],
                  file=sys.stderr)
            return 1
        if args.trace:
            metrics, info = per_layer(samples)
            units = {m.name: m.unit for m in METRICS + (OVERHEAD,)}
        else:
            metrics, info = end_to_end(samples, steps)
            units = UNITS

    failed = sum(1 for _, s in samples if not s.ok)
    env = environment()
    l2 = _size_bytes(env["caches"].get("L2"))
    fbytes = field_bytes(cfg)
    summary = {
        "workload": args.workload, "command": wl.command, "seed": args.seed,
        "path_steps": steps, "samples": len(samples), "fail_frac": failed / len(samples),
        "problems": [p for _, s in samples for p in s.problems],
        "field_bytes": fbytes, "field_over_l2": fbytes / l2 if l2 else None,
        "environment": env, **info,
    }
    if args.trace and args.workload == "simulate_d3_kernel":
        summary["roadmap_crosscheck"] = roadmap_crosscheck(metrics)
        if not summary["roadmap_crosscheck"].get("same_order"):
            print(f"roadmap cross-check differs: {summary['roadmap_crosscheck']}",
                  file=sys.stderr)
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
