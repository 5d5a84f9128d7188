"""Per-layer tracing for the benchmark, applied from outside the package.

:class:`Tracer` replaces layer entry points of ``sllbar`` with timing
wrappers. A target is wrapped wherever a package module binds it, so a
function imported by name into another module (``sllbar.integrator.cross3``,
``sllbar.noise.analyze``) is traced at that call site too. Spans are kept in
memory as compact arrays and written out once, when the run ends.

:func:`layer_metrics` turns a span dump into the per-layer metrics listed in
:data:`METRICS`. A target the package no longer defines is reported as
missing, and every metric that reads it is left out instead of failing.
"""

from __future__ import annotations

import importlib
import os
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

MODULES = ("grid", "model", "noise", "integrator", "diagnostics", "ensemble",
           "config", "io", "cli")


def _module(name: str):
    try:
        return importlib.import_module(f"sllbar.{name}")
    except ImportError:
        return None


def _nbytes(args, out) -> float:
    """Computed bytes of one transform: input array plus output array(s)."""
    outs = out if isinstance(out, list) else [out]
    return float(args[1].nbytes + sum(o.nbytes for o in outs))


def _philox(args, out) -> float:
    """One Philox generator is built per call unless J is 0."""
    return 1.0 if len(out.values) else 0.0


def _file_size(args, out) -> float:
    return float(os.path.getsize(args[1]))


@dataclass(frozen=True)
class Target:
    module: str          # sllbar submodule that defines the function
    attr: str
    span: str            # span name; several targets may share one
    aux: Callable | None = None


TARGETS = (
    Target("cli", "run_command", "cli.run_command"),
    Target("config", "parse_config", "config.parse"),
    Target("config", "build_noise_modes", "config.build_noise"),
    Target("config", "build_initial", "config.build_initial"),
    Target("grid", "synthesize", "grid.synthesize", _nbytes),
    Target("grid", "analyze", "grid.analyze", _nbytes),
    Target("grid", "gradient_values", "grid.gradient", _nbytes),
    Target("grid", "cross3", "grid.cross3"),
    Target("model", "theta_R", "model.theta"),
    Target("noise", "_diffusion_coeffs", "noise.diffusion"),
    Target("noise", "_correction_coeffs", "noise.correction"),
    Target("noise", "coupled_increments", "noise.increment"),
    Target("noise", "sample_increments", "noise.philox", _philox),
    Target("integrator", "run_trajectory", "integrator.trajectory"),
    Target("integrator", "imex_em_step", "integrator.step"),
    Target("integrator", "heun_strat_step", "integrator.step"),
    Target("integrator", "_explicit_parts", "integrator.explicit"),
    Target("integrator", "_sample_norms", "integrator.norm_sample"),
    Target("diagnostics", "strong_convergence_gaps", "diagnostics.convergence"),
    Target("diagnostics", "refinement_gap", "diagnostics.refinement"),
    Target("ensemble", "run_ensemble", "ensemble.run"),
    Target("ensemble", "_run_one", "ensemble.path"),
    Target("ensemble", "moment_estimates", "ensemble.estimator"),
    Target("ensemble", "h2_time_average", "ensemble.estimator"),
    Target("ensemble", "invariant_average", "ensemble.estimator"),
    Target("ensemble", "tightness_statistic", "ensemble.estimator"),
    Target("io", "write_trajectory_csv", "io.write", _file_size),
    Target("io", "write_ensemble_csv", "io.write", _file_size),
    Target("io", "write_observables_csv", "io.write", _file_size),
    Target("io", "write_residual_csv", "io.write", _file_size),
    Target("io", "write_report_json", "io.write", _file_size),
    Target("io", "write_snapshot", "io.write", _file_size),
)


class Tracer:
    """Records one span per call of each wrapped target.

    A span is (name id, parent span, start, end, aux); ``aux`` carries a
    per-call quantity such as computed bytes. Diffusion spans also record
    whether their (step, state, mode) was already built in that step, which
    gives the share of diffusion evaluations that were needed.
    """

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.missing: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.aux = array("d")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []
        self._diffusion_seen: set[tuple[int, int, int]] = set()

    def _name_id(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        return self._ids[span]

    def _innermost_step(self) -> int:
        step_id = self._ids.get("integrator.step", -2)
        for i in reversed(self._stack):
            if i >= 0 and self.name[i] == step_id:
                return i
        return -1

    def _diffusion_aux(self):
        def aux(args, out) -> float:
            key = (self._innermost_step(), id(args[1]), int(args[3]))
            if key in self._diffusion_seen:
                return 0.0
            self._diffusion_seen.add(key)
            return 1.0
        return aux

    def _wrap(self, fn, name_id: int, aux):
        clock = time.perf_counter
        stack = self._stack
        name, parent, start, end, aux_col = (
            self.name, self.parent, self.start, self.end, self.aux)

        def traced(*args, **kwargs):
            i = len(start)
            name.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            aux_col.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if aux is not None:
                aux_col[i] = aux(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> "Tracer":
        """Wrap every target at each of its bindings in the package."""
        import sllbar  # noqa: F401  (imports every submodule)

        modules = [m for m in map(_module, MODULES) if m is not None]
        for t in self.targets:
            original = getattr(_module(t.module), t.attr, None)
            if not callable(original):
                self.missing.append(f"{t.module}.{t.attr}")
                continue
            aux = t.aux
            if t.span == "noise.diffusion":
                aux = self._diffusion_aux()
            wrapped = self._wrap(original, self._name_id(t.span), aux)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, original))
        return self

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()

    def spans(self) -> dict:
        return {
            "names": list(self.names),
            "missing": list(self.missing),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "aux": np.frombuffer(self.aux, dtype=np.float64).copy(),
        }

    def dump(self, path) -> None:
        s = self.spans()
        np.savez(path, names=np.array(s["names"], dtype=str),
                 missing=np.array(s["missing"], dtype=str),
                 **{k: s[k] for k in ("name", "parent", "start", "end", "aux")})


def load_spans(path) -> dict:
    with np.load(path, allow_pickle=False) as z:
        out = {k: z[k] for k in ("name", "parent", "start", "end", "aux")}
        out["names"] = [str(n) for n in z["names"]]
        out["missing"] = [str(m) for m in z["missing"]]
    return out


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    spans: tuple[str, ...]   # span names the metric reads; absent if any is


METRICS = (
    Metric("grid.synthesize_calls", "count", "lower", ("grid.synthesize",)),
    Metric("grid.analyze_calls", "count", "lower", ("grid.analyze",)),
    Metric("grid.gradient_calls", "count", "lower", ("grid.gradient",)),
    Metric("grid.synthesize_per_step", "count/step", "lower",
           ("grid.synthesize", "integrator.step")),
    Metric("grid.analyze_per_step", "count/step", "lower",
           ("grid.analyze", "integrator.step")),
    Metric("grid.transforms_per_step", "count/step", "lower",
           ("grid.synthesize", "grid.analyze", "grid.gradient", "integrator.step")),
    Metric("grid.transform_s", "s", "lower",
           ("grid.synthesize", "grid.analyze", "grid.gradient")),
    Metric("grid.transform_bytes", "B_computed", "lower",
           ("grid.synthesize", "grid.analyze", "grid.gradient")),
    Metric("grid.cross3_calls", "count", "lower", ("grid.cross3",)),
    Metric("grid.cross3_per_step", "count/step", "lower",
           ("grid.cross3", "integrator.step")),
    Metric("grid.cross3_s", "s", "lower", ("grid.cross3",)),
    Metric("model.theta_calls", "count", "lower", ("model.theta",)),
    Metric("model.theta_s", "s", "lower", ("model.theta",)),
    Metric("noise.diffusion_calls", "count", "lower", ("noise.diffusion",)),
    Metric("noise.diffusion_per_step", "count/step", "lower",
           ("noise.diffusion", "integrator.step")),
    Metric("noise.diffusion_s", "s", "lower", ("noise.diffusion",)),
    Metric("noise.diffusion_useful_frac", "fraction", "higher",
           ("noise.diffusion",)),
    Metric("noise.correction_calls", "count", "lower", ("noise.correction",)),
    Metric("noise.correction_s", "s", "lower", ("noise.correction",)),
    Metric("noise.increment_calls", "count", "lower", ("noise.increment",)),
    Metric("noise.philox_draws", "count", "lower", ("noise.philox",)),
    Metric("noise.philox_per_step", "count/step", "lower",
           ("noise.philox", "integrator.step")),
    Metric("noise.increment_s", "s", "lower", ("noise.increment", "noise.philox")),
    Metric("integrator.steps", "count", "higher", ("integrator.step",)),
    Metric("integrator.step_s", "s", "lower",
           ("integrator.step", "integrator.explicit")),
    Metric("integrator.step_ms_p50", "ms", "lower", ("integrator.step",)),
    Metric("integrator.step_ms_p99", "ms", "lower", ("integrator.step",)),
    Metric("integrator.norm_sample_s", "s", "lower", ("integrator.norm_sample",)),
    Metric("integrator.loop_self_s", "s", "lower", ("integrator.trajectory",)),
    Metric("diagnostics.convergence_s", "s", "lower", ("diagnostics.convergence",)),
    Metric("diagnostics.refinement_s", "s", "lower", ("diagnostics.refinement",)),
    Metric("diagnostics.self_s", "s", "lower",
           ("diagnostics.convergence", "diagnostics.refinement")),
    Metric("ensemble.paths", "count", "higher", ("ensemble.path",)),
    Metric("ensemble.aggregate_s", "s", "lower", ("ensemble.run", "ensemble.path")),
    Metric("ensemble.estimator_s", "s", "lower", ("ensemble.estimator",)),
    Metric("config.parse_s", "s", "lower", ("config.parse",)),
    Metric("config.build_noise_s", "s", "lower", ("config.build_noise",)),
    Metric("config.build_initial_s", "s", "lower", ("config.build_initial",)),
    Metric("io.write_s", "s", "lower", ("io.write",)),
    Metric("io.bytes_written", "B", "lower", ("io.write",)),
    Metric("io.files", "count", "lower", ("io.write",)),
    Metric("cli.run_s", "s", "lower", ("cli.run_command",)),
    Metric("cli.self_s", "s", "lower", ("cli.run_command",)),
)

# Computed by the benchmark from a traced and an untraced run, not from spans.
OVERHEAD = Metric("trace.overhead_frac", "fraction", "lower", ())


def layer_metrics(spans: dict) -> dict[str, float]:
    """Per-layer metrics from one span dump; see :data:`METRICS`.

    Self time is a span's duration minus the durations of its direct child
    spans (calls are synchronous, so children never overlap). "Per step"
    counts only the calls made inside a step span. Metrics that read a
    target the tracer could not find are omitted.
    """
    names = spans["names"]
    ids = {n: i for i, n in enumerate(names)}
    name, parent = spans["name"], spans["parent"]
    dur = spans["end"] - spans["start"]
    aux = spans["aux"]

    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child

    # spans are numbered in call order, so a parent always precedes its child
    step_id = ids.get("integrator.step", -2)
    in_step = np.zeros(len(name), dtype=bool)
    for i in range(len(name)):
        p = parent[i]
        in_step[i] = name[i] == step_id or (p >= 0 and in_step[p])

    def mask(*span_names):
        m = np.zeros(len(name), dtype=bool)
        for n in span_names:
            if n in ids:
                m |= name == ids[n]
        return m

    def count(*span_names):
        return int(mask(*span_names).sum())

    def total(*span_names):
        return float(dur[mask(*span_names)].sum())

    def self_total(*span_names):
        return float(self_t[mask(*span_names)].sum())

    steps = count("integrator.step")

    def per_step(*span_names):
        return float((mask(*span_names) & in_step).sum()) / steps if steps else 0.0

    step_ms = dur[mask("integrator.step")] * 1e3
    transforms = ("grid.synthesize", "grid.analyze", "grid.gradient")
    diffusion = count("noise.diffusion")
    # sample_increments is also counted when it is called on its own
    philox = mask("noise.philox")
    outer_philox = philox & ~np.isin(parent, np.flatnonzero(mask("noise.increment")))

    values = {
        "grid.synthesize_calls": count("grid.synthesize"),
        "grid.analyze_calls": count("grid.analyze"),
        "grid.gradient_calls": count("grid.gradient"),
        "grid.synthesize_per_step": per_step("grid.synthesize"),
        "grid.analyze_per_step": per_step("grid.analyze"),
        "grid.transforms_per_step": per_step(*transforms),
        "grid.transform_s": total(*transforms),
        "grid.transform_bytes": float(aux[mask(*transforms)].sum()),
        "grid.cross3_calls": count("grid.cross3"),
        "grid.cross3_per_step": per_step("grid.cross3"),
        "grid.cross3_s": total("grid.cross3"),
        "model.theta_calls": count("model.theta"),
        "model.theta_s": total("model.theta"),
        "noise.diffusion_calls": diffusion,
        "noise.diffusion_per_step": per_step("noise.diffusion"),
        "noise.diffusion_s": total("noise.diffusion"),
        "noise.diffusion_useful_frac":
            float(aux[mask("noise.diffusion")].sum()) / diffusion if diffusion else 0.0,
        "noise.correction_calls": count("noise.correction"),
        "noise.correction_s": total("noise.correction"),
        "noise.increment_calls": count("noise.increment"),
        "noise.philox_draws": int(aux[philox].sum()),
        "noise.philox_per_step": float(aux[philox].sum()) / steps if steps else 0.0,
        "noise.increment_s": total("noise.increment") + float(dur[outer_philox].sum()),
        "integrator.steps": steps,
        "integrator.step_s": self_total("integrator.step", "integrator.explicit"),
        "integrator.step_ms_p50": float(np.percentile(step_ms, 50)) if steps else 0.0,
        "integrator.step_ms_p99": float(np.percentile(step_ms, 99)) if steps else 0.0,
        "integrator.norm_sample_s": total("integrator.norm_sample"),
        "integrator.loop_self_s": self_total("integrator.trajectory"),
        "diagnostics.convergence_s": total("diagnostics.convergence"),
        "diagnostics.refinement_s": total("diagnostics.refinement"),
        "diagnostics.self_s": self_total("diagnostics.convergence",
                                         "diagnostics.refinement"),
        "ensemble.paths": count("ensemble.path"),
        "ensemble.aggregate_s": self_total("ensemble.run", "ensemble.path"),
        "ensemble.estimator_s": total("ensemble.estimator"),
        "config.parse_s": total("config.parse"),
        "config.build_noise_s": total("config.build_noise"),
        "config.build_initial_s": total("config.build_initial"),
        "io.write_s": total("io.write"),
        "io.bytes_written": float(aux[mask("io.write")].sum()),
        "io.files": count("io.write"),
        "cli.run_s": total("cli.run_command"),
        "cli.self_s": self_total("cli.run_command"),
    }
    return {m.name: values[m.name] for m in METRICS
            if all(s in ids for s in m.spans)}
