"""One benchmark sample: a single ``sllbar.cli.run_command`` call.

``run.py`` starts this script in a fresh process, one at a time, with the
BLAS thread count fixed through the environment. The only argument is a
JSON object::

    {"command": ..., "config": ..., "seed": ..., "out": ..., "result": ...,
     "launched": <time.monotonic() just before the launch>, "spans": ...}

The child times its set-up (imports, ``parse_config``, ``build_noise``,
``build_initial``) from the launch, times the ``run_command`` call, and
writes both with its CPU time and peak RSS to ``result``. Just before and
just after the call it times :func:`calibrate`, a fixed loop that does not
touch ``sllbar``, so that ``run.py`` can take out the drift of the machine's
speed. When ``spans`` names a file, the layer tracer is installed before
set-up and its spans are written there after the run.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def calibrate(iterations: int = 8000) -> float:
    """Seconds for a fixed loop of small-array numpy work and Python calls.

    It resembles one small-grid step (small matmuls, pointwise products,
    interpreter overhead) and shares no code with the program, so its time
    tracks only how fast the machine runs at that moment.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 32))
    m = rng.standard_normal((32, 32)) / 32
    t0 = time.perf_counter()
    for _ in range(iterations):
        b = a @ m
        a = 0.999 * a + 1e-3 * np.tanh(b) + 1e-3 * (b[[1, 2, 0]] * a[[2, 0, 1]])
    return time.perf_counter() - t0


def main(spec: dict) -> int:
    tracer = None
    if spec["spans"]:
        from layertrace import Tracer

        tracer = Tracer().install()

    import sllbar.cli
    from sllbar import config

    cfg = config.parse_config(spec["config"])
    cfg.build_noise()
    cfg.build_initial()
    setup_s = time.monotonic() - spec["launched"]

    argv = [spec["command"], "--config", spec["config"],
            "--output-dir", spec["out"], "--seed", str(spec["seed"]), "--quiet"]
    cpu0 = time.process_time()
    cal_before = calibrate()
    cal_cpu = time.process_time() - cpu0
    t0 = time.perf_counter()
    code = sllbar.cli.run_command(argv)
    run_s = time.perf_counter() - t0
    cpu0 = time.process_time()
    cal_after = calibrate()
    cal_cpu += time.process_time() - cpu0
    usage = resource.getrusage(resource.RUSAGE_SELF)

    if tracer is not None:
        tracer.uninstall()
        tracer.dump(spec["spans"])
    with open(spec["result"], "w") as fh:
        json.dump({
            "exit_code": code,
            "setup_s": setup_s,
            "run_s": run_s,
            "cpu_s": usage.ru_utime + usage.ru_stime - cal_cpu,
            "cal_s": (cal_before + cal_after) / 2,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is KiB on Linux
        }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
