"""Every function ``bench/layertrace.py`` wraps still exists, under the
parameter names its per-call readers index.

The tracer reports a target it cannot find as missing and drops every metric
that reads it, so a renamed function would silently lose its per-layer
numbers. Imports the tracer unchanged, as ``test_bench_reference`` imports
``bench/run.py``.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import layertrace  # noqa: E402

# the positions the aux readers index: args[1] of the transforms and the
# writers, and args[1] and args[3] of the diffusion coefficients
INDEXED = {
    "synthesize": {1: "coeffs"},
    "analyze": {1: "values"},
    "gradient_values": {1: "coeffs"},
    "_diffusion_coeffs": {1: "u_vals", 3: "j"},
    **{t.attr: {1: "path"} for t in layertrace.TARGETS if t.module == "io"},
}


def resolve(target):
    return getattr(importlib.import_module(f"sllbar.{target.module}"), target.attr, None)


def test_every_target_resolves():
    assert len(layertrace.TARGETS) == 32
    missing = [f"{t.module}.{t.attr}" for t in layertrace.TARGETS
               if not callable(resolve(t))]
    assert missing == []


@pytest.mark.parametrize("attr", sorted(INDEXED))
def test_indexed_parameters_keep_their_names(attr):
    (target,) = [t for t in layertrace.TARGETS if t.attr == attr]
    params = list(inspect.signature(resolve(target)).parameters)
    assert {i: params[i] for i in INDEXED[attr]} == INDEXED[attr]


def test_the_table_covers_every_reader_of_args():
    readers = {t.attr for t in layertrace.TARGETS
               if t.aux in (layertrace._nbytes, layertrace._file_size)
               or t.span == "noise.diffusion"}
    assert readers == set(INDEXED)
