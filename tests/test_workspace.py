"""A run's step kernel owns its padded-grid buffers: a warm step allocates
no padded-grid array, returns arrays that no later call overwrites, gives the
same bits in any thread, and its buffers are freed with the kernel."""

import math
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from sllbar.grid import (
    Grid,
    Workspace,
    analyze,
    gradient_values,
    l4_norm,
    quad_weight,
    random_field,
    synthesize,
)
from sllbar.integrator import StepKernel, _explicit_parts, _sample_norms
from sllbar.model import ModelParams, TruncationConfig, precession, truncation_scale
from sllbar.noise import NoiseModel, _operator_parts, build_noise_modes

PARAMS = ModelParams(0.5, 1.0, 1.0, 1.0, 1.0)
TRUNC = TruncationConfig.on(0.5)


def two_mode_noise(grid):
    return build_noise_modes(
        {"family": "eigenmode", "modes": [
            {"sigma": 0.1, "index": (1,) + (0,) * (grid.dim - 1),
             "direction": (1.0, 0.0, 0.0)},
            {"sigma": 0.1, "index": (0,) * (grid.dim - 1) + (2,),
             "direction": (0.0, 1.0, 1.0)},
        ]},
        grid,
    )


def state(grid, seed):
    return random_field(grid, np.random.default_rng(seed), amplitude=0.3)


def kernel(noise, scheme="imex_em_ito"):
    # the explicit biharmonic of heun_strat needs a far smaller step
    dt = 1e-3 if scheme == "imex_em_ito" else 1e-5
    return StepKernel(PARAMS, noise, TRUNC, dt, scheme)


def steps(coeffs, kern, n):
    rng = np.random.default_rng(11)
    for _ in range(n):
        dW = rng.standard_normal(kern.noise.J) * np.sqrt(kern.dt)
        coeffs = kern.stepper(kern, coeffs, dW)
    return coeffs


def test_warm_step_allocates_less_than_one_padded_field():
    # one padded field (64^2 or 16^3 nodes) dwarfs the (3, 8, 8) and
    # (3, 4, 4, 4) coefficient arrays; a recorded step also samples the norms
    field_bytes = 98_304
    for grid in (Grid(2, (np.pi, np.pi), (8, 8), pad_factor=8),
                 Grid(3, (np.pi, 1.0, 2.5), (4, 4, 4), pad_factor=4)):
        assert np.empty((3, *grid.padded)).nbytes == field_bytes
        kern = kernel(two_mode_noise(grid))  # built before tracing starts
        coeffs = state(grid, 1)
        steps(coeffs, kern, 1)  # warm the caches
        tracemalloc.start()
        try:
            steps(coeffs, kern, 1)
            _sample_norms(kern, coeffs, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < field_bytes, grid.dim


@pytest.mark.parametrize("include_correction", [True, False])
def test_returned_arrays_survive_the_next_call(include_correction):
    grid = Grid(3, (np.pi, 1.0, 2.5), (5, 3, 4))
    noise = two_mode_noise(grid)
    dW = np.array([0.03, -0.02])
    ws = Workspace(grid)
    terms, inc = _explicit_parts(state(grid, 1), grid, PARAMS, noise, TRUNC, ws,
                                 include_correction, dW)
    kept = ({k: v.copy() for k, v in terms.items()}, inc.copy())
    _explicit_parts(state(grid, 2), grid, PARAMS, noise, TRUNC, ws,
                    include_correction, dW)
    assert terms.keys() == kept[0].keys()
    for name, arr in terms.items():
        assert np.array_equal(arr, kept[0][name]), name
    assert np.array_equal(inc, kept[1])


def test_warm_step_peak_does_not_grow_with_the_mode_count():
    # one increment replaces the J per-mode G_j arrays: J = 1, J = 8 (G = 8 =
    # 2^3 distinct k, a noise stack that fits the head of ws.vals) and J = 12
    # (G = 12, run through that head in two chunks) differ by less than one
    # coefficient array in a warm d = 3 IMEX step
    grid = Grid(3, (np.pi, 1.0, 2.5), (8, 8, 8), pad_factor=2)
    coeffs = state(grid, 13)
    peaks = []
    for J in (1, 8, 12):
        noise = build_noise_modes({"family": "eigenmode", "modes": [
            {"sigma": 0.1, "index": (j % 3, j // 3, 1), "direction": (1.0, j, 0.5)}
            for j in range(J)]}, grid)
        kern = kernel(noise)  # built before tracing starts
        steps(coeffs, kern, 1)  # warm the caches
        tracemalloc.start()
        try:
            steps(coeffs, kern, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert max(peaks) - min(peaks) < coeffs.nbytes, peaks


@pytest.mark.parametrize("grid", [Grid(1, (np.pi,), (9,)),
                                  Grid(3, (np.pi, 1.0, 2.5), (5, 3, 4))],
                         ids=["d1", "d3"])
def test_transforms_without_out_return_fresh_arrays(grid):
    coeffs = state(grid, 3)
    a, b = synthesize(grid, coeffs), synthesize(grid, coeffs)
    assert not np.may_share_memory(a, b)
    assert np.array_equal(a, b)
    assert not np.may_share_memory(analyze(grid, a), analyze(grid, b))
    for ga, gb in zip(gradient_values(grid, coeffs), gradient_values(grid, coeffs)):
        assert not np.may_share_memory(ga, gb)


def test_synthesize_into_out_matches_fresh():
    grid = Grid(3, (np.pi, 1.0, 2.5), (5, 3, 4))
    coeffs = state(grid, 4)
    out = np.empty((3, *grid.padded))
    assert synthesize(grid, coeffs, out=out) is out
    assert np.array_equal(out, synthesize(grid, coeffs))


@pytest.mark.parametrize("out", [np.empty((3, 10, 6, 7)),
                                 np.empty((3, 10, 6, 8), dtype=np.float32),
                                 np.empty((3, 10, 6, 16))[..., ::2]],
                         ids=["shape", "dtype", "strided"])
def test_synthesize_rejects_unusable_out(out):
    grid = Grid(3, (np.pi, 1.0, 2.5), (5, 3, 4))
    with pytest.raises(ValueError, match="synthesize out"):
        synthesize(grid, state(grid, 5), out=out)


@pytest.mark.parametrize("scheme", ["imex_em_ito", "heun_strat"],
                         ids=["imex", "heun"])
def test_step_does_not_depend_on_earlier_steps(scheme):
    grid = Grid(2, (np.pi, 2.0), (6, 5))
    kern = kernel(two_mode_noise(grid), scheme)
    first = steps(state(grid, 6), kern, 3)
    assert np.isfinite(first).all()
    steps(state(grid, 7), kern, 2)  # dirties the workspace
    assert np.array_equal(first, steps(state(grid, 6), kern, 3))


@pytest.mark.parametrize("scheme", ["imex_em_ito", "heun_strat"],
                         ids=["imex", "heun"])
def test_threads_match_serial_steps(scheme):
    grid = Grid(2, (np.pi, 2.0), (8, 6))
    noise = two_mode_noise(grid)
    starts = [state(grid, 8), state(grid, 9)]
    serial = [steps(c, kernel(noise, scheme), 20) for c in starts]
    assert all(np.isfinite(c).all() for c in serial)
    results = [None, None]
    barrier = threading.Barrier(2)

    def run(i):
        kern = kernel(noise, scheme)  # one kernel per thread
        barrier.wait()
        results[i] = steps(starts[i], kern, 20)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for got, ref in zip(results, serial):
        assert got.tobytes() == ref.tobytes()


def test_kernel_workspace_is_freed_with_the_kernel():
    grid = Grid(2, (np.pi, 2.0), (8, 6))
    kern = kernel(two_mode_noise(grid))
    steps(state(grid, 10), kern, 2)
    ws = weakref.ref(kern.ws)
    assert ws().vals.shape == ws().lap.shape == ws().prod.shape == (3, 16, 12)
    del kern
    assert ws() is None


def test_kernels_on_equal_grids_share_no_buffer():
    noise = two_mode_noise(Grid(2, (np.pi, 2.0), (8, 6)))
    kernels = [kernel(noise), kernel(noise),
               kernel(two_mode_noise(Grid(2, (np.pi, 2.0), (8, 6))))]
    assert kernels[0].grid == kernels[2].grid and kernels[0].grid is not kernels[2].grid
    buffers = [arr for k in kernels for arr in (k.ws.vals, k.ws.lap, k.ws.prod)]
    for i, a in enumerate(buffers):
        for b in buffers[i + 1:]:
            assert not np.may_share_memory(a, b)
    # the 3/2-grid arrays: distinct from each other and from every other
    # kernel's buffers, each the head of one of its own kernel's three
    for i, k in enumerate(kernels):
        assert [q.shape for q in k.ws.quadratic] == [(3, 12, 9)] * 3
        own = (k.ws.vals, k.ws.lap, k.ws.prod)
        for q, base in zip(k.ws.quadratic, own):
            assert np.may_share_memory(q, base)
            assert q.__array_interface__["data"] == base.__array_interface__["data"]
        others = [b for j, o in enumerate(kernels) if j != i
                  for b in (o.ws.vals, o.ws.lap, o.ws.prod, *o.ws.quadratic)]
        for q in k.ws.quadratic:
            assert not any(np.may_share_memory(q, b) for b in others)
            assert sum(np.may_share_memory(q, b) for b in k.ws.quadratic) == 1


def test_workspace_below_pad_1_5_allocates_its_3_2_grid_arrays():
    """At pad factor 1 (a library grid; a run and ``drift_terms`` reject it) the
    3/2-grid arrays do not fit in the run grid's buffers, so they are fresh,
    and the assembled precession is still the exact one of the pad-2 grid on
    the same modes."""
    grid = Grid(2, (np.pi, 2.0), (6, 5), pad_factor=1)
    ws = Workspace(grid)
    assert [q.shape for q in ws.quadratic] == [(3, 9, 8)] * 3
    assert all(q.flags.owndata for q in ws.quadratic)
    u = state(grid, 14)
    terms, _ = _explicit_parts(u, grid, PARAMS, NoiseModel.empty(grid), TRUNC, ws,
                               False)
    ref = -PARAMS.beta4 * precession(Grid(2, grid.lengths, grid.modes), u)
    assert np.abs(terms["precession"] - ref).max() <= 1e-13 * np.abs(ref).max()


# unequal modes, so no axis can stand in for another
D2_D3 = pytest.mark.parametrize("grid", [Grid(2, (np.pi, 2.0), (6, 5)),
                                         Grid(3, (np.pi, 1.0, 2.5), (5, 3, 4))],
                                ids=["d2", "d3"])


def out_of_place_mag2(grid, u):
    """|u|^2 of u's fresh run-grid values, summed by one ``np.add.reduce``."""
    vals = synthesize(grid, u)
    return vals, np.add.reduce(vals * vals, axis=0)


@D2_D3
def test_in_place_cubic_is_bitwise_the_out_of_place_one(grid):
    """At d >= 2 the cubic is formed over u's own values, with |u|^2 summed
    row by row; the terms that read it keep the bits of fresh arrays."""
    kern = kernel(two_mode_noise(grid))
    u = state(grid, 15)
    kern.parts(state(grid, 16), True, np.array([0.03, -0.02]))  # dirties ws
    terms, _ = kern.parts(u, True, np.array([0.03, -0.02]))
    vals, mag2 = out_of_place_mag2(grid, u)
    cubic = analyze(grid, vals * mag2)
    theta = truncation_scale(grid, u, TRUNC)
    penalty = PARAMS.beta3 * (u - cubic)
    nonlocal_ = (PARAMS.beta5 * theta) * grid._neg_eigenvalues * cubic
    assert terms["penalty"].tobytes() == penalty.tobytes()
    assert terms["nonlocal"].tobytes() == nonlocal_.tobytes()


@D2_D3
def test_l4_norm_sums_rows_and_keeps_the_values(grid):
    ws = Workspace(grid)
    u = state(grid, 17)
    vals, mag2 = out_of_place_mag2(grid, u)
    ref = float((mag2 * mag2).sum() * quad_weight(grid)) ** 0.25
    assert l4_norm(grid, u, ws) == ref
    assert ws.vals.tobytes() == vals.tobytes()  # energy_balance_l2 reads them


SENTINEL = -7.25
D3_SENTINEL_GRID = Grid(3, (np.pi, 1.0, 2.5), (5, 3, 4))


def sentinel_step_and_sample(noise):
    """A warm d = 3 step and a recorded sample after ``prod``, ``lap`` and the
    spare rows 3-4 of ``vals`` are filled with a sentinel; returns the kernel
    and the number of 3/2-grid values, their head."""
    grid = noise.grid
    kern = kernel(noise)
    u = steps(state(grid, 18), kern, 1)  # warm
    kern.ws.prod.fill(SENTINEL)
    kern.ws.lap.fill(SENTINEL)
    kern.ws.vals.base[3:] = SENTINEL
    steps(u, kern, 1)
    _sample_norms(kern, u, 1.0)
    return kern, math.prod(grid.quadratic_grid.values_shape)


def test_d3_step_and_sample_write_no_buffer_past_its_3_2_grid_head():
    """A warm d = 3 step and a recorded sample write ``prod`` and ``lap`` only
    where the 3/2-grid arrays lie: |u|^2 takes ``lap[0]`` and one row of
    ``prod`` as scratch, and the cubic overwrites u's values. The noise's
    stack takes the head of ``vals``, never its spare rows 3-4."""
    kern, head = sentinel_step_and_sample(two_mode_noise(D3_SENTINEL_GRID))
    for buf in (kern.ws.prod, kern.ws.lap):
        tail = buf.reshape(-1)[head:]
        assert tail.size and (tail == SENTINEL).all()
    assert (kern.ws.prod.reshape(-1)[:head] != SENTINEL).any()
    assert (kern.ws.vals.base[3:] == SENTINEL).all()


def test_d3_noise_stack_stays_in_the_3_used_rows_of_vals():
    """G = 10 > 2^3 groups do not fit the 3 rows of ``vals`` that u's values
    use, though they would fit all 5: they go through those 3 rows in chunks,
    and the spare rows 3-4 keep the sentinel."""
    grid = D3_SENTINEL_GRID
    noise = build_noise_modes({"family": "eigenmode", "modes": [
        {"sigma": 0.1, "index": k, "direction": (1.0, 0.5, -0.5)}
        for k in list(np.ndindex(grid.modes))[:10]]}, grid)
    stack_size = len(noise._plan[3]) * math.prod(grid.field_shape)
    assert Workspace(grid).vals.size < stack_size < Workspace(grid).vals.base.size
    kern, _ = sentinel_step_and_sample(noise)
    assert (kern.ws.vals.base[3:] == SENTINEL).all()


def test_warm_noise_parts_keep_their_stack_in_the_workspace():
    """At d = 3, N = 16 and G = 8 = 2^3 the ``(G, 3, *modes)`` stack (768 KB) is
    the head of ``ws.vals`` and the other passes go into ``ws.lap`` and
    ``ws.prod``: a warm ``_operator_parts`` call allocates only its two results,
    below half the stack, where a fresh workspace peaks above it."""
    grid = Grid(3, (np.pi,) * 3, (16,) * 3)
    noise = build_noise_modes({"family": "eigenmode", "modes": [
        {"sigma": 0.1, "index": k, "direction": (1.0, 0.5, -0.5)}
        for k in np.ndindex(2, 2, 2)]}, grid)
    ws, u, dW = Workspace(grid), state(grid, 19), np.full(noise.J, 0.01)
    stack_bytes = len(noise._plan[3]) * u.nbytes
    assert len(noise._plan[3]) == 8 and stack_bytes == ws.vals.nbytes
    peaks = []
    for workspace in (ws, None):
        _operator_parts(noise, u, dW, True, workspace)  # warm the plan
        tracemalloc.start()
        try:
            _operator_parts(noise, u, dW, True, workspace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert 2 * u.nbytes <= peaks[0] < 2.5 * u.nbytes, peaks
    assert peaks[0] < stack_bytes / 2 < stack_bytes < peaks[1], peaks


def test_grid_hash_is_stable_and_matches_equality():
    a = Grid(3, (np.pi, 1.0, 2.5), (5, 3, 4))
    b = Grid(3, (np.pi, 1, 2.5), (5, 3, 4), pad_factor=2)
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash(a) and a != a.with_modes((5, 3, 3))


def test_grid_comparisons_do_not_grow_with_steps(monkeypatch):
    # u0 built on grid a; the noise, and so the kernel, on a distinct grid b
    # equal to a, so a per-step constant looked up by Grid would compare b with a
    a = Grid(1, (np.pi,), (16,))
    coeffs = state(a, 12)
    eq_calls = []
    dataclass_eq = Grid.__eq__

    def counting_eq(self, other):
        eq_calls.append(1)
        return dataclass_eq(self, other)

    monkeypatch.setattr(Grid, "__eq__", counting_eq)
    counts = []
    for n in (5, 20):
        b = Grid(1, (np.pi,), (16,))
        assert b == a and b is not a
        kern = kernel(two_mode_noise(b))
        eq_calls.clear()
        assert np.isfinite(steps(coeffs, kern, n)).all()
        counts.append(len(eq_calls))
    assert counts[0] == counts[1]


def test_model_params_equality_and_hash_agree():
    p = ModelParams(0.5, 1.0, 1.0, 1.0, 1.0)
    q = ModelParams(0.5, 1, 1, 1.0, 1)
    r = ModelParams(0.5, 1.0, 1.0, 1.0, 2.0)
    assert p == q and hash(p) == hash(q) and p is not q
    assert p != r and hash(p) == hash(p)
    assert {p: "divisor"}[q] == "divisor" and r not in {p: "divisor"}
