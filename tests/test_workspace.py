"""The time step reuses per-grid padded-grid buffers: it allocates no
padded-grid array, returns arrays that no later call overwrites, and gives
the same bits in any thread."""

import threading
import tracemalloc

import numpy as np
import pytest

from sllbar.grid import (
    Grid,
    analyze,
    gradient_values,
    random_field,
    synthesize,
    workspace,
)
from sllbar.integrator import (
    _explicit_parts,
    _sample_norms,
    heun_strat_step,
    imex_em_step,
)
from sllbar.model import ModelParams, TruncationConfig
from sllbar.noise import build_noise_modes

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


def steps(coeffs, grid, noise, scheme, n):
    # the explicit biharmonic of heun_strat needs a far smaller step
    dt = 1e-3 if scheme is imex_em_step else 1e-5
    rng = np.random.default_rng(11)
    for _ in range(n):
        dW = rng.standard_normal(noise.J) * np.sqrt(dt)
        coeffs = scheme(coeffs, grid, PARAMS, noise, TRUNC, dW, dt)
    return coeffs


def test_warm_step_allocates_less_than_one_padded_field():
    # one padded field (64^2 or 16^3 nodes) dwarfs the (3, 8, 8) and
    # (3, 4, 4, 4) coefficient arrays; a recorded step also samples the norms
    field_bytes = 98_304
    for grid in (Grid(2, (np.pi, np.pi), (8, 8), pad_factor=8),
                 Grid(3, (np.pi, 1.0, 2.5), (4, 4, 4), pad_factor=4)):
        assert np.empty((3, *grid.padded)).nbytes == field_bytes
        noise = two_mode_noise(grid)
        coeffs = state(grid, 1)
        steps(coeffs, grid, noise, imex_em_step, 1)  # warm the caches and buffers
        tracemalloc.start()
        try:
            steps(coeffs, grid, noise, imex_em_step, 1)
            _sample_norms(grid, coeffs, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < field_bytes, grid.dim


def test_square_passes_copy_no_buffer():
    # at pad_factor 1 every pass keeps its input's size, as the noise
    # operators' passes do at any pad factor; a pass that wrote the buffer it
    # reads would make matmul copy its input
    grid = Grid(3, (np.pi, 1.0, 2.5), (8, 8, 8), pad_factor=1)
    coeffs = state(grid, 2)
    out = np.empty((3, *grid.padded))
    synthesize(grid, coeffs, out=out)  # warm the pass buffers
    tracemalloc.start()
    try:
        synthesize(grid, coeffs, out=out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out.nbytes


@pytest.mark.parametrize("include_correction", [True, False])
def test_returned_arrays_survive_the_next_call(include_correction):
    grid = Grid(3, (np.pi, 1.0, 2.5), (5, 3, 4))
    noise = two_mode_noise(grid)
    terms, Gs = _explicit_parts(state(grid, 1), grid, PARAMS, noise, TRUNC,
                                include_correction)
    kept = ({k: v.copy() for k, v in terms.items()}, [G.copy() for G in Gs])
    _explicit_parts(state(grid, 2), grid, PARAMS, noise, TRUNC,
                    include_correction)
    assert terms.keys() == kept[0].keys()
    for name, arr in terms.items():
        assert np.array_equal(arr, kept[0][name]), name
    for G, G_kept in zip(Gs, kept[1]):
        assert np.array_equal(G, G_kept)


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


@pytest.mark.parametrize("scheme", [imex_em_step, heun_strat_step],
                         ids=["imex", "heun"])
def test_step_does_not_depend_on_earlier_steps(scheme):
    grid = Grid(2, (np.pi, 2.0), (6, 5))
    noise = two_mode_noise(grid)
    first = steps(state(grid, 6), grid, noise, scheme, 3)
    assert np.isfinite(first).all()
    steps(state(grid, 7), grid, noise, scheme, 2)  # dirties the workspace
    assert np.array_equal(first, steps(state(grid, 6), grid, noise, scheme, 3))


@pytest.mark.parametrize("scheme", [imex_em_step, heun_strat_step],
                         ids=["imex", "heun"])
def test_threads_match_serial_steps(scheme):
    grid = Grid(2, (np.pi, 2.0), (8, 6))
    noise = two_mode_noise(grid)
    starts = [state(grid, 8), state(grid, 9)]
    serial = [steps(c, grid, noise, scheme, 20) for c in starts]
    assert all(np.isfinite(c).all() for c in serial)
    results = [None, None]
    barrier = threading.Barrier(2)

    def run(i):
        barrier.wait()
        results[i] = steps(starts[i], grid, noise, scheme, 20)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for got, ref in zip(results, serial):
        assert got.tobytes() == ref.tobytes()


def test_workspace_is_per_thread_and_per_grid():
    grid = Grid(2, (np.pi, 2.0), (8, 6))
    ws = workspace(grid)
    assert workspace(Grid(2, (np.pi, 2.0), (8, 6))) is ws
    assert workspace(grid.with_modes((8, 5))) is not ws
    assert ws.vals.shape == ws.lap.shape == ws.prod.shape == (3, 16, 12)
    assert ws.mag2.shape == (16, 12)
    other = []
    t = threading.Thread(target=lambda: other.append(workspace(grid)))
    t.start()
    t.join()
    assert other[0] is not ws


def test_grid_hash_is_stable_and_matches_equality():
    a = Grid(3, (np.pi, 1.0, 2.5), (5, 3, 4))
    b = Grid(3, (np.pi, 1, 2.5), (5, 3, 4), pad_factor=2)
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash(a) and a != a.with_modes((5, 3, 3))


def test_grid_comparisons_do_not_grow_with_steps(monkeypatch):
    # noise and u0 built on grid a; a distinct grid b equal to a does the steps,
    # so a per-step constant looked up by Grid would compare b with a each time
    a = Grid(1, (np.pi,), (16,))
    noise = two_mode_noise(a)
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
        eq_calls.clear()
        assert np.isfinite(steps(coeffs, b, noise, imex_em_step, n)).all()
        counts.append(len(eq_calls))
    assert counts[0] == counts[1]


def test_model_params_equality_and_hash_agree():
    p = ModelParams(0.5, 1.0, 1.0, 1.0, 1.0)
    q = ModelParams(0.5, 1, 1, 1.0, 1)
    r = ModelParams(0.5, 1.0, 1.0, 1.0, 2.0)
    assert p == q and hash(p) == hash(q) and p is not q
    assert p != r and hash(p) == hash(p)
    assert {p: "divisor"}[q] == "divisor" and r not in {p: "divisor"}
