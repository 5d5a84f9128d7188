"""``grid.cross3`` against the body it replaced: the same bits from the same
six multiplies and three subtractions, in the row-wise and the cyclic form,
and the same checks on its operands and ``out``. Its operands share one
shape: a ``(3, ...)`` and a cyclic ``(5, ...)`` operand are rejected."""

import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sllbar.grid
import sllbar.integrator
import sllbar.noise
from sllbar.config import parse_config
from sllbar.grid import cross3
from sllbar.integrator import run_trajectory


def cross3_oracle(a, b, out=None):
    """cross3 as first written: unpacked rows and a fresh temporary per call."""
    if out is None:
        out = np.empty(a.shape)
    a0, a1, a2 = a
    b0, b1, b2 = b
    o0, o1, o2 = out
    tmp = np.empty(a.shape[1:])
    np.multiply(a1, b2, o0)
    o0 -= np.multiply(a2, b1, tmp)
    np.multiply(a2, b0, o1)
    o1 -= np.multiply(a0, b2, tmp)
    np.multiply(a0, b1, o2)
    o2 -= np.multiply(a1, b0, tmp)
    return out


def operand(rng, shape, layout):
    """A ``(3, *shape)`` array: C-contiguous, every other entry of a larger
    array, reversed along the last axis, or an offset window of a larger one."""
    if layout == "contiguous":
        return rng.standard_normal((3, *shape))
    if layout == "every_other":
        big = rng.standard_normal((3, *(2 * n for n in shape)))
        return big[(slice(None),) + (slice(None, None, 2),) * len(shape)]
    if layout == "reversed":
        return rng.standard_normal((3, *shape))[..., ::-1]
    big = rng.standard_normal((3, *(n + 1 for n in shape)))
    return big[(slice(None),) + (slice(1, None),) * len(shape)]


LAYOUTS = st.sampled_from(["contiguous", "every_other", "reversed", "window"])
SHAPES = st.lists(st.integers(1, 6), min_size=1, max_size=3).map(tuple)
SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=150, deadline=None)
@given(SHAPES, LAYOUTS, LAYOUTS, st.sampled_from([None, "fresh", "strided"]),
       SEEDS)
def test_bitwise_equal_to_oracle(shape, layout_a, layout_b, out_kind, seed):
    rng = np.random.default_rng(seed)
    a, b = operand(rng, shape, layout_a), operand(rng, shape, layout_b)
    a_kept, b_kept = a.copy(), b.copy()
    expected = cross3_oracle(a, b)
    if out_kind is None:
        got = cross3(a, b)
        assert got.flags.owndata and got.shape == a.shape
    else:
        out = (np.empty(a.shape) if out_kind == "fresh"
               else np.empty((3, *shape, 2))[..., 0])
        assert cross3(a, b, out=out) is out
        got = out
    assert got.tobytes() == expected.tobytes()
    assert np.array_equal(a, a_kept) and np.array_equal(b, b_kept)


def as_cyclic(a, layout):
    """The cyclic ``(5, ...)`` form of a ``(3, ...)`` array: rows 3 and 4
    repeat rows 0 and 1, C-contiguous or every other entry of a larger array."""
    if layout == "contiguous":
        return np.concatenate((a, a[:2]))
    big = np.empty((5, *a.shape[1:], 2))
    big[..., 0], big[..., 1] = a[[0, 1, 2, 0, 1]], np.nan
    return big[..., 0]


@settings(max_examples=150, deadline=None)
@given(SHAPES, LAYOUTS, LAYOUTS, st.sampled_from(["both", "a", "b"]),
       st.sampled_from(["contiguous", "every_other"]),
       st.sampled_from([None, "fresh", "strided"]), SEEDS)
def test_cyclic_and_mixed_operands_match_the_oracle(shape, layout_a, layout_b, cyclic,
                                                    cyclic_layout, out_kind, seed):
    """Two cyclic operands give the oracle's bits; one cyclic and one ``(3, ...)``
    operand raise before any write."""
    rng = np.random.default_rng(seed)
    a3, b3 = operand(rng, shape, layout_a), operand(rng, shape, layout_b)
    a = as_cyclic(a3, cyclic_layout) if cyclic in ("both", "a") else a3
    b = as_cyclic(b3, cyclic_layout) if cyclic in ("both", "b") else b3
    a_kept, b_kept = a.copy(), b.copy()
    expected = cross3_oracle(a3, b3)
    if cyclic != "both":
        out = np.full(a3.shape, 7.0)
        with pytest.raises(ValueError, match="cross3 shapes differ"):
            cross3(a, b, out=None if out_kind is None else out)
        assert (out == 7.0).all()
    else:
        if out_kind is None:
            got = cross3(a, b)
            assert got.flags.owndata and got.shape == a3.shape
        else:
            out = (np.empty(a3.shape) if out_kind == "fresh"
                   else np.empty((3, *shape, 2))[..., 0])
            assert cross3(a, b, out=out) is out
            got = out
        assert got.tobytes() == expected.tobytes()
    assert a.tobytes() == a_kept.tobytes() and b.tobytes() == b_kept.tobytes()


@pytest.mark.parametrize("rows_a, rows_b", [(4, 4), (2, 2), (3, 4), (5, 2), (1, 3),
                                            (6, 5)])
def test_operands_without_3_or_5_rows_raise_before_writing(rows_a, rows_b):
    out = np.full((3, 8), 7.0)
    with pytest.raises(ValueError, match="3 or 5 rows"):
        cross3(np.ones((rows_a, 8)), np.ones((rows_b, 8)), out=out)
    with pytest.raises(ValueError, match="3 or 5 rows"):
        cross3(np.ones((rows_a, 8)), np.ones((rows_b, 8)))
    assert (out == 7.0).all()


@pytest.mark.parametrize("rows_a, rows_b", [(5, 5), (3, 5), (5, 3)])
def test_cyclic_operands_check_trailing_shapes_and_out(rows_a, rows_b):
    a, b = np.ones((rows_a, 8)), np.ones((rows_b, 8))
    out = np.full((5, 8), 7.0)
    if rows_a != rows_b:  # a (3, ...) and a cyclic operand: rejected, any out
        for target in (out, out[:3], None):
            with pytest.raises(ValueError, match="cross3 shapes differ"):
                cross3(a, b, out=target)
        assert (out == 7.0).all()
        return
    with pytest.raises(ValueError, match="cross3 out shape"):
        cross3(a, b, out=out)
    with pytest.raises(ValueError, match="cross3 shapes differ"):
        cross3(a, b[:, :-1], out=out[:3])
    with pytest.raises(ValueError, match="shares memory"):
        cross3(a, b, out=a[:3])
    assert (out == 7.0).all()
    assert cross3(a, b).shape == (3, 8)


def test_zero_dim_operands_raise():
    with pytest.raises(ValueError, match="3 or 5 rows"):
        cross3(np.float64(1.0), np.float64(2.0))


ANNOTATED = Path(__file__).resolve().parents[1] / "demos" / "configs" / "annotated.cfg"


@pytest.mark.parametrize("scheme", ["imex_em_ito", "heun_strat"])
def test_d1_trajectory_is_bitwise_the_row_wise_oracle_on_rows_0_to_2(monkeypatch,
                                                                     scheme):
    """Every cyclic product of a d = 1 run, replaced by the oracle on the
    leading three rows, gives the same final state and norms."""
    cfg = parse_config(ANNOTATED)
    solver = replace(cfg.solver, t_end=40 * cfg.solver.dt, scheme=scheme)

    def run():
        return run_trajectory(cfg.build_initial(), cfg.params, cfg.build_noise(), solver)

    fast = run()
    for mod in (sllbar.grid, sllbar.noise, sllbar.integrator):
        monkeypatch.setattr(mod, "cross3",
                            lambda a, b, out=None: cross3_oracle(a[:3], b[:3], out))
    slow = run()
    assert fast.grid.dim == 1 and fast.stop_reason == slow.stop_reason
    assert fast.final.tobytes() == slow.final.tobytes()
    for key, col in fast.norms.items():
        assert col.tobytes() == slow.norms[key].tobytes(), key


@settings(max_examples=60, deadline=None)
@given(SHAPES, st.integers(0, 2), SEEDS)
def test_wrong_shape_out_still_raises(shape, axis, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2, 3, *shape))
    bad = list(a.shape)
    bad[min(axis, len(bad) - 1)] += 1
    with pytest.raises(ValueError, match="cross3 out shape"):
        cross3(a, b, out=np.empty(bad))
    with pytest.raises(ValueError, match="cross3 shapes differ"):
        cross3(a, b[..., :-1], out=np.empty(a.shape))


@settings(max_examples=60, deadline=None)
@given(SHAPES, st.sampled_from(["a", "b", "reversed_a", "every_other_b"]), SEEDS)
def test_overlapping_out_still_raises(shape, overlap, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, *shape))
    big_b = rng.standard_normal((3, *(2 * n for n in shape)))
    b = big_b[(slice(None),) + (slice(None, None, 2),) * len(shape)]
    out = {"a": a, "b": b, "reversed_a": a[..., ::-1],
           "every_other_b": big_b[(slice(None),) + (slice(1, None, 2),) * len(shape)]
           }[overlap]
    a_kept, b_kept = a.copy(), b.copy()
    with pytest.raises(ValueError, match="shares memory"):
        cross3(a, b, out=out)
    assert np.array_equal(a, a_kept) and np.array_equal(b, b_kept)


def test_threads_on_different_shapes_keep_their_scratch_rows_apart():
    # each call's scratch is its own out, so two threads never share one
    shapes = [(32,), (6, 5, 4)]
    rng = np.random.default_rng(1)
    cases = [(rng.standard_normal((3, *s)), rng.standard_normal((3, *s)))
             for s in shapes]
    expected = [cross3_oracle(a, b).tobytes() for a, b in cases]
    results = [[], []]
    barrier = threading.Barrier(2)

    def run(i):
        a, b = cases[i]
        barrier.wait()
        for _ in range(300):
            out = np.empty(a.shape)
            cross3(a, b, out=out)
            results[i].append(out.tobytes())

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for got, ref in zip(results, expected):
        assert len(got) == 300 and set(got) == {ref}
