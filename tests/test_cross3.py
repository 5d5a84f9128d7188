"""``grid.cross3`` against the body it replaced: the same bits from the same
six multiplies and three subtractions, and the same checks on ``out``."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sllbar.grid import cross3


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
