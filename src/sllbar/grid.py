"""Neumann cosine-basis spectral core on rectangular boxes.

A field is R^3-valued and is held as one ``(3, *modes)`` array of
coefficients in the L^2-orthonormal eigenbasis of the Neumann Laplacian;
every function that reads a field takes ``(grid, coeffs)``. Point values
on the zero-padded midpoint collocation grid are plain ``(3, *padded)``
arrays: :func:`synthesize` and :func:`gradient_values` produce them from
coefficients, and :func:`analyze` projects them back onto the retained
modes. The Galerkin projection Pi_n of a pointwise product is always
``analyze`` of the product of synthesized values.

Conventions
-----------
* box ``[0, L_1] x ... x [0, L_d]`` with ``d in {1, 2, 3}``
* basis ``phi_k(x) = prod_i c_i(k_i) cos(pi k_i x_i / L_i)`` with
  ``c_i(0) = sqrt(1/L_i)`` and ``c_i(k) = sqrt(2/L_i)`` for ``k >= 1``;
  the eigenvalue of ``-Laplacian`` is ``lambda_k = sum_i (pi k_i / L_i)^2``
* every basis function satisfies ``du/dn = d(Lap u)/dn = 0`` on the box
  boundary, so represented fields do as well
* coefficients are stored as real ``(3, N_1, ..., N_d)`` arrays, row-major
  with axis 0 (the vector component) slowest
* collocation nodes are the midpoints ``x_j = (j + 1/2) L_i / M_i`` of the
  padded grid ``M_i = ceil(pad_factor * N_i)``. The midpoint rule on M nodes
  is exact for ``cos(pi m x / L)``, ``0 < m < 2M``, and the projection of a
  product of p retained fields reads m up to ``(p + 1)(N - 1)``: the cubic
  |u|^2 u is alias-free at ``pad_factor = 2``, and the quadratic u x Lap u
  already on the ``ceil(1.5 N)`` nodes of ``Grid.quadratic_grid``

Transforms
----------
There is one transform: per-axis orthonormal DCT-II / DST-II matrices
(``Grid._axis_matrices``) applied one axis at a time. At d=1 a synthesis or
analysis is one ``np.dot`` on the Grid's transposed views (``Grid._axis0_t``),
the bits of ``arr @ mat.T`` for less. :func:`_transform` runs d >= 2,
``gradient_values`` and ``NoiseModel.h_phys``; each pass contracts the leading
spatial axis in one GEMM and appends the result as the trailing axis, with no
transposed copy. A transform costs O(M^(d+1)) for ``M`` padded nodes per axis.
The matrices (``3 M N`` doubles per axis), the eigenvalues and the Sobolev
weights are built once per Grid instance and read from it as attributes.
The matrices are the basis and its derivative evaluated at the midpoint
nodes, built in closed form with numpy after an exact integer reduction of
the phase (:func:`_cos_phase`); they agree with scipy's orthonormal
DCT-II / DST-II of the identity to <= 3.2e-16, so the package needs no
scipy.

Memory
------
A time step writes padded-grid values, products and |u|^2 into the
:class:`Workspace` its run's ``integrator.StepKernel`` owns, so the buffers
live exactly as long as the run; :func:`l4_norm` writes into a given
workspace or a fresh one. This module keeps no per-thread state. Every
transform pass but the last writes into a fresh array that the next pass
reads and drops. At d >= 2 the cubic writes 5 run-grid rows (:func:`_mag2`), and
the precession's 3/2-grid arrays are the heads of its spent buffers: no new memory.
:func:`cross3` of two cyclic ``(5, ...)`` operands (at d = 1: u, Lap u and
each G_j in the workspace's spare rows, and ``h_phys``) takes one ``(3, ...)``
temporary; of two ``(3, ...)`` ones, as at d >= 2, it uses ``out``'s rows as
scratch and one component-sized temporary. At d >= 2 the noise touches no
padded-grid array: it applies N x N matrices to coefficient arrays only along
the axes a mode excites (a zero axis is a scalar), and its correction P_k^2
to u directly. :func:`synthesize` and :func:`cross3` write into ``out`` when
given; without it they return fresh arrays, as do :func:`analyze` and
:func:`gradient_values` always.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Rectangular box with per-axis retained mode counts.

    Parameters
    ----------
    dim:
        Spatial dimension, 1, 2 or 3.
    lengths:
        Per-axis box lengths ``L_i > 0``.
    modes:
        Per-axis retained mode counts ``N_i >= 1``.
    pad_factor:
        Zero-padding factor for physical-space evaluation; the padded grid
        has ``ceil(pad_factor * N_i)`` nodes per axis.

    ``field_shape`` is ``(3, *modes)``, the shape of a field's coefficients;
    ``values_shape`` is ``(3, *padded)``, the shape of its padded-grid values.
    """

    dim: int
    lengths: tuple[float, ...]
    modes: tuple[int, ...]
    pad_factor: float = 2.0

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if len(self.lengths) != self.dim or len(self.modes) != self.dim:
            raise ValueError("lengths and modes must each have dim entries")
        if not all(0 < L < math.inf for L in self.lengths):  # NaN fails too
            raise ValueError("box lengths must be positive and finite")
        if any(N < 1 for N in self.modes):
            raise ValueError("mode counts must be >= 1")
        if not 1 <= self.pad_factor < math.inf:
            raise ValueError("pad_factor must be >= 1 and finite")
        object.__setattr__(self, "lengths", tuple(float(L) for L in self.lengths))
        object.__setattr__(self, "modes", tuple(int(N) for N in self.modes))
        object.__setattr__(self, "_sobolev", {})  # (s, seminorm) -> weight
        object.__setattr__(self, "field_shape", (3, *self.modes))
        object.__setattr__(self, "values_shape", (3, *self.padded))

    @cached_property
    def padded(self) -> tuple[int, ...]:
        return tuple(math.ceil(self.pad_factor * N) for N in self.modes)

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    def with_modes(self, modes: tuple[int, ...]) -> "Grid":
        return Grid(self.dim, self.lengths, tuple(modes), self.pad_factor)

    @cached_property
    def quadratic_grid(self) -> "Grid":
        """This box and these modes at pad factor 1.5, where a d >= 2 step forms
        its quadratic product u x Lap u (Orszag's 3/2 rule; see Conventions)."""
        return Grid(self.dim, self.lengths, self.modes, 1.5)

    @cached_property
    def _eigenvalues(self) -> np.ndarray:
        lam = np.zeros(self.modes)
        for ax, (N, L) in enumerate(zip(self.modes, self.lengths)):
            shape = [1] * self.dim
            shape[ax] = N
            lam = lam + ((np.pi * np.arange(N) / L) ** 2).reshape(shape)
        lam.setflags(write=False)
        return lam

    @cached_property
    def _neg_eigenvalues(self) -> np.ndarray:  # -lambda_k, the Laplacian's symbol
        neg = -self._eigenvalues
        neg.setflags(write=False)
        return neg

    @cached_property
    def _axis_matrices(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """Per-axis analysis (N, M), synthesis (M, N) and derivative-synthesis
        (M, N) matrices, one tuple of each; the scale sqrt(L/M) is folded in.

        Row k of the orthonormal DCT-II is ``c_k cos(theta)`` and of the
        DST-II ``sqrt(2/M) sin(theta)``, ``theta = pi k (2j+1) / (2M)``: the
        basis and its derivative at the midpoint nodes (:func:`_cos_phase`).
        Only k <= N-1 <= M-1 is used, so the DST-II row k = M with its own
        scale never arises.
        """
        out = []
        for N, M, L in zip(self.modes, self.padded, self.lengths):
            s = math.sqrt(L / M)
            k = np.arange(N)[:, None]
            phase = k * (2 * np.arange(M) + 1)
            dct_rows = math.sqrt(2 / M) * _cos_phase(phase, M)
            dct_rows[0] = math.sqrt(1 / M)
            # sin(theta) = cos(theta - pi/2), a phase shift of M
            dst_rows = math.sqrt(2 / M) * _cos_phase(phase[1:] - M, M)
            analysis = np.ascontiguousarray(s * dct_rows)
            synthesis = np.ascontiguousarray(dct_rows.T / s)
            deriv = np.zeros((M, N))
            deriv[:, 1:] = -(np.pi * k[1:, 0] / L) / s * dst_rows.T
            for m in (analysis, synthesis, deriv):
                m.setflags(write=False)
            out.append((analysis, synthesis, deriv))
        return tuple(zip(*out))

    @cached_property
    def _axis0_t(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only views ``(analysis[0].T, synthesis[0].T)``: d=1 right operands."""
        return self._axis_matrices[0][0].T, self._axis_matrices[1][0].T


def _cos_phase(phase: np.ndarray, M: int) -> np.ndarray:
    """``cos(pi * phase / (2M))`` for an integer array ``phase``.

    The values repeat with period 4M in the phase, so one period is tabled
    and indexed. Each table phase is folded by exact integer symmetries onto
    [0, M/2] before it is scaled by pi, so every cos or sin is taken of an
    angle in [0, pi/4] and the entries are within an ulp or so of exact at
    any M; unreduced, the arguments reach k (2j+1) pi / (2M), about 400 rad
    at N = 128 (M = 256).
    """
    p = np.arange(4 * M)
    p = np.where(p > 2 * M, 4 * M - p, p)             # cos is even
    sign = np.where(p > M, -1.0, 1.0)                  # cos(pi - a)
    p = np.where(p > M, 2 * M - p, p)
    use_sin = 2 * p > M                                # cos(pi/2 - a)
    p = np.where(use_sin, M - p, p)
    angle = np.pi * p / (2 * M)
    table = sign * np.where(use_sin, np.sin(angle), np.cos(angle))
    return table[phase % (4 * M)]


def eigenvalue_array(grid: Grid) -> np.ndarray:
    """Array of shape ``grid.modes`` holding lambda_k for each multi-index."""
    return grid._eigenvalues


def _transform(arr: np.ndarray, mats: tuple[np.ndarray, ...],
               out: np.ndarray | None = None) -> np.ndarray:
    """Apply ``mats[i]`` along spatial axis i of a ``(3, ...)`` array.

    The result is C-contiguous: ``out`` when it is given, a fresh array
    otherwise. At d=2 and 3 every pass but the last writes into a fresh
    array, which the next pass reads and drops.
    At d=1 it is one ``np.dot`` on the transposed matrix, as in :func:`synthesize`
    and :func:`analyze`: the cycling pass would round differently there.
    """
    if arr.ndim == 2:
        return np.dot(arr, mats[0].T, out)
    last = len(mats) - 1
    for i, mat in enumerate(mats):
        n, rest = arr.shape[1], arr.shape[2:]
        lhs = arr.reshape(3, n, -1).transpose(0, 2, 1)
        dest = None if i < last or out is None else out.reshape(
            3, lhs.shape[1], mat.shape[0])
        arr = np.matmul(lhs, mat.T, dest).reshape(3, *rest, mat.shape[0])
    return arr if out is None else out


def cross3(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Cross product along axis 0 of two operands of one shape.

    Both are ``(3, ...)``, or both cyclic ``(5, ...)``, rows 3-4 repeating rows
    0-1 (:func:`cyclic`). Cyclic operands take three ufunc calls, ``a[1:4]
    b[2:5] - a[2:5] b[1:4]``; ``(3, ...)`` ones go row by row. Both give the
    same bits. The ``(3, ...)`` result goes into ``out`` when it is given, which
    must share no memory with ``a`` or ``b``; a fresh array otherwise. Other
    shapes raise ``ValueError`` before any write.
    """
    sa, sb = a.shape, b.shape  # each read of .shape builds a new tuple
    if sa[:1] not in ((3,), (5,)) or sa != sb and sb[:1] not in ((3,), (5,)):
        raise ValueError(f"cross3 operands need 3 or 5 rows: {sa} vs {sb}")
    if sa != sb:
        raise ValueError(f"cross3 shapes differ: {sa} vs {sb}")
    shape = (3, *sa[1:])
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise ValueError(f"cross3 out shape {out.shape}, expected {shape}")
    else:
        # arrays that each own their data are distinct allocations, so the
        # slower may_share_memory calls run only when one of them is a view
        owned = out.flags.owndata and a.flags.owndata and b.flags.owndata
        if out is a or out is b or not owned and (
                np.may_share_memory(out, a) or np.may_share_memory(out, b)):
            raise ValueError("cross3 out shares memory with an input")
    if sa[0] == 5:
        np.multiply(a[1:4], b[2:5], out)
        out -= np.multiply(a[2:5], b[1:4])
        return out
    # indexing beats unpacking; out[0], which a and b cannot share, is the
    # scratch of rows 2 and 1
    a0, a1, a2, b0, b1, b2 = a[0], a[1], a[2], b[0], b[1], b[2]
    o0, o1, o2 = out[0], out[1], out[2]
    np.multiply(a0, b1, o2)
    o2 -= np.multiply(a1, b0, o0)
    np.multiply(a2, b0, o1)
    o1 -= np.multiply(a0, b2, o0)
    np.multiply(a1, b2, o0)
    o0 -= np.multiply(a2, b1)
    return out


class Workspace:
    """Padded-grid arrays a time step or :func:`l4_norm` writes, reused by the next.

    A run's ``integrator.StepKernel`` owns one, and it is freed with the
    kernel; two workspaces never share a buffer, so each thread or run that
    steps needs its own. ``vals`` holds u's values and ``lap[0]`` |u|^2. At d = 1
    ``prod`` then holds u.u and u |u|^2, ``lap`` Lap u's values and each G_j's in
    the Ito correction, and ``prod`` every cross product; the padded-grid noise
    helpers take u's values as ``cyclic(ws.vals)`` and write into the ``lap`` and
    ``prod`` of the workspace they are given. At d >= 2 u |u|^2 overwrites ``vals``,
    with ``prod[0]`` as |u|^2's scratch row, and ``quadratic``, u's and Lap u's
    values and their cross product on ``grid.quadratic_grid``, are views of the
    heads of ``vals``, ``lap`` and ``prod`` (fresh arrays below pad factor 1.5,
    where they do not fit). ``vals`` and ``lap`` are the leading ``(3, *padded)``
    rows of ``(5, *padded)`` storage, whose spare rows :func:`cyclic` fills; a
    step that never does so never touches their pages.
    """

    def __init__(self, grid: Grid):
        self.vals = np.empty((5, *grid.padded))[:3]
        self.lap = np.empty((5, *grid.padded))[:3]
        self.prod = np.empty(grid.values_shape)
        if grid.dim > 1:
            shape = grid.quadratic_grid.values_shape
            size = math.prod(shape)
            self.quadratic = tuple(
                buf.reshape(-1)[:size].reshape(shape) if size <= buf.size
                else np.empty(shape) for buf in (self.vals, self.lap, self.prod))


def cyclic(rows: np.ndarray) -> np.ndarray:
    """The cyclic ``(5, ...)`` storage of a :class:`Workspace` ``vals`` or
    ``lap`` view, its rows 0 and 1 copied into the spare rows 3 and 4."""
    full = rows.base
    full[3:] = full[:2]
    return full


def collocation_points(grid: Grid) -> tuple[np.ndarray, ...]:
    """Per-axis midpoint nodes of the padded grid."""
    return tuple(
        (np.arange(M) + 0.5) * (L / M) for M, L in zip(grid.padded, grid.lengths)
    )


def quad_weight(grid: Grid) -> float:
    """Quadrature weight of one padded-grid node (midpoint rule)."""
    return math.prod([L / M for L, M in zip(grid.lengths, grid.padded)])


def synthesize(grid: Grid, coeffs: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """Raw coefficients ``(3, *modes)`` -> values ``(3, *padded)``.

    Written into ``out`` when it is given, a fresh array otherwise.
    """
    if coeffs.shape != grid.field_shape:
        raise ValueError(f"coeffs shape {coeffs.shape}, expected {grid.field_shape}")
    if out is not None and (out.shape != grid.values_shape or out.dtype != np.float64
                            or not out.flags.c_contiguous):
        raise ValueError(f"synthesize out must be a C-contiguous float64 array of "
                         f"shape {grid.values_shape}, got {out.dtype} {out.shape}")
    return (np.dot(coeffs, grid._axis0_t[1], out) if grid.dim == 1
            else _transform(coeffs, grid._axis_matrices[1], out))


def analyze(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Raw values ``(3, *padded)`` -> coefficients truncated to retained modes.

    The truncation composes the analysis with the Galerkin projection onto
    the retained-mode span.
    """
    return (np.dot(values, grid._axis0_t[0]) if grid.dim == 1
            else _transform(values, grid._axis_matrices[0]))


def gradient_values(grid: Grid, coeffs: np.ndarray) -> list[np.ndarray]:
    """Exact per-axis derivatives evaluated on the padded grid.

    Differentiating the cosine series gives a sine series per axis; each
    component is synthesized with the DST-II derivative matrix along the
    derivative axis and the DCT-II synthesis matrices along the rest.
    """
    if coeffs.shape != grid.field_shape:
        raise ValueError(f"coeffs shape {coeffs.shape}, expected {grid.field_shape}")
    _, syn, deriv = grid._axis_matrices
    return [_transform(coeffs, syn[:ax] + (deriv[ax],) + syn[ax + 1:])
            for ax in range(grid.dim)]


def _sobolev_weight(grid: Grid, s: float, seminorm: bool) -> np.ndarray:
    weight = grid._sobolev.get((s, seminorm))  # read every step
    if weight is None:
        if s < 0:
            raise ValueError("s must be >= 0")
        lam = grid._eigenvalues
        weight = grid._sobolev[s, seminorm] = (
            np.power(lam, s) if seminorm else np.power(1.0 + lam, s))
        weight.setflags(write=False)
    return weight


def sobolev_norm(grid: Grid, coeffs: np.ndarray, s: float,
                 seminorm: bool = False) -> float:
    """Spectral-multiplier Sobolev norm ``(sum_k (1+lambda_k)^s |c_k|^2)^(1/2)``.

    With ``seminorm=True`` the multiplier is ``lambda_k^s`` (the k = 0 mode
    drops out for s > 0); ``s = 0`` gives the L^2 norm either way.
    """
    return sobolev_norms(grid, coeffs, ((s, seminorm),))[0]


def sobolev_norms(grid: Grid, coeffs: np.ndarray, orders) -> list[float]:
    """:func:`sobolev_norm` at each ``(s, seminorm)`` pair of ``orders``, in
    order, with ``|c_k|^2`` formed once for all of them."""
    if coeffs.shape != grid.field_shape:
        raise ValueError(f"coeffs shape {coeffs.shape}, expected {grid.field_shape}")
    return _weighted_norms(coeffs, [
        None if s == 0 else _sobolev_weight(grid, float(s), bool(seminorm))
        for s, seminorm in orders])


def _weighted_norms(coeffs: np.ndarray, weights) -> list[float]:
    """``(sum_k w_k |c_k|^2)^(1/2)`` for each ``w`` of ``weights``, None meaning 1."""
    sq = coeffs * coeffs
    mag2 = sq[0] + sq[1] + sq[2]  # the bits of np.add.reduce over axis 0, sooner
    return [math.sqrt(float(np.add.reduce(mag2 if w is None else w * mag2, axis=None)))
            for w in weights]


def _mag2(vals: np.ndarray, ws: Workspace) -> np.ndarray:
    """|u|^2 of u's padded-grid values ``vals``, into ``ws.lap[0]``: (u0^2 + u1^2)
    + u2^2, the bits of np.add.reduce over axis 0. u.u goes into ``ws.prod`` in one
    call at d = 1, whose short rows make the step call-bound; at d >= 2 each row's
    ``np.square`` (one operand, the bits of x * x) is added through ``ws.prod[0]``."""
    if vals.ndim == 2:
        sq = np.multiply(vals, vals, out=ws.prod)
        mag2 = np.add(sq[0], sq[1], out=ws.lap[0])
        mag2 += sq[2]
    else:
        mag2, scratch = np.square(vals[0], out=ws.lap[0]), ws.prod[0]
        mag2 += np.square(vals[1], out=scratch)
        mag2 += np.square(vals[2], out=scratch)
    return mag2


def l4_norm(grid: Grid, coeffs: np.ndarray, ws: Workspace | None = None) -> float:
    """L^4 norm by quadrature, exact for retained-mode fields at pad 2 (L^2 is
    ``sobolev_norm``), into ``ws`` or a fresh :class:`Workspace`; ``vals`` keeps u."""
    ws = Workspace(grid) if ws is None else ws
    mag2 = _mag2(synthesize(grid, coeffs, out=ws.vals), ws)
    w = quad_weight(grid)
    return float(np.multiply(mag2, mag2, out=ws.prod[0]).sum() * w) ** 0.25


def constant_field(grid: Grid, vector) -> np.ndarray:
    """Spatially constant field with the given 3-vector value."""
    return eigenmode_field(grid, (0,) * grid.dim,
                           np.asarray(vector, dtype=float) * math.sqrt(grid.volume))


def check_mode_index(grid: Grid, index) -> tuple[int, ...]:
    """``index`` as a tuple of ints; raises unless it is a retained multi-index."""
    index = tuple(int(i) for i in index)
    if len(index) != grid.dim:
        raise ValueError(f"mode index {index} must have {grid.dim} entries")
    for ax, (k, N) in enumerate(zip(index, grid.modes)):
        if k < 0 or k >= N:
            raise ValueError(f"mode index {k} outside retained range on axis {ax}")
    return index


def eigenmode_field(grid: Grid, index: tuple[int, ...], vector) -> np.ndarray:
    """Field ``e_k(x) * v`` for a retained multi-index k and 3-vector v."""
    index = check_mode_index(grid, index)
    vector = np.asarray(vector, dtype=float)
    if vector.shape != (3,):
        raise ValueError("vector must have 3 components")
    coeffs = np.zeros((3, *grid.modes))
    coeffs[(slice(None),) + index] = vector
    return coeffs


def embed(grid: Grid, coeffs: np.ndarray, fine: Grid) -> np.ndarray:
    """Zero-pad coefficients on ``grid`` into a finer grid with the same box."""
    if coeffs.shape != grid.field_shape:
        raise ValueError(f"coeffs shape {coeffs.shape}, expected {grid.field_shape}")
    if fine.dim != grid.dim or fine.lengths != grid.lengths:
        raise ValueError("embedding requires the same box")
    if any(nf < nc for nf, nc in zip(fine.modes, grid.modes)):
        raise ValueError("target grid must retain at least as many modes")
    out = np.zeros((3, *fine.modes))
    out[(slice(None),) + tuple(slice(0, N) for N in grid.modes)] = coeffs
    return out


def random_field(grid: Grid, rng: np.random.Generator, amplitude: float = 1.0,
                 decay: float = 1.0) -> np.ndarray:
    """Gaussian random coefficients with algebraic mode decay (test utility)."""
    lam = eigenvalue_array(grid)
    scale = amplitude / (1.0 + lam) ** decay
    return rng.standard_normal((3, *grid.modes)) * scale
