"""Transport-noise coefficients, diffusion operator and Wiener increments.

The noise is a finite family {h_j} of spatial coefficient fields driving
independent scalar Wiener processes. Each h_j enters through the affine
diffusion map

    G_j(u) = Pi( -u x h_j + h_j - Lap h_j ),

and the Stratonovich integral is simulated in Ito form with the correction
drift ``-1/2 sum_j Pi(G_j(u) x h_j)``.

Every family is built from Neumann eigenmodes, ``h_j = sigma_j e_k(x) v_j``,
stored per mode. A step takes one increment ``sum_j G_j(u) dW_j`` and the
correction. At d >= 2 both are formed from the rows in coefficient space
(:func:`_operator_parts`), with no padded grid, dense h_j or per-mode G_j:
the product with e_k is a tensor product of exact cosine product rules
(:func:`_product_rule`), and one GEMM per part mixes all k. At d = 1 the step
keeps the padded-grid route (:func:`_diffusion_coeffs`, :func:`_correction_coeffs`,
on cyclic :func:`~sllbar.grid.cross3` operands) until the benchmark re-pins the
counts ``bench/tests/test_counts.py`` holds for it; it is also the weak-form
residual's own pairing, and writes into the :class:`~sllbar.grid.Workspace`
its caller passes. The Philox generator of :func:`sample_increments` is the
package's only per-thread state. The family must satisfy ``sum_j
|h_j|_{H^3}^2 <= C_h < infinity``; its closed-form C_h is reported.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import (
    Grid,
    Workspace,
    _transform,
    analyze,
    check_mode_index,
    cross3,
    cyclic,
    eigenmode_field,
    eigenvalue_array,
    synthesize,
)


class NoiseTailWarning(UserWarning):
    """The computed C_h exceeded the configured bound."""


@dataclass
class NoiseModel:
    """Immutable eigenmode family ``h_j = e_{k_j}(x) a_j``, stored per mode as
    read-only ``(J, d)`` int ``index`` (k_j), ``(J, 3)`` ``amplitude`` (a_j =
    sigma_j v_j) and ``h_minus_lap_k`` (h_j - Lap h_j at k_j), with C_h = sum_j
    (1 + lambda_{k_j})^3 |a_j|^2. The d = 1 route's dense ``h_minus_lap`` and
    ``h_phys`` and the d >= 2 :attr:`_plan` are built from the rows on first
    use and kept (a sparse write per step would cost the d = 1 route more)."""

    grid: Grid
    index: np.ndarray
    amplitude: np.ndarray
    c_h_bound: float | None = None
    tail_estimate: float = 0.0
    h_minus_lap_k: np.ndarray = field(init=False, repr=False, compare=False)
    C_h: float = field(init=False)

    def __post_init__(self):
        index = np.asarray(self.index)
        if index.size and index.dtype.kind not in "iu":  # a bool or a fraction
            raise ValueError(f"noise mode indices must be integers, got {index.dtype}")
        self.index = np.array(index, dtype=int).reshape(-1, self.grid.dim)
        self.amplitude = np.array(self.amplitude, dtype=float).reshape(-1, 3)
        if len(self.index) != len(self.amplitude):
            raise ValueError("index and amplitude must hold one row per mode")
        lam = eigenvalue_array(self.grid)[tuple(self.index.T)][:, None]
        with np.errstate(all="ignore"):  # a nonfinite a_j or C_h is the error below
            self.h_minus_lap_k = self.amplitude - self.amplitude * -lam  # h - Lap h
            self.C_h = float(sum(np.power(1.0 + lam[:, 0], 3.0)  # |h_j|_{H^3}^2
                                 * np.add.reduce(self.amplitude ** 2, axis=1)))
        if not math.isfinite(self.C_h):  # as it is for any nonfinite amplitude
            raise ValueError(f"noise amplitudes and C_h must be finite, C_h = {self.C_h}")
        for arr in (self.index, self.amplitude, self.h_minus_lap_k):
            arr.setflags(write=False)

    @property
    def J(self) -> int:
        return len(self.index)

    @cached_property
    def h_minus_lap(self) -> list[np.ndarray]:
        return [eigenmode_field(self.grid, k, row)
                for k, row in zip(self.index, self.h_minus_lap_k)]

    @classmethod
    def empty(cls, grid: Grid) -> "NoiseModel":
        return cls(grid, [], [])

    @cached_property
    def h_phys(self) -> list[np.ndarray]:
        """Read-only padded-grid values of each h_j for the d=1 route, in the
        cyclic ``(5, *padded)`` form of :func:`~sllbar.grid.cross3`; built by
        the transform itself, so they add no ``synthesize`` call to a step."""
        rows = [_transform(eigenmode_field(self.grid, k, a),
                           self.grid._axis_matrices[1])[[0, 1, 2, 0, 1]]
                for k, a in zip(self.index, self.amplitude)]
        for vals in rows:
            vals.setflags(write=False)
        return rows

    @cached_property
    def _plan(self) -> tuple:
        """Read-only ``(at, K, halfQ, passes)`` over the G distinct k, in order of
        first appearance, ``at`` indexing them. P_0 is L_i^{-1/2} I, so M_k, Pi of
        the product with e_k, is ``c = prod_{k_i = 0} L_i^{-1/2}`` times one
        :func:`_product_rule` ``(axis, P, P^2)`` of ``passes[g]`` per k_i != 0 (P
        is symmetric: no ``X @ P.T`` GEMM). ``dW @ K`` is ``[c B_1 ... c B_G]``,
        each ``c K_j`` (``K_j w = a_j x w``) in its group's 3 x 3 block, then each
        group's ``sum dW_j (h_j - Lap h_j)``; ``halfQ`` is ``1/2 [c^2 Q_1 ...]``."""
        members: dict[tuple[int, ...], list[int]] = {}
        for j, k in enumerate(map(tuple, self.index.tolist())):
            members.setdefault(k, []).append(j)
        G, Ns, Ls = len(members), self.grid.modes, self.grid.lengths
        K, halfQ, passes = np.zeros((self.J, 3, 4 * G)), np.zeros((3, 3 * G)), []
        for g, (k, js) in enumerate(members.items()):
            c = math.prod(L ** -0.5 for L, ki in zip(Ls, k) if not ki)
            passes.append(tuple((ax, P, P @ P) for ax, ki in enumerate(k) if ki
                                for P in [_product_rule(Ns[ax], Ls[ax], ki)]))
            cK = c * np.stack([np.cross(a, np.eye(3)).T for a in self.amplitude[js]])
            K[js, :, 3 * g:3 * g + 3], K[js, :, 3 * G + g] = cK, self.h_minus_lap_k[js]
            halfQ[:, 3 * g:3 * g + 3] = 0.5 * sum(Kj @ Kj for Kj in cK)
        ks = np.array(list(members)).T
        for arr in (ks, K, halfQ, *(m for axes in passes for _, *ms in axes for m in ms)):
            arr.setflags(write=False)
        return (slice(None), *ks), K.reshape(self.J, -1), halfQ, passes


def _product_rule(N: int, L: float, k: int) -> np.ndarray:
    """``P[n, m] = (e_n, e_k e_m)`` on [0, L], n, m < N: cos a cos b = (cos(a + b)
    + cos(a - b)) / 2, taken twice, leaves (L/4) c_k c_n c_m times the number of
    signs (s, t) with n + s k + t m = 0, c_0 = L^{-1/2}, c_{n>=1} = (2/L)^{1/2}.
    Exact at any pad factor; bitwise symmetric, as ``c_n c_m`` is one product."""
    n = np.arange(N)
    c = np.where(n > 0, math.sqrt(2 / L), L ** -0.5)
    count = sum(n[:, None] + s * k + t * n == 0 for s in (1, -1) for t in (1, -1))
    return (L / 4 * c[k]) * np.multiply.outer(c, c) * count


def build_noise_modes(spec: dict, grid: Grid) -> NoiseModel:
    """Construct a NoiseModel from a descriptor.

    Supported families::

        {"family": "none"}
        {"family": "eigenmode",
         "modes": [{"sigma": s, "index": (k1, ..), "direction": (vx, vy, vz)}, ...],
         "c_h_bound": optional float, "tail_estimate": optional float}

    Eigenmode entries build ``h_j = sigma_j e_k(x) v_j`` with v_j normalized
    to a unit vector; :func:`sllbar.grid.check_mode_index` checks each index.
    The ``none`` family takes no modes; an eigenmode family may have none.
    """
    family, modes = spec.get("family", "none"), spec.get("modes", [])
    if family not in ("none", "eigenmode"):
        raise ValueError(f"unknown noise family {family!r}")
    if family == "none" and modes:
        raise ValueError(f"family 'none' takes no modes, got {len(modes)}")
    index, amplitude = [], []
    for m, mode in enumerate(modes):
        sigma = float(mode["sigma"])
        direction = np.asarray(mode["direction"], dtype=float)
        if not (math.isfinite(sigma) and np.isfinite(direction).all()):
            raise ValueError(f"noise mode {m}: sigma and direction must be finite")
        nrm = float(np.linalg.norm(direction))
        if nrm == 0.0:
            raise ValueError(f"noise mode {m}: direction must be nonzero")
        try:
            index.append(check_mode_index(grid, np.atleast_1d(mode["index"])))
            if direction.shape != (3,):
                raise ValueError("vector must have 3 components")
        except ValueError as exc:
            raise ValueError(f"noise mode {m}: {exc}") from exc
        amplitude.append(sigma * direction / nrm)

    return NoiseModel(grid, index, amplitude, c_h_bound=spec.get("c_h_bound"),
                      tail_estimate=float(spec.get("tail_estimate", 0.0)))


def check_noise_condition(noise: NoiseModel) -> bool:
    """Whether the build-time ``C_h = sum_j |h_j|_{H^3}^2`` exceeds a configured
    bound, with a :class:`NoiseTailWarning` if it does."""
    exceeded = bool(noise.c_h_bound is not None and noise.C_h > noise.c_h_bound)
    if exceeded:
        warnings.warn(f"noise condition sum {noise.C_h:.6g} exceeds configured bound "
                      f"{noise.c_h_bound:.6g}", NoiseTailWarning, stacklevel=2)
    return exceeded


def _diffusion_coeffs(grid: Grid, u_vals: np.ndarray, noise: NoiseModel,
                      j: int, ws: Workspace) -> np.ndarray:
    """Coefficients of ``G_j(u) = Pi(-u x h_j + h_j - Lap h_j)`` from u's cyclic
    values (:func:`~sllbar.grid.cyclic`); the cross product goes into ``ws.prod``."""
    cross = cross3(u_vals, noise.h_phys[j], out=ws.prod)
    return noise.h_minus_lap[j] - analyze(grid, cross)


def _correction_coeffs(grid: Grid, u_vals: np.ndarray, noise: NoiseModel,
                       ws: Workspace) -> np.ndarray:
    """Coefficients of the Ito correction ``-1/2 sum_j Pi(G_j(u) x h_j)`` from u's
    cyclic values. Each G_j's values go into ``ws.lap`` in cyclic form and each
    cross product into ``ws.prod``."""
    acc = np.zeros((3, *grid.modes))  # not the first term: 0.0 + -0.0 is +0.0
    for j in range(noise.J):
        G_vals = synthesize(grid, _diffusion_coeffs(grid, u_vals, noise, j, ws),
                            out=ws.lap)
        acc += analyze(grid, cross3(cyclic(G_vals), noise.h_phys[j], out=ws.prod))
    acc *= -0.5
    return acc


def _stack_passes(coeffs: np.ndarray, passes: list, which: int, stack: np.ndarray,
                  scratch: tuple[np.ndarray, np.ndarray]):
    """Each k's P (``which`` = 1) or P^2 (2) passes on ``coeffs``, the last into
    k's slot of ``stack`` and each pass i before it into ``scratch[i]``, one
    matmul each (a copy if k = 0)."""
    for axes, out in zip(passes, stack):
        arr, last = coeffs, len(axes) - 1
        for i, (ax, *mats) in enumerate(axes):
            P, rest = mats[which - 1], math.prod(out.shape[ax + 2:])
            lhs = arr.reshape(-1, len(P)) if rest == 1 else arr.reshape(-1, len(P), rest)
            dest = out if i == last else scratch[i]
            arr = (np.matmul(lhs, P, dest.reshape(lhs.shape)) if rest == 1 else
                   np.matmul(P.T, lhs, dest.reshape(lhs.shape))).reshape(out.shape)
        if last < 0:
            np.copyto(out, coeffs)


def _operator_parts(noise: NoiseModel, coeffs: np.ndarray, dW: np.ndarray | None,
                    include_correction: bool, ws: Workspace):
    """``(increment, Ito correction)`` at d >= 2 from :attr:`NoiseModel._plan`.

    ``G_j(u) = (h_j - Lap h_j) + K_j M_k u``, so the increment ``sum_j G_j(u)
    dW_j`` is ``sum_k B_k M_k u`` (``B_k = sum dW_j K_j`` over k_j = k) plus
    ``sum dW_j (h_j - Lap h_j)`` at each k, and the correction ``1/2 sum_k Q_k
    M_k^2 u`` (its constant part ``(M_k (h_j - Lap h_j)) x a_j`` is 0). Each
    M_k u (M_k^2 u) less c fills k's slot of the workspace's stack for the G
    groups (:meth:`~sllbar.grid.Workspace.stack_for`), which one GEMM per part
    mixes, so a warm call allocates only its results. Without ``dW`` the
    increment, and unless ``include_correction`` the correction, is None at
    no cost; both if J = 0.
    """
    inc = corr = None
    if not noise.J or dW is None and not include_correction:
        return inc, corr
    at, K, halfQ, passes = noise._plan
    G = len(passes)
    stack = ws.stack_for(G)
    rows = stack.reshape(3 * G, -1)
    if dW is not None:
        w = np.dot(dW, K).reshape(3, -1)
        _stack_passes(coeffs, passes, 1, stack, ws.scratch)
        inc = np.matmul(w[:, :3 * G], rows).reshape(coeffs.shape)
        inc[at] += w[:, 3 * G:]
    if include_correction:
        _stack_passes(coeffs, passes, 2, stack, ws.scratch)
        corr = np.matmul(halfQ, rows).reshape(coeffs.shape)
    return inc, corr


@dataclass(frozen=True)
class WienerIncrement:
    """Per-mode Gaussian increments for one time step."""

    step: int
    values: np.ndarray


_STREAM_WIENER = 0x5757  # stream tag keeping Wiener draws apart from other uses
_PHILOX = threading.local()


def sample_increments(seed: int, path: int, step: int, J: int,
                      dt: float) -> WienerIncrement:
    """N(0, dt) increments from a counter-based generator.

    The Philox counter is keyed on (path, step); mode j takes the j-th draw
    of that stream, so the value for a given (seed, path, j, step) never
    depends on J or on evaluation order, and parallel schedules cannot
    change results. Each thread keeps one ``(generator, state dict, counter
    list, key list)`` tuple; each call writes path, step and seed into the
    lists the dict holds and resets the whole state (key, counter and
    buffered bits) from it, which gives the same values as a freshly built
    ``Generator(Philox(key=seed, counter=[0x5757, path, step, 0]))``.
    """
    if not 0 < dt < math.inf:  # NaN fails too
        raise ValueError("dt must be positive and finite")
    if J == 0:
        return WienerIncrement(step, np.zeros(0))
    try:
        gen, state, counter, key = _PHILOX.keyed
    except AttributeError:
        counter, key = [_STREAM_WIENER, 0, 0, 0], [0, 0]
        state = {"bit_generator": "Philox", "state": {"counter": counter, "key": key},
                 "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        gen = np.random.Generator(np.random.Philox(0))
        _PHILOX.keyed = gen, state, counter, key
    counter[1], counter[2], key[0] = int(path), int(step), int(seed)
    gen.bit_generator.state = state
    return WienerIncrement(step, gen.standard_normal(J) * math.sqrt(dt))


def coupled_increments(seed: int, path: int, step: int, J: int, dt: float,
                       substeps: int = 1) -> WienerIncrement:
    """Increment over [step dt, (step+1) dt] built from a finer base path.

    Sums ``substeps`` base increments of size ``dt / substeps`` keyed at the
    base resolution, so runs at dt, 2 dt, 4 dt, ... driven with matching
    ``substeps`` share one Brownian path. ``substeps = 1`` reduces to
    :func:`sample_increments`.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    if substeps == 1:
        return sample_increments(seed, path, step, J, dt)
    base_dt = dt / substeps
    total = np.zeros(J)
    for i in range(substeps):
        total += sample_increments(seed, path, step * substeps + i, J, base_dt).values
    return WienerIncrement(step, total)
