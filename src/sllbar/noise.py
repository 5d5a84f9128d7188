"""Transport-noise coefficients, diffusion operator and Wiener increments.

The noise is a finite family {h_j} of spatial coefficient fields driving
independent scalar Wiener processes. Each h_j enters through the affine
diffusion map

    G_j(u) = Pi( -u x h_j + h_j - Lap h_j ),

and the Stratonovich integral is simulated in Ito form with the correction
drift ``-1/2 sum_j Pi(G_j(u) x h_j)``.

Every family is built from Neumann eigenmodes, ``h_j = sigma_j e_k(x) v_j``,
stored per mode. A step takes one increment ``sum_j G_j(u) dW_j`` and the
correction; at d >= 2 both are formed in coefficient space, with no padded
grid, dense h_j or per-mode G_j, a zero entry of k_j being a scalar
(:func:`_operator_parts`). At d = 1 the step keeps the padded-grid route
(:func:`_diffusion_coeffs`, :func:`_correction_coeffs`) until the benchmark
re-pins the per-step counts ``bench/tests/test_counts.py`` holds for it; that
route also stays the weak-form residual's own pairing, and writes into the
:class:`~sllbar.grid.Workspace` its caller passes (in a step, the run's
``StepKernel`` workspace). The Philox generator of :func:`sample_increments`
is the package's only per-thread state. The family must satisfy the
square-summability condition ``sum_j |h_j|_{H^3}^2 <= C_h < infinity``; the
finite truncation reports its C_h (closed form) so tail bounds can be checked.
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
    (1 + lambda_{k_j})^3 |a_j|^2. Dense ``h`` is built on each read; the d = 1
    route's dense ``h_minus_lap`` (from the rows) and ``h_phys`` and the d >= 2
    :attr:`_groups` on first use and kept (a sparse write per step would cost
    the d = 1 route more)."""

    grid: Grid
    index: np.ndarray
    amplitude: np.ndarray
    c_h_bound: float | None = None
    tail_estimate: float = 0.0
    h_minus_lap_k: np.ndarray = field(init=False, repr=False, compare=False)
    C_h: float = field(init=False)

    def __post_init__(self):
        self.index = np.array(self.index, dtype=int).reshape(-1, self.grid.dim)
        self.amplitude = np.array(self.amplitude, dtype=float).reshape(-1, 3)
        if len(self.index) != len(self.amplitude):
            raise ValueError("index and amplitude must hold one row per mode")
        lam = eigenvalue_array(self.grid)[tuple(self.index.T)][:, None]
        self.h_minus_lap_k = self.amplitude - self.amplitude * -lam  # h - Lap h
        self.C_h = float(sum(np.power(1.0 + lam[:, 0], 3.0)  # |h_j|_{H^3}^2
                             * np.add.reduce(self.amplitude ** 2, axis=1)))
        for arr in (self.index, self.amplitude, self.h_minus_lap_k):
            arr.setflags(write=False)

    @property
    def J(self) -> int:
        return len(self.index)

    @property
    def h(self) -> list[np.ndarray]:
        return [eigenmode_field(self.grid, k, a)
                for k, a in zip(self.index, self.amplitude)]

    @cached_property
    def h_minus_lap(self) -> list[np.ndarray]:
        return [eigenmode_field(self.grid, k, row)
                for k, row in zip(self.index, self.h_minus_lap_k)]

    @classmethod
    def empty(cls, grid: Grid) -> "NoiseModel":
        return cls(grid, [], [])

    @cached_property
    def h_phys(self) -> list[np.ndarray]:
        """Padded-grid values of each h_j for the d=1 route; built by the
        transform itself, so they add no ``synthesize`` call to a step."""
        return [_transform(hj, self.grid._axis_matrices[1]) for hj in self.h]

    @cached_property
    def _groups(self) -> list[tuple]:
        """Read-only ``(at, c, axes, js, cK, cQ)`` per distinct k, in order of
        first appearance; ``at`` indexes k, ``js`` the modes with k_j = k.
        M_k, Pi of the product with e_k, is the tensor product of the per-axis
        ``P_{k_i} = A diag(phi_{k_i}(x)) S``. P_0 is L_i^{-1/2} I, so M_k is
        ``c = prod_{k_i = 0} L_i^{-1/2}`` times the P of ``axes``: one ``(axis,
        P^T, (P^2)^T)`` per k_i != 0, transposed so no pass is an ``X @ P.T``
        GEMM, whose BLAS code (64 KB) no other pass of a step maps. ``cK[i] w =
        c a_j x w`` (j = js[i]) and ``cQ = c^2 Q_k`` act on the component axis."""
        analysis, synthesis, _ = self.grid._axis_matrices
        members: dict[tuple[int, ...], list[int]] = {}
        for j, k in enumerate(map(tuple, self.index.tolist())):
            members.setdefault(k, []).append(j)
        groups = []
        for k, js in members.items():
            c = math.prod(L ** -0.5 for L, ki in zip(self.grid.lengths, k) if not ki)
            axes = tuple((ax, Pt, Pt @ Pt) for ax, ki in enumerate(k) if ki for Pt in
                         [(synthesis[ax].T * synthesis[ax][:, ki]) @ analysis[ax].T])
            js = np.array(js)
            cK = c * np.stack([np.cross(a, np.eye(3)).T for a in self.amplitude[js]])
            cQ = sum(Kj @ Kj for Kj in cK)
            for arr in (*(m for _, *pair in axes for m in pair), js, cK, cQ):
                arr.setflags(write=False)
            groups.append(((slice(None), *k), c, axes, js, cK, cQ))
        return groups


def build_noise_modes(spec: dict, grid: Grid) -> NoiseModel:
    """Construct a NoiseModel from a descriptor.

    Supported families::

        {"family": "none"}
        {"family": "eigenmode",
         "modes": [{"sigma": s, "index": (k1, ..), "direction": (vx, vy, vz)}, ...],
         "c_h_bound": optional float, "tail_estimate": optional float}

    Eigenmode entries build ``h_j = sigma_j e_k(x) v_j`` with v_j normalized
    to a unit vector; :func:`sllbar.grid.check_mode_index` checks each index.
    """
    family = spec.get("family", "none")
    index, amplitude = [], []
    if family == "none":
        pass
    elif family == "eigenmode":
        for m, mode in enumerate(spec.get("modes", [])):
            sigma = float(mode["sigma"])
            direction = np.asarray(mode["direction"], dtype=float)
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
    else:
        raise ValueError(f"unknown noise family {family!r}")

    return NoiseModel(grid, index, amplitude, c_h_bound=spec.get("c_h_bound"),
                      tail_estimate=float(spec.get("tail_estimate", 0.0)))


def check_noise_condition(noise: NoiseModel) -> float:
    """The build-time ``C_h = sum_j |h_j|_{H^3}^2``; warn if it exceeds a
    configured bound."""
    if noise.c_h_bound is not None and noise.C_h > noise.c_h_bound:
        warnings.warn(
            f"noise condition sum {noise.C_h:.6g} exceeds configured bound "
            f"{noise.c_h_bound:.6g}",
            NoiseTailWarning,
            stacklevel=2,
        )
    return noise.C_h


def _diffusion_coeffs(grid: Grid, u_vals: np.ndarray, noise: NoiseModel,
                      j: int, ws: Workspace) -> np.ndarray:
    """Coefficients of ``G_j(u) = Pi(-u x h_j + h_j - Lap h_j)`` from u's values.

    The cross product is written into ``ws.prod``.
    """
    cross = cross3(u_vals, noise.h_phys[j], out=ws.prod)
    return noise.h_minus_lap[j] - analyze(grid, cross)


def _correction_coeffs(grid: Grid, u_vals: np.ndarray, noise: NoiseModel,
                       ws: Workspace) -> np.ndarray:
    """Coefficients of the Ito correction ``-1/2 sum_j Pi(G_j(u) x h_j)``.

    Each G_j's values are written into ``ws.lap`` and each cross product into
    ``ws.prod``.
    """
    acc = np.zeros((3, *grid.modes))
    for j in range(noise.J):
        G_vals = synthesize(grid, _diffusion_coeffs(grid, u_vals, noise, j, ws),
                            out=ws.lap)
        acc += analyze(grid, cross3(G_vals, noise.h_phys[j], out=ws.prod))
    return -0.5 * acc


def _tensor_apply(B: np.ndarray, arr: np.ndarray, mats) -> np.ndarray:
    """3 x 3 ``B`` on the components of ``arr`` and, for each ``(axis, mat_t)``,
    the matrix ``mat_t.T`` along spatial ``axis``, each in one matmul."""
    for ax, mat_t in mats:
        rest = math.prod(arr.shape[ax + 2:])
        arr = (np.matmul(arr.reshape(-1, len(mat_t)), mat_t) if rest == 1 else
               np.matmul(mat_t.T, arr.reshape(-1, len(mat_t), rest))).reshape(arr.shape)
    return (B @ arr.reshape(3, -1)).reshape(arr.shape)


def _operator_parts(noise: NoiseModel, coeffs: np.ndarray, dW: np.ndarray | None,
                    include_correction: bool):
    """``(increment, Ito correction)`` at d >= 2 from :attr:`NoiseModel._groups`.

    ``G_j(u) = (h_j - Lap h_j) + K_j M_k u``, so per distinct k the increment
    ``sum_j G_j(u) dW_j`` adds ``sum dW_j (h_j - Lap h_j)`` at k and ``B_k M_k
    u``, ``B_k = sum dW_j K_j``, over the modes with k_j = k. The correction
    is ``1/2 sum_k Q_k M_k^2 u``, one P^2 pass on u per k_i != 0; its constant
    part ``(M_k (h_j - Lap h_j)) x a_j`` is 0. Without ``dW`` the increment, and
    unless ``include_correction`` the correction, is None at no cost; both if J = 0.
    """
    inc = None if dW is None or not noise.J else np.zeros(coeffs.shape)
    acc = np.zeros(coeffs.shape) if include_correction and noise.J else None
    for at, _, axes, js, cK, cQ in noise._groups:
        if inc is not None:
            inc[at] += dW[js] @ noise.h_minus_lap_k[js]
            B = np.tensordot(dW[js], cK, 1)
            inc += _tensor_apply(B, coeffs, ((ax, Pt) for ax, Pt, _ in axes))
        if acc is not None:
            acc += _tensor_apply(cQ, coeffs, ((ax, P2t) for ax, _, P2t in axes))
    return inc, None if acc is None else 0.5 * acc


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
    change results. Each thread reuses one generator and one state dict; each
    call writes key and counter into the dict and resets the whole state
    (key, counter and buffered bits) from it, which gives the same values as
    a freshly built ``Generator(Philox(key=seed, counter=[0x5757, path,
    step, 0]))``.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if J == 0:
        return WienerIncrement(step, np.zeros(0))
    if not hasattr(_PHILOX, "gen"):
        _PHILOX.gen = np.random.Generator(np.random.Philox(0))
        _PHILOX.state = {
            "bit_generator": "Philox",
            "state": {"counter": [_STREAM_WIENER, 0, 0, 0], "key": [0, 0]},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
    inner = _PHILOX.state["state"]
    inner["counter"][1:3] = int(path), int(step)
    inner["key"][0] = int(seed)
    _PHILOX.gen.bit_generator.state = _PHILOX.state
    values = _PHILOX.gen.standard_normal(J) * math.sqrt(dt)
    return WienerIncrement(step, values)


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
