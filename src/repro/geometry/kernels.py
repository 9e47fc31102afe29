"""Interaction kernels for the BEM-like test matrices.

The matrix entry is ``a_ij = K(|x_i - x_j|)`` where, following Section V-A of
the paper:

* real case ("d"): ``K(d) = 1/d``,
* complex case ("z"): ``K(d) = exp(i k d)/d`` where the wave number ``k`` is
  picked with the 10-points-per-wavelength rule of thumb,
* the singularity at ``d = 0`` is removed by clamping ``d`` to half the mesh
  step.

Kernels are exposed as :class:`KernelFunction` objects that evaluate whole
blocks at once (vectorised over both point sets).  The ACA compressor, which
asks for single rows and columns of one block many times over, takes them
from that block's :class:`BlockSampler` instead, and from a
:class:`StackedSampler` when it runs many same-shape blocks in lockstep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .cylinder import mesh_step

__all__ = [
    "KernelFunction",
    "BlockSampler",
    "StackedSampler",
    "laplace_kernel",
    "helmholtz_kernel",
    "gravity_kernel",
    "exponential_kernel",
    "squared_exponential_kernel",
    "matern_kernel",
    "GP_KERNELS",
    "SOLVE_KERNELS",
    "make_kernel",
    "rule_of_thumb_wavenumber",
]


#: Entries per row panel of the element-wise stage of a kernel block (512 KB
#: of float64 per temporary: a few of them stay in the L2 cache).
_PANEL_ENTRIES = 1 << 16


def _distances(sums: np.ndarray, cross: np.ndarray, d_min: float) -> np.ndarray:
    """Clamped Euclidean distances from the expanded form, in place on ``cross``.

    ``sums`` holds ``|x_i|^2 + |y_j|^2`` and ``cross`` the inner products
    ``x_i . y_j``; the result is ``sqrt(sums - 2 cross)`` clamped below at
    ``d_min``, written into (and returned as) ``cross``.

    Squared distances within relative rounding noise of zero (negative ones
    included, so no NaN reaches the sqrt) are snapped to exactly 0.0: the
    expanded form leaves the self-distance of a point at a tiny positive
    value, and the GP covariance kernels key their nugget on ``d == 0``, so
    the diagonal of ``k(x, x)`` must report exact zeros for ``diag()`` to
    match it bit for bit.
    """
    d2 = cross
    d2 *= -2.0
    d2 += sums
    np.putmask(d2, d2 <= 1e-12 * sums, 0.0)
    d = np.sqrt(d2, out=d2)
    if d_min:
        np.maximum(d, d_min, out=d)
    return d


def _sq_norms(p: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", p, p)


def _as_points(p: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(np.atleast_2d(p), dtype=np.float64)


@dataclass(frozen=True)
class KernelFunction:
    """A radial interaction kernel with singularity clamping.

    Attributes
    ----------
    name:
        Human-readable identifier ("laplace", "helmholtz", ...).
    dtype:
        Result dtype (float64 or complex128).
    radial:
        Vectorised map from clamped distances to kernel values.
    d_min:
        Distances below this are clamped to it (half the mesh step in the
        paper).  Must be positive for singular kernels; smooth kernels
        (covariances) use ``d_min = 0`` so the diagonal is the exact ``K(0)``
        — clamping it would destroy positive definiteness.
    """

    name: str
    dtype: np.dtype
    radial: Callable[[np.ndarray], np.ndarray]
    d_min: float
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.d_min < 0.0:
            raise ValueError(f"d_min must be non-negative, got {self.d_min}")

    @property
    def is_complex(self) -> bool:
        return np.issubdtype(self.dtype, np.complexfloating)

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Evaluate the kernel block for point sets ``x`` (rows), ``y`` (cols).

        One ``x @ y.T``; the element-wise stage then runs over row panels of
        :data:`_PANEL_ENTRIES` entries, so its half-dozen temporaries are
        panel-sized whatever the block (a real block is finished in the
        product's own buffer).  Element-wise work does not depend on where in
        the block it runs: the result is bit for bit the one-pass block.
        """
        x, y = _as_points(x), _as_points(y)
        cross = x @ y.T
        rows, cols = _sq_norms(x), _sq_norms(y)
        m, n = cross.shape
        if m * n <= _PANEL_ENTRIES:
            return self._entries(rows[:, None] + cols[None, :], cross)
        out = cross if cross.dtype == self.dtype else np.empty(cross.shape, dtype=self.dtype)
        step = max(1, _PANEL_ENTRIES // n)
        for r0 in range(0, m, step):
            r1 = min(r0 + step, m)
            out[r0:r1] = self._entries(rows[r0:r1, None] + cols[None, :], cross[r0:r1])
        return out

    def _entries(self, sums: np.ndarray, cross: np.ndarray) -> np.ndarray:
        """Kernel values from ``|x|^2 + |y|^2`` and ``x . y`` (``cross`` is consumed)."""
        return self._of_distances(_distances(sums, cross, self.d_min))

    def _of_distances(self, d: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(self.radial(d), dtype=self.dtype)

    def sampler(self, row_points: np.ndarray, col_points: np.ndarray) -> "BlockSampler":
        """Row/column oracle of the block ``self(row_points, col_points)``."""
        return BlockSampler(self, row_points, col_points)

    def diag(self, x: np.ndarray) -> np.ndarray:
        """Diagonal entries K(0) (clamped), one per point in ``x``."""
        n = np.atleast_2d(x).shape[0]
        return self._of_distances(np.full(n, self.d_min, dtype=np.float64))


class BlockSampler:
    """Rows and columns of one kernel block without forming the block.

    What :meth:`KernelFunction.__call__` redoes on every call — contiguous
    float64 copies of both point sets and their squared norms — is done once
    here, so an ACA sweep over a leaf pays it per leaf instead of per row.
    Entries go through the same distance snap, ``d_min`` clamp and ``radial``
    map as ``__call__`` and equal its entries up to the rounding of the
    inner product (GEMV here, GEMM there).
    """

    __slots__ = ("kernel", "shape", "_rp", "_cp", "_r2", "_c2")

    def __init__(self, kernel: KernelFunction, row_points: np.ndarray, col_points: np.ndarray) -> None:
        self.kernel = kernel
        self._rp = _as_points(row_points)
        self._cp = _as_points(col_points)
        self._r2 = _sq_norms(self._rp)
        self._c2 = _sq_norms(self._cp)
        self.shape = (self._rp.shape[0], self._cp.shape[0])

    def row(self, i: int) -> np.ndarray:
        """Row ``i`` of the block (length ``shape[1]``)."""
        return self.kernel._entries(self._c2 + self._r2[i], self._cp @ self._rp[i])

    def col(self, j: int) -> np.ndarray:
        """Column ``j`` of the block (length ``shape[0]``)."""
        return self.kernel._entries(self._r2 + self._c2[j], self._rp @ self._cp[j])

    def rows(self, idx) -> np.ndarray:
        """The rows ``idx`` (an index array) stacked, shape ``(len(idx), shape[1])``."""
        return self.kernel._entries(self._r2[idx, None] + self._c2, self._rp[idx] @ self._cp.T)

    @classmethod
    def stack(cls, samplers: list["BlockSampler"]) -> "StackedSampler":
        """The :class:`StackedSampler` of same-shape samplers of one kernel."""
        return StackedSampler(samplers)


class StackedSampler:
    """Rows and columns of ``B`` same-shape blocks of one kernel, stacked.

    Block ``b`` is ``samplers[b]``'s block.  A request names one row (or
    column) per block and is one stacked evaluation: the inner products are a
    stacked ``matmul`` — one GEMV per block over the same operands as
    :class:`BlockSampler` — and the snap/clamp/``radial`` steps run once over
    all of them, so every entry equals its block's sampler bit for bit.
    ``blocks`` is an ascending array of distinct block indices; naming every
    block uses the stacked point arrays as they are, without gathering them.
    """

    __slots__ = ("kernel", "shape", "_rp", "_cp", "_r2", "_c2")

    def __init__(self, samplers: list[BlockSampler]) -> None:
        first = samplers[0]
        if any(s.kernel is not first.kernel or s.shape != first.shape for s in samplers):
            raise ValueError("a stacked sampler takes same-shape samplers of one kernel")
        self.kernel = first.kernel
        self.shape = first.shape
        self._rp = np.stack([s._rp for s in samplers])
        self._cp = np.stack([s._cp for s in samplers])
        self._r2 = np.stack([s._r2 for s in samplers])
        self._c2 = np.stack([s._c2 for s in samplers])

    def __len__(self) -> int:
        return len(self._rp)

    def _take(self, a: np.ndarray, blocks: np.ndarray) -> np.ndarray:
        return a if len(blocks) == len(a) else a[blocks]

    def row(self, blocks: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Row ``idx[t]`` of block ``blocks[t]`` for each ``t``: ``(len(blocks), shape[1])``."""
        cross = self._take(self._cp, blocks) @ self._rp[blocks, idx, :, None]
        sums = self._take(self._c2, blocks) + self._r2[blocks, idx, None]
        return self.kernel._entries(sums, cross[:, :, 0])

    def col(self, blocks: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Column ``idx[t]`` of block ``blocks[t]`` for each ``t``: ``(len(blocks), shape[0])``."""
        cross = self._take(self._rp, blocks) @ self._cp[blocks, idx, :, None]
        sums = self._take(self._r2, blocks) + self._c2[blocks, idx, None]
        return self.kernel._entries(sums, cross[:, :, 0])

    def rows(self, block: int, idx) -> np.ndarray:
        """The rows ``idx`` of block ``block`` stacked, as its sampler's ``rows(idx)``."""
        return self.kernel._entries(
            self._r2[block, idx, None] + self._c2[block], self._rp[block, idx] @ self._cp[block].T
        )


# Radial maps are module-level frozen dataclasses (not nested closures) so
# KernelFunction objects pickle — the process executor ships kernels to
# spawned workers for tile assembly.
@dataclass(frozen=True)
class _ScaledInverse:
    scale: float

    def __call__(self, d: np.ndarray) -> np.ndarray:
        return self.scale / d


@dataclass(frozen=True)
class _OscillatoryInverse:
    wavenumber: float

    def __call__(self, d: np.ndarray) -> np.ndarray:
        return np.exp(1j * self.wavenumber * d) / d


@dataclass(frozen=True)
class _PlummerSoftened:
    softening: float

    def __call__(self, d: np.ndarray) -> np.ndarray:
        eps = self.softening
        return 1.0 / np.sqrt(d * d + eps * eps)


@dataclass(frozen=True)
class _ExponentialDecay:
    length: float

    def __call__(self, d: np.ndarray) -> np.ndarray:
        return np.exp(-d / self.length)


@dataclass(frozen=True)
class _SquaredExponential:
    """GP squared-exponential covariance ``s2 exp(-d^2/2l^2)`` + nugget at 0.

    The nugget (observation-noise variance + jitter) is added only where
    ``d == 0`` — exactly the diagonal once ``_distances`` snaps
    self-distances to zero — so ``K = K_f + s_n^2 I`` and the prior variance
    is exactly ``s2 + nugget``.
    """

    length: float
    signal2: float
    nugget: float

    def __call__(self, d: np.ndarray) -> np.ndarray:
        u = d / self.length
        out = self.signal2 * np.exp(-0.5 * u * u)
        if self.nugget:
            out = np.where(d == 0.0, out + self.nugget, out)
        return out


@dataclass(frozen=True)
class _Matern:
    """Matérn covariance for half-integer smoothness nu in {0.5, 1.5, 2.5}."""

    length: float
    signal2: float
    nugget: float
    nu: float

    def __call__(self, d: np.ndarray) -> np.ndarray:
        u = d / self.length
        if self.nu == 0.5:
            out = self.signal2 * np.exp(-u)
        elif self.nu == 1.5:
            s = math.sqrt(3.0) * u
            out = self.signal2 * (1.0 + s) * np.exp(-s)
        else:  # nu == 2.5
            s = math.sqrt(5.0) * u
            out = self.signal2 * (1.0 + s + s * s / 3.0) * np.exp(-s)
        if self.nugget:
            out = np.where(d == 0.0, out + self.nugget, out)
        return out


def rule_of_thumb_wavenumber(points: np.ndarray, points_per_wavelength: float = 10.0) -> float:
    """Wave number chosen with the paper's "rule of thumb".

    Ten points per wavelength is the rule "commonly used in the wave
    propagation community" (Section V-A): the wavelength is ten mesh steps,
    hence ``k = 2 pi / (10 h)``.
    """
    if points_per_wavelength <= 0:
        raise ValueError("points_per_wavelength must be positive")
    h = mesh_step(points)
    return 2.0 * math.pi / (points_per_wavelength * h)


def laplace_kernel(points: np.ndarray, *, scale: float = 1.0) -> KernelFunction:
    """Real test kernel ``K(d) = scale/d`` with half-mesh-step clamping.

    This is the paper's real-double ("d") case: block ranks are essentially
    independent of block size, so most of the storage sits near the diagonal.
    """
    h = mesh_step(points)

    return KernelFunction(
        name="laplace",
        dtype=np.dtype(np.float64),
        radial=_ScaledInverse(scale),
        d_min=0.5 * h,
        params={"scale": scale, "mesh_step": h},
    )


def helmholtz_kernel(
    points: np.ndarray,
    *,
    wavenumber: float | None = None,
    points_per_wavelength: float = 10.0,
) -> KernelFunction:
    """Complex test kernel ``K(d) = exp(i k d)/d`` (paper's "z" case).

    The oscillatory factor makes block ranks *grow* with block size, which is
    why the complex case carries far more storage and work than the real one
    and distributes it more evenly across the matrix.
    """
    h = mesh_step(points)
    if wavenumber is None:
        wavenumber = 2.0 * math.pi / (points_per_wavelength * h)
    if wavenumber < 0:
        raise ValueError("wavenumber must be non-negative")
    k = float(wavenumber)

    return KernelFunction(
        name="helmholtz",
        dtype=np.dtype(np.complex128),
        radial=_OscillatoryInverse(k),
        d_min=0.5 * h,
        params={"wavenumber": k, "mesh_step": h},
    )


def gravity_kernel(points: np.ndarray, *, softening: float | None = None) -> KernelFunction:
    """Plummer-softened gravitational kernel ``K(d) = 1/sqrt(d^2 + eps^2)``.

    Smooth everywhere; compresses even better than 1/d.  Used by the N-body
    style example.
    """
    h = mesh_step(points)
    eps = 0.5 * h if softening is None else float(softening)
    if eps <= 0:
        raise ValueError("softening must be positive")

    # Plummer softening removes the singularity, so no distance clamp.
    return KernelFunction(
        name="gravity",
        dtype=np.dtype(np.float64),
        radial=_PlummerSoftened(eps),
        d_min=0.0,
        params={"softening": eps, "mesh_step": h},
    )


def exponential_kernel(points: np.ndarray, *, length: float = 1.0) -> KernelFunction:
    """Exponential covariance kernel ``K(d) = exp(-d/length)``.

    A classic kriging/Gaussian-process covariance; symmetric positive
    definite, so also useful to test Cholesky-friendly paths.
    """
    if length <= 0:
        raise ValueError("length must be positive")
    h = mesh_step(points)

    # Smooth covariance: no clamp, so the diagonal is exactly K(0) = 1 and
    # the matrix stays symmetric positive definite.
    return KernelFunction(
        name="exponential",
        dtype=np.dtype(np.float64),
        radial=_ExponentialDecay(length),
        d_min=0.0,
        params={"length": length, "mesh_step": h},
    )


def _check_gp_params(length: float, signal: float, nugget: float) -> None:
    if not (length > 0 and math.isfinite(length)):
        raise ValueError(f"length must be positive, got {length}")
    if not (signal > 0 and math.isfinite(signal)):
        raise ValueError(f"signal must be positive, got {signal}")
    if not (nugget >= 0 and math.isfinite(nugget)):
        raise ValueError(f"nugget must be non-negative, got {nugget}")


def squared_exponential_kernel(
    points: np.ndarray, *, length: float = 0.25, signal: float = 1.0,
    nugget: float = 1e-6,
) -> KernelFunction:
    """GP squared-exponential covariance ``s^2 exp(-d^2/2l^2) + nugget [d=0]``.

    The standard Gaussian-process regression covariance: ``signal`` is the
    prior standard deviation, ``nugget`` the observation-noise variance (plus
    jitter) added on the diagonal only.  Smooth and SPD, so the H-compressed
    covariance factorises with the tiled Cholesky; ``diag`` returns exactly
    ``signal^2 + nugget``.
    """
    _check_gp_params(length, signal, nugget)
    return KernelFunction(
        name="sqexp",
        dtype=np.dtype(np.float64),
        radial=_SquaredExponential(float(length), float(signal) ** 2, float(nugget)),
        d_min=0.0,
        params={"length": float(length), "signal": float(signal), "nugget": float(nugget)},
    )


def matern_kernel(
    points: np.ndarray, *, nu: float = 1.5, length: float = 0.25,
    signal: float = 1.0, nugget: float = 1e-6,
) -> KernelFunction:
    """Matérn GP covariance for half-integer ``nu`` in {0.5, 1.5, 2.5}.

    ``nu = 0.5`` is the exponential (Ornstein–Uhlenbeck) covariance,
    ``1.5``/``2.5`` the once/twice mean-square-differentiable members used
    throughout the GP literature.  Nugget semantics match
    :func:`squared_exponential_kernel`.
    """
    _check_gp_params(length, signal, nugget)
    if nu not in (0.5, 1.5, 2.5):
        raise ValueError(f"nu must be one of 0.5, 1.5, 2.5, got {nu}")
    return KernelFunction(
        name=f"matern{int(nu * 2)}2",
        dtype=np.dtype(np.float64),
        radial=_Matern(float(length), float(signal) ** 2, float(nugget), float(nu)),
        d_min=0.0,
        params={"nu": float(nu), "length": float(length),
                "signal": float(signal), "nugget": float(nugget)},
    )


def _matern_factory(nu: float):
    def factory(points: np.ndarray, **params) -> KernelFunction:
        params.setdefault("nu", nu)
        if params["nu"] != nu:
            raise ValueError(f"nu is fixed to {nu} for this kernel name")
        return matern_kernel(points, **params)

    return factory


_FACTORIES = {
    "laplace": laplace_kernel,
    "helmholtz": helmholtz_kernel,
    "gravity": gravity_kernel,
    "exponential": exponential_kernel,
    "sqexp": squared_exponential_kernel,
    "matern12": _matern_factory(0.5),
    "matern32": _matern_factory(1.5),
    "matern52": _matern_factory(2.5),
}

#: Kernel names usable as Gaussian-process covariances (SPD with an exact
#: ``signal^2 + nugget`` prior variance on the diagonal).
GP_KERNELS = ("sqexp", "matern12", "matern32", "matern52")
#: Kernel names of the BEM-style solve problems (the rest of the table).
SOLVE_KERNELS = ("laplace", "helmholtz", "gravity", "exponential")


def make_kernel(name: str, points: np.ndarray, **params) -> KernelFunction:
    """Create a kernel by name ("laplace", "helmholtz", ..., "sqexp", "matern32").

    The paper's two arithmetic cases map to ``make_kernel("laplace", pts)``
    (real double, "d") and ``make_kernel("helmholtz", pts)`` (complex double,
    "z"); the GP covariances (:data:`GP_KERNELS`) take ``length``/``signal``/
    ``nugget`` hyperparameters.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(f"unknown kernel {name!r}; available: {sorted(_FACTORIES)}") from None
    return factory(points, **params)
