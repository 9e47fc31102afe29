"""Unpivoted dense LU and triangular-solve kernels.

H-LU factorisations are performed *without pivoting* (pivoting across the
hierarchical structure would destroy it); the BEM-style test matrices are
strongly regular after singularity clamping, which is the standard
justification in the H-matrix literature.  The blocked recursion below keeps
all O(n^3) work inside BLAS-3 calls.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.linalg import get_lapack_funcs

__all__ = [
    "SingularTileError",
    "getrf_nopiv",
    "split_lu",
    "tri_solve",
    "qr_economic",
    "qr_pivoted",
    "householder_q",
    "svd_economic",
    "trsm",
    "gemm_update",
]

_LAPACK_CACHE: dict = {}


def _lapack(name: str, dtype: np.dtype):
    key = (name, dtype.char)
    func = _LAPACK_CACHE.get(key)
    if func is None:
        (func,) = get_lapack_funcs((name,), dtype=dtype)
        _LAPACK_CACHE[key] = func
    return func


@lru_cache(maxsize=1024)
def _workspace(name: str, char: str, m: int, n: int) -> int:
    """Optimal workspace size of LAPACK routine ``name`` on an ``m x n`` operand.

    LAPACK's answer depends on the routine, the dtype and the shape only, so
    it is asked once per triple: every call gets the ``lwork`` a per-call
    query would give it, hence the same blocking and the same bits.
    ``orgqr`` is sized for ``m x n`` with ``n`` reflectors.
    """
    dtype = np.dtype(char)
    if name in ("orgqr", "geqp3"):
        # No ``_lwork`` wrapper: a ``lwork=-1`` call returns the size in
        # ``work[0]`` before touching its operands.
        a = np.zeros((m, n), dtype=dtype, order="F")
        if name == "orgqr":
            _, work, info = _lapack(name, dtype)(a, np.zeros(n, dtype=dtype), lwork=-1)
        else:
            *_, work, info = _lapack(name, dtype)(a, lwork=-1)
        _check_info(name, info)
        return int(work[0].real)
    kwargs = {"compute_uv": True, "full_matrices": False} if name == "gesdd" else {}
    work, info = _lapack(name + "_lwork", dtype)(m, n, **kwargs)
    _check_info(name + "_lwork", info)
    work = work.real
    if char in "fF":
        # A single-precision query may have rounded a large size down.
        work = np.nextafter(np.float32(work), np.float32(np.inf))
    return int(work)


@lru_cache(maxsize=256)
def _below_diagonal(k: int) -> np.ndarray:
    """Read-only mask of the strict lower triangle of a ``k x k`` array."""
    mask = np.tri(k, k, -1, dtype=bool)
    mask.flags.writeable = False
    return mask


def _upper(qr: np.ndarray, k: int) -> np.ndarray:
    """``np.triu(qr[:k])`` for ``k <= qr.shape[1]`` (same values, same C layout),
    without building a mask per call: the strict lower triangle lies in the
    first ``k`` columns."""
    r = qr[:k].copy()
    r[:, :k][_below_diagonal(k)] = 0
    return r


def _check_info(name: str, info: int) -> None:
    if info != 0:
        raise np.linalg.LinAlgError(f"{name} failed with info={info}")


def tri_solve(
    a: np.ndarray,
    b: np.ndarray,
    *,
    lower: bool,
    unit_diagonal: bool = False,
    trans: int = 0,
) -> np.ndarray:
    """Triangular solve ``op(A) X = B`` via LAPACK ``trtrs`` directly.

    A thin bypass of :func:`scipy.linalg.solve_triangular`, whose per-call
    validation overhead dominates on the small panels H-arithmetic produces.
    ``trans``: 0 = no transpose, 1 = transpose, 2 = conjugate transpose.
    """
    dtype = np.promote_types(a.dtype, b.dtype)
    a = a.astype(dtype, copy=False)
    b = np.asarray(b)
    if b.size == 0:
        return b.astype(dtype)
    trtrs = _lapack("trtrs", dtype)
    x, info = trtrs(
        a,
        b.astype(dtype, copy=False),
        lower=lower,
        trans=trans,
        unitdiag=unit_diagonal,
    )
    _check_info("trtrs", info)
    return x


def qr_economic(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Economic QR ``a = q @ r`` via LAPACK ``geqrf`` + ``orgqr``/``ungqr``.

    Same routines, workspace sizes and results as
    ``scipy.linalg.qr(a, mode="economic", check_finite=False)``, without its
    per-call wrapper cost, which exceeds the LAPACK work on the 48-192 row,
    10-30 column factors that Rk rounding produces.  ``a`` is not modified.
    """
    m, n = a.shape
    k = min(m, n)
    dtype = a.dtype
    if k == 0:
        return np.empty((m, 0), dtype=dtype), np.empty((0, n), dtype=dtype)
    qr, tau, _, info = _lapack("geqrf", dtype)(a, lwork=_workspace("geqrf", dtype.char, m, n))
    _check_info("geqrf", info)
    r = _upper(qr, k)
    return householder_q(qr, tau, k), r


def qr_pivoted(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Column-pivoted QR ``a[:, perm] = q @ r`` via LAPACK ``geqp3``.

    Returns ``(r, perm, qr, tau)``: ``r`` is the ``min(m, n) x n`` upper
    trapezoid, whose diagonal does not increase in magnitude, ``perm`` the
    0-based column order, and ``qr``/``tau`` the packed reflectors that
    :func:`householder_q` turns into columns of ``q``.  ``a`` is not
    modified.
    """
    m, n = a.shape
    dtype = a.dtype
    qr, jpvt, tau, _, info = _lapack("geqp3", dtype)(a, lwork=_workspace("geqp3", dtype.char, m, n))
    _check_info("geqp3", info)
    return _upper(qr, min(m, n)), jpvt - 1, qr, tau


def householder_q(qr: np.ndarray, tau: np.ndarray, k: int) -> np.ndarray:
    """The first ``k`` columns of ``q`` from packed reflectors, via ``orgqr``/``ungqr``.

    ``qr``/``tau`` as returned by ``geqrf`` or ``geqp3`` (a Fortran-ordered
    ``qr``); its first ``k`` columns are overwritten.
    """
    orgqr = _lapack("orgqr", qr.dtype)  # resolves to ungqr for complex dtypes
    q, _, info = orgqr(
        qr[:, :k], tau[:k], lwork=_workspace("orgqr", qr.dtype.char, qr.shape[0], k), overwrite_a=1
    )
    _check_info("orgqr", info)
    return q


def svd_economic(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``a = (u * s) @ vh`` via LAPACK ``gesdd``.

    Same routine, workspace size and results as ``scipy.linalg.svd(a,
    full_matrices=False, check_finite=False)`` minus the wrapper cost.  Any
    non-zero ``info`` (no convergence, or a NaN entry) raises
    ``LinAlgError``.  ``a`` is not modified.
    """
    m, n = a.shape
    dtype = a.dtype
    if min(m, n) == 0:
        real = np.empty(0, dtype=dtype).real.dtype
        return np.empty((m, 0), dtype=dtype), np.empty(0, dtype=real), np.empty((0, n), dtype=dtype)
    u, s, vh, info = _lapack("gesdd", dtype)(
        a, compute_uv=True, lwork=_workspace("gesdd", dtype.char, m, n), full_matrices=False
    )
    _check_info("gesdd", info)
    return u, s, vh


#: Below this size the scalar right-looking loop is used directly.
_GETRF_BASE = 64

#: Pivots with magnitude below ``_PIVOT_RTOL * max|diag|`` raise.
_PIVOT_RTOL = 1e-12


class SingularTileError(np.linalg.LinAlgError):
    """Raised when an unpivoted LU meets a (numerically) zero pivot."""


def _getrf_base(a: np.ndarray, pivot_floor: float) -> None:
    """Unblocked right-looking unpivoted LU, in place."""
    n = a.shape[0]
    for k in range(n):
        piv = a[k, k]
        if abs(piv) <= pivot_floor:
            raise SingularTileError(
                f"zero pivot at index {k}: |{piv!r}| <= {pivot_floor:.3e} (unpivoted LU)"
            )
        a[k + 1 :, k] /= piv
        if k + 1 < n:
            # Rank-1 update of the trailing submatrix (broadcast, not
            # np.outer: the wrapper overhead shows up at this call volume).
            a[k + 1 :, k + 1 :] -= a[k + 1 :, k, None] * a[k, k + 1 :]


def getrf_nopiv(a: np.ndarray, *, overwrite: bool = True) -> np.ndarray:
    """LU factorisation without pivoting: ``A = L U`` packed into one array.

    On return the strict lower triangle holds ``L`` (unit diagonal implied)
    and the upper triangle (incl. diagonal) holds ``U`` — same packing as
    LAPACK ``getrf`` minus the permutation.

    Parameters
    ----------
    a:
        Square matrix; modified in place when ``overwrite`` is true (and the
        array is writeable and contiguous enough), otherwise copied.

    Raises
    ------
    SingularTileError
        If a pivot is numerically zero relative to the diagonal scale.
    """
    a = np.array(a, copy=not overwrite, order="C", subok=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"getrf_nopiv expects a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n == 0:
        return a
    diag_scale = float(np.abs(np.diagonal(a)).max())
    pivot_floor = _PIVOT_RTOL * max(diag_scale, 1e-300)

    # Fast path: LAPACK getrf *with* pivoting, accepted only when the pivot
    # permutation turns out to be the identity — then its result IS the
    # unpivoted LU (computed by LAPACK's blocked kernels instead of our
    # Python loop).  Strongly regular H-LU diagonal blocks take this path
    # almost always; any row swap falls back to the manual recursion.
    getrf = _lapack("getrf", a.dtype)
    lu, piv, info = getrf(a, overwrite_a=False)
    if (
        info == 0
        and np.array_equal(piv, np.arange(n, dtype=piv.dtype))
        and float(np.abs(np.diagonal(lu)).min()) > pivot_floor
    ):
        a[...] = lu
        return a

    def recurse(block: np.ndarray) -> None:
        m = block.shape[0]
        if m <= _GETRF_BASE:
            _getrf_base(block, pivot_floor)
            return
        half = m // 2
        a11 = block[:half, :half]
        a12 = block[:half, half:]
        a21 = block[half:, :half]
        a22 = block[half:, half:]
        recurse(a11)
        # A12 <- L11^{-1} A12 ; A21 <- A21 U11^{-1}
        a12[:] = tri_solve(a11, a12, lower=True, unit_diagonal=True)
        a21[:] = tri_solve(a11, a21.conj().T, lower=False, trans=2).conj().T
        a22 -= a21 @ a12
        recurse(a22)

    recurse(a)
    return a


def split_lu(lu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unpack the combined LU array into explicit ``(L, U)`` factors."""
    l = np.tril(lu, -1)
    np.fill_diagonal(l, 1.0)
    u = np.triu(lu)
    return l.astype(lu.dtype, copy=False), u


def trsm(
    side: str,
    uplo: str,
    a: np.ndarray,
    b: np.ndarray,
    *,
    unit_diagonal: bool = False,
    overwrite: bool = False,
) -> np.ndarray:
    """Triangular solve in BLAS TRSM form.

    ``side="left"`` solves ``op(A) X = B``; ``side="right"`` solves
    ``X op(A) = B``; ``uplo`` in {"lower", "upper"} selects the triangle of
    ``a`` that is referenced.  Mirrors the two TRSM calls of Algorithm 1:
    ``trsm("left", "lower", L, B, unit_diagonal=True)`` for the U-panel and
    ``trsm("right", "upper", U, B)`` for the L-panel.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if uplo not in ("lower", "upper"):
        raise ValueError(f"uplo must be 'lower' or 'upper', got {uplo!r}")
    b_arr = np.asarray(b)
    squeeze = b_arr.ndim == 1
    if squeeze:
        b_arr = b_arr[:, None]
    lower = uplo == "lower"
    if side == "left":
        x = tri_solve(a, b_arr, lower=lower, unit_diagonal=unit_diagonal)
    else:
        # X A = B  <=>  A^H X^H = B^H; conj-transpose keeps complex exactness.
        xt = tri_solve(a, b_arr.conj().T, lower=lower, unit_diagonal=unit_diagonal, trans=2)
        x = xt.conj().T
    x = np.ascontiguousarray(x)
    if squeeze:
        x = x[:, 0]
    if overwrite and isinstance(b, np.ndarray) and b.shape == x.shape:
        b[...] = x
        return b
    return x


def gemm_update(c: np.ndarray, a: np.ndarray, b: np.ndarray, alpha: float = -1.0) -> np.ndarray:
    """Schur-complement update ``C <- C + alpha * A @ B`` in place.

    The default ``alpha = -1`` matches the GEMM of Algorithm 1 line 11.
    """
    prod = a @ b
    if alpha == -1.0:
        c -= prod
    elif alpha == 1.0:
        c += prod
    else:
        c += alpha * prod
    return c

