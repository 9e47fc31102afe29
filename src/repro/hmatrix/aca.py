"""Adaptive Cross Approximation (ACA) for admissible kernel blocks.

ACA with partial pivoting builds ``A ~= U V^T`` from O((m + n) k) kernel
evaluations — it never materialises the block, which is what makes H-matrix
*assembly* (not just arithmetic) log-linear.  This is the compression scheme
the paper cites ([20], Rjasanow) as HMAT-OSS's default; an SVD path and a
fully-pivoted ACA are provided for validation.

Assembly runs ACA only on admissible blocks larger than a dense leaf: a block
between two leaf clusters is evaluated by one kernel call and compressed by
the truncated SVD (:func:`repro.hmatrix.hmatrix.assemble_hmatrix`), which is
cheaper than the interpreted cross loop at that size and meets the ε-bound
exactly.  Every compressed block, whatever the method, is reported to the
probe once.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ..obs.instrument import current as _current_probe
from .rk import RkMatrix, _check_eps, compress_dense, compress_dense_rsvd

__all__ = ["aca_partial", "aca_full", "compress_kernel_block"]

#: Residual entries below this (relative to the first pivot) are treated as 0.
_PIVOT_DROP = 1e-14


def _norm2(x: np.ndarray) -> float:
    """``float(np.linalg.norm(x))`` of a 1-D array, minus the wrapper.

    Same arithmetic for every dtype: the dot products and the square root
    stay in the precision of ``x`` (single for s/c), as in ``norm``.
    """
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return float(np.sqrt(re.dot(re) + im.dot(im)))
    return float(np.sqrt(x.dot(x)))


def aca_partial(
    get_row: Callable[[int], np.ndarray],
    get_col: Callable[[int], np.ndarray],
    m: int,
    n: int,
    eps: float,
    *,
    max_rank: int | None = None,
    recompress: bool = True,
    grace: int = 3,
    get_rows: Callable[[np.ndarray], np.ndarray] | None = None,
) -> RkMatrix:
    """Partially pivoted ACA of an ``m x n`` block defined by row/col oracles.

    Parameters
    ----------
    get_row, get_col:
        ``get_row(i)`` returns row ``i`` of the block (length ``n``);
        ``get_col(j)`` returns column ``j`` (length ``m``).  The returned
        arrays are only read, so an oracle may hand out views of its data.
    get_rows:
        Optional batched oracle: ``get_rows(idx)`` returns the rows ``idx``
        (an index array) stacked, shape ``(len(idx), n)``.  Only the
        convergence check uses it; without it the check calls ``get_row``
        once per sampled row.
    eps:
        Stopping tolerance: iteration ends when the new cross satisfies
        ``||u_k|| ||v_k|| <= eps * ||A_k||_F`` (the standard heuristic
        estimate of the relative residual).
    max_rank:
        Hard cap on the rank (defaults to ``min(m, n)``).
    recompress:
        Round the ACA factors with QR+SVD to ``eps`` afterwards (ACA ranks
        are typically a few units above optimal).
    grace:
        Number of *consecutive* crosses that must satisfy the stopping
        criterion before iteration ends.  Structured point grids (like the
        cylinder mesh) make single-cross estimates unreliable — the classic
        partial-pivoting failure mode — so a short grace run is required.

    Returns
    -------
    RkMatrix
        The compressed block.  Rank 0 if the block is numerically zero.
    """
    if m <= 0 or n <= 0:
        raise ValueError(f"block dimensions must be positive, got {m} x {n}")
    _check_eps(eps)
    limit = min(m, n) if max_rank is None else min(max_rank, m, n)
    if get_rows is None:
        def get_rows(idx):
            return np.stack([get_row(int(i)) for i in idx])

    # Row 0 is the first pivot row; it also fixes the dtype.
    r = np.asarray(get_row(0))
    dtype = r.dtype
    evaluated = n  # kernel entries asked of the oracles
    # Stacked factors in preallocated buffers (columns 0..k are live) so the
    # residual updates below are single GEMVs instead of Python loops over
    # rank-1 terms; capacity doubles as the rank grows.
    cap = min(limit, 8)
    uu = np.empty((m, cap), dtype=dtype)
    vv = np.empty((n, cap), dtype=dtype)
    k = 0
    # Persistent availability masks, updated incrementally as pivots are
    # consumed (no per-iteration rebuild from the used-index sets).
    row_avail = np.ones(m, dtype=bool)
    col_avail = np.ones(n, dtype=bool)
    rows_left = m  # == row_avail.sum(), without the reduction per step
    norm_sq = 0.0  # running estimate of ||A_k||_F^2
    first_pivot = 0.0

    next_row = 0
    small_streak = 0
    rng = np.random.default_rng(0x5EED)

    def verify_converged() -> int | None:
        """Sample unused rows; return one with significant residual, if any.

        Partial pivoting can stall with whole regions of the block untouched
        (the classic ACA failure on structured meshes); random row checks
        catch this before declaring convergence.
        """
        nonlocal evaluated
        unused = np.flatnonzero(row_avail)
        if unused.size == 0:
            return None
        sample = rng.choice(unused, size=min(8, unused.size), replace=False)
        resid = np.asarray(get_rows(sample), dtype=dtype)
        evaluated += resid.size
        if k:
            resid = resid - uu[sample, :k] @ vv[:, :k].T
        rnorms = np.linalg.norm(resid, axis=1)
        worst_i, worst = None, eps * math.sqrt(max(norm_sq, 0.0))
        for i, rnorm in zip(sample.tolist(), rnorms.tolist()):
            if rnorm > worst:
                worst_i, worst = i, rnorm
        return worst_i

    while k < limit:
        if r is None:
            r = np.asarray(get_row(next_row), dtype=dtype)
            evaluated += n
            if k:
                r = r - vv[:, :k] @ uu[next_row, :k]
        row_avail[next_row] = False
        rows_left -= 1

        # A column is free here: each cross consumes one and k < limit <= n.
        j = int(np.where(col_avail, np.abs(r), -1.0).argmax())
        pivot = r[j]
        if first_pivot == 0.0:
            first_pivot = abs(pivot)
        if abs(pivot) <= _PIVOT_DROP * max(first_pivot, 1e-300):
            # This row is already resolved; look for an unresolved one.
            cont = verify_converged()
            if cont is None:
                break
            next_row, r = cont, None
            continue

        v_new = r / pivot
        r = None
        u_new = np.asarray(get_col(j), dtype=dtype)
        evaluated += m
        if k:
            u_new = u_new - uu[:, :k] @ vv[j, :k]
        col_avail[j] = False

        # Norm bookkeeping: ||A_{k+1}||^2 = ||A_k||^2 + 2 Re<cross, prev> + ||cross||^2.
        u_norm = _norm2(u_new)
        v_norm = _norm2(v_new)
        if k:
            interact = 2.0 * float(
                ((uu[:, :k].conj().T @ u_new) * (vv[:, :k].conj().T @ v_new)).sum().real
            )
        else:
            interact = 0.0
        norm_sq += interact + (u_norm * v_norm) ** 2
        if k == cap:
            cap = min(limit, 2 * cap)
            uu = np.concatenate([uu, np.empty((m, cap - k), dtype=dtype)], axis=1)
            vv = np.concatenate([vv, np.empty((n, cap - k), dtype=dtype)], axis=1)
        uu[:, k] = u_new
        vv[:, k] = v_new
        k += 1

        if u_norm * v_norm <= eps * math.sqrt(max(norm_sq, 0.0)):
            small_streak += 1
            if small_streak >= grace:
                cont = verify_converged()
                if cont is None:
                    break
                next_row = cont
                small_streak = 0
                continue
        else:
            small_streak = 0

        # Next pivot row: largest remaining entry of the new column.
        if not rows_left:
            break
        next_row = int(np.where(row_avail, np.abs(u_new), -1.0).argmax())

    if k == 0:
        rk = RkMatrix.zeros(m, n, dtype=dtype)
    else:
        rk = RkMatrix(np.ascontiguousarray(uu[:, :k]), np.ascontiguousarray(vv[:, :k]))
        if recompress:
            rk = rk.truncate(eps, max_rank)
    _report(m, n, rk, evaluated)
    return rk


def _report(m: int, n: int, rk: RkMatrix, kernel_entries: int) -> None:
    """Tell the probe one ``m x n`` block was compressed to ``rk`` from
    ``kernel_entries`` kernel evaluations."""
    probe = _current_probe()
    if probe is not None:
        probe.block_compressed(m, n, rk.rank, rk.u.dtype.itemsize, kernel_entries)


def aca_full(block: np.ndarray, eps: float, *, max_rank: int | None = None) -> RkMatrix:
    """Fully pivoted ACA of a materialised block (reference implementation).

    O(m n k): the global residual maximum is the pivot at every step.  Used
    in tests as a slower-but-robust cross check of :func:`aca_partial`.
    """
    _check_eps(eps)
    r = np.array(block, copy=True)
    m, n = r.shape
    limit = min(m, n) if max_rank is None else min(max_rank, m, n)
    ref = float(np.abs(r).max()) if r.size else 0.0
    norm_ref = float(np.linalg.norm(block))
    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    for _ in range(limit):
        flat = int(np.argmax(np.abs(r)))
        i, j = divmod(flat, n)
        pivot = r[i, j]
        if abs(pivot) <= _PIVOT_DROP * max(ref, 1e-300):
            break
        u_new = r[:, j].copy()
        v_new = r[i, :] / pivot
        r -= np.outer(u_new, v_new)
        us.append(u_new)
        vs.append(v_new)
        if np.linalg.norm(r) <= eps * max(norm_ref, 1e-300):
            break
    if not us:
        return RkMatrix.zeros(m, n, dtype=block.dtype)
    return RkMatrix(np.column_stack(us), np.column_stack(vs))


#: The methods of :func:`compress_kernel_block` that evaluate the whole block.
_DENSE_COMPRESSORS = {"svd": compress_dense, "rsvd": compress_dense_rsvd, "aca_full": aca_full}


def compress_kernel_block(
    kernel,
    row_points: np.ndarray,
    col_points: np.ndarray,
    eps: float,
    *,
    method: str = "aca",
    max_rank: int | None = None,
) -> RkMatrix:
    """Compress the kernel block over two point sets into an Rk block.

    ``method="aca"`` uses partially pivoted ACA (assembly never forms the
    block); ``method="svd"`` forms the dense block and takes the truncated
    SVD (optimal, for validation); ``method="aca_full"`` forms the block and
    runs fully pivoted ACA; ``method="rsvd"`` uses the randomized SVD
    (the paper cites randomized techniques as [21]).  Every method reports
    the block to the active probe once.

    ``method="aca"`` needs ``kernel.sampler`` (a ``KernelFunction`` or an
    object shaped like one); the other methods only call ``kernel(rows, cols)``.
    """
    if method == "aca":
        # The sampler is built here, per block: it is never pickled.
        block = kernel.sampler(row_points, col_points)
        return aca_partial(
            block.row, block.col, *block.shape, eps, max_rank=max_rank, get_rows=block.rows
        )
    compress = _DENSE_COMPRESSORS.get(method)
    if compress is None:
        raise ValueError(f"unknown compression method {method!r}")
    block = kernel(row_points, col_points)
    rk = compress(block, eps, max_rank=max_rank)
    _report(*block.shape, rk, block.size)
    return rk
