"""The pre-compilation substitution sweep, verbatim, for tests only.

Until the sweep was compiled into one flat program (:mod:`repro.core.sweep`)
every solve re-walked the tiles and leaves through the loop nests and panel
helpers below.  The library no longer contains them; this module is the only
copy, kept unchanged as the reference the compiled program's answers are held
to bit for bit (``test_sweep_equivalence.py``).  Do not "fix" or modernise
it: its value is that it is what the library used to run.
"""

import numpy as np

from repro.core.descriptor import TileHDesc
from repro.dense import tri_solve
from repro.hmatrix import HMatrix
from repro.hmatrix.arithmetic import h_rmatvec

__all__ = ["tiled_solve", "tiled_chol_solve"]


def panel_matvec(h: HMatrix, x: np.ndarray) -> np.ndarray:
    """Column-stable (batch-invariant) ``A @ x`` for a 2-D panel ``x``.

    Column ``c`` of the result is bit-identical to ``panel_matvec(h,
    x[:, c:c+1])`` regardless of the panel width: each leaf multiplies the
    columns as a *stacked* matmul — numpy iterates the leading axis and
    issues one identical ``(m, n) @ (n, 1)`` GEMM per column slice, with the
    leaf operand (and any transpose-copy of it) shared across the stack —
    instead of one wide ``(m, n) @ (n, k)`` GEMM, whose accumulation order
    (and hence low-order bits) depends on ``k``.  The input stack is
    normalised to C order so every slice has the same layout at any width.
    This batch-invariance is what lets the solve service coalesce requests
    into micro-batches without the answer depending on which batch a request
    landed in, while the leaf walk and BLAS dispatch are still paid once per
    panel — the amortization that motivates batching.
    """
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError(f"panel_matvec needs a 2-D panel, got ndim={x.ndim}")
    if x.shape[0] != h.shape[1]:
        raise ValueError(f"x leading dim {x.shape[0]} != {h.shape[1]}")
    out = np.zeros((h.shape[0], x.shape[1]), dtype=np.promote_types(h.dtype, x.dtype))
    if x.shape[1] == 0:
        return out
    xs = np.ascontiguousarray(x.T)[:, :, None]  # (k, n, 1) column-slice stack
    for leaf, i0, j0 in h.leaf_index():
        m, n = leaf.shape
        seg = xs[:, j0 : j0 + n]
        if leaf.full is not None:
            out[i0 : i0 + m] += np.matmul(leaf.full, seg)[:, :, 0].T
        else:
            rk = leaf.rk
            if rk.u.shape[1]:
                out[i0 : i0 + m] += np.matmul(rk.u, np.matmul(rk.v.T, seg))[:, :, 0].T
    return out


def panel_rmatvec(h: HMatrix, x: np.ndarray) -> np.ndarray:
    """Column-stable ``A.T @ x`` (the panel form of :func:`h_rmatvec`)."""
    x = np.asarray(x)
    if x.ndim != 2:
        raise ValueError(f"panel_rmatvec needs a 2-D panel, got ndim={x.ndim}")
    if x.shape[0] != h.shape[0]:
        raise ValueError(f"x leading dim {x.shape[0]} != {h.shape[0]}")
    out = np.zeros((h.shape[1], x.shape[1]), dtype=np.promote_types(h.dtype, x.dtype))
    if x.shape[1] == 0:
        return out
    xs = np.ascontiguousarray(x.T)[:, :, None]
    for leaf, i0, j0 in h.leaf_index():
        m, n = leaf.shape
        seg = xs[:, i0 : i0 + m]
        if leaf.full is not None:
            out[j0 : j0 + n] += np.matmul(leaf.full.T, seg)[:, :, 0].T
        else:
            rk = leaf.rk
            if rk.u.shape[1]:
                out[j0 : j0 + n] += np.matmul(rk.v, np.matmul(rk.u.T, seg))[:, :, 0].T
    return out


def _tri_solve_cols(a: np.ndarray, x: np.ndarray, **kw) -> np.ndarray:
    """Column-stable triangular solve: one trtrs call per contiguous column,
    so column ``c`` is bit-identical to ``tri_solve(a, x[:, c:c+1])`` on the
    width-1 path at any panel width."""
    if x.ndim != 2 or x.shape[1] <= 1:
        return tri_solve(a, x, **kw)
    return np.concatenate(
        [
            tri_solve(a, np.ascontiguousarray(x[:, c : c + 1]), **kw)
            for c in range(x.shape[1])
        ],
        axis=1,
    )


def solve_lower_panel(
    l: HMatrix, x: np.ndarray, *, unit_diagonal: bool = True, column_stable: bool = False
) -> np.ndarray:
    """Solve ``L y = x`` where ``L`` is the lower triangle of an H node.

    ``x`` is a dense panel in the node's local row order; for packed-LU nodes
    the strictly-lower part plus an implied unit diagonal is used.
    ``column_stable`` makes multi-column panels bit-identical per column to
    width-1 solves (stacked column-wise kernels; see :func:`panel_matvec`) —
    the multi-RHS solve path enables it, the factorisation-side H-TRSM keeps
    the faster wide-GEMM panels.
    """
    x = np.array(x, dtype=np.promote_types(l.dtype, np.asarray(x).dtype), copy=True)
    cs = column_stable and x.ndim == 2
    tri = _tri_solve_cols if cs else tri_solve
    if l.full is not None:
        return tri(l.full, x, lower=True, unit_diagonal=unit_diagonal)
    if l.packed_lu is not None:
        return tri(l.packed_lu, x, lower=True, unit_diagonal=unit_diagonal)
    if l.rk is not None:
        raise ValueError("diagonal H-LU block cannot be low-rank")
    nb = l.nrow_children
    offs = [c.rows.start - l.rows.start for c in (l.child(i, i) for i in range(nb))]
    sizes = [l.child(i, i).rows.size for i in range(nb)]
    for i in range(nb):
        sl_i = slice(offs[i], offs[i] + sizes[i])
        for j in range(i):
            sl_j = slice(offs[j], offs[j] + sizes[j])
            c = l.child(i, j)
            x[sl_i] -= panel_matvec(c, x[sl_j]) if cs else c.matvec(x[sl_j])
        x[sl_i] = solve_lower_panel(
            l.child(i, i), x[sl_i], unit_diagonal=unit_diagonal, column_stable=column_stable
        )
    return x


def solve_upper_panel(u: HMatrix, x: np.ndarray, *, column_stable: bool = False) -> np.ndarray:
    """Solve ``U y = x`` (non-unit upper triangle of an H node, dense panel)."""
    x = np.array(x, dtype=np.promote_types(u.dtype, np.asarray(x).dtype), copy=True)
    cs = column_stable and x.ndim == 2
    tri = _tri_solve_cols if cs else tri_solve
    if u.full is not None:
        return tri(u.full, x, lower=False)
    if u.packed_lu is not None:
        return tri(u.packed_lu, x, lower=False)
    if u.rk is not None:
        raise ValueError("diagonal H-LU block cannot be low-rank")
    nb = u.nrow_children
    offs = [u.child(i, i).rows.start - u.rows.start for i in range(nb)]
    sizes = [u.child(i, i).rows.size for i in range(nb)]
    for i in reversed(range(nb)):
        sl_i = slice(offs[i], offs[i] + sizes[i])
        for j in range(i + 1, nb):
            sl_j = slice(offs[j], offs[j] + sizes[j])
            c = u.child(i, j)
            x[sl_i] -= panel_matvec(c, x[sl_j]) if cs else c.matvec(x[sl_j])
        x[sl_i] = solve_upper_panel(u.child(i, i), x[sl_i], column_stable=column_stable)
    return x


def solve_lower_transpose_panel(
    l: HMatrix, x: np.ndarray, *, unit_diagonal: bool = True, column_stable: bool = False
) -> np.ndarray:
    """Solve ``L.T y = x`` (plain transpose of the unit lower triangle)."""
    x = np.array(x, dtype=np.promote_types(l.dtype, np.asarray(x).dtype), copy=True)
    cs = column_stable and x.ndim == 2
    tri = _tri_solve_cols if cs else tri_solve
    if l.full is not None:
        return tri(l.full, x, lower=True, unit_diagonal=unit_diagonal, trans=1)
    if l.packed_lu is not None:
        return tri(l.packed_lu, x, lower=True, unit_diagonal=unit_diagonal, trans=1)
    if l.rk is not None:
        raise ValueError("diagonal H-LU block cannot be low-rank")
    nb = l.nrow_children
    offs = [l.child(i, i).rows.start - l.rows.start for i in range(nb)]
    sizes = [l.child(i, i).rows.size for i in range(nb)]
    for i in reversed(range(nb)):
        sl_i = slice(offs[i], offs[i] + sizes[i])
        for j in range(i + 1, nb):
            sl_j = slice(offs[j], offs[j] + sizes[j])
            c = l.child(j, i)
            x[sl_i] -= panel_rmatvec(c, x[sl_j]) if cs else h_rmatvec(c, x[sl_j])
        x[sl_i] = solve_lower_transpose_panel(
            l.child(i, i), x[sl_i], unit_diagonal=unit_diagonal, column_stable=column_stable
        )
    return x


def _as_panel(b: np.ndarray, n: int) -> tuple[np.ndarray, bool]:
    """Validate a right-hand side and view it as a 2-D panel.

    Accepts a vector (returned squeezed) or a 2-D multi-RHS panel; anything
    else — higher-rank arrays, wrong leading dimension — raises a clear
    ``ValueError`` instead of failing deep inside the substitution loops.
    """
    b = np.asarray(b)
    if b.ndim not in (1, 2):
        raise ValueError(f"b must be a vector or a 2-D RHS panel, got ndim={b.ndim}")
    squeeze = b.ndim == 1
    x = b[:, None] if squeeze else b
    if x.shape[0] != n:
        raise ValueError(f"rhs leading dim {x.shape[0]} != {n}")
    return x, squeeze


def tiled_chol_solve(desc: TileHDesc, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` after :func:`tiled_potrf_tasks` (``A = L L^T``).

    Original ordering in and out, vector or panel.  Multi-column panels are
    solved column-stably: every column matches a standalone single-RHS solve
    bit-for-bit (see :func:`~repro.hmatrix.arithmetic.panel_matvec`).
    """
    x, squeeze = _as_panel(b, desc.n)
    nt = desc.nt
    grid = desc.super
    work = np.array(x[desc.perm], dtype=np.promote_types(grid.dtype, x.dtype), copy=True)

    # Forward: L y = b (non-unit diagonal).
    for k in range(nt):
        sk = desc.tile_slice(k)
        for j in range(k):
            work[sk] -= panel_matvec(grid.get_blktile(k, j).mat, work[desc.tile_slice(j)])
        work[sk] = solve_lower_panel(
            grid.get_blktile(k, k).mat, work[sk], unit_diagonal=False, column_stable=True
        )
    # Backward: L^T x = y, using the lower tiles transposed.
    for k in reversed(range(nt)):
        sk = desc.tile_slice(k)
        for j in range(k + 1, nt):
            work[sk] -= panel_rmatvec(grid.get_blktile(j, k).mat, work[desc.tile_slice(j)])
        work[sk] = solve_lower_transpose_panel(
            grid.get_blktile(k, k).mat, work[sk], unit_diagonal=False, column_stable=True
        )

    out = np.empty_like(work)
    out[desc.perm] = work
    return out[:, 0] if squeeze else out


def tiled_solve(desc: TileHDesc, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` after :func:`tiled_getrf_tasks` (vector or panel).

    ``b`` and the returned ``x`` use the *original* unknown numbering; the
    clustering permutation is applied internally.  The substitution runs
    tile-wise: its cost is a lower-order term, so it is executed directly
    rather than through the runtime.

    Multi-column panels amortize the tile/leaf traversal across columns while
    staying column-stable: column ``c`` of the panel solution is bit-identical
    to ``tiled_solve(desc, b[:, c])`` — the batch a request lands in can never
    change its answer (the property the solve service's micro-batcher relies
    on).
    """
    x, squeeze = _as_panel(b, desc.n)
    nt = desc.nt
    grid = desc.super
    work = np.array(x[desc.perm], dtype=np.promote_types(grid.dtype, x.dtype), copy=True)

    # Forward substitution: L y = b (unit lower, diagonal tiles packed).
    for k in range(nt):
        sk = desc.tile_slice(k)
        for j in range(k):
            work[sk] -= panel_matvec(grid.get_blktile(k, j).mat, work[desc.tile_slice(j)])
        work[sk] = solve_lower_panel(
            grid.get_blktile(k, k).mat, work[sk], unit_diagonal=True, column_stable=True
        )
    # Backward substitution: U x = y.
    for k in reversed(range(nt)):
        sk = desc.tile_slice(k)
        for j in range(k + 1, nt):
            work[sk] -= panel_matvec(grid.get_blktile(k, j).mat, work[desc.tile_slice(j)])
        work[sk] = solve_upper_panel(
            grid.get_blktile(k, k).mat, work[sk], column_stable=True
        )

    out = np.empty_like(work)
    out[desc.perm] = work
    return out[:, 0] if squeeze else out
