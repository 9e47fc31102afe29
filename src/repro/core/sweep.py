"""The forward/backward substitution as a compiled flat program.

A factor is immutable after ``factorize()``, so the traversal every solve
used to re-derive — which tile, which leaf, which rows of the right-hand
side — is recorded once (after Börm, Christophersen & Kriemann's recording
mode, 1911.07531, and the flat block-list passes of Li, Poulson & Ying,
2008.12441) and replayed:

* :func:`compile_sweep` is the only place the sweep's *tile order* is written
  down.  It emits the ordered tile-ops of the substitution (``gemv(k, j)`` /
  ``trsv(k)``), each a list of *steps* holding views of the leaf payloads —
  no factor entry is copied, H-structured diagonal tiles are flattened by
  :func:`tri_steps` along :func:`~repro.hmatrix.arithmetic.tri_walk`, the
  block-row order the ℌ panel solves follow;
* :func:`run_steps` is the only place the sweep's *arithmetic* is written
  down.  Every solve path — eager, task-based on any executor, the process
  workers, ``GPModel.predict`` — interprets the same steps, so all of them
  return the same bits.

Column stability (column ``c`` of a panel solution is bit-identical to the
standalone solve of that column, whatever the panel width) holds by
construction: a one-column right-hand side takes the 1-D path (``gemv`` on a
slice of one contiguous work vector), wider panels issue the *same* ``gemv``
once per column as a stacked ``matmul`` over a ``(ncol, n, 1)`` view of one
C-contiguous ``(ncol, n)`` work array — never one wide GEMM, whose
accumulation order depends on the width.  This is what lets the solve
service coalesce requests into micro-batches without a request's answer
depending on the batch it landed in.

Steps (plain tuples; all offsets are positions in the work array):

``("mv", r0, r1, terms)``
    ``w[r0:r1] -= sum_t A_t @ (B_t @ w[x_t])`` accumulated leaf by leaf, in
    leaf order, in a zeroed buffer local to the step; a term is
    ``(A, B-or-None, o0, o1, x0, x1)``: rows ``o0:o1`` of the buffer, entries
    ``x0:x1`` of ``w`` (plain ints and arrays only, so the cyclic collector
    stops tracking a program's thousands of terms after its first pass).
``("tri", r0, r1, a, lower, unit, trans)``
    ``w[r0:r1] = op(tri(a))^-1 w[r0:r1]`` — one ``trtrs`` per column.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..dense import tri_solve
from ..hmatrix import HMatrix
from ..hmatrix.arithmetic import tri_walk
from .descriptor import Tile

__all__ = ["TileOp", "SweepProgram", "compile_sweep", "mv_step", "tri_steps", "run_steps"]


def _as_panel(b, n: int) -> np.ndarray:
    """Validate a right-hand side: a numeric vector or 2-D panel with ``n``
    rows.  Anything else raises a ``ValueError`` here instead of failing (or,
    for object arrays, silently running element by element) inside NumPy."""
    b = np.asarray(b)
    if b.ndim not in (1, 2):
        raise ValueError(f"b must be a vector or a 2-D RHS panel, got ndim={b.ndim}")
    if b.shape[0] != n:
        raise ValueError(f"rhs leading dim {b.shape[0]} != {n}")
    if b.dtype.kind not in "biufc":
        raise ValueError(f"rhs dtype {b.dtype} is not bool, int, float or complex")
    return b


def mv_step(h: HMatrix, out0: int, x0: int, trans: int = 0) -> tuple:
    """The step ``w[out0:...] -= op(h) @ w[x0:...]`` (``op`` = plain transpose
    when ``trans``); zero-rank leaves contribute nothing and are dropped."""
    terms = []
    for leaf, i0, j0 in h.leaf_index():
        m, n = leaf.shape
        if leaf.full is not None:
            a, b = (leaf.full.T if trans else leaf.full), None
        elif leaf.rk.u.shape[1]:
            a, b = (leaf.rk.v, leaf.rk.u.T) if trans else (leaf.rk.u, leaf.rk.v.T)
        else:
            continue
        if trans:
            terms.append((a, b, j0, j0 + n, x0 + i0, x0 + i0 + m))
        else:
            terms.append((a, b, i0, i0 + m, x0 + j0, x0 + j0 + n))
    return ("mv", out0, out0 + h.shape[1 if trans else 0], terms)


def tri_steps(h: HMatrix, r0: int, lower: bool, unit: bool, trans: int = 0) -> list:
    """Steps solving ``op(T) y = w[r0:...]`` in place, ``T`` the ``lower`` /
    upper triangle of the factorised diagonal node ``h``.

    A dense or packed node is one ``tri`` step; an H-structured node (larger
    than the packing cap) is flattened along
    :func:`~repro.hmatrix.arithmetic.tri_walk`, the ℌ panel solves' order.
    """
    a = h.full if h.full is not None else h.packed_lu
    if a is not None:
        return [("tri", r0, r0 + h.shape[0], a, lower, unit, trans)]
    steps = []
    for rows_i, rows_j, block in tri_walk(h, lower, trans):
        if rows_j is None:
            steps.extend(tri_steps(block, r0 + rows_i.start, lower, unit, trans))
        else:
            steps.append(mv_step(block, r0 + rows_i.start, r0 + rows_j.start, trans))
    return steps


def run_steps(steps, w: np.ndarray) -> None:
    """Interpret ``steps`` in place on the work array ``w``.

    ``w`` is one right-hand side as a contiguous ``(n,)`` vector of the
    factor's dtype, or ``ncol`` of them as the rows of a C-contiguous
    ``(ncol, n)`` array (:meth:`SweepProgram.empty` picks).  Both paths hand
    BLAS/LAPACK the same routine on the same operands in the same order for
    every column, which is the whole column-stability argument.
    """
    stacked = w.ndim == 2
    if stacked:
        ws = w[:, :, None]  # (ncol, n, 1): one (n, 1) column per stack slice
    for step in steps:
        if step[0] == "mv":
            _, r0, r1, terms = step
            if stacked:
                out = np.zeros((w.shape[0], r1 - r0), dtype=w.dtype)
                for a, b, o0, o1, x0, x1 in terms:
                    t = ws[:, x0:x1]
                    if b is not None:
                        t = np.matmul(b, t)
                    o = out[:, o0:o1]
                    o += np.matmul(a, t)[:, :, 0]
                seg = w[:, r0:r1]
            else:
                out = np.zeros(r1 - r0, dtype=w.dtype)
                for a, b, o0, o1, x0, x1 in terms:
                    t = w[x0:x1]
                    if b is not None:
                        t = b.dot(t)
                    o = out[o0:o1]
                    o += a.dot(t)
                seg = w[r0:r1]
            seg -= out
        else:
            _, r0, r1, a, lower, unit, trans = step
            for col in w[:, r0:r1] if stacked else (w[r0:r1],):
                col[:] = tri_solve(a, col, lower=lower, unit_diagonal=unit, trans=trans)


class TileOp(NamedTuple):
    """One tile-op of the sweep: what a task-based solve runs as one task."""

    phase: str  #: "fwd" | "bwd"
    k: int  #: tile row whose segment of the right-hand side is updated
    j: int | None  #: tile column read by a ``gemv``; ``None`` for a ``trsv``
    tile: Tile  #: the tile read
    pos: tuple  #: its grid position
    args: tuple  #: ``(trans,)`` of :func:`mv_step` / ``(lower, unit, trans)`` of :func:`tri_steps`
    steps: list


class SweepProgram:
    """The compiled substitution of one factorised Tile-H matrix.

    Read-only once built and shared freely between threads; it holds views
    of the factor (so it lives and dies with it and must never be pickled or
    archived — recompiling costs what one leaf walk used to).
    """

    __slots__ = ("n", "perm", "dtype", "bounds", "ops")

    def __init__(self, n, perm, dtype, bounds, ops) -> None:
        self.n = n
        self.perm = perm
        self.dtype = dtype
        self.bounds = bounds  #: ``(start, stop)`` of each tile row in the work array
        self.ops = ops

    def __reduce__(self):
        raise TypeError("a SweepProgram holds views of its factor and is not picklable")

    # -- work array in the interpreter's layout ----------------------------
    def empty(self, ncol: int, dtype) -> np.ndarray:
        """Uninitialised work array for ``ncol`` right-hand sides of ``dtype``:
        one C-contiguous row each — or plain ``(n,)`` for a single one, unless
        NumPy has to cast the factor for it (complex on a real factor), which
        ``dot`` and the stacked ``matmul`` do in different memory orders."""
        dtype = np.promote_types(self.dtype, dtype)
        flat = ncol == 1 and dtype == self.dtype
        return np.empty(self.n if flat else (ncol, self.n), dtype=dtype)

    def scatter(self, b: np.ndarray) -> tuple[np.ndarray, bool]:
        """Validate ``b`` and return ``(work, squeeze)``: its permuted,
        promoted copy laid out for :func:`run_steps`."""
        b = _as_panel(b, self.n)
        x = b[:, None] if b.ndim == 1 else b
        work = self.empty(x.shape[1], b.dtype)
        work[...] = x[self.perm].T
        return work, b.ndim == 1

    def segment(self, work: np.ndarray, k: int) -> np.ndarray:
        """View of tile row ``k``'s entries of every column of ``work``."""
        r0, r1 = self.bounds[k]
        return work[..., r0:r1]

    def gather(self, work: np.ndarray, squeeze: bool = False) -> np.ndarray:
        """The solution in original ordering, shaped like the right-hand side."""
        out = np.empty((self.n, 1 if work.ndim == 1 else work.shape[0]), dtype=work.dtype)
        out[self.perm] = work[:, None] if work.ndim == 1 else work.T
        return out[:, 0] if squeeze else out

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Eager solve: every step of every tile-op, inline."""
        work, squeeze = self.scatter(b)
        for op in self.ops:
            run_steps(op.steps, work)
        return self.gather(work, squeeze)


def compile_sweep(desc, method: str = "lu") -> SweepProgram:
    """Record the substitution after a tiled LU (``L`` unit-lower, ``U``) or
    Cholesky (``L``, then ``L^T`` read from the lower tiles transposed)."""
    if method not in ("lu", "cholesky"):
        raise ValueError(f"method must be 'lu' or 'cholesky', got {method!r}")
    chol = method == "cholesky"
    grid, nt = desc.super, desc.nt
    bounds = [(s.start, s.stop) for s in map(desc.tile_slice, range(nt))]
    ops: list[TileOp] = []

    def gemv(phase: str, k: int, j: int) -> None:
        trans = int(chol and phase == "bwd")
        pos = (j, k) if trans else (k, j)
        tile = grid.get_blktile(*pos)
        step = mv_step(tile.mat, bounds[k][0], bounds[j][0], trans)
        ops.append(TileOp(phase, k, j, tile, pos, (trans,), [step]))

    def trsv(phase: str, k: int) -> None:
        if chol:
            args = (True, False, int(phase == "bwd"))
        else:
            args = (True, True, 0) if phase == "fwd" else (False, False, 0)
        tile = grid.get_blktile(k, k)
        steps = tri_steps(tile.mat, bounds[k][0], *args)
        ops.append(TileOp(phase, k, None, tile, (k, k), args, steps))

    for k in range(nt):
        for j in range(k):
            gemv("fwd", k, j)
        trsv("fwd", k)
    for k in reversed(range(nt)):
        for j in range(k + 1, nt):
            gemv("bwd", k, j)
        trsv("bwd", k)
    return SweepProgram(desc.n, desc.perm, np.dtype(grid.dtype), bounds, ops)
