"""The seven hand-written ℌ-kernel recursions, verbatim, for tests only.

Until the recursion became one rule table (:mod:`repro.hmatrix.rules`) each
kernel of ``hmatrix/arithmetic.py`` carried its own loop nest over the
children grid: ``hgemm``, the three triangular solves, ``hgetrf``, ``hpotrf``
and ``hgemm_transb`` below are those functions as of PR 22, unchanged (one
relative import made absolute), calling
each other and never the library's kernels.  Only the helpers that hold no
recursion (leaf products, panel solves, flop models) are imported — the two
panel solves they call, ``solve_lower_panel`` and
``solve_upper_transpose_panel``, are one-line adapters onto the library's one
:func:`~repro.hmatrix.arithmetic.solve_tri_panel`; the kernel-tracer hook
they were written around is gone from the library, so ``_traced`` is a local
no-op context manager here.  The library's kernels are
held to these bit for bit, leaf by leaf (``test_recursion_equivalence.py``).
Do not "fix" or modernise them: their value is that they are what the library
used to run.
"""

from contextlib import nullcontext

import numpy as np

from repro.dense import flops_getrf, getrf_nopiv
from repro.hmatrix import HMatrix
from repro.hmatrix.arithmetic import (
    _PACK_TRI_MAX,
    _collect_product,
    _gemm_flops,
    _product_dense,
    _product_rk,
    _trsm_flops,
    solve_tri_panel,
)
from repro.hmatrix.rk import RkMatrix

__all__ = ["hgemm", "hgemm_transb", "htrsm", "hgetrf", "hpotrf"]


def solve_lower_panel(l, x, *, unit_diagonal=True):
    return solve_tri_panel(l, x, lower=True, unit=unit_diagonal)


def solve_upper_transpose_panel(u, x):
    return solve_tri_panel(u, x, lower=False, trans=1)


def _traced(kind, reads, writes, flops):
    """The library's kernel-tracer hook with no tracer installed: nothing."""
    return nullcontext()


def hgemm(c: HMatrix, a: HMatrix, b: HMatrix, eps: float, alpha=-1.0, acc=None) -> None:
    """``C <- C + alpha * A @ B`` in H-arithmetic with rounding accuracy eps.

    Handles all 27 structural configurations of (A, B, C); the default
    ``alpha = -1`` is the Schur-complement update of Algorithm 1.  Passing an
    :class:`~repro.hmatrix.accumulator.UpdateAccumulator` defers the
    rounding of C's Rk-leaf updates (the caller must flush before C is next
    read); ``A`` and ``B`` must have no pending updates.
    """
    if a.shape[1] != b.shape[0] or c.shape != (a.shape[0], b.shape[1]):
        raise ValueError(
            f"hgemm shape mismatch: C{c.shape} += A{a.shape} @ B{b.shape}"
        )
    c.packed_lu = None
    # Any low-rank operand: the product is low-rank.
    if a.rk is not None or b.rk is not None:
        with _traced("gemm", (a, b), (c,), _gemm_flops(a, b)):
            prod = _product_rk(a, b, alpha, eps)
            c.axpy_rk(prod, eps, acc)
        return
    # Any dense operand: the product is a small dense panel.
    if a.full is not None or b.full is not None:
        with _traced("gemm", (a, b), (c,), _gemm_flops(a, b)):
            prod = _product_dense(a, b)
            if alpha != 1.0:
                prod = alpha * prod
            c.axpy_dense(prod, eps, acc)
        return
    # Both subdivided.
    if c.is_leaf:
        with _traced("gemm", (a, b), (c,), _gemm_flops(a, b)):
            prod = _collect_product(a, b, eps, batched=acc is not None)
            if prod.rank:
                c.axpy_rk(prod.scale(alpha), eps, acc)
        return
    # All three subdivided: recurse on the children grid (shared cluster
    # trees guarantee compatible splits).
    if a.nrow_children != c.nrow_children or b.ncol_children != c.ncol_children:
        raise ValueError("incompatible children grids in hgemm recursion")
    for i in range(c.nrow_children):
        for j in range(c.ncol_children):
            for l in range(a.ncol_children):
                hgemm(c.child(i, j), a.child(i, l), b.child(l, j), eps, alpha, acc)


def htrsm(side: str, uplo: str, a: HMatrix, b: HMatrix, eps: float, *, unit_diagonal: bool = False, acc=None) -> None:
    """Triangular solve with H operands, in place in ``b``.

    Supports the two variants Algorithm 1 needs:

    * ``side="left", uplo="lower", unit_diagonal=True`` — ``L X = B``
      (produces the U-panel);
    * ``side="right", uplo="upper"`` — ``X U = B`` (produces the L-panel).

    ``a`` is a *packed* factorised node (output of :func:`hgetrf`): only the
    relevant triangle is referenced.  With an accumulator, pending updates
    on ``b`` (e.g. deferred trailing-matrix GEMMs) are flushed leaf-by-leaf
    right before each leaf is solved, and the internal update GEMMs of the
    subdivided case defer their own roundings; on return ``b`` is clean.
    """
    if side == "left" and uplo == "lower":
        if a.shape[0] != b.shape[0]:
            raise ValueError(f"htrsm dims: L is {a.shape}, B is {b.shape}")
        _htrsm_left_lower(a, b, eps, unit_diagonal, acc)
    elif side == "right" and uplo == "upper":
        if a.shape[1] != b.shape[1]:
            raise ValueError(f"htrsm dims: U is {a.shape}, B is {b.shape}")
        _htrsm_right_upper(a, b, eps, unit_diagonal, acc)
    else:
        raise ValueError(f"unsupported htrsm variant side={side!r}, uplo={uplo!r}")


def _htrsm_left_lower(l: HMatrix, b: HMatrix, eps: float, unit: bool, acc=None) -> None:
    if b.rk is not None:
        if acc is not None:
            acc.flush(b)
        if b.rk.rank:
            with _traced("trsm", (l,), (b,), _trsm_flops(l, b)):
                b.rk = RkMatrix(
                    solve_lower_panel(l, b.rk.u, unit_diagonal=unit), b.rk.v
                )
        return
    if b.full is not None:
        with _traced("trsm", (l,), (b,), _trsm_flops(l, b)):
            b.full = np.ascontiguousarray(solve_lower_panel(l, b.full, unit_diagonal=unit))
        return
    # b subdivided.
    if l.full is not None:
        raise ValueError("RHS subdivided below a dense diagonal leaf: incompatible trees")
    nb = l.nrow_children
    if b.nrow_children != nb:
        raise ValueError("incompatible row splits in left-lower htrsm")
    for j in range(b.ncol_children):
        for i in range(nb):
            for p in range(i):
                hgemm(b.child(i, j), l.child(i, p), b.child(p, j), eps, alpha=-1.0, acc=acc)
            _htrsm_left_lower(l.child(i, i), b.child(i, j), eps, unit, acc)


def _htrsm_right_upper(u: HMatrix, b: HMatrix, eps: float, unit: bool, acc=None) -> None:
    if unit:
        raise ValueError("right-upper htrsm with unit diagonal is not used by H-LU")
    if b.rk is not None:
        if acc is not None:
            acc.flush(b)
        if b.rk.rank:
            with _traced("trsm", (u,), (b,), _trsm_flops(u, b)):
                # X U = Ub Vb^T  =>  X = Ub (U^{-T} Vb)^T.
                b.rk = RkMatrix(b.rk.u, solve_upper_transpose_panel(u, b.rk.v))
        return
    if b.full is not None:
        with _traced("trsm", (u,), (b,), _trsm_flops(u, b)):
            b.full = np.ascontiguousarray(solve_upper_transpose_panel(u, b.full.T).T)
        return
    if u.full is not None:
        raise ValueError("RHS subdivided below a dense diagonal leaf: incompatible trees")
    nb = u.nrow_children
    if b.ncol_children != nb:
        raise ValueError("incompatible column splits in right-upper htrsm")
    for i in range(b.nrow_children):
        for j in range(nb):
            for p in range(j):
                hgemm(b.child(i, j), b.child(i, p), u.child(p, j), eps, alpha=-1.0, acc=acc)
            _htrsm_right_upper(u.child(j, j), b.child(i, j), eps, unit, acc)


def hgetrf(a: HMatrix, eps: float, acc=None) -> HMatrix:
    """In-place H-LU: on return ``a`` packs L (strict lower, unit diag) and U.

    Recursion follows Algorithm 1 on the children grid; dense diagonal leaves
    use the unpivoted dense LU.  With an accumulator, any pending updates
    under ``a`` are flushed up front (GETRF reads and rewrites the whole
    block) and the internal trailing-matrix GEMMs defer their roundings to
    the panel step that next touches each child; ``a`` is clean on return.
    """
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"hgetrf needs a square H-matrix, got {a.shape}")
    if a.rk is not None:
        raise ValueError("diagonal block is low-rank: cannot LU-factorise")
    if acc is not None:
        acc.flush(a)
    if a.full is not None:
        is_c = np.issubdtype(a.dtype, np.complexfloating)
        with _traced("getrf", (), (a,), flops_getrf(a.shape[0], is_complex=is_c)):
            getrf_nopiv(a.full, overwrite=True)
        return a
    nt = a.nrow_children
    if a.ncol_children != nt:
        raise ValueError("hgetrf needs a square children grid")
    for k in range(nt):
        hgetrf(a.child(k, k), eps, acc)
        for j in range(k + 1, nt):
            _htrsm_left_lower(a.child(k, k), a.child(k, j), eps, unit=True, acc=acc)
        for i in range(k + 1, nt):
            _htrsm_right_upper(a.child(k, k), a.child(i, k), eps, unit=False, acc=acc)
        for i in range(k + 1, nt):
            for j in range(k + 1, nt):
                hgemm(a.child(i, j), a.child(i, k), a.child(k, j), eps, alpha=-1.0, acc=acc)
    if a.shape[0] <= _PACK_TRI_MAX:
        # The factor is read-only from here on (panel solves, H-TRSM);
        # packing it dense turns every later panel solve into one trtrs.
        a.packed_lu = np.asfortranarray(a.to_dense())  # F order: LAPACK trtrs takes it copy-free
    return a


def hgemm_transb(c: HMatrix, a: HMatrix, b: HMatrix, eps: float, alpha=-1.0, acc=None) -> None:
    """``C <- C + alpha * A @ B.T`` (plain transpose) in H-arithmetic.

    The Cholesky update kernel (SYRK when ``a is b`` structurally).  The
    transpose is materialised structurally (views of factor/leaf data), which
    costs the same order as the product itself.
    """
    hgemm(c, a, b.transpose(), eps, alpha, acc)


def _htrsm_right_lower_transpose(l: HMatrix, b: HMatrix, eps: float, acc=None) -> None:
    """Solve ``X L^T = B`` in place in ``b`` (L non-unit lower, from hpotrf)."""
    if b.rk is not None:
        if acc is not None:
            acc.flush(b)
        if b.rk.rank:
            with _traced("trsm", (l,), (b,), _trsm_flops(l, b)):
                # X = Ub (L^{-1} Vb)^T.
                b.rk = RkMatrix(b.rk.u, solve_lower_panel(l, b.rk.v, unit_diagonal=False))
        return
    if b.full is not None:
        with _traced("trsm", (l,), (b,), _trsm_flops(l, b)):
            b.full = np.ascontiguousarray(
                solve_lower_panel(l, b.full.T, unit_diagonal=False).T
            )
        return
    if l.full is not None:
        raise ValueError("RHS subdivided below a dense diagonal leaf: incompatible trees")
    nb = l.nrow_children
    if b.ncol_children != nb:
        raise ValueError("incompatible column splits in right-lower-transpose htrsm")
    for i in range(b.nrow_children):
        for j in range(nb):
            for p in range(j):
                # (L^T)_{p j} = L_{j p}^T for p < j.
                hgemm_transb(b.child(i, j), b.child(i, p), l.child(j, p), eps, alpha=-1.0, acc=acc)
            _htrsm_right_lower_transpose(l.child(j, j), b.child(i, j), eps, acc)


def hpotrf(a: HMatrix, eps: float, acc=None) -> HMatrix:
    """In-place H-Cholesky of an SPD H-matrix: lower triangle holds ``L``.

    Only the lower triangle (and diagonal) of ``a`` is referenced and
    written; upper off-diagonal blocks are left untouched.  Raises
    ``numpy.linalg.LinAlgError`` when a diagonal leaf is not positive
    definite.  With an accumulator the same flush-before-read discipline as
    :func:`hgetrf` applies: pending updates under ``a`` are flushed first and
    ``a`` is clean on return.
    """
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"hpotrf needs a square H-matrix, got {a.shape}")
    if a.rk is not None:
        raise ValueError("diagonal block is low-rank: cannot Cholesky-factorise")
    if acc is not None:
        acc.flush(a)
    if a.full is not None:
        from repro.dense import flops_potrf

        is_c = np.issubdtype(a.dtype, np.complexfloating)
        with _traced("potrf", (), (a,), flops_potrf(a.shape[0], is_complex=is_c)):
            a.full = np.linalg.cholesky(a.full)
        return a
    nt = a.nrow_children
    if a.ncol_children != nt:
        raise ValueError("hpotrf needs a square children grid")
    for k in range(nt):
        hpotrf(a.child(k, k), eps, acc)
        for i in range(k + 1, nt):
            _htrsm_right_lower_transpose(a.child(k, k), a.child(i, k), eps, acc)
        for i in range(k + 1, nt):
            for j in range(k + 1, i + 1):
                hgemm_transb(a.child(i, j), a.child(i, k), a.child(j, k), eps, alpha=-1.0, acc=acc)
    if a.shape[0] <= _PACK_TRI_MAX:
        # Only the lower triangle is valid, which is all trtrs references.
        a.packed_lu = np.asfortranarray(a.to_dense())  # F order: LAPACK trtrs takes it copy-free
    return a
