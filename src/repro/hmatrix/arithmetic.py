"""Recursive H-arithmetic: H-GEMM, H-TRSM, H-GETRF (Section II-B).

The three kernels mirror HMAT-OSS's implementations:

* :func:`hgetrf` applies the tiled right-looking LU (Algorithm 1) recursively
  over the children grid, bottoming out in an unpivoted dense LU;
* :func:`htrsm` handles the two triangular solves of the LU (left-lower-unit
  and right-upper) for H, Rk and dense right-hand sides — one leaf TRSM
  serves them and the Cholesky's ``X L^T = B``, on the row's side;
* :func:`hgemm` dispatches over the 3 x 3 x 3 = 27 format combinations the
  paper describes: any low-rank operand short-circuits to an Rk product, any
  dense operand to a panel product, and the all-subdivided case recurses.

Each kernel here is an entry (shape checks, accumulator flushes) plus its leaf
cases; the subdivided case is :func:`_descend`, which runs the steps
:mod:`.rules` gives for the operands — the loop nests are written there, once,
with each variant's :data:`~.rules.VARIANTS` row.  :func:`kernel_flops` is the
one ℌ flop model: what the nested expander charges a subtask and a factor
program announces for each task before it runs.  The kernels time nothing:
the executor running a task measures it, flushes included.

Every triangular solve against a factorised diagonal node — the H-TRSM's leaf
case, :func:`hlu_solve` and :func:`hchol_solve` — is :func:`solve_tri_panel`,
which follows the one block-row order :func:`tri_walk`; the compiled sweep
(:mod:`repro.core.sweep`) records the same walk.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..dense import flops_gemm, flops_getrf, flops_potrf, flops_trsm, getrf_nopiv, tri_solve
from .hmatrix import HMatrix
from .rk import RkMatrix, compress_dense
from .rules import _PACK_TRI_MAX, VARIANTS, pick, split

__all__ = [
    "hgemm",
    "hgemm_transb",
    "hsyrk",
    "hpotrf",
    "hchol_solve",
    "htrsm",
    "hgetrf",
    "hlu_solve",
    "h_rmatvec",
    "tri_walk",
    "solve_tri_panel",
    "run_kernel",
    "kernel_flops",
]


# ---------------------------------------------------------------------------
# Panel helpers (dense panels against H triangles / H transposes)
# ---------------------------------------------------------------------------

def h_rmatvec(h: HMatrix, x: np.ndarray) -> np.ndarray:
    """``A.T @ x`` for an H-matrix (plain transpose, any leaf mix)."""
    x = np.asarray(x)
    if x.shape[0] != h.shape[0]:
        raise ValueError(f"x leading dim {x.shape[0]} != {h.shape[0]}")
    out_dtype = np.promote_types(h.dtype, x.dtype)
    out = np.zeros((h.shape[1],) + x.shape[1:], dtype=out_dtype)
    for leaf, i0, j0 in h.leaf_index():
        m, n = leaf.shape
        seg = x[i0 : i0 + m]
        if leaf.full is not None:
            out[j0 : j0 + n] += leaf.full.T @ seg
        else:
            rk = leaf.rk
            if rk.u.shape[1]:
                out[j0 : j0 + n] += rk.v @ (rk.u.T @ seg)
    return out


def tri_walk(t: HMatrix, lower: bool, trans: int = 0):
    """The block-row order of a solve with ``op(T)``, ``T`` the ``lower``
    (else upper) triangle of the subdivided factorised node ``t``: yields
    ``(rows_i, rows_j, block)`` per off-diagonal update and ``(rows_i, None,
    block)`` per diagonal block, row slices local to ``t``.  ``op`` is the
    plain transpose when ``trans`` (block ``(i, j)`` is ``T``'s ``(j, i)``);
    the walk is forward when ``op(T)`` is lower triangular, else backward.
    """
    if t.rk is not None:
        raise ValueError("diagonal H-LU block cannot be low-rank")
    nb = t.nrow_children
    rows = [slice(c.rows.start - t.rows.start, c.rows.stop - t.rows.start)
            for c in (t.child(i, i) for i in range(nb))]
    forward = lower != bool(trans)
    for i in range(nb) if forward else reversed(range(nb)):
        for j in range(i) if forward else range(i + 1, nb):
            yield rows[i], rows[j], t.child(j, i) if trans else t.child(i, j)
        yield rows[i], None, t.child(i, i)


def solve_tri_panel(
    t: HMatrix, x: np.ndarray, *, lower: bool, unit: bool = False, trans: int = 0
) -> np.ndarray:
    """Solve ``op(T) y = x`` (:func:`tri_walk`'s ``T`` and ``op``; ``unit``:
    an implied unit diagonal) for a dense vector or panel ``x`` in the node's
    local row order, copied and promoted to the common dtype.

    A dense or packed node is one ``trtrs``.  These panel solves serve the
    factorisation-side H-TRSM with wide-GEMM panels; the solve phase runs the
    column-stable :mod:`repro.core.sweep`, which records the same walk.
    """
    x = np.array(x, dtype=np.promote_types(t.dtype, np.asarray(x).dtype), copy=True)
    a = t.full if t.full is not None else t.packed_lu
    if a is not None:
        return tri_solve(a, x, lower=lower, unit_diagonal=unit, trans=trans)
    for rows_i, rows_j, block in tri_walk(t, lower, trans):
        if rows_j is None:
            x[rows_i] = solve_tri_panel(block, x[rows_i], lower=lower, unit=unit, trans=trans)
        else:
            x[rows_i] -= h_rmatvec(block, x[rows_j]) if trans else block.matvec(x[rows_j])
    return x


# ---------------------------------------------------------------------------
# The recursion: one kernel table under every subdivided case
# ---------------------------------------------------------------------------

def _pack(a: HMatrix, acc=None) -> None:
    # The factor is read-only from here on (panel solves, H-TRSM): round in
    # what is still pending under it (see rules._PACK); packing a small one
    # dense turns every later panel solve into one trtrs.  Of a Cholesky
    # factor only the lower triangle is valid, which is all trtrs references.
    if acc is not None:
        acc.flush(a)
    if a.shape[0] <= _PACK_TRI_MAX:
        a.packed_lu = a.to_dense(order="F")  # F order: LAPACK trtrs takes it copy-free


#: variant -> kernel on ``nodes`` in kernel-argument order (see :mod:`.rules`).
_KERNELS = {
    "getrf": lambda n, eps, unit, acc, alpha: hgetrf(*n, eps, acc),
    "potrf": lambda n, eps, unit, acc, alpha: hpotrf(*n, eps, acc),
    "trsm_ll": lambda n, eps, unit, acc, alpha: _htrsm("trsm_ll", *n, eps, unit, acc),
    "trsm_ru": lambda n, eps, unit, acc, alpha: _htrsm("trsm_ru", *n, eps, unit, acc),
    "trsm_rlt": lambda n, eps, unit, acc, alpha: _htrsm("trsm_rlt", *n, eps, unit, acc),
    "gemm": lambda n, eps, unit, acc, alpha: hgemm(*n, eps, alpha, acc),
    "gemm_tb": lambda n, eps, unit, acc, alpha: hgemm_transb(*n, eps, alpha, acc),
    "syrk": lambda n, eps, unit, acc, alpha: hsyrk(*n, eps, alpha, acc),
    "pack": lambda n, eps, unit, acc, alpha: _pack(*n, acc),
}


def run_kernel(
    variant: str, nodes, eps: float, unit: bool = True, acc=None, alpha=-1.0, flush=False
) -> None:
    """Run H-kernel ``variant`` on ``nodes`` (kernel-argument order).

    The one place a variant name becomes a kernel call: the recursion below,
    the tile-level tasks, the nested subtasks and the process workers all come
    through here.  ``unit`` is read by the variants whose
    :data:`~.rules.VARIANTS` row says so (``trsm_ll``), ``alpha`` by the
    products.  ``flush`` first rounds ``acc``'s pending updates into the
    operand the row marks written: the share of a split factorisation's entry
    flush that falls to this kernel (see :func:`repro.core.nested.expander`).
    """
    if flush and acc is not None:
        acc.flush(nodes[VARIANTS[variant].written])
    _KERNELS[variant](nodes, eps, unit, acc, alpha)


def _descend(variant: str, nodes: tuple, eps: float, acc, unit: bool = True, alpha=-1.0) -> None:
    """The subdivided case of kernel ``variant``: run the child calls
    :func:`.rules.split` gives for ``nodes`` (none of them a leaf here)."""
    steps = split(variant, nodes)
    if steps is None:  # shared cluster trees guarantee compatible splits
        grids = ", ".join(f"{x.nrow_children}x{x.ncol_children}" for x in nodes)
        raise ValueError(f"incompatible children grids in the {variant} recursion: {grids}")
    for sub, operands in steps:
        _KERNELS[sub](pick(nodes, operands), eps, unit, acc, alpha)


#: variant -> ℌ flop model on ``nodes`` in kernel-argument order.
_FLOPS = {
    "getrf": lambda n: _factor_flops("getrf", n, flops_getrf),
    "potrf": lambda n: _factor_flops("potrf", n, flops_potrf),
    "trsm_ll": lambda n: _trsm_flops(*n),
    "trsm_ru": lambda n: _trsm_flops(*n),
    "trsm_rlt": lambda n: _trsm_flops(*n),
    "gemm": lambda n: _gemm_flops(n[1], n[2]),
    "gemm_tb": lambda n: _gemm_flops(n[1], n[2], transb=True),
    "syrk": lambda n: _gemm_flops(n[1], n[1], transb=True),  # as the full product
    "pack": lambda n: 0.0,
}


def kernel_flops(variant: str, nodes) -> float:
    """The ℌ flop model: modelled cost of kernel ``variant`` on ``nodes``
    (kernel-argument order, as :func:`run_kernel` receives them).

    Rank-dependent, so evaluated on the operands as they stand: the nested
    expander charges it to each subtask, and a factor program
    (:func:`repro.core.factor_program.bound_flops`) to each task: before the
    run for the probe, on the factor for its graph.  A factorisation that
    splits costs what its steps cost, level by level; a dense diagonal leaf
    costs the dense kernel.
    """
    return _FLOPS[variant](nodes)


def _factor_flops(variant: str, nodes: tuple, dense) -> float:
    steps = split(variant, nodes)
    if steps is None:
        return dense(nodes[0].shape[0], is_complex=nodes[0].dtype.kind == "c")
    total = 0.0  # accumulated in step order: the sum is pinned bit for bit
    for sub, operands in steps:
        total += kernel_flops(sub, pick(nodes, operands))
    return total


# ---------------------------------------------------------------------------
# H-GEMM
# ---------------------------------------------------------------------------

def _effective_rank(x: HMatrix) -> float:
    """Width proxy of an operand: exact rank for Rk leaves, storage-derived
    for subdivided nodes, full width for dense leaves."""
    if x.rk is not None:
        return float(max(x.rk.rank, 1))
    m, n = x.shape
    if x.full is not None:
        return float(min(m, n))
    # storage ~ (m + n) * k_eff for an H node dominated by Rk leaves.
    return float(max(1.0, min(min(m, n), x.storage() / (m + n))))


def _gemm_flops(a: HMatrix, b: HMatrix, transb: bool = False) -> float:
    """Rank-aware flop model of one H-GEMM contribution ``C += A @ B``
    (``transb``: ``A @ B.T``, without materialising ``B.T``).

    ``C += A @ B`` through a width-r bottleneck costs ~ 2 (m + n) k r; with
    dense operands this reduces to the usual 2 m n k up to a factor <= 2.
    Rank-awareness matters: it is what makes the modelled totals reproduce
    the paper's Theta(n k^2 log^2 n) (instead of dense n^3) scaling.
    """
    m, k = a.shape
    n = b.shape[0 if transb else 1]
    r = min(_effective_rank(a), _effective_rank(b))
    is_c = a.dtype.kind == "c"
    dense = flops_gemm(m, n, k, is_complex=is_c)
    lowrank = 2.0 * (m + n) * k * r * (4.0 if is_c else 1.0)
    return min(dense, lowrank)


def _product_rk(a: HMatrix, b: HMatrix, alpha, eps: float) -> RkMatrix:
    """``alpha * A @ B`` as an Rk block when either operand is low-rank."""
    # The product rank equals the low-rank operand's rank, so no truncation
    # here: the rounded addition into C recompresses anyway.
    if a.rk is not None:
        if a.rk.rank == 0:
            return RkMatrix.zeros(a.shape[0], b.shape[1], dtype=a.rk.dtype)
        # (Ua Va^T) B = Ua (B^T Va)^T
        v = h_rmatvec(b, a.rk.v)
        return RkMatrix(alpha * a.rk.u, v)
    if b.rk is not None:
        if b.rk.rank == 0:
            return RkMatrix.zeros(a.shape[0], b.shape[1], dtype=b.rk.dtype)
        u = a.matvec(b.rk.u)
        return RkMatrix(alpha * u, b.rk.v.copy())
    raise AssertionError("`_product_rk` requires a low-rank operand")


def _product_dense(a: HMatrix, b: HMatrix) -> np.ndarray:
    """``A @ B`` densely when one operand is a dense leaf (small panel)."""
    if b.full is not None:
        return a.matvec(b.full)
    if a.full is not None:
        # A @ B = (B^T A^T)^T with B^T applied leaf-wise.
        return h_rmatvec(b, a.full.T).T
    raise AssertionError("`_product_dense` requires a dense operand")


def _padded_sum(parts, m: int, n: int, dtype, eps: float, batched: bool) -> RkMatrix:
    """The rounded sum of the Rk blocks ``parts`` yields as ``(i0, j0, rk)``,
    each zero-padded into an ``m x n`` block at row ``i0``, column ``j0``:
    truncated after every addition (the eager path), or (``batched``) all
    stacked and rounded once by :meth:`RkMatrix.add_many` — same accuracy
    class, one QR+QR+SVD instead of one per term."""
    acc = RkMatrix.zeros(m, n, dtype=dtype)
    terms: list[RkMatrix] = [acc]
    for i0, j0, sub in parts:
        if sub.rank == 0:
            continue
        u = np.zeros((m, sub.rank), dtype=dtype)
        v = np.zeros((n, sub.rank), dtype=dtype)
        u[i0 : i0 + sub.shape[0]] = sub.u
        v[j0 : j0 + sub.shape[1]] = sub.v
        if batched:
            terms.append(RkMatrix(u, v))
        else:
            acc = acc.add(RkMatrix(u, v), eps)
    return RkMatrix.add_many(terms, eps) if batched else acc


def _collect_product(a: HMatrix, b: HMatrix, eps: float, batched: bool = False) -> RkMatrix:
    """``A @ B`` as a rounded Rk block (both operands subdivided): the
    children products, recursively, summed by :func:`_padded_sum`."""

    def parts():
        for i in range(a.nrow_children):
            for j in range(b.ncol_children):
                for l in range(a.ncol_children):
                    a_il = a.child(i, l)
                    b_lj = b.child(l, j)
                    if a_il.rk is not None or b_lj.rk is not None:
                        sub = _product_rk(a_il, b_lj, 1.0, eps)
                    elif a_il.full is not None or b_lj.full is not None:
                        sub = compress_dense(_product_dense(a_il, b_lj), eps)
                    else:
                        sub = _collect_product(a_il, b_lj, eps, batched)
                    yield a_il.rows.start - a.rows.start, b_lj.cols.start - b.cols.start, sub

    dtype = np.promote_types(a.dtype, b.dtype)
    return _padded_sum(parts(), a.shape[0], b.shape[1], dtype, eps, batched)


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
        prod = _product_rk(a, b, alpha, eps)
        c.axpy_rk(prod, eps, acc)
        return
    # Any dense operand: the product is a small dense panel.
    if a.full is not None or b.full is not None:
        prod = _product_dense(a, b)
        if alpha != 1.0:
            prod = alpha * prod
        c.axpy_dense(prod, eps, acc)
        return
    # Both subdivided.
    if c.is_leaf:
        prod = _collect_product(a, b, eps, batched=acc is not None)
        if prod.rank:
            c.axpy_rk(prod.scale(alpha), eps, acc)
        return
    # All three subdivided: recurse on the children grid.
    _descend("gemm", (c, a, b), eps, acc, alpha=alpha)


# ---------------------------------------------------------------------------
# H-TRSM
# ---------------------------------------------------------------------------

def _trsm_flops(a: HMatrix, b: HMatrix) -> float:
    is_c = a.dtype.kind == "c"
    if b.rk is not None:
        rhs = b.rk.rank
    else:
        rhs = b.shape[1] if a.shape[0] == b.shape[0] else b.shape[0]
    return flops_trsm(a.shape[0], rhs, is_complex=is_c)


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
        _htrsm("trsm_ll", a, b, eps, unit_diagonal, acc)
    elif side == "right" and uplo == "upper":
        if a.shape[1] != b.shape[1]:
            raise ValueError(f"htrsm dims: U is {a.shape}, B is {b.shape}")
        if unit_diagonal:
            raise ValueError("right-upper htrsm with unit diagonal is not used by H-LU")
        _htrsm("trsm_ru", a, b, eps, False, acc)
    else:
        raise ValueError(f"unsupported htrsm variant side={side!r}, uplo={uplo!r}")


#: TRSM variant -> ``(lower, trans)`` of its panel solve ``op(T)^{-1} x`` on
#: a dense panel ``x``: ``L X = B`` solves ``B``'s row side (``u``/``full``);
#: ``X U = B`` and ``X L^T = B`` solve the column side as
#: ``U^T X^T = B^T``/``L X^T = B^T``.
_PANEL_SOLVES = {"trsm_ll": (True, 0), "trsm_ru": (False, 1), "trsm_rlt": (True, 0)}


def _htrsm(variant: str, t: HMatrix, b: HMatrix, eps: float, unit: bool, acc=None) -> None:
    """The TRSM ``variant`` with triangle ``t``, in place in ``b``: at a leaf
    ``b`` its panel solve acts on ``rk.u``/``full`` (left side) or on
    ``rk.v``/``full.T`` (right side); a subdivided ``b`` descends."""
    row, (lower, trans) = VARIANTS[variant], _PANEL_SOLVES[variant]
    solve = partial(solve_tri_panel, t, lower=lower, unit=unit and row.unit, trans=trans)
    if b.rk is not None:
        if acc is not None:
            acc.flush(b)
        if b.rk.rank:
            if row.side == "left":
                b.rk = RkMatrix(solve(b.rk.u), b.rk.v)
            else:  # X = Ub (op(T)^{-T} Vb)^T
                b.rk = RkMatrix(b.rk.u, solve(b.rk.v))
        return
    if b.full is not None:
        if row.side == "left":
            b.full = np.ascontiguousarray(solve(b.full))
        else:
            b.full = np.ascontiguousarray(solve(b.full.T).T)
        return
    if t.full is not None:
        raise ValueError("RHS subdivided below a dense diagonal leaf: incompatible trees")
    _descend(variant, (t, b), eps, acc, unit)


# ---------------------------------------------------------------------------
# H-GETRF and solves
# ---------------------------------------------------------------------------

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
        getrf_nopiv(a.full, overwrite=True)
        return a
    _descend("getrf", (a,), eps, acc)
    return a


def hgemm_transb(c: HMatrix, a: HMatrix, b: HMatrix, eps: float, alpha=-1.0, acc=None) -> None:
    """``C <- C + alpha * A @ B.T`` (plain transpose) in H-arithmetic.

    The Cholesky update of a strictly lower block (a diagonal block is
    :func:`hsyrk`'s).  The transpose is materialised by
    :meth:`HMatrix.transpose`, which copies every dense leaf and both factors
    of every Rk leaf of ``b`` — a copy of ``b``'s storage, the same order of
    cost as the product itself.
    """
    hgemm(c, a, b.transpose(), eps, alpha, acc)


def _add_lower(c: HMatrix, prod, eps: float, acc) -> None:
    """Add the lower restriction of ``prod`` (an Rk block or a dense array
    over the diagonal node ``c``) into ``c``: the children on and below the
    diagonal, restricted as :meth:`HMatrix.axpy_rk`/``axpy_dense`` restrict,
    recursively on the diagonal; a leaf takes all of it."""
    rk = isinstance(prod, RkMatrix)
    if c.is_leaf:
        (c.axpy_rk if rk else c.axpy_dense)(prod, eps, acc)
        return
    if rk and prod.rank == 0:
        return
    c.packed_lu = None
    for i in range(c.nrow_children):
        for j in range(i + 1):
            child = c.child(i, j)
            i0, j0 = c._row_off(child), c._col_off(child)
            m, n = child.shape
            if rk:
                sub = RkMatrix(prod.u[i0 : i0 + m], prod.v[j0 : j0 + n])
            else:
                sub = prod[i0 : i0 + m, j0 : j0 + n]
            if i == j:
                _add_lower(child, sub, eps, acc)
            elif rk:
                child.axpy_rk(sub, eps, acc)
            else:
                child.axpy_dense(sub, eps, acc)


def hsyrk(c: HMatrix, a: HMatrix, eps: float, alpha=-1.0, acc=None) -> None:
    """``C <- C + alpha * A @ A.T`` on the lower triangle of the diagonal node ``C``.

    The Cholesky's diagonal update: nothing strictly above the diagonal of
    ``C`` is written or deferred, which ``L`` never reads.  Subdivided
    operands recurse (:func:`.rules.split`: ``syrk`` on the diagonal
    children, ``gemm_tb`` below them, in :func:`hgemm_transb`'s order); at a
    leaf operand the product is computed exactly as :func:`hgemm_transb`
    computes it and only its lower restriction is added (:func:`_add_lower`).
    A leaf ``C`` — a dense diagonal block — keeps the full product.
    """
    if c.shape != (a.shape[0], a.shape[0]):
        raise ValueError(f"hsyrk shape mismatch: C{c.shape} += A{a.shape} @ A.T")
    c.packed_lu = None
    if c.is_leaf:
        hgemm_transb(c, a, a, eps, alpha, acc)
        return
    if not a.is_leaf:
        _descend("syrk", (c, a), eps, acc, alpha=alpha)
        return
    b = a.transpose()
    if a.rk is not None:
        prod = _product_rk(a, b, alpha, eps)
    else:
        prod = _product_dense(a, b)
        if alpha != 1.0:
            prod = alpha * prod
    _add_lower(c, prod, eps, acc)


def hpotrf(a: HMatrix, eps: float, acc=None) -> HMatrix:
    """In-place H-Cholesky of an SPD H-matrix: lower triangle holds ``L``.

    Only the lower triangle (and diagonal) of ``a`` is referenced and
    written: the diagonal updates are :func:`hsyrk`'s, so every block
    strictly above the diagonal keeps its input bits and no pending update
    (a dense diagonal leaf's upper half comes back zero).  Raises
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
        a.full = np.linalg.cholesky(a.full)
        return a
    _descend("potrf", (a,), eps, acc)
    return a


def _substitute(t: HMatrix, b: np.ndarray, *solves: dict) -> np.ndarray:
    """Solve ``A x = b`` (vector or panel, in cluster order) from the packed
    factor ``t`` of ``A``: :func:`solve_tri_panel` with each of ``solves``'
    keyword sets in turn."""
    b = np.asarray(b)
    squeeze = b.ndim == 1
    x = b[:, None] if squeeze else b
    if x.shape[0] != t.shape[0]:
        raise ValueError(f"rhs leading dim {x.shape[0]} != {t.shape[0]}")
    for kw in solves:
        x = solve_tri_panel(t, x, **kw)
    return x[:, 0] if squeeze else x


def hchol_solve(l: HMatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` from the packed H-Cholesky factor (``A = L L^T``).

    ``b`` in cluster order; vector or panel.
    """
    return _substitute(l, b, dict(lower=True), dict(lower=True, trans=1))


def hlu_solve(lu: HMatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` from the packed H-LU of ``A`` (vector or panel RHS).

    ``b`` is in *cluster (permuted) order*; callers working in original
    numbering must permute in and out with the cluster tree's ``perm``.
    """
    return _substitute(lu, b, dict(lower=True, unit=True), dict(lower=False))
