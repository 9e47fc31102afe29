"""Algorithm 1 and its companions as data: the ℌ-kernels, each written down once.

The paper's construction is that one algorithm serves two levels: the tiled
right-looking LU runs over the ``nt x nt`` tile grid and, unchanged, inside
every ℌ-structured tile.  This module is that algorithm (and its Cholesky
twin, the three triangular solves and the two products) written down as
*steps* instead of calls, plus one :data:`VARIANTS` row per kernel variant:
its task kind, the operand it writes, its TRSM side, whether it reads
``unit``, whether it flushes its node on entry, its tile-label prefix and its
step rule.  Every consumer reads the same rows and loop nests:

* the eager kernels of :mod:`repro.hmatrix.arithmetic` run the steps
  (:func:`split`), flush the written operand and dispatch the one leaf TRSM
  on the side;
* the nested expander of :mod:`repro.core.nested` turns the steps into
  subtasks, declaring RW on the written operand and R on the others, and
  hands a split factorisation's entry flush down to its steps;
* ``tiled_getrf_tasks``/``tiled_potrf_tasks`` and the dense baselines read
  :func:`lu_steps`/:func:`chol_steps` over tile positions, with each row's
  kind, label and declaration order (``core.algorithms.tile_steps`` and
  ``declared``), and a recorded factor program keeps what they submitted.

A step is ``(variant, operands)``: run kernel ``variant`` on ``operands``, each
``(src, i, j)`` — child ``(i, j)`` of the caller's operand number ``src``, or
that operand itself where ``i`` is ``None`` (:func:`pick` resolves them).
Operands are in kernel-argument order: ``getrf``/``potrf``/``pack`` ``(a,)``; ``trsm_ll``/``trsm_ru``/
``trsm_rlt`` ``(triangle, b)``; ``gemm``/``gemm_tb`` ``(c, a, b)``; ``syrk`` ``(c, a)``.
Adding a variant is one row here, one ℌ kernel and flop model in
:mod:`~repro.hmatrix.arithmetic` and one dense kernel in
:mod:`repro.baselines.dense_tiled`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple

__all__ = ["Variant", "VARIANTS", "lu_steps", "chol_steps", "split", "pick"]

#: Factorised diagonal nodes up to this size are packed dense (``packed_lu``)
#: so panel solves collapse to one trtrs call.  The cap bounds the cache to
#: O(n * _PACK_TRI_MAX) scalars along the diagonal — small next to the
#: H-matrix itself.
_PACK_TRI_MAX = 256

# Post-order: the panel solves read the pack, so it follows the last update.
# Only a node small enough to pack has one, LU and Cholesky alike: its flush
# of the node finds nothing pending (a child is last written by a factorisation
# or triangular solve, which flush on entry; ``syrk`` writes no upper child).
_PACK = ("pack", ((0, None, None),))


def pick(nodes, operands) -> list:
    """The H-matrix nodes a step's ``operands`` name, given the caller's."""
    return [nodes[s] if i is None else nodes[s].child(i, j) for s, i, j in operands]


def lu_steps(n: int):
    """Right-looking LU (Algorithm 1) of an ``n x n`` grid."""
    for k in range(n):
        yield "getrf", ((0, k, k),)
        for j in range(k + 1, n):
            yield "trsm_ll", ((0, k, k), (0, k, j))
        for i in range(k + 1, n):
            yield "trsm_ru", ((0, k, k), (0, i, k))
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                yield "gemm", ((0, i, j), (0, i, k), (0, k, j))


def chol_steps(n: int):
    """Right-looking Cholesky of an ``n x n`` grid: reads and writes the lower
    blocks only, the diagonal ones updated by ``syrk``."""
    for k in range(n):
        yield "potrf", ((0, k, k),)
        for i in range(k + 1, n):
            yield "trsm_rlt", ((0, k, k), (0, i, k))
        for i in range(k + 1, n):
            for j in range(k + 1, i):
                yield "gemm_tb", ((0, i, j), (0, i, k), (0, j, k))
            yield "syrk", ((0, i, i), (0, i, k))


def _trsm_ll_steps(nb: int, ncols: int):
    """``L X = B``: forward substitution down each block column of ``B``."""
    for j in range(ncols):
        for i in range(nb):
            for p in range(i):
                yield "gemm", ((1, i, j), (0, i, p), (1, p, j))
            yield "trsm_ll", ((0, i, i), (1, i, j))


def _trsm_ru_steps(nrows: int, nb: int):
    """``X U = B``: left to right along each block row of ``B``."""
    for i in range(nrows):
        for j in range(nb):
            for p in range(j):
                yield "gemm", ((1, i, j), (1, i, p), (0, p, j))
            yield "trsm_ru", ((0, j, j), (1, i, j))


def _trsm_rlt_steps(nrows: int, nb: int):
    """``X L^T = B``: as ``trsm_ru`` with ``(L^T)_{pj} = L_{jp}^T`` for p < j."""
    for i in range(nrows):
        for j in range(nb):
            for p in range(j):
                yield "gemm_tb", ((1, i, j), (1, i, p), (0, j, p))
            yield "trsm_rlt", ((0, j, j), (1, i, j))


def _gemm_steps(m: int, n: int, inner: int):
    for i in range(m):
        for j in range(n):
            for l in range(inner):
                yield "gemm", ((0, i, j), (1, i, l), (2, l, j))


def _gemm_tb_steps(m: int, n: int, inner: int):
    # C += A @ B^T: the structural transpose swaps B's children grid.
    for i in range(m):
        for j in range(n):
            for l in range(inner):
                yield "gemm_tb", ((0, i, j), (1, i, l), (2, j, l))


def _syrk_steps(m: int, n: int, inner: int):
    # C += A @ A^T on a diagonal node: ``gemm_tb``'s order, children i >= j only.
    for i in range(m):
        for j in range(i + 1):
            for l in range(inner):
                if i == j:
                    yield "syrk", ((0, i, i), (1, i, l))
                else:
                    yield "gemm_tb", ((0, i, j), (1, i, l), (1, j, l))


# The children grids a rule needs to agree, as the arguments of its step
# generator — or None (shared cluster trees guarantee compatible splits, so
# None means operands from different trees).

def _square(a):
    return (a.nrow_children,) if a.nrow_children == a.ncol_children else None


def _left(l, b):
    return (l.nrow_children, b.ncol_children) if b.nrow_children == l.nrow_children else None


def _right(t, b):
    return (b.nrow_children, t.nrow_children) if b.ncol_children == t.nrow_children else None


def _product(c, a, b, transb=False):
    inner, outer = b.nrow_children, b.ncol_children
    if transb:
        inner, outer = outer, inner
    ok = a.nrow_children == c.nrow_children and outer == c.ncol_children and a.ncol_children == inner
    return (c.nrow_children, c.ncol_children, inner) if ok else None


def _product_tb(c, a, b):
    return _product(c, a, b, transb=True)


def _product_aat(c, a):
    return _product(c, a, a, transb=True)


class Variant(NamedTuple):
    """What every consumer knows of one kernel variant (see the module docstring)."""

    kind: str  # task kind
    written: int  # index of the operand it writes (the others are read)
    side: str | None  # "left"/"right" for a TRSM: B's factor the panel solve acts on
    unit: bool  # whether it reads ``unit`` (the unit-diagonal triangle)
    flush: bool  # whether it flushes its node's pending updates on entry
    label: str  # tile-label prefix
    steps: Callable | None = None  # step generator over the children grids
    grids: Callable | None = None  # children-grid test: the generator's arguments or None
    pack_max: int = 0  # largest node whose split ends with ``pack``


#: variant -> its row; ``pack`` has no step rule: it never descends.
VARIANTS = {
    "getrf": Variant("getrf", 0, None, False, True, "getrf", lu_steps, _square, _PACK_TRI_MAX),
    "potrf": Variant("potrf", 0, None, False, True, "potrf", chol_steps, _square, _PACK_TRI_MAX),
    "trsm_ll": Variant("trsm", 1, "left", True, False, "trsm_u", _trsm_ll_steps, _left),
    "trsm_ru": Variant("trsm", 1, "right", False, False, "trsm_l", _trsm_ru_steps, _right),
    "trsm_rlt": Variant("trsm", 1, "right", False, False, "trsm", _trsm_rlt_steps, _right),
    "gemm": Variant("gemm", 0, None, False, False, "gemm", _gemm_steps, _product),
    "gemm_tb": Variant("gemm", 0, None, False, False, "gemm", _gemm_tb_steps, _product_tb),
    "syrk": Variant("gemm", 0, None, False, False, "syrk", _syrk_steps, _product_aat),
    "pack": Variant("pack", 0, None, False, True, "pack"),
}


@lru_cache(maxsize=256)
def _steps(variant: str, dims: tuple, pack: bool) -> tuple:
    steps = tuple(VARIANTS[variant].steps(*dims))
    return steps + (_PACK,) if pack else steps


def split(variant: str, nodes: tuple) -> tuple | None:
    """The steps of kernel ``variant`` on the H-matrix ``nodes``, or ``None``.

    The one terminal test of the recursion, for the eager walk and the nested
    expansion alike: a kernel descends only where every operand is subdivided
    and their children grids agree.  ``None`` is a leaf case — or, where no
    operand is a leaf, incompatible grids, which the eager kernels raise on.
    A factorisation of a node up to ``_PACK_TRI_MAX`` rows ends with its
    ``pack``.
    """
    row = VARIANTS[variant]
    if row.steps is None:
        return None
    for x in nodes:
        if x.is_leaf:
            return None
    dims = row.grids(*nodes)
    if dims is None:
        return None
    return _steps(variant, dims, nodes[0].shape[0] <= row.pack_max)
