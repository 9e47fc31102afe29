"""Accumulator-based rounded H-arithmetic (Börm-Christophersen style).

The dominant cost of H-LU is the QR+QR+SVD rounding that follows every
rank-growing addition: a tile that receives ``nt - k`` trailing-matrix GEMM
updates in Algorithm 1 pays ``nt - k`` full recompressions when each update
is rounded eagerly.  The :class:`UpdateAccumulator` instead *buffers* the
pending low-rank (and dense) contributions on the target leaf
(``HMatrix.pending``) and rounds once when the leaf is next read — the
semantics of accumulator arithmetic from "Semi-Automatic Task Graph
Construction for H-Matrix Arithmetic".  Most flushed sums are *wide* (stacked
rank above both sides of the leaf) and round without QRs.  As measured
(``EXPERIMENTS.md``) deferral halves a Cholesky factorise, the QR-free wide
rounding took ``gp_chol``'s factorise 0.416 -> 0.343 s, a leaf-48 LU at
n=10 000 takes 12.8 s against 24.1 s undeferred, and the forward error is
somewhat worse than pairwise rounding's (1.27e-4 against 9.96e-5 there).

Usage contract (the *flush-before-read* discipline):

* ``axpy``-style writers (:meth:`HMatrix.axpy_rk`, :meth:`HMatrix.axpy_dense`,
  and the H-GEMM paths above them) pass the accumulator down and defer the
  rounding of Rk-leaf updates;
* any kernel that *reads* a block (GETRF and the TRSM panel solves) flushes
  the pending updates under that block first, inside a task that already
  declares RW on it, so the declared R/W/RW access modes still cover every
  actual data access and the inferred DAG stays sound.

So the DAG orders a leaf's writers and its flush under any executor, one
accumulator (it holds only ``eps``) serves every thread of a run, and each
flush rounds the same terms in the same order: every executor gets the same
bits.  Dense leaves are never buffered: adding into a dense block is a plain
``+=`` with no rounding to amortise.
"""

from __future__ import annotations

import numpy as np

from ..obs.instrument import current as _current_probe
from .rk import RkMatrix, _check_eps, compress_dense

__all__ = ["UpdateAccumulator"]


class _Pending:
    """The buffered updates of one Rk leaf: low-rank terms and a dense sum."""

    __slots__ = ("rk_terms", "dense")

    def __init__(self) -> None:
        self.rk_terms: list[RkMatrix] = []
        self.dense: np.ndarray | None = None


def _buffer(leaf) -> _Pending:
    """``leaf``'s buffer, made on first use; counts one deferral."""
    if leaf.pending is None:
        leaf.pending = _Pending()
    probe = _current_probe()
    if probe is not None:
        probe.accumulator_deferred()
    return leaf.pending


def _leaves(node):
    return (node,) if node.is_leaf else (leaf for leaf, _, _ in node.leaf_index())


class UpdateAccumulator:
    """Defers Rk-leaf updates onto the leaf; rounds them once on flush.

    Parameters
    ----------
    eps:
        Rounding accuracy applied at flush time (same contract as
        :meth:`RkMatrix.add`).
    """

    __slots__ = ("eps",)

    def __init__(self, eps: float) -> None:
        _check_eps(eps)
        self.eps = eps

    @staticmethod
    def has_pending(node) -> bool:
        """True if ``node`` (a leaf or subtree root) has buffered updates."""
        return any(leaf.pending is not None for leaf in _leaves(node))

    def defer_rk(self, leaf, rk: RkMatrix) -> None:
        """Buffer ``leaf.rk += rk`` (rounded later).  ``rk`` is owned."""
        if rk.rank == 0:
            return
        _buffer(leaf).rk_terms.append(rk)

    def defer_dense(self, leaf, block: np.ndarray) -> None:
        """Buffer ``leaf.rk += block`` (dense contribution, compressed once
        at flush time instead of once per update)."""
        entry = _buffer(leaf)
        if entry.dense is None:
            entry.dense = np.array(block, copy=True)
            return
        dtype = np.promote_types(entry.dense.dtype, np.asarray(block).dtype)
        if dtype != entry.dense.dtype:
            entry.dense = entry.dense.astype(dtype)
        entry.dense += block

    def flush(self, node) -> int:
        """Round the pending updates of every leaf under ``node`` (which may
        itself be a leaf) into it, once per leaf; return how many leaves."""
        n = 0
        for leaf in _leaves(node):
            entry = leaf.pending
            if entry is None:
                continue
            leaf.pending = None
            terms = [leaf.rk, *entry.rk_terms]
            if entry.dense is not None:
                terms.append(compress_dense(entry.dense, self.eps))
            leaf.rk = RkMatrix.add_many(terms, self.eps)
            n += 1
        if n:
            probe = _current_probe()
            if probe is not None:
                probe.accumulator_flush(n)
        return n
