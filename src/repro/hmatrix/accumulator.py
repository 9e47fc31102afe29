"""Accumulator-based rounded H-arithmetic (Börm-Christophersen style).

The dominant cost of H-LU is the QR+QR+SVD rounding that follows every
rank-growing addition: a tile that receives ``nt - k`` trailing-matrix GEMM
updates in Algorithm 1 pays ``nt - k`` full recompressions when each update
is rounded eagerly.  The :class:`UpdateAccumulator` instead *buffers* the
pending low-rank (and dense) contributions per target leaf and rounds once
when the leaf is next read — the semantics of accumulator arithmetic from
"Semi-Automatic Task Graph Construction for H-Matrix Arithmetic": collecting
updates and truncating the stacked factors in one pass is both cheaper and
no less accurate than the eager chain of pairwise rounded additions.

Usage contract (the *flush-before-read* discipline):

* ``axpy``-style writers (:meth:`HMatrix.axpy_rk`, :meth:`HMatrix.axpy_dense`,
  and the H-GEMM paths above them) pass the accumulator down and defer the
  rounding of Rk-leaf updates;
* any kernel that *reads* a block (GETRF and the TRSM panel solves) flushes
  the pending updates under that block first — the tiled task layer does
  this once per panel step, so the R/W/RW access modes declared to the STF
  engine still cover every actual data access and the inferred DAG stays
  sound;
* a memory cap bounds the buffered factors: exceeding it triggers an early
  flush of the largest pending block.

Dense leaves are never buffered: adding into a dense block is a plain ``+=``
with no rounding to amortise.
"""

from __future__ import annotations

import numpy as np

from ..obs.instrument import current as _current_probe
from .rk import RkMatrix, _check_eps, compress_dense

__all__ = ["UpdateAccumulator"]


class _Pending:
    """Buffered updates for one Rk leaf."""

    __slots__ = ("leaf", "rk_terms", "dense", "scalars")

    def __init__(self, leaf) -> None:
        self.leaf = leaf
        self.rk_terms: list[RkMatrix] = []
        self.dense: np.ndarray | None = None
        self.scalars = 0


class UpdateAccumulator:
    """Buffers pending Rk/dense updates per block; rounds once on flush.

    Parameters
    ----------
    eps:
        Rounding accuracy applied at flush time (same contract as
        :meth:`RkMatrix.add`).
    max_pending_scalars:
        Memory cap on the total buffered factor entries across all blocks.
        Exceeding it flushes the block with the largest pending footprint
        until the total fits again (early flush), so peak memory stays
        bounded regardless of how many updates a tile receives.
    """

    def __init__(self, eps: float, *, max_pending_scalars: int = 4_000_000) -> None:
        _check_eps(eps)
        if max_pending_scalars < 1:
            raise ValueError("max_pending_scalars must be positive")
        self.eps = eps
        self.max_pending_scalars = max_pending_scalars
        self._pending: dict[int, _Pending] = {}
        self._total_scalars = 0
        # Introspection counters (tests and benchmark reporting).
        self.n_deferred = 0
        self.n_flushed_blocks = 0
        self.n_early_flushes = 0

    # -- context manager ----------------------------------------------------
    def __enter__(self) -> "UpdateAccumulator":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.flush()

    # -- queries -------------------------------------------------------------
    @property
    def pending_blocks(self) -> int:
        return len(self._pending)

    @property
    def pending_scalars(self) -> int:
        """Total buffered factor entries (the memory-cap metric)."""
        return self._total_scalars

    def has_pending(self, node) -> bool:
        """True if ``node`` (a leaf or subtree root) has buffered updates.

        Used by the race detector to enforce the flush-before-read
        discipline: a kernel that reads a block must find it flushed.
        """
        if not self._pending:
            return False
        if id(node) in self._pending:
            return True
        if getattr(node, "is_leaf", True):
            return False
        return any(id(leaf) in self._pending for leaf, _, _ in node.leaf_index())

    # -- deferral -------------------------------------------------------------
    def defer_rk(self, leaf, rk: RkMatrix) -> None:
        """Buffer ``leaf.rk += rk`` (rounded later).  ``rk`` is owned."""
        if rk.rank == 0:
            return
        entry = self._entry(leaf)
        entry.rk_terms.append(rk)
        entry.scalars += rk.storage
        self._total_scalars += rk.storage
        self.n_deferred += 1
        probe = _current_probe()
        if probe is not None:
            probe.accumulator_deferred()
        self._enforce_cap()

    def defer_dense(self, leaf, block: np.ndarray) -> None:
        """Buffer ``leaf.rk += block`` (dense contribution, compressed once
        at flush time instead of once per update)."""
        entry = self._entry(leaf)
        if entry.dense is None:
            entry.dense = np.array(block, copy=True)
            entry.scalars += entry.dense.size
            self._total_scalars += entry.dense.size
        else:
            dtype = np.promote_types(entry.dense.dtype, np.asarray(block).dtype)
            if dtype != entry.dense.dtype:
                entry.dense = entry.dense.astype(dtype)
            entry.dense += block
        self.n_deferred += 1
        probe = _current_probe()
        if probe is not None:
            probe.accumulator_deferred()
        self._enforce_cap()

    # -- flushing --------------------------------------------------------------
    def flush(self, node=None) -> int:
        """Apply pending updates (rounding once per block); return the number
        of blocks flushed.

        With ``node=None`` everything is flushed; otherwise only the pending
        entries for the leaves under ``node`` (which may itself be a leaf).
        """
        if not self._pending:
            return 0
        if node is None:
            entries = list(self._pending.values())
            self._pending.clear()
            self._total_scalars = 0
        else:
            entries = []
            popped = self._pending.pop(id(node), None)
            if popped is not None:
                entries.append(popped)
            elif not node.is_leaf:
                for leaf, _, _ in node.leaf_index():
                    e = self._pending.pop(id(leaf), None)
                    if e is not None:
                        entries.append(e)
            for e in entries:
                self._total_scalars -= e.scalars
        for e in entries:
            self._apply(e)
        self.n_flushed_blocks += len(entries)
        if entries:
            probe = _current_probe()
            if probe is not None:
                probe.accumulator_flush(len(entries))
        return len(entries)

    # -- internals ---------------------------------------------------------------
    def _entry(self, leaf) -> _Pending:
        entry = self._pending.get(id(leaf))
        if entry is None:
            entry = _Pending(leaf)
            self._pending[id(leaf)] = entry
        return entry

    def _apply(self, entry: _Pending) -> None:
        leaf = entry.leaf
        terms = [leaf.rk, *entry.rk_terms]
        if entry.dense is not None:
            terms.append(compress_dense(entry.dense, self.eps))
        leaf.rk = RkMatrix.add_many(terms, self.eps)

    def _enforce_cap(self) -> None:
        while self._total_scalars > self.max_pending_scalars and len(self._pending) > 0:
            if len(self._pending) == 1:
                # A single over-cap block: compact it in place.
                (key, entry), = self._pending.items()
            else:
                key, entry = max(self._pending.items(), key=lambda kv: kv[1].scalars)
            del self._pending[key]
            self._total_scalars -= entry.scalars
            self._apply(entry)
            self.n_flushed_blocks += 1
            self.n_early_flushes += 1
            probe = _current_probe()
            if probe is not None:
                probe.accumulator_flush(1, early=True)
