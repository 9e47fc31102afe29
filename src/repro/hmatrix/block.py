"""Block cluster trees and admissibility conditions (Definitions 1–2).

A block cluster tree ``T_{IxI}`` pairs a row cluster with a column cluster and
subdivides the pair until either the block is *admissible* (well separated →
representable at low rank) or one side can no longer be split (→ stored
dense).  The admissibility condition is the knob that trades structure
complexity for compression:

* :class:`StrongAdmissibility` — the classic ``min(diam) <= eta * dist``
  geometric condition used by HMAT-OSS;
* :class:`WeakAdmissibility` — "every off-diagonal block is admissible", the
  condition behind the Block-Separable / HODLR-style formats discussed in the
  paper's related work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cluster import ClusterTree

__all__ = [
    "Admissibility",
    "StrongAdmissibility",
    "WeakAdmissibility",
    "BlockClusterTree",
    "build_block_cluster_tree",
]


class Admissibility:
    """Interface: decides whether a (row, col) cluster pair is admissible."""

    def is_admissible(self, rows: ClusterTree, cols: ClusterTree) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class StrongAdmissibility(Admissibility):
    """Geometric eta-admissibility: ``min(diam(s), diam(t)) <= eta * dist(s, t)``.

    ``eta = 2`` is HMAT-OSS's default; larger eta admits more (bigger) blocks
    at the price of higher ranks.
    """

    eta: float = 2.0

    def __post_init__(self) -> None:
        if self.eta <= 0:
            raise ValueError(f"eta must be positive, got {self.eta}")

    def is_admissible(self, rows: ClusterTree, cols: ClusterTree) -> bool:
        dist = rows.bbox.distance(cols.bbox)
        if dist <= 0.0:
            return False
        return min(rows.bbox.diameter, cols.bbox.diameter) <= self.eta * dist


@dataclass(frozen=True)
class WeakAdmissibility(Admissibility):
    """Weak condition: admissible iff the index ranges do not intersect.

    With a shared row/column cluster tree this makes *every* off-diagonal
    block low-rank (the BS/HODLR structure of the related-work section).
    """

    def is_admissible(self, rows: ClusterTree, cols: ClusterTree) -> bool:
        return rows.stop <= cols.start or cols.stop <= rows.start


@dataclass
class BlockClusterTree:
    """A node ``b = rows x cols`` of the block cluster tree.

    ``admissible`` leaves become Rk blocks, non-admissible leaves dense
    blocks; interior nodes carry the 2x2 (or r x c) grid of sons in
    row-major order.
    """

    rows: ClusterTree
    cols: ClusterTree
    admissible: bool
    children: list["BlockClusterTree"] = field(default_factory=list)
    nrow_children: int = 0
    ncol_children: int = 0

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows.size, self.cols.size)

    def child(self, i: int, j: int) -> "BlockClusterTree":
        """Son at grid position (i, j)."""
        if self.is_leaf:
            raise IndexError("leaf block has no children")
        return self.children[i * self.ncol_children + j]

    def leaves(self):
        """Yield leaf blocks, row-major pre-order."""
        if self.is_leaf:
            yield self
        else:
            for c in self.children:
                yield from c.leaves()

    def nodes(self):
        yield self
        for c in self.children:
            yield from c.nodes()

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(c.depth() for c in self.children)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "adm" if self.admissible else ("leaf" if self.is_leaf else "split")
        return (
            f"BlockClusterTree(rows=[{self.rows.start}:{self.rows.stop}), "
            f"cols=[{self.cols.start}:{self.cols.stop}), {kind})"
        )


def build_block_cluster_tree(
    rows: ClusterTree,
    cols: ClusterTree,
    admissibility: Admissibility | None = None,
    *,
    min_block: int = 1,
) -> BlockClusterTree:
    """Build ``T_{IxJ}`` per Definition 1's recursion.

    A pair is subdivided unless it is admissible or either side is a leaf
    (``S(p) = {}`` or ``S(q) = {}``) or smaller than ``min_block``.
    """
    adm = admissibility if admissibility is not None else StrongAdmissibility()
    admissible = adm.is_admissible(rows, cols)
    node = BlockClusterTree(rows=rows, cols=cols, admissible=admissible)
    if admissible or rows.is_leaf or cols.is_leaf or rows.size <= min_block or cols.size <= min_block:
        return node
    node.nrow_children = len(rows.children)
    node.ncol_children = len(cols.children)
    # Recursing through this function itself, not a local closure: a closure
    # that names itself is a reference cycle, one per call, left to the collector.
    node.children = [
        build_block_cluster_tree(rc, cc, adm, min_block=min_block)
        for rc in rows.children
        for cc in cols.children
    ]
    return node
