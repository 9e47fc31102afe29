"""The ``HMatrix`` container: nested full-rank / low-rank block structure.

An :class:`HMatrix` node mirrors a :class:`~repro.hmatrix.block.BlockClusterTree`
node: a leaf stores either a dense block (``full``) or a low-rank block
(``rk``); an interior node stores a row-major grid of children.  Assembly from
a kernel, matvec, densification, Frobenius norm, storage accounting, rounded
low-rank/dense accumulation (the ``axpy`` family used by H-GEMM), and the
rank-map rendering of the paper's Figure 3 all live here; the recursive
factorisation kernels live in :mod:`repro.hmatrix.arithmetic`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aca import aca_batch, block_sampler, check_compression, compress_kernel_block
from .block import BlockClusterTree
from .cluster import ClusterTree
from .rk import RkMatrix, _check_eps, compress_dense

__all__ = [
    "HMatrix",
    "AssemblyConfig",
    "assemble_hmatrix",
    "assemble_hmatrices",
]


@dataclass(frozen=True)
class AssemblyConfig:
    """Knobs of H-matrix assembly.

    Attributes
    ----------
    eps:
        Relative (Frobenius) compression accuracy — the paper's accuracy
        parameter, 1e-4 in Section V.
    method:
        "aca" (default, matrix-free above leaf size), "svd" (optimal,
        densifies each admissible block), "rsvd" or "aca_full".
    max_rank:
        Optional hard rank cap for admissible blocks (``None`` or >= 1).
    """

    eps: float = 1e-4
    method: str = "aca"
    max_rank: int | None = None

    def __post_init__(self) -> None:
        _check_eps(self.eps)
        check_compression(self.method, self.max_rank)


class HMatrix:
    """H-matrix node (leaf: dense or Rk; interior: grid of children)."""

    __slots__ = (
        "rows",
        "cols",
        "shape",
        "full",
        "rk",
        "children",
        "nrow_children",
        "ncol_children",
        "_leaf_index",
        "packed_lu",
        "pending",
    )

    def __init__(
        self,
        rows: ClusterTree,
        cols: ClusterTree,
        *,
        full: np.ndarray | None = None,
        rk: RkMatrix | None = None,
        children: list["HMatrix"] | None = None,
        nrow_children: int = 0,
        ncol_children: int = 0,
    ) -> None:
        self.rows = rows
        self.cols = cols
        self.shape = (rows.size, cols.size)
        self.full = full
        self.rk = rk
        self.children = children or []
        self.nrow_children = nrow_children
        self.ncol_children = ncol_children
        self._leaf_index = None
        # Dense copy of a small *factorised* diagonal node (set by
        # hgetrf/hpotrf, cleared by any mutation): lets the panel solves do a
        # single LAPACK trtrs instead of walking the tree.
        self.packed_lu = None
        # Updates of an Rk leaf buffered by an UpdateAccumulator, rounded in
        # by its flush before the leaf is next read (None: nothing pending).
        self.pending = None
        kinds = (full is not None) + (rk is not None) + bool(self.children)
        if kinds != 1:
            raise ValueError("exactly one of full / rk / children must be set")
        if full is not None and full.shape != self.shape:
            raise ValueError(f"dense leaf shape {full.shape} != cluster shape {self.shape}")
        if rk is not None and rk.shape != self.shape:
            raise ValueError(f"rk leaf shape {rk.shape} != cluster shape {self.shape}")
        if self.children and len(self.children) != nrow_children * ncol_children:
            raise ValueError("children grid size mismatch")

    # -- pickling -----------------------------------------------------------
    # __slots__ classes need explicit state hooks; the cached leaf index is
    # dropped (rebuilt lazily on the other side) so shipped trees stay lean,
    # and so is the accumulator buffer (a shipped tree is never mid-update).
    def __getstate__(self) -> dict:
        return {
            s: getattr(self, s) for s in self.__slots__ if s not in ("_leaf_index", "pending")
        }

    def __setstate__(self, state: dict) -> None:
        for s, v in state.items():
            object.__setattr__(self, s, v)
        self._leaf_index = None
        self.pending = None

    # -- structure ----------------------------------------------------------
    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def kind(self) -> str:
        """One of "full", "rk", "h"."""
        if self.full is not None:
            return "full"
        if self.rk is not None:
            return "rk"
        return "h"

    @property
    def dtype(self) -> np.dtype:
        if self.full is not None:
            return self.full.dtype
        if self.rk is not None:
            return self.rk.dtype
        return self.children[0].dtype

    def child(self, i: int, j: int) -> "HMatrix":
        if self.is_leaf:
            raise IndexError("leaf H-matrix has no children")
        return self.children[i * self.ncol_children + j]

    def set_child(self, i: int, j: int, value: "HMatrix") -> None:
        self.children[i * self.ncol_children + j] = value
        self._leaf_index = None
        self.packed_lu = None

    def leaf_index(self) -> list[tuple["HMatrix", int, int]]:
        """Cached flat list of ``(leaf, row_offset, col_offset)`` triples.

        Offsets are relative to this node's origin, leaves in DFS order.  The
        cache stays valid across payload mutations (``full``/``rk``
        replacement never changes the tree shape); :meth:`set_child`
        invalidates it for this node — callers restructuring trees from the
        outside must do so before the first traversal.
        """
        if self.is_leaf:
            # Not cached: a leaf holding a list that holds the leaf is a
            # reference cycle, and would keep its payload (for a mapped
            # archive, the file descriptor) alive until a collector pass.
            return [(self, 0, 0)]
        idx = self._leaf_index
        if idx is None:
            r0, c0 = self.rows.start, self.cols.start
            idx = []
            for c in self.children:
                dr, dc = c.rows.start - r0, c.cols.start - c0
                for leaf, i0, j0 in c.leaf_index():
                    idx.append((leaf, dr + i0, dc + j0))
            self._leaf_index = idx
        return idx

    def leaves(self):
        for leaf, _, _ in self.leaf_index():
            yield leaf

    def nodes(self):
        yield self
        for c in self.children:
            yield from c.nodes()

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(c.depth() for c in self.children)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"HMatrix({self.shape[0]}x{self.shape[1]}, kind={self.kind})"

    # -- offsets (relative to this node's origin) ----------------------------
    def _row_off(self, node: "HMatrix") -> int:
        return node.rows.start - self.rows.start

    def _col_off(self, node: "HMatrix") -> int:
        return node.cols.start - self.cols.start

    # -- accounting -----------------------------------------------------------
    def storage(self) -> int:
        """Stored scalar count (dense entries + Rk factor entries)."""
        total = 0
        for leaf, _, _ in self.leaf_index():
            if leaf.full is not None:
                total += leaf.full.size
            else:
                total += leaf.rk.storage
        return total

    def storage_bytes(self) -> int:
        return self.storage() * np.dtype(self.dtype).itemsize

    def compression_ratio(self) -> float:
        """storage / dense storage — lower is better (paper's Fig. 4 metric)."""
        m, n = self.shape
        return self.storage() / float(m * n)

    def max_rank(self) -> int:
        return max((leaf.rk.rank for leaf in self.leaves() if leaf.rk is not None), default=0)

    def leaf_count(self) -> dict:
        """Count of leaves by kind."""
        out = {"full": 0, "rk": 0}
        for leaf in self.leaves():
            out[leaf.kind] += 1
        return out

    # -- dense bridges ---------------------------------------------------------
    def to_dense(self, order: str = "C") -> np.ndarray:
        """The block as one dense array in memory ``order`` (same values either way)."""
        out = np.zeros(self.shape, dtype=self.dtype, order=order)
        for leaf, i0, j0 in self.leaf_index():
            m, n = leaf.shape
            if leaf.full is not None:
                out[i0 : i0 + m, j0 : j0 + n] = leaf.full
            else:
                out[i0 : i0 + m, j0 : j0 + n] = leaf.rk.to_dense()
        return out

    @classmethod
    def from_dense(
        cls,
        dense: np.ndarray,
        block_tree: BlockClusterTree,
        eps: float,
        *,
        row_origin: int | None = None,
        col_origin: int | None = None,
    ) -> "HMatrix":
        """Compress an explicit matrix into the structure of ``block_tree``.

        ``dense`` is indexed in *cluster order*: entry (p, q) couples the
        p-th row unknown and q-th column unknown of the trees' permutations.
        """
        if dense.shape != (block_tree.rows.size, block_tree.cols.size):
            raise ValueError(
                f"dense shape {dense.shape} != block tree shape "
                f"{(block_tree.rows.size, block_tree.cols.size)}"
            )
        r0 = block_tree.rows.start if row_origin is None else row_origin
        c0 = block_tree.cols.start if col_origin is None else col_origin
        return _from_dense(cls, dense, block_tree, eps, r0, c0)

    # -- norms / maps -----------------------------------------------------------
    def norm_fro(self) -> float:
        total = 0.0
        for leaf in self.leaves():
            if leaf.full is not None:
                total += float(np.sum(np.abs(leaf.full) ** 2))
            else:
                total += leaf.rk.norm_fro() ** 2
        return float(np.sqrt(total))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` (x in this block's local column order; vector or panel)."""
        x = np.asarray(x)
        if x.shape[0] != self.shape[1]:
            raise ValueError(f"x leading dim {x.shape[0]} != {self.shape[1]}")
        dt = self.dtype
        out_dtype = dt if dt == x.dtype else np.promote_types(dt, x.dtype)
        out = np.zeros((self.shape[0],) + x.shape[1:], dtype=out_dtype)
        for leaf, i0, j0 in self.leaf_index():
            full = leaf.full
            if full is not None:
                m, n = full.shape
                out[i0 : i0 + m] += full @ x[j0 : j0 + n]
            else:
                rk = leaf.rk
                if rk.u.shape[1]:
                    out[i0 : i0 + rk.u.shape[0]] += rk.u @ (rk.v.T @ x[j0 : j0 + rk.v.shape[0]])
        return out

    def copy(self) -> "HMatrix":
        if self.full is not None:
            return HMatrix(self.rows, self.cols, full=self.full.copy())
        if self.rk is not None:
            return HMatrix(self.rows, self.cols, rk=self.rk.copy())
        return HMatrix(
            self.rows,
            self.cols,
            children=[c.copy() for c in self.children],
            nrow_children=self.nrow_children,
            ncol_children=self.ncol_children,
        )

    def transpose(self) -> "HMatrix":
        """Structural transpose ``A.T`` (plain, not conjugate).

        Dense leaves become copies of their transposes, Rk leaves swap
        factors, interior grids flip row-major.  Used by the Cholesky path's
        ``C -= A @ B.T`` updates.
        """
        if self.full is not None:
            return HMatrix(self.cols, self.rows, full=np.ascontiguousarray(self.full.T))
        if self.rk is not None:
            return HMatrix(self.cols, self.rows, rk=self.rk.transpose())
        kids = [
            self.child(i, j).transpose()
            for j in range(self.ncol_children)
            for i in range(self.nrow_children)
        ]
        return HMatrix(
            self.cols,
            self.rows,
            children=kids,
            nrow_children=self.ncol_children,
            ncol_children=self.nrow_children,
        )

    # -- rounded accumulation (used by H-GEMM) -----------------------------------
    def axpy_rk(self, rk: RkMatrix, eps: float, acc=None) -> None:
        """``self += rk`` with rounding, preserving this node's structure.

        The Rk contribution is restricted to each child/leaf: restriction of
        a rank-k factorisation is the row-sliced factors, so no densification
        happens above dense leaves.  With an
        :class:`~repro.hmatrix.accumulator.UpdateAccumulator` the rounding
        of Rk-leaf updates is deferred to the accumulator's flush; ``rk``
        must then stay unmutated by the caller (it is buffered by
        reference).
        """
        if rk.shape != self.shape:
            raise ValueError(f"axpy_rk shape mismatch: {rk.shape} vs {self.shape}")
        if rk.rank == 0:
            return
        self.packed_lu = None
        if self.full is not None:
            self.full += rk.to_dense()
            return
        if self.rk is not None:
            if acc is not None:
                acc.defer_rk(self, rk)
            else:
                self.rk = self.rk.add(rk, eps)
            return
        for child in self.children:
            i0, j0 = self._row_off(child), self._col_off(child)
            m, n = child.shape
            sub = RkMatrix(rk.u[i0 : i0 + m], rk.v[j0 : j0 + n])
            child.axpy_rk(sub, eps, acc)

    def axpy_dense(self, block: np.ndarray, eps: float, acc=None) -> None:
        """``self += block`` (dense, local indexing) with compression on Rk leaves.

        With an accumulator, dense contributions to Rk leaves are summed in
        the buffer (exact ``+=``) and compressed once at flush time.
        """
        if block.shape != self.shape:
            raise ValueError(f"axpy_dense shape mismatch: {block.shape} vs {self.shape}")
        self.packed_lu = None
        if self.full is not None:
            self.full += block
            return
        if self.rk is not None:
            if acc is not None:
                acc.defer_dense(self, block)
            else:
                self.rk = self.rk.add(compress_dense(block, eps), eps)
            return
        for child in self.children:
            i0, j0 = self._row_off(child), self._col_off(child)
            m, n = child.shape
            child.axpy_dense(block[i0 : i0 + m, j0 : j0 + n], eps, acc)

    def scale(self, alpha) -> None:
        """In-place multiplication by a scalar."""
        for node in self.nodes():
            node.packed_lu = None
        for leaf in self.leaves():
            if leaf.full is not None:
                leaf.full *= alpha
            elif leaf.rk.rank:
                leaf.rk = leaf.rk.scale(alpha)

    # -- Figure 3 support ---------------------------------------------------------
    def rank_map(self) -> list[tuple[int, int, int, int, str, int]]:
        """Leaf inventory for structure plots: (i0, j0, m, n, kind, rank)."""
        out = []
        for leaf in self.leaves():
            rank = leaf.rk.rank if leaf.rk is not None else min(leaf.shape)
            out.append(
                (self._row_off(leaf), self._col_off(leaf), *leaf.shape, leaf.kind, rank)
            )
        return out

    def structure_json(self) -> dict:
        """Machine-readable structure dump (for external Fig. 3-style plots).

        Returns a dict with the matrix shape, storage summary and one record
        per leaf (offsets, sizes, kind, rank) — enough to redraw the paper's
        green/red rank mosaics in any plotting tool.
        """
        counts = self.leaf_count()
        return {
            "shape": list(self.shape),
            "dtype": str(self.dtype),
            "storage": self.storage(),
            "compression_ratio": self.compression_ratio(),
            "max_rank": self.max_rank(),
            "n_dense_leaves": counts["full"],
            "n_rk_leaves": counts["rk"],
            "leaves": [
                {"i": i0, "j": j0, "m": m, "n": n, "kind": kind, "rank": rank}
                for i0, j0, m, n, kind, rank in self.rank_map()
            ],
        }

    def render_structure(self, width: int = 64) -> str:
        """ASCII rendering of the block structure (Fig. 3 style).

        Dense leaves print as ``#``, low-rank leaves as digits (rank clipped
        to 9, ``+`` beyond); each character cell covers ``shape/width``
        unknowns.
        """
        m, n = self.shape
        height = max(1, int(round(width * m / max(n, 1))))
        canvas = np.full((height, width), " ", dtype="<U1")
        for i0, j0, bm, bn, kind, rank in self.rank_map():
            r0 = int(i0 * height / m)
            r1 = max(r0 + 1, int((i0 + bm) * height / m))
            c0 = int(j0 * width / n)
            c1 = max(c0 + 1, int((j0 + bn) * width / n))
            if kind == "full":
                ch = "#"
            elif rank > 9:
                ch = "+"
            else:
                ch = str(rank)
            canvas[r0:r1, c0:c1] = ch
        return "\n".join("".join(row) for row in canvas)


def _from_dense(cls, dense, bt: BlockClusterTree, eps: float, r0: int, c0: int) -> HMatrix:
    """:meth:`HMatrix.from_dense` below its entry checks (a module-level
    function: a local closure that names itself is a cycle for the collector)."""
    i0, j0 = bt.rows.start - r0, bt.cols.start - c0
    sub = dense[i0 : i0 + bt.rows.size, j0 : j0 + bt.cols.size]
    if bt.is_leaf:
        if bt.admissible:
            return cls(bt.rows, bt.cols, rk=compress_dense(sub, eps))
        return cls(bt.rows, bt.cols, full=np.array(sub, copy=True))
    return cls(
        bt.rows,
        bt.cols,
        children=[_from_dense(cls, dense, c, eps, r0, c0) for c in bt.children],
        nrow_children=bt.nrow_children,
        ncol_children=bt.ncol_children,
    )


def assemble_hmatrix(
    kernel,
    points: np.ndarray,
    block_tree: BlockClusterTree,
    config: AssemblyConfig | None = None,
) -> HMatrix:
    """Assemble the H-matrix of ``a_ij = K(|x_i - x_j|)`` over ``block_tree``.

    Admissible leaves are compressed and inadmissible leaves evaluated
    densely.  Under ``method="aca"`` (the default) an admissible leaf below
    the root whose row and column clusters are both cluster-tree leaves is
    no larger than a dense leaf: it is evaluated by one kernel call and
    compressed by the truncated SVD, which costs less than ACA's cross loop
    at that size and meets the ε-bound exactly.  Every other admissible leaf
    goes through partially pivoted ACA and is never materialised.  A block
    tree that is a single leaf (a flat BLR tile) has no hierarchy bounding
    how many such blocks there are, so it stays on ACA.

    The one-tree case of :func:`assemble_hmatrices`.
    """
    return assemble_hmatrices(kernel, points, [block_tree], config)[0]


def assemble_hmatrices(
    kernel,
    points: np.ndarray,
    block_trees: list[BlockClusterTree],
    config: AssemblyConfig | None = None,
) -> list[HMatrix]:
    """Assemble the H-matrix of each block tree over one point set.

    The trees are walked in order and each in leaf order, as by
    :func:`assemble_hmatrix`: dense leaves and SVD-compressed blocks are
    evaluated as they are met, and the sampler of every ACA block is built
    there too.  Only the ACA itself is deferred, to one :func:`aca_batch`
    over all the trees' blocks, so same-shape blocks of different trees (the
    tiles of a Tile-H matrix) advance in lockstep.  Each block's factors are
    the ones it gets alone.
    """
    cfg = config or AssemblyConfig()
    pts = np.ascontiguousarray(points, dtype=np.float64)
    deferred: list[tuple[HMatrix, object]] = []
    mats = [
        _assemble_leaf(kernel, pts, bt, cfg, cfg.method, deferred)
        if bt.is_leaf
        else _assemble_node(kernel, pts, bt, cfg, deferred)
        for bt in block_trees
    ]
    if deferred:
        leaves, samplers = zip(*deferred)
        for leaf, rk in zip(leaves, aca_batch(samplers, cfg.eps, max_rank=cfg.max_rank)):
            leaf.rk = rk
    return mats


def _assemble_node(kernel, pts, bt: BlockClusterTree, cfg: AssemblyConfig, deferred) -> HMatrix:
    """:func:`assemble_hmatrices` below a root (a module-level function: a
    local closure that names itself is a cycle for the collector)."""
    if bt.is_leaf:
        method = cfg.method
        if method == "aca" and bt.rows.is_leaf and bt.cols.is_leaf:
            method = "svd"
        return _assemble_leaf(kernel, pts, bt, cfg, method, deferred)
    return HMatrix(
        bt.rows,
        bt.cols,
        children=[_assemble_node(kernel, pts, c, cfg, deferred) for c in bt.children],
        nrow_children=bt.nrow_children,
        ncol_children=bt.ncol_children,
    )


def _assemble_leaf(
    kernel, pts, bt: BlockClusterTree, cfg: AssemblyConfig, method: str, deferred
) -> HMatrix:
    """Assemble one leaf of the block cluster tree, compressing it by
    ``method`` if it is admissible; an ACA leaf holds a rank-0 block until
    its batch is compressed, its sampler queued on ``deferred``."""
    rpts = pts[bt.rows.indices]
    cpts = pts[bt.cols.indices]
    if not bt.admissible:
        return HMatrix(bt.rows, bt.cols, full=kernel(rpts, cpts))
    if method == "aca":
        leaf = HMatrix(bt.rows, bt.cols, rk=RkMatrix.zeros(len(rpts), len(cpts)))
        deferred.append((leaf, block_sampler(kernel, rpts, cpts)))
        return leaf
    rk = compress_kernel_block(kernel, rpts, cpts, cfg.eps, method=method, max_rank=cfg.max_rank)
    return HMatrix(bt.rows, bt.cols, rk=rk)
