"""Tile descriptors — Python analogues of the paper's Structures 1-3.

The paper extends CHAMELEON's dense-only descriptor so each tile can carry
*any* matrix format:

* ``CHAM_tile_t`` (Structure 2) → :class:`Tile`: a ``format`` discriminator
  plus a payload that is a dense array or an H-matrix;
* ``CHAM_desc_t`` (Structure 1) → :class:`TileDesc`: the ``nt x nt`` grid
  with ``get_blktile``-style access;
* ``HCHAM_desc_s`` (Structure 3) → :class:`TileHDesc`: the Tile-H wrapper
  holding the CHAMELEON descriptor together with the cluster trees, the
  admissibility condition and the permutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..hmatrix import Admissibility, ClusterTree, HMatrix, RkMatrix

__all__ = ["Tile", "TileDesc", "TileHDesc"]


@dataclass
class Tile:
    """One tile of the Tile-H layout (the ``CHAM_tile_t`` analogue).

    The payload is always an :class:`HMatrix`; ``format`` records its top
    structure ("full" — one dense leaf, "rk" — one low-rank leaf, "hmat" —
    subdivided), which is what the paper's ``int8_t format`` field switches
    kernels on.  Keeping the payload type uniform lets every tiled algorithm
    call the H-kernels unconditionally, while the format field still drives
    reporting and fast-path checks.
    """

    format: str
    m: int
    n: int
    mat: HMatrix

    def __post_init__(self) -> None:
        if self.format not in ("hmat", "full", "rk"):
            raise ValueError(f"unknown tile format {self.format!r}")
        if self.mat.shape != (self.m, self.n):
            raise ValueError(
                f"payload shape {self.mat.shape} != declared ({self.m}, {self.n})"
            )

    @classmethod
    def of(cls, h: HMatrix) -> "Tile":
        """Wrap an H-matrix, deriving the format from its top structure."""
        fmt = {"full": "full", "rk": "rk", "h": "hmat"}[h.kind]
        return cls(fmt, h.shape[0], h.shape[1], h)

    @classmethod
    def zeros(cls, rows: ClusterTree, cols: ClusterTree, dtype) -> "Tile":
        """The rank-0 ``Rk`` tile over ``rows x cols``: an exact zero block."""
        return cls.of(HMatrix(rows, cols, rk=RkMatrix.zeros(rows.size, cols.size, dtype=dtype)))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m, self.n)

    @property
    def dtype(self) -> np.dtype:
        return self.mat.dtype

    def to_dense(self) -> np.ndarray:
        return self.mat.to_dense()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.mat.matvec(x)

    def storage(self) -> int:
        """Stored scalar count."""
        return self.mat.storage()

    def storage_bytes(self) -> int:
        """Stored bytes (scalar count times the payload itemsize)."""
        return self.storage() * self.dtype.itemsize

    def copy(self) -> "Tile":
        return Tile(self.format, self.m, self.n, self.mat.copy())


@dataclass
class TileDesc:
    """The ``nt x nt`` tile grid (the ``CHAM_desc_t`` analogue)."""

    n: int
    nb: int
    nt: int
    tiles: list = field(default_factory=list)  # row-major, length nt * nt

    def __post_init__(self) -> None:
        if self.nt < 1 or self.nb < 1 or self.n < 1:
            raise ValueError("n, nb, nt must all be positive")
        if self.tiles and len(self.tiles) != self.nt * self.nt:
            raise ValueError(f"expected {self.nt * self.nt} tiles, got {len(self.tiles)}")

    def get_blktile(self, i: int, j: int) -> Tile:
        """Tile at grid position (i, j) — the paper's ``get_blktile`` hook."""
        if not (0 <= i < self.nt and 0 <= j < self.nt):
            raise IndexError(f"tile index ({i}, {j}) out of range for nt={self.nt}")
        return self.tiles[i * self.nt + j]

    def set_blktile(self, i: int, j: int, tile: Tile) -> None:
        if not (0 <= i < self.nt and 0 <= j < self.nt):
            raise IndexError(f"tile index ({i}, {j}) out of range for nt={self.nt}")
        self.tiles[i * self.nt + j] = tile

    @property
    def dtype(self) -> np.dtype:
        return self.tiles[0].dtype

    def tile_rows(self, i: int) -> int:
        """Number of rows in tile row ``i`` (the last row may be padded)."""
        return self.get_blktile(i, 0).m

    def storage(self) -> int:
        return sum(t.storage() for t in self.tiles)

    def compression_ratio(self) -> float:
        return self.storage() / float(self.n * self.n)


@dataclass
class TileHDesc:
    """The full Tile-H descriptor (the ``HCHAM_desc_s`` analogue).

    Attributes mirror the paper's structure: ``super`` is the CHAMELEON tile
    descriptor, ``clusters`` the per-tile cluster trees, ``admissibility``
    the block-admissibility condition, ``perm`` the clustering permutation.
    """

    super: TileDesc
    root: ClusterTree
    clusters: list
    admissibility: Admissibility
    perm: np.ndarray
    eps: float

    @property
    def n(self) -> int:
        return self.super.n

    @property
    def nt(self) -> int:
        return self.super.nt

    @property
    def nb(self) -> int:
        return self.super.nb

    def tile_slice(self, i: int) -> slice:
        """Cluster-order index range covered by tile row/column ``i``."""
        c = self.clusters[i]
        return slice(c.start, c.stop)

    def to_dense(self) -> np.ndarray:
        """Materialise the full matrix in *cluster order* (tests only)."""
        n = self.n
        out = np.zeros((n, n), dtype=self.super.dtype)
        for i in range(self.nt):
            for j in range(self.nt):
                out[self.tile_slice(i), self.tile_slice(j)] = self.super.get_blktile(i, j).to_dense()
        return out

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` with ``x`` in original (unpermuted) ordering."""
        x = np.asarray(x)
        if x.shape[0] != self.n:
            raise ValueError(f"x leading dim {x.shape[0]} != {self.n}")
        xc = x[self.perm]
        out = np.zeros_like(xc, dtype=np.promote_types(self.super.dtype, x.dtype))
        for i in range(self.nt):
            acc = None
            for j in range(self.nt):
                contrib = self.super.get_blktile(i, j).matvec(xc[self.tile_slice(j)])
                acc = contrib if acc is None else acc + contrib
            out[self.tile_slice(i)] = acc
        result = np.empty_like(out)
        result[self.perm] = out
        return result

    def storage(self) -> int:
        return self.super.storage()

    def compression_ratio(self) -> float:
        """Stored scalars over dense scalars — the paper's Fig. 4 metric."""
        return self.super.compression_ratio()

    def max_rank(self) -> int:
        return max((t.mat.max_rank() for t in self.super.tiles), default=0)

    def format_counts(self) -> dict:
        """Tile-format census ("full"/"rk"/"hmat") for structure reports."""
        out = {"full": 0, "rk": 0, "hmat": 0}
        for t in self.super.tiles:
            out[t.format] += 1
        return out

    def relink_clusters(self) -> None:
        """Re-anchor every tile's H-matrix nodes onto this descriptor's
        canonical cluster tree.

        Tiles factorised in worker processes arrive with unpickled *copies*
        of the cluster nodes they were assembled against.  Archive
        serialization keys cluster references by identity, and each copy
        drags along its own ``points``/``perm`` arrays, so re-linking both
        restores the identity invariant and lets the nt^2 duplicated
        subtrees be collected.  Nodes are matched by their (start, stop,
        level) span, which is unique in the bisection tree.
        """
        canon: dict = {}

        def index(node) -> None:
            canon[(node.start, node.stop, node.level)] = node
            for c in node.children:
                index(c)

        index(self.root)

        def relink(h) -> None:
            r = canon.get((h.rows.start, h.rows.stop, h.rows.level))
            c = canon.get((h.cols.start, h.cols.stop, h.cols.level))
            if r is not None:
                h.rows = r
            if c is not None:
                h.cols = c
            for child in h.children:
                relink(child)

        for t in self.super.tiles:
            relink(t.mat)
