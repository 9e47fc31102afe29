"""Tile-H matrix assembly (Section IV-D's construction path).

Each of the ``nt x nt`` tiles is assembled independently with the HMAT-OSS
kernels: admissible sub-blocks by ACA, dense leaves by direct kernel
evaluation.  Tiles whose cluster pair is small enough to be a single dense
leaf are stored in "full" format so the dense fast path of the kernel layer
is exercised, mirroring the format switch of the paper's ``CHAM_tile_t``.

Assembly is one serial loop over tile (i, j) in row-major order, whatever
executor later factorises the matrix: as tasks, the tiles assembled no faster
on two leased threads and 3.5-5.6x slower on two worker processes
(``docs/parallelism.md``).  The task parallelism is the factorisation's.
"""

from __future__ import annotations

import numpy as np

from ..hmatrix import AssemblyConfig, assemble_hmatrix
from ..obs.instrument import current as _current_probe
from .clustering import TileHClustering, build_tile_h_clustering
from .descriptor import Tile, TileDesc, TileHDesc

__all__ = ["build_tile_h"]


def build_tile_h(
    kernel,
    points: np.ndarray,
    nb: int,
    *,
    eps: float = 1e-4,
    leaf_size: int = 64,
    admissibility=None,
    method: str = "aca",
    clustering: TileHClustering | None = None,
) -> TileHDesc:
    """Assemble the Tile-H matrix of the kernel over ``points``.

    Parameters
    ----------
    kernel:
        A :class:`~repro.geometry.kernels.KernelFunction`.
    nb:
        Tile size (the paper's NB; its Figs. 4-7 sweep this).
    eps:
        Compression accuracy (1e-4 in the paper's experiments).
    method:
        Admissible-block compression: "aca" (default) or "svd".
    clustering:
        Reuse a precomputed clustering (e.g. to assemble several kernels on
        the same geometry).

    Returns
    -------
    TileHDesc
        Fully assembled descriptor ready for :func:`tiled_getrf_tasks`.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    cl = clustering or build_tile_h_clustering(
        pts, nb, leaf_size=leaf_size, admissibility=admissibility
    )
    nt = cl.nt
    cfg = AssemblyConfig(eps=eps, method=method)
    tiles: list[Tile] = []
    for i in range(nt):
        for j in range(nt):
            tile = Tile.of(assemble_hmatrix(kernel, pts, cl.block_tree(i, j), cfg))
            probe = _current_probe()
            if probe is not None:
                probe.h_bytes_delta(tile.storage_bytes())
            tiles.append(tile)
    desc = TileDesc(n=pts.shape[0], nb=nb, nt=nt, tiles=tiles)
    return TileHDesc(
        super=desc,
        root=cl.root,
        clusters=cl.tiles,
        admissibility=cl.admissibility,
        perm=cl.perm,
        eps=eps,
    )
