"""Tile-H matrix assembly (Section IV-D's construction path).

Each of the ``nt x nt`` tiles is an independent H-matrix built with the
HMAT-OSS kernels: admissible sub-blocks by ACA, dense leaves by direct kernel
evaluation.  All tiles are walked before any ACA runs, so the same-shape
admissible blocks of different tiles are compressed as one lockstep batch
(:func:`~repro.hmatrix.assemble_hmatrices`).  Tiles whose cluster pair is
small enough to be a single dense leaf are stored in "full" format so the
dense fast path of the kernel layer is exercised, mirroring the format switch
of the paper's ``CHAM_tile_t``.

Assembly is one serial walk over tile (i, j) in row-major order, whatever
executor later factorises the matrix: as tasks, the tiles assembled no faster
on two leased threads and 3.5-5.6x slower on two worker processes
(``docs/parallelism.md``).  The task parallelism is the factorisation's.
"""

from __future__ import annotations

import numpy as np

from ..hmatrix import AssemblyConfig, assemble_hmatrices
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
        Admissible-block compression, one of
        :data:`~repro.hmatrix.aca.COMPRESSION_METHODS`: "aca" (default),
        "svd", "rsvd" or "aca_full".
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
    trees = [cl.block_tree(i, j) for i in range(nt) for j in range(nt)]
    tiles = [Tile.of(mat) for mat in assemble_hmatrices(kernel, pts, trees, cfg)]
    probe = _current_probe()
    if probe is not None:
        for tile in tiles:
            probe.h_bytes_delta(tile.storage_bytes())
    desc = TileDesc(n=pts.shape[0], nb=nb, nt=nt, tiles=tiles)
    return TileHDesc(
        super=desc,
        root=cl.root,
        clusters=cl.tiles,
        admissibility=cl.admissibility,
        perm=cl.perm,
        eps=eps,
    )
