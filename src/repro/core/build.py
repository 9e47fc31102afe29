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

A Cholesky reads the lower triangle only: ``lower=True`` assembles the
``nt(nt+1)/2`` tiles on and below the diagonal, and every strictly upper tile
is the rank-0 tile, which is what the factor ``L`` holds there
(:func:`drop_upper_tiles` makes a fully assembled matrix so).
"""

from __future__ import annotations

import numpy as np

from ..hmatrix import AssemblyConfig, assemble_hmatrices
from ..obs.instrument import current as _current_probe
from .clustering import TileHClustering, build_tile_h_clustering
from .descriptor import Tile, TileDesc, TileHDesc

__all__ = ["build_tile_h", "drop_upper_tiles"]


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
    lower: bool = False,
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
    lower:
        Assemble only the tiles on and below the diagonal — all that
        :func:`tiled_potrf_tasks` reads — and make every strictly upper tile
        the rank-0 tile (so the matrix is no longer ``A`` for a matvec).

    Returns
    -------
    TileHDesc
        Assembled descriptor ready for :func:`tiled_getrf_tasks` (all tiles)
        or :func:`tiled_potrf_tasks`.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    cl = clustering or build_tile_h_clustering(
        pts, nb, leaf_size=leaf_size, admissibility=admissibility
    )
    nt = cl.nt
    cfg = AssemblyConfig(eps=eps, method=method)
    pairs = [(i, j) for i in range(nt) for j in range(i + 1 if lower else nt)]
    mats = assemble_hmatrices(kernel, pts, [cl.block_tree(i, j) for i, j in pairs], cfg)
    assembled = {pair: Tile.of(mat) for pair, mat in zip(pairs, mats)}
    probe = _current_probe()
    if probe is not None:
        for tile in assembled.values():
            probe.h_bytes_delta(tile.storage_bytes())
    dtype = assembled[0, 0].dtype
    tiles = [
        assembled[i, j] if (i, j) in assembled else Tile.zeros(cl.tiles[i], cl.tiles[j], dtype)
        for i in range(nt)
        for j in range(nt)
    ]
    desc = TileDesc(n=pts.shape[0], nb=nb, nt=nt, tiles=tiles)
    return TileHDesc(
        super=desc,
        root=cl.root,
        clusters=cl.tiles,
        admissibility=cl.admissibility,
        perm=cl.perm,
        eps=eps,
    )


def drop_upper_tiles(desc: TileHDesc) -> int:
    """Make every strictly upper tile of ``desc`` the rank-0 tile — what a
    Cholesky factor ``L`` holds there; returns the bytes they stored."""
    grid, freed = desc.super, 0
    for i in range(desc.nt):
        for j in range(i + 1, desc.nt):
            freed += grid.get_blktile(i, j).storage_bytes()
            grid.set_blktile(i, j, Tile.zeros(desc.clusters[i], desc.clusters[j], grid.dtype))
    return freed
