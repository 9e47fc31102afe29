"""Tile-H matrix assembly (Section IV-D's construction path).

Each of the ``nt x nt`` tiles is assembled independently with the HMAT-OSS
kernels: admissible sub-blocks by ACA, dense leaves by direct kernel
evaluation.  Tiles whose cluster pair is small enough to be a single dense
leaf are stored in "full" format so the dense fast path of the kernel layer
is exercised, mirroring the format switch of the paper's ``CHAM_tile_t``.

Two execution paths:

* serial (default, ``engine=None``) — the historical double loop, assembling
  tile (i, j) in row-major order;
* task-based (``engine=`` an :class:`~repro.runtime.stf.StfEngine`) — one
  ``assemble`` task per tile is submitted through the engine, each declaring
  a W access on its tile's data handle.  Under a deferred engine and the
  threaded executor the ``nt^2`` tiles assemble as independent tasks (one at
  a time under the executor's interpreter lease: ACA is interpreter-bound;
  the process executor assembles them in parallel), and because
  factorisation tasks submitted to the *same* engine depend only on the
  tile handles they touch, assembly fuses
  with the LU: early panels factorise while late tiles are still assembling
  (the build-and-factorise overlap of task-based H-matrix runtimes).
"""

from __future__ import annotations

import numpy as np

from ..hmatrix import AssemblyConfig, assemble_hmatrix
from ..obs.instrument import current as _current_probe
from ..runtime import AccessMode, StfEngine, TaskSpec
from .clustering import TileHClustering, build_tile_h_clustering
from .descriptor import Tile, TileDesc, TileHDesc

__all__ = ["build_tile_h", "assemble_priority"]


def _op_assemble(payloads, i, j, *, context):
    """Process-executor op: assemble tile (i, j) from the shipped context.

    ``context`` is the executor-level assembly context (kernel, points,
    clustering, assembly config) shipped once per worker — the per-task
    message carries only the tile indices.
    """
    tile = payloads[0]
    h = assemble_hmatrix(
        context["kernel"], context["points"],
        context["clustering"].block_tree(i, j), context["assembly"],
    )
    tile.fill(h)
    probe = _current_probe()
    if probe is not None:  # pragma: no cover - workers run unprobed
        probe.h_bytes_delta(tile.storage_bytes())


def assemble_priority(nt: int, i: int, j: int) -> int:
    """Priority of tile (i, j)'s assemble task, on the LU priority scale.

    The first factorisation step that touches tile (i, j) is panel
    ``k = min(i, j)``; its assembly slots between that panel's TRSMs
    (base + 12) and its GETRF (base + 15) so the tiles of early panels
    materialise before any later-panel work becomes runnable.
    """
    return (nt - min(i, j)) * 10 + 14


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
    engine: StfEngine | None = None,
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
    engine:
        Submit one ``assemble`` task per tile through this STF engine
        instead of the serial loop.  With an *eager* engine the tiles are
        assembled (in submission order — numerically identical to the
        serial path) by the time this returns; with a *deferred* engine the
        returned descriptor holds :meth:`~repro.core.descriptor.Tile.pending`
        placeholder tiles whose payloads materialise when the graph runs
        under a :class:`~repro.runtime.ThreadedExecutor`.

    Returns
    -------
    TileHDesc
        Fully assembled descriptor ready for :func:`tiled_getrf_tasks`
        (with a deferred engine: ready once the engine's graph has run).
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    cl = clustering or build_tile_h_clustering(
        pts, nb, leaf_size=leaf_size, admissibility=admissibility
    )
    nt = cl.nt
    cfg = AssemblyConfig(eps=eps, method=method)
    tiles: list[Tile] = []
    if engine is None:
        for i in range(nt):
            for j in range(nt):
                bt = cl.block_tree(i, j)
                h = assemble_hmatrix(kernel, pts, bt, cfg)
                tile = Tile.of(h)
                probe = _current_probe()
                if probe is not None:
                    probe.h_bytes_delta(tile.storage_bytes())
                tiles.append(tile)
    else:
        dtype = np.dtype(getattr(kernel, "dtype", np.float64))
        sizes = [c.stop - c.start for c in cl.tiles]
        tiles = [
            Tile.pending(sizes[i], sizes[j], dtype)
            for i in range(nt)
            for j in range(nt)
        ]
        def _assemble_tile(tile: Tile, bt) -> None:
            tile.fill(assemble_hmatrix(kernel, pts, bt, cfg))
            probe = _current_probe()
            if probe is not None:
                probe.h_bytes_delta(tile.storage_bytes())

        for i in range(nt):
            for j in range(nt):
                tile = tiles[i * nt + j]
                bt = cl.block_tree(i, j)
                engine.insert_task(
                    "assemble",
                    (lambda tile=tile, bt=bt: _assemble_tile(tile, bt)),
                    [(engine.handle(tile, f"A[{i},{j}]"), AccessMode.W)],
                    priority=assemble_priority(nt, i, j),
                    label=f"assemble({i},{j})",
                    spec=TaskSpec(
                        "repro.core.build:_op_assemble",
                        args=(i, j),
                        needs_context=True,
                    ),
                )
    desc = TileDesc(n=pts.shape[0], nb=nb, nt=nt, tiles=tiles)
    return TileHDesc(
        super=desc,
        root=cl.root,
        clusters=cl.tiles,
        admissibility=cl.admissibility,
        perm=cl.perm,
        eps=eps,
    )
