"""HMAT-OSS substrate: a from-scratch sequential H-matrix library.

Implements everything the paper takes from Airbus' HMAT-OSS:

* geometric cluster trees with median bisection (:mod:`.cluster`),
* the paper's ``NTilesRecursive`` tile-aligned clustering (:mod:`.ntiles`),
* block cluster trees and admissibility conditions (:mod:`.block`),
* low-rank ``Rk`` blocks with rounded (truncated) arithmetic (:mod:`.rk`),
* ACA compression for kernel blocks (:mod:`.aca`),
* the :class:`HMatrix` container with assembly, matvec and memory accounting
  (:mod:`.hmatrix`),
* recursive H-arithmetic: H-GEMM, H-TRSM, H-GETRF (:mod:`.arithmetic`).
"""

from .cluster import ClusterTree, BoundingBox, build_cluster_tree
from .ntiles import ntiles_recursive, tile_roots
from .block import (
    Admissibility,
    StrongAdmissibility,
    WeakAdmissibility,
    BlockClusterTree,
    build_block_cluster_tree,
)
from .rk import RkMatrix, truncate_svd, compress_dense, compress_dense_rsvd
from .aca import (
    COMPRESSION_METHODS,
    aca_batch,
    aca_full,
    aca_partial,
    check_compression,
    compress_kernel_block,
)
from .accumulator import UpdateAccumulator
from .hmatrix import (
    HMatrix,
    assemble_hmatrix,
    assemble_hmatrices,
    AssemblyConfig,
)
from .io import save_tile_h, load_tile_h, read_tile_h
from .arithmetic import (
    hgetrf,
    htrsm,
    hgemm,
    hgemm_transb,
    hsyrk,
    hpotrf,
    hchol_solve,
    hlu_solve,
)

__all__ = [
    "ClusterTree",
    "BoundingBox",
    "build_cluster_tree",
    "ntiles_recursive",
    "tile_roots",
    "Admissibility",
    "StrongAdmissibility",
    "WeakAdmissibility",
    "BlockClusterTree",
    "build_block_cluster_tree",
    "RkMatrix",
    "truncate_svd",
    "compress_dense",
    "compress_dense_rsvd",
    "aca_partial",
    "aca_batch",
    "aca_full",
    "compress_kernel_block",
    "check_compression",
    "COMPRESSION_METHODS",
    "UpdateAccumulator",
    "HMatrix",
    "assemble_hmatrix",
    "assemble_hmatrices",
    "AssemblyConfig",
    "hgetrf",
    "htrsm",
    "hgemm",
    "hgemm_transb",
    "hsyrk",
    "hpotrf",
    "hchol_solve",
    "hlu_solve",
    "save_tile_h",
    "load_tile_h",
    "read_tile_h",
]
