"""Pure H-matrix solver with a fine-grained task DAG (the "HMAT" baseline).

The paper's performance reference is Airbus' proprietary HMAT library, whose
StarPU port (Lizé [10]) submits one task per *leaf-level* kernel and
enumerates "all the required dependencies for each submitted task"; the
paper notes that the resulting dependency volume is exactly what hurts it on
the cheap-kernel (real double) cases.

This module builds that baseline from the Tile-H machinery:

1. a single global H-matrix over the whole geometry is a one-tile Tile-H
   matrix (``nb = n``: median bisection, no tile constraint);
2. its H-LU is that matrix's factor program with the nested expansion cut
   at the leaf size — one subtask per leaf kernel, plus the ``pack`` of each
   small diagonal block — run and timed by the executor like every Tile-H
   factorisation;
3. the DAG it reports is the graph that run executed, bound like every
   Tile-H run's: the STF engine ordered each operand on the leaves under it,
   each task carries its measured seconds and the flops of the factor's
   ranks, and the ``pack`` steps stay in — orders of magnitude more tasks
   and edges than the Tile-H DAG, as in the paper.
"""

from __future__ import annotations

import numpy as np

from ..core import FactorizationInfo, TileHConfig, TileHMatrix, build_tile_h
from ..dense import sequential_blas
from ..hmatrix import ClusterTree, HMatrix, StrongAdmissibility

__all__ = ["HMatSolver"]


class HMatSolver:
    """Global H-matrix LU solver (classical H-matrix, no tiling): a one-tile
    :class:`~repro.core.TileHMatrix` whose factorisation reports the
    fine-grain leaf DAG.

    Assembly runs inside :func:`~repro.dense.blas.sequential_blas`, and the
    factorisation is the Tile-H one: same H-kernels, same block sizes, one
    BLAS policy under both rows of the comparison.
    """

    @sequential_blas()
    def __init__(
        self,
        kernel,
        points: np.ndarray,
        *,
        eps: float = 1e-4,
        leaf_size: int = 64,
        eta: float = 2.0,
        method: str = "aca",
        admissibility=None,
        accumulate: bool = True,
        racecheck: bool = False,
    ) -> None:
        """``admissibility=WeakAdmissibility()`` yields the HODLR / Block-
        Separable structure of the related-work section (every off-diagonal
        block low-rank); the default is HMAT-OSS's eta-strong condition.
        ``accumulate`` buffers trailing-update roundings during the H-LU
        (see :class:`~repro.hmatrix.UpdateAccumulator`); ``False`` keeps the
        eager one-rounding-per-update arithmetic.  ``racecheck`` runs the
        factorisation under the access-mode race detector
        (``TileHConfig.racecheck``)."""
        n = len(points)
        adm = admissibility if admissibility is not None else StrongAdmissibility(eta=eta)
        desc = build_tile_h(kernel, points, n, eps=eps, leaf_size=leaf_size,
                            admissibility=adm, method=method)
        config = TileHConfig(nb=n, eps=eps, leaf_size=leaf_size, nested=True,
                             nested_min_leaf=leaf_size, accumulate=accumulate,
                             racecheck=racecheck)
        self._tile = TileHMatrix(desc, config)

    # -- queries -------------------------------------------------------------
    @property
    def n(self) -> int:
        return self._tile.desc.n

    @property
    def perm(self) -> np.ndarray:
        return self._tile.desc.perm

    @property
    def matrix(self) -> HMatrix:
        return self._tile.desc.super.get_blktile(0, 0).mat

    @property
    def tree(self) -> ClusterTree:
        return self._tile.desc.root

    def compression_ratio(self) -> float:
        """Storage over dense storage — constant w.r.t. NB by construction
        (the flat dashed line of the paper's Fig. 4)."""
        return self._tile.compression_ratio()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` in original ordering (pre-factorisation)."""
        return self._tile.matvec(x)

    # -- factorisation / solve ---------------------------------------------------
    def factorize(self) -> FactorizationInfo:
        """The one-tile H-LU; returns its run's fine-grain leaf DAG (``nb = n``,
        ``nt = 1``), trace and wall time, as every Tile-H factorisation does."""
        return self._tile.factorize()

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` in original ordering (vector or panel)."""
        return self._tile.solve(b)

    def gesv(self, b: np.ndarray) -> np.ndarray:
        if not self._tile.factorized:
            self.factorize()
        return self.solve(b)
