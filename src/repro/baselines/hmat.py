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
3. the program's kernels, its ``pack`` steps left out, replay through the STF
   engine, which orders each operand on the leaves under it
   (:func:`trace_to_graph`), producing the fine-grain DAG with measured
   costs — orders of magnitude more tasks and edges than the Tile-H DAG, as
   in the paper.
"""

from __future__ import annotations

import numpy as np

from ..core import FactorizationInfo, TileHConfig, TileHMatrix, build_tile_h
from ..core.factor_program import _Recorder, announce, bound_flops, task_operands
from ..dense import sequential_blas
from ..hmatrix import ClusterTree, HMatrix, StrongAdmissibility
from ..hmatrix.rules import VARIANTS
from ..runtime import AccessMode, StfEngine, TaskGraph

__all__ = ["HMatSolver", "trace_to_graph"]


def trace_to_graph(tasks, engine: StfEngine | None = None) -> TaskGraph:
    """Replay kernel executions into a fine-grained task DAG via STF inference.

    ``tasks`` yields ``(kind, reads, writes, seconds, flops)`` with ``reads``
    and ``writes`` tuples of H-matrix nodes; every task declares R on the
    nodes it reads and RW on those it writes, and the engine orders it on the
    leaves under them — a panel solve that reads a whole triangle waits for
    the updates that wrote single leaves inside it.  The tasks carry their
    given seconds and no kernel (they already ran), so the default engine is
    a deferred one: there is nothing to run.
    """
    engine = engine or StfEngine(mode="deferred")
    for kind, reads, writes, seconds, flops in tasks:
        accesses = [(engine.handle(node), AccessMode.R) for node in reads]
        accesses += [(engine.handle(node), AccessMode.RW) for node in writes]
        engine.insert_task(kind, None, accesses, seconds=seconds, flops=flops)
    return engine.wait_all()


class _OneTile(TileHMatrix):
    """The one tile of :class:`HMatSolver`: keeps its tasks' operands and
    pre-run flops from the one program lookup its factorisation makes, and
    announces those flops: one binding pass, probed or not."""

    def _announce(self, program, nodes: list) -> None:
        operands = task_operands(program, nodes)
        self.bound = program, operands, bound_flops(program, operands)
        announce(program, nodes, self.bound[2])


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
        self._tile = _OneTile(desc, config)

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
        """The one-tile H-LU; returns its fine-grain leaf DAG (``nb = n``,
        ``nt = 1``, no trace), each task carrying the seconds the run
        measured and the flops the program bound before it."""
        tile = self._tile
        info = tile.factorize()
        program, operands, flops = tile.bound
        seconds = info.trace.task_seconds(len(program))

        def kernels():
            for t, (kind, variant) in enumerate(zip(program.kinds, program.variants)):
                if kind != "pack":
                    ops, w = operands[t], VARIANTS[variant].written
                    yield kind, ops[:w] + ops[w + 1:], (ops[w],), seconds[t], flops[t]

        # The run announced its tasks to the probe: the replay announces none.
        graph = trace_to_graph(kernels(), _Recorder(mode="deferred"))
        return FactorizationInfo(graph, self.n, 1, racecheck=info.racecheck)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` in original ordering (vector or panel)."""
        return self._tile.solve(b)

    def gesv(self, b: np.ndarray) -> np.ndarray:
        if not self._tile.factorized:
            self.factorize()
        return self.solve(b)
