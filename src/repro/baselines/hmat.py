"""Pure H-matrix solver with a fine-grained task DAG (the "HMAT" baseline).

The paper's performance reference is Airbus' proprietary HMAT library, whose
StarPU port (Lizé [10]) submits one task per *leaf-level* kernel and
enumerates "all the required dependencies for each submitted task"; the
paper notes that the resulting dependency volume is exactly what hurts it on
the cheap-kernel (real double) cases.

This module reconstructs that baseline faithfully:

1. a single global H-matrix is built over the whole geometry (median
   bisection, no tile constraint);
2. the recursive H-LU runs with the :class:`~repro.hmatrix.arithmetic
   .KernelTracer` installed, which observes every leaf GETRF/TRSM/GEMM with
   the H-matrix nodes it reads and writes;
3. the trace replays through the STF engine with node sets expanded to leaf
   granularity, producing the fine-grain DAG with measured costs — orders of
   magnitude more tasks and edges than the Tile-H DAG, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dense import sequential_blas
from ..hmatrix import (
    AssemblyConfig,
    HMatrix,
    KernelTracer,
    StrongAdmissibility,
    UpdateAccumulator,
    assemble_hmatrix,
    build_block_cluster_tree,
    build_cluster_tree,
    hgetrf,
    hlu_solve,
    set_tracer,
)
from ..runtime import (
    AccessMode,
    RaceChecker,
    RuntimeOverheadModel,
    SimulationResult,
    StfEngine,
    TaskGraph,
    simulate,
)

__all__ = ["HMatSolver", "trace_to_graph"]


def _leaf_handles(engine: StfEngine, node: HMatrix, cache: dict) -> list:
    """Handles of all leaves under ``node`` (region-based dependencies).

    Kernel traces reference H-matrix *nodes*; expanding them to leaves links
    a panel solve that reads a whole triangle with the updates that wrote
    individual leaves inside it.
    """
    key = id(node)
    found = cache.get(key)
    if found is None:
        found = [engine.handle(leaf, f"leaf[{leaf.rows.start},{leaf.cols.start}]") for leaf in node.leaves()]
        cache[key] = found
    return found


def trace_to_graph(tracer: KernelTracer, engine: StfEngine | None = None) -> TaskGraph:
    """Replay a kernel trace into a fine-grained task DAG via STF inference.

    The tasks carry their traced seconds and no kernel (they ran during
    tracing), so the default engine is a deferred one: there is nothing to
    run.  Pass an engine with ``racecheck`` enabled to screen the leaf
    handles for memory aliasing while the trace replays.
    """
    engine = engine or StfEngine(mode="deferred")
    cache: dict = {}
    for rec in tracer.records:
        accesses = []
        seen = set()
        for node in rec.reads:
            for h in _leaf_handles(engine, node, cache):
                if h.id not in seen:
                    seen.add(h.id)
                    accesses.append((h, AccessMode.R))
        for node in rec.writes:
            for h in _leaf_handles(engine, node, cache):
                # A handle both read and written is RW; drop the R entry.
                accesses = [(hh, m) for hh, m in accesses if hh.id != h.id]
                seen.add(h.id)
                accesses.append((h, AccessMode.RW))
        engine.insert_task(
            rec.kind, None, accesses, seconds=rec.seconds, flops=rec.flops
        )
    return engine.wait_all()


@dataclass
class HMatFactorizationInfo:
    """Fine-grain DAG of a pure H-LU plus simulation access."""

    graph: TaskGraph
    racecheck: RaceChecker | None = None

    @property
    def n_tasks(self) -> int:
        return len(self.graph)

    @property
    def n_dependencies(self) -> int:
        return self.graph.n_edges()

    def sequential_seconds(self) -> float:
        return self.graph.total_work("seconds")

    def simulate(
        self,
        nworkers: int,
        scheduler: str = "lws",
        *,
        overheads: RuntimeOverheadModel | None = None,
        cost_attr: str = "seconds",
        cost_scale: float = 1.0,
    ) -> SimulationResult:
        return simulate(
            self.graph,
            nworkers,
            scheduler,
            overheads=overheads,
            cost_attr=cost_attr,
            cost_scale=cost_scale,
        )


class HMatSolver:
    """Global H-matrix LU solver (classical H-matrix, no tiling).

    Assembly and factorisation run inside
    :func:`~repro.dense.blas.sequential_blas`, like the Tile-H cold path:
    same H-kernels, same block sizes, one BLAS policy under both rows of the
    comparison.
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
        eager one-rounding-per-update arithmetic.  ``racecheck`` screens the
        fine-grain leaf handles for memory aliasing while the kernel trace
        replays through the STF engine."""
        self.points = np.ascontiguousarray(points, dtype=np.float64)
        self.eps = eps
        self.accumulate = accumulate
        self.racecheck = racecheck
        self.tree = build_cluster_tree(self.points, leaf_size=leaf_size)
        adm = admissibility if admissibility is not None else StrongAdmissibility(eta=eta)
        block = build_block_cluster_tree(self.tree, self.tree, adm)
        self.matrix = assemble_hmatrix(
            kernel, self.points, block, AssemblyConfig(eps=eps, method=method)
        )
        from ..obs.instrument import current as _current_probe

        probe = _current_probe()
        if probe is not None:
            probe.h_bytes_delta(self.matrix.storage() * self.matrix.dtype.itemsize)
        self._factorized = False

    # -- queries -------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def perm(self) -> np.ndarray:
        return self.tree.perm

    def compression_ratio(self) -> float:
        """Storage over dense storage — constant w.r.t. NB by construction
        (the flat dashed line of the paper's Fig. 4)."""
        return self.matrix.compression_ratio()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` in original ordering (pre-factorisation)."""
        if self._factorized:
            raise RuntimeError("matrix content was overwritten by factorize()")
        out = np.zeros_like(np.asarray(x), dtype=np.promote_types(self.matrix.dtype, np.asarray(x).dtype))
        out[self.perm] = self.matrix.matvec(np.asarray(x)[self.perm])
        return out

    # -- factorisation / solve ---------------------------------------------------
    @sequential_blas()
    def factorize(self) -> HMatFactorizationInfo:
        """Recursive H-LU with kernel tracing; returns the fine-grain DAG."""
        if self._factorized:
            raise RuntimeError("factorize() called twice")
        tracer = KernelTracer()
        prev = set_tracer(tracer)
        try:
            hgetrf(self.matrix, self.eps, UpdateAccumulator(self.eps) if self.accumulate else None)
        finally:
            set_tracer(prev)
        self._factorized = True
        engine = StfEngine(mode="deferred", racecheck=self.racecheck)
        graph = trace_to_graph(tracer, engine)
        return HMatFactorizationInfo(graph=graph, racecheck=engine.racecheck)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` in original ordering (vector or panel)."""
        if not self._factorized:
            raise RuntimeError("call factorize() before solve()")
        b = np.asarray(b)
        x = hlu_solve(self.matrix, b[self.perm])
        out = np.empty_like(x)
        out[self.perm] = x
        return out

    def gesv(self, b: np.ndarray) -> np.ndarray:
        if not self._factorized:
            self.factorize()
        return self.solve(b)
