"""Public solver API: :class:`TileHMatrix` (the H-Chameleon front door).

Typical use::

    from repro.core import TileHMatrix, TileHConfig
    from repro.geometry import cylinder_cloud, make_kernel

    pts = cylinder_cloud(20_000)
    kern = make_kernel("laplace", pts)
    a = TileHMatrix.build(kern, pts, TileHConfig(nb=1000, eps=1e-4))
    info = a.factorize()                      # real numerics + task DAG
    x = a.solve(b)                            # b, x in original ordering
    sim = info.simulate(nworkers=35, scheduler="prio")   # Fig. 6/7 numbers
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..dense import sequential_blas
from ..runtime import (
    SCHEDULER_NAMES,
    ExecutionTrace,
    NestedPolicy,
    NestedStats,
    ProcessExecutor,
    RaceChecker,
    RuntimeOverheadModel,
    SimulationResult,
    StfEngine,
    TaskGraph,
    ThreadedExecutor,
    simulate,
)
from .algorithms import (
    apply_bottom_level_priorities,
    sweep_solve_tasks,
    tiled_getrf_tasks,
    tiled_potrf_tasks,
)
from .build import build_tile_h
from .descriptor import TileHDesc
from .factor_program import instantiate, program_for
from .sweep import SweepProgram, compile_sweep

__all__ = ["TileHConfig", "FactorizationInfo", "TileHMatrix", "iterative_refinement",
           "EXEC_MODES", "PRIORITY_MODES", "FACTOR_METHODS", "default_nb"]

#: Executors of a build/factorisation (``TileHConfig.exec_mode``).
EXEC_MODES = ("eager", "threaded", "process")
#: Task-priority rules (``TileHConfig.priority_mode``).
PRIORITY_MODES = ("static", "bottom-level")
#: Factorisations of :meth:`TileHMatrix.factorize` (``method=``).
FACTOR_METHODS = ("lu", "cholesky")


def default_nb(n: int) -> int:
    """The tile size NB used for ``n`` unknowns when none is given."""
    return max(64, n // 16)


def iterative_refinement(
    solve,
    matvec,
    b: np.ndarray,
    *,
    max_iter: int = 10,
    rtol: float = 1e-12,
) -> tuple[np.ndarray, list[float]]:
    """Classical iterative refinement with an approximate factorisation.

    An eps-accurate H-LU makes an excellent stationary preconditioner: each
    sweep ``x += solve(b - A x)`` multiplies the error by roughly eps, so a
    couple of iterations push a 1e-4 factorisation to near machine
    precision.  ``matvec`` must apply the *exact* operator (e.g. the
    streamed :class:`~repro.geometry.assembly.DenseOperator`).

    Returns ``(x, residual_history)`` where the history holds the relative
    residual after each sweep (including the initial solve).
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    b = np.asarray(b)
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return np.zeros_like(b), [0.0]
    x = solve(b)
    history: list[float] = []
    for _ in range(max_iter):
        r = b - matvec(x)
        rel = float(np.linalg.norm(r)) / norm_b
        history.append(rel)
        if rel <= rtol:
            break
        x = x + solve(r)
    return x, history


@dataclass(frozen=True)
class TileHConfig:
    """Construction parameters of a Tile-H matrix.

    Attributes
    ----------
    nb:
        Tile size NB.  The paper picks NB per (N, precision); see Figs. 6-7
        captions (e.g. NB=250 for d/10K up to NB=4000 for z/200K).
    eps:
        Compression/arithmetic accuracy (1e-4 in the paper).
    leaf_size:
        Dense-leaf size inside each tile's H-structure.
    eta:
        Strong-admissibility parameter.
    method:
        Admissible-block compression ("aca" or "svd").
    accumulate:
        Use accumulator-based rounded arithmetic during factorisation:
        trailing-matrix updates are buffered per tile and rounded once per
        panel step instead of once per update (same eps accuracy class,
        fewer recompressions).  ``False`` reproduces the eager
        one-rounding-per-update arithmetic exactly.
    racecheck:
        Run the factorisation (and the LU solve) under the runtime
        access-mode race detector
        (:class:`~repro.runtime.RaceChecker`): every task's actual memory
        effects are verified against its declared R/W/RW modes, handles
        are screened for aliasing, and a violation raises
        :class:`~repro.runtime.RaceCheckError`.  Off by default (the
        detector is zero-cost when disabled).  The detector brackets each
        *eagerly executed* kernel, so it is eager-only: combining it with
        ``exec_mode="threaded"`` raises (post-hoc
        :func:`~repro.runtime.validate_trace` still covers threaded runs).
    exec_mode:
        "eager" (default) — kernels run sequentially at submission, exactly
        the historical bit-identical path; "threaded" — assembly and
        factorisation are submitted to a deferred engine and executed by a
        :class:`~repro.runtime.ThreadedExecutor` on ``nworkers`` real
        threads under ``scheduler`` (a warm :meth:`TileHMatrix.solve`
        replays the compiled sweep directly in every mode); "process" — the
        same deferred graphs run on ``nworkers`` worker *processes* via a
        :class:`~repro.runtime.ProcessExecutor` with tile payloads in
        shared memory — GIL-free, and as measured slower than one leased
        thread at every ledger size (``docs/parallelism.md``): kept for
        execution across address spaces, not for speed.  The accumulator is
        engaged only on the eager path (its buffer is not thread-safe), so
        threaded/process runs use plain one-rounding-per-update arithmetic —
        which also makes process results bit-identical to
        ``accumulate=False`` eager runs.
    nworkers:
        Worker thread/process count for ``exec_mode="threaded"/"process"``.
    scheduler:
        Scheduling policy driving the threaded and process executors ("ws",
        "lws", "prio" — Section V-C's StarPU policies — or the FIFO "eager").
    priority_mode:
        "static" (default) keeps the CHAMELEON LU heuristic of
        :func:`~repro.core.algorithms.lu_priorities`; "bottom-level"
        recomputes every task priority from the DAG's critical path
        (:func:`~repro.core.algorithms.apply_bottom_level_priorities`).
    nested:
        Expand tile kernels on H-structured tiles into fine-grain subtask
        DAGs over their block trees (nested task parallelism, after
        1906.00874/1911.07531): the schedulers see *through* the tiles, so
        a large tile's panel no longer serialises behind one opaque task.
        Results are bit-identical to the opaque ``accumulate=False`` path
        (the expansion regroups, never reorders, the eager recursion); the
        accumulator is therefore never engaged alongside nesting.  With
        ``exec_mode="process"`` subtask accesses are declared at tile
        granularity (the shared-memory data plane ships whole tiles) and
        the fused build+factorize runs as two stages — assembly first,
        then the nested factorisation graph, which needs assembled block
        trees to expand over.
    nested_min_leaf:
        Granularity cutoff of the expansion: recursion stops (submitting
        one opaque subtask) once the written operand's smaller dimension
        is at most this, bounding the expanded graph's size.
    """

    nb: int = 256
    eps: float = 1e-4
    leaf_size: int = 64
    eta: float = 2.0
    method: str = "aca"
    accumulate: bool = True
    racecheck: bool = False
    exec_mode: str = "eager"
    nworkers: int = 1
    scheduler: str = "lws"
    priority_mode: str = "static"
    nested: bool = False
    nested_min_leaf: int = 128

    def __post_init__(self) -> None:
        if self.nb < 1:
            raise ValueError(f"nb must be positive, got {self.nb}")
        if self.eps < 0:
            raise ValueError(f"eps must be non-negative, got {self.eps}")
        if self.leaf_size < 1:
            raise ValueError(f"leaf_size must be positive, got {self.leaf_size}")
        if self.exec_mode not in EXEC_MODES:
            raise ValueError(f"exec_mode must be one of {EXEC_MODES}, got {self.exec_mode!r}")
        if self.nworkers < 1:
            raise ValueError(f"nworkers must be >= 1, got {self.nworkers}")
        if self.scheduler not in SCHEDULER_NAMES:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; available: {SCHEDULER_NAMES}"
            )
        if self.priority_mode not in PRIORITY_MODES:
            raise ValueError(
                f"priority_mode must be one of {PRIORITY_MODES}, got {self.priority_mode!r}"
            )
        if self.racecheck and self.exec_mode != "eager":
            raise ValueError(
                "racecheck is eager-only: the detector fingerprints payloads "
                "around each eagerly executed kernel; use validate_trace on "
                f"the {self.exec_mode} trace instead"
            )
        if self.nested_min_leaf < 1:
            raise ValueError(
                f"nested_min_leaf must be >= 1, got {self.nested_min_leaf}"
            )


def _nested_policy(cfg: TileHConfig) -> NestedPolicy | None:
    """The engine-side nested policy for ``cfg`` (``None`` when disabled)."""
    if not cfg.nested:
        return None
    return NestedPolicy(
        min_leaf=cfg.nested_min_leaf, coarse=cfg.exec_mode == "process"
    )


@dataclass
class FactorizationInfo:
    """Outcome of a factorisation: the task DAG plus convenience queries.

    ``racecheck`` holds the :class:`~repro.runtime.RaceChecker` that
    observed the factorisation when the detector was enabled (``None``
    otherwise); query it for ``violations`` / ``summary()``.

    After a threaded run, ``trace`` holds the real per-worker execution
    timeline (validate it with :func:`~repro.runtime.validate_trace`) and
    ``wall_seconds`` the measured end-to-end wall time of the threaded
    graph execution; both are ``None`` on the eager path.

    After a nested-expansion run (``TileHConfig(nested=True)``),
    ``nested_stats`` holds the engine's expansion accounting and ``nested``
    is its :meth:`~repro.runtime.NestedStats.report` dict — expansion
    counts and the critical-path length before (contracted graph) and
    after expansion under the flop cost model — built on first read (it
    contracts the graph and walks it twice, which no solve needs); both are
    ``None`` otherwise.
    """

    graph: TaskGraph
    nb: int
    nt: int
    racecheck: RaceChecker | None = field(default=None, repr=False)
    trace: ExecutionTrace | None = field(default=None, repr=False)
    wall_seconds: float | None = None
    nested_stats: NestedStats | None = field(default=None, repr=False)

    @cached_property
    def nested(self) -> dict | None:
        if self.nested_stats is None:
            return None
        return self.nested_stats.report(self.graph)

    @property
    def n_tasks(self) -> int:
        return len(self.graph)

    @property
    def n_dependencies(self) -> int:
        return self.graph.n_edges()

    def sequential_seconds(self) -> float:
        """Measured single-core kernel time (sum of task costs)."""
        return self.graph.total_work("seconds")

    def simulate(
        self,
        nworkers: int,
        scheduler: str = "prio",
        *,
        overheads: RuntimeOverheadModel | None = None,
        cost_attr: str = "seconds",
        cost_scale: float = 1.0,
    ) -> SimulationResult:
        """Virtual multicore execution of this factorisation's DAG."""
        return simulate(
            self.graph,
            nworkers,
            scheduler,
            overheads=overheads,
            cost_attr=cost_attr,
            cost_scale=cost_scale,
        )


class TileHMatrix:
    """A kernel matrix in Tile-H format with LU factorisation and solve.

    The cold path — :meth:`build`, :meth:`factorize`, :meth:`build_factorize`
    — runs inside :func:`~repro.dense.blas.sequential_blas`: kernels are
    sequential, parallelism belongs to the executor.  Warm solves leave the
    BLAS thread count alone.
    """

    def __init__(self, desc: TileHDesc, config: TileHConfig) -> None:
        self.desc = desc
        self.config = config
        self._factorized = False
        self._method = "lu"
        self._program: SweepProgram | None = None

    def __getstate__(self) -> dict:
        # The compiled sweep holds views of the factor: never pickled, the
        # copy compiles its own.
        return {**self.__dict__, "_program": None}

    # -- construction ------------------------------------------------------
    @staticmethod
    def _build_desc(
        kernel, points, cfg: TileHConfig, engine: StfEngine | None, clustering=None
    ) -> TileHDesc:
        from ..hmatrix import StrongAdmissibility

        return build_tile_h(
            kernel,
            points,
            cfg.nb,
            eps=cfg.eps,
            leaf_size=cfg.leaf_size,
            admissibility=StrongAdmissibility(eta=cfg.eta),
            method=cfg.method,
            clustering=clustering,
            engine=engine,
        )

    @staticmethod
    def _assembly_context(kernel, points, cfg: TileHConfig):
        """Picklable assembly state shipped once per worker process.

        Returns ``(clustering, context)``: the clustering is reused by the
        parent's :meth:`_build_desc` so both sides agree on tile geometry.
        """
        from ..hmatrix import AssemblyConfig, StrongAdmissibility
        from .clustering import build_tile_h_clustering

        pts = np.ascontiguousarray(points, dtype=np.float64)
        clustering = build_tile_h_clustering(
            pts, cfg.nb, leaf_size=cfg.leaf_size,
            admissibility=StrongAdmissibility(eta=cfg.eta),
        )
        context = {
            "kernel": kernel,
            "points": pts,
            "clustering": clustering,
            "assembly": AssemblyConfig(eps=cfg.eps, method=cfg.method),
        }
        return clustering, context

    @classmethod
    def _submit_build(cls, kernel, points, cfg: TileHConfig):
        """Submit the assembly to a fresh deferred engine: ``(mat, engine,
        context)``; the tiles exist once the engine's graph has run."""
        clustering = context = None
        if cfg.exec_mode == "process":
            clustering, context = cls._assembly_context(kernel, points, cfg)
        engine = StfEngine(mode="deferred")
        desc = cls._build_desc(kernel, points, cfg, engine, clustering)
        return cls(desc, cfg), engine, context

    def _run(self, graph, context=None) -> tuple[float, ExecutionTrace]:
        """Run a deferred ``graph`` on the configured executor; returns the
        wall seconds and the execution trace."""
        cfg = self.config
        if cfg.exec_mode == "process":
            executor = ProcessExecutor(
                cfg.nworkers, scheduler=cfg.scheduler, context=context
            )
        else:
            # H-kernels are interpreter-bound: run them under the executor's lease.
            executor = ThreadedExecutor(
                cfg.nworkers, scheduler=cfg.scheduler, interpreter_bound=True
            )
        wall = executor.run(graph)
        if cfg.exec_mode == "process":
            self.desc.relink_clusters()
        return wall, executor.trace

    @classmethod
    @sequential_blas()
    def build(cls, kernel, points: np.ndarray, config: TileHConfig | None = None) -> "TileHMatrix":
        """Assemble the Tile-H matrix of ``kernel`` over ``points``.

        With ``exec_mode="threaded"`` the ``nt^2`` tiles are assembled as
        parallel ``assemble`` tasks on the configured worker threads (the
        returned matrix is fully assembled either way).  To overlap assembly
        with factorisation, use :meth:`build_factorize` instead.
        """
        cfg = config or TileHConfig()
        if cfg.exec_mode in ("threaded", "process"):
            mat, engine, context = cls._submit_build(kernel, points, cfg)
            mat._run(engine.wait_all(), context)
            return mat
        desc = cls._build_desc(kernel, points, cfg, None)
        return cls(desc, cfg)

    @classmethod
    @sequential_blas()
    def build_factorize(
        cls,
        kernel,
        points: np.ndarray,
        config: TileHConfig | None = None,
        *,
        method: str = "lu",
    ) -> tuple["TileHMatrix", FactorizationInfo]:
        """Fused task-based assembly + factorisation (build/facto overlap).

        With ``exec_mode="threaded"`` both phases are submitted to one
        deferred STF engine: every ``assemble`` task writes its tile's
        handle, and the GETRF/TRSM/GEMM tasks depend only on the tile
        handles they touch, so early panels factorise while late tiles are
        still assembling — one :class:`~repro.runtime.ThreadedExecutor` run
        covers the fused graph.  The returned info's ``graph``/``trace``
        span assembly *and* factorisation; ``wall_seconds`` is the fused
        wall time.

        With ``exec_mode="eager"`` this is exactly ``build()`` followed by
        ``factorize()`` (bit-identical to the two-step path).

        With ``nested=True`` the deferred path runs as *two* stages —
        assembly graph first, then :meth:`factorize` on a fresh executor.
        The nested graph's structure is fixed by the clustering, not by the
        assembled numbers, and is replayed from a recorded
        :class:`~repro.core.factor_program.FactorProgram` when this block
        structure was factorised before; but the *recorder* (the expanders
        walking real block trees) and the binder (rank-dependent flops,
        closures over the nodes) need assembled tiles.  The returned info
        covers the factorisation stage (its ``graph``/``trace`` are the
        expanded factorisation; ``wall_seconds`` sums both stages); the
        build/facto overlap of the fused opaque path is traded for the
        fine-grain parallelism of the expanded graph.
        """
        cfg = config or TileHConfig()
        if cfg.exec_mode not in ("threaded", "process"):
            mat = cls.build(kernel, points, cfg)
            return mat, mat.factorize(method=method)
        if method not in FACTOR_METHODS:
            raise ValueError(f"method must be 'lu' or 'cholesky', got {method!r}")
        mat, engine, context = cls._submit_build(kernel, points, cfg)
        if cfg.nested:
            # Stage A: assembly graph (the recorder needs assembled tiles).
            wall_a, _ = mat._run(engine.wait_all(), context)
            # Stage B: the nested factorisation, on a fresh executor.
            info = mat.factorize(method=method)
            info.wall_seconds = wall_a + info.wall_seconds
            return mat, info
        tasks_fn = tiled_getrf_tasks if method == "lu" else tiled_potrf_tasks
        graph = tasks_fn(mat.desc, engine, accumulate=cfg.accumulate)
        if cfg.priority_mode == "bottom-level":
            apply_bottom_level_priorities(graph, "flops")
        wall, trace = mat._run(graph, context)
        mat._factorized = True
        mat._method = method
        info = FactorizationInfo(
            graph=graph,
            nb=mat.desc.nb,
            nt=mat.desc.nt,
            trace=trace,
            wall_seconds=wall,
        )
        return mat, info

    # -- queries ---------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return (self.desc.n, self.desc.n)

    @property
    def nt(self) -> int:
        return self.desc.nt

    @property
    def factorized(self) -> bool:
        return self._factorized

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` in original ordering (pre-factorisation only)."""
        if self._factorized:
            raise RuntimeError("matrix content was overwritten by factorize()")
        return self.desc.matvec(x)

    def compression_ratio(self) -> float:
        return self.desc.compression_ratio()

    def storage_bytes(self) -> int:
        return self.desc.storage() * np.dtype(self.desc.super.dtype).itemsize

    def to_dense(self) -> np.ndarray:
        """Dense matrix in *original* ordering (small problems / tests)."""
        dense_cluster = self.desc.to_dense()
        perm = self.desc.perm
        inv = np.empty_like(perm)
        inv[perm] = np.arange(len(perm))
        return dense_cluster[np.ix_(inv, inv)]

    # -- factorisation / solve ----------------------------------------------------
    @sequential_blas()
    def factorize(
        self, *, method: str = "lu", engine: StfEngine | None = None
    ) -> FactorizationInfo:
        """Tiled factorisation in place; returns the task DAG for simulation.

        ``method="lu"`` (default) runs the unpivoted tiled H-LU of
        Algorithm 1; ``method="cholesky"`` runs the tiled H-Cholesky for
        symmetric positive definite kernels (e.g. covariance matrices) —
        about half the flops and only the lower tiles touched.

        After this call the descriptor holds the packed factors and
        :meth:`solve` becomes available (``matvec`` stops being meaningful).
        """
        if self._factorized:
            raise RuntimeError("factorize() called twice on the same matrix")
        cfg = self.config
        accumulate = cfg.accumulate
        threaded = cfg.exec_mode in ("threaded", "process")
        if method not in FACTOR_METHODS:
            raise ValueError(f"method must be 'lu' or 'cholesky', got {method!r}")
        if engine is None and threaded and cfg.nested:
            # Every deferred nested graph is a bound FactorProgram — recorded
            # first when this block structure is new to the process.
            program = program_for(self.desc, method, _nested_policy(cfg))
            graph, nested_stats = instantiate(program, self.desc, self.desc.eps)
            deferred = True
        else:
            if engine is None:
                if threaded:
                    engine = StfEngine(mode="deferred")
                elif cfg.racecheck or cfg.nested:
                    engine = StfEngine(
                        mode="eager",
                        racecheck=cfg.racecheck,
                        nested=_nested_policy(cfg),
                    )
            tasks_fn = tiled_getrf_tasks if method == "lu" else tiled_potrf_tasks
            graph = tasks_fn(self.desc, engine, accumulate=accumulate)
            nested_stats = engine.nested_stats if engine is not None else None
            deferred = engine is not None and engine.mode == "deferred"
        if cfg.priority_mode == "bottom-level":
            apply_bottom_level_priorities(graph, "flops")
        trace = None
        wall = None
        if threaded and deferred:
            wall, trace = self._run(graph)
        self._factorized = True
        self._method = method
        return FactorizationInfo(
            graph=graph,
            nb=self.desc.nb,
            nt=self.desc.nt,
            racecheck=engine.racecheck if engine is not None else None,
            trace=trace,
            wall_seconds=wall,
            nested_stats=nested_stats,
        )

    def sweep_program(self) -> SweepProgram:
        """The compiled substitution of this factor (:mod:`repro.core.sweep`).

        Compiled on first use and kept for the matrix's lifetime: a factor is
        immutable after :meth:`factorize`, so every later :meth:`solve` only
        replays it.  It holds views of the tile payloads — it is never saved
        or pickled (a loaded, mapped or replicated factor compiles its own),
        and code that mutates ``desc`` after a solve must wrap the descriptor
        in a new :class:`TileHMatrix`.  Two threads racing to the first solve
        may both compile; the programs are interchangeable.
        """
        if not self._factorized:
            raise RuntimeError("call factorize() before solve()")
        program = self._program
        if program is None:
            program = self._program = compile_sweep(self.desc, self._method)
        return program

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` (vector or panel) in original ordering.

        A warm solve replays the compiled :meth:`sweep_program` directly,
        whatever ``exec_mode`` says: submitting its tile operations as tasks
        costs what the whole eager substitution costs (156 tasks at nt=12:
        4.6-8.8 ms against 2.2-3.0 ms), so the task form never wins a
        standalone solve.  It stays where it is fused into a larger graph
        (:meth:`repro.gp.GPModel.predict`), where the caller asks for it
        (:func:`~repro.core.algorithms.sweep_solve_tasks` and the
        ``tiled_*_solve_tasks`` wrappers), and under ``racecheck``, so the
        detector also covers the solve-phase TRSV/GEMV tasks.  Every form
        interprets the steps of the one program, so all of them are
        bit-identical, and column ``c`` of a panel solution is bit-identical
        to the standalone solve of that column.
        """
        program = self.sweep_program()
        if self.config.racecheck:
            x, _ = sweep_solve_tasks(program, b, racecheck=True)
            return x
        return program.solve(b)

    def gesv(self, b: np.ndarray) -> np.ndarray:
        """Factorise (if needed) and solve — the one-shot driver."""
        if not self._factorized:
            self.factorize()
        return self.solve(b)

    # -- persistence ----------------------------------------------------------
    def save(self, path, *, compress: bool = True):
        """Persist the matrix — assembled or factorised — to one archive file.

        Assembly and factorisation are the expensive steps; a saved matrix
        reloads in milliseconds with :meth:`load`.  For a factorised matrix
        the tile payloads *are* the factor content (factorisation overwrites
        in place), so the archive records the factorisation state (``method``,
        solver config, packed-triangle cache flags) and :meth:`load` restores
        a matrix that is immediately solvable — bit-identically to the
        in-memory one — with no new factorisation.

        ``compress`` no longer selects anything (every archive is the one
        uncompressed, mappable container of :mod:`repro.hmatrix.io`); the
        keyword stays because callers pass it.
        """
        from ..hmatrix.io import save_tile_h

        return save_tile_h(
            self.desc,
            path,
            factorized=self._factorized,
            method=self._method if self._factorized else None,
            config=self.config,
            compress=compress,
        )

    @classmethod
    def load(
        cls, path, config: TileHConfig | None = None, *, mmap: bool = False
    ) -> "TileHMatrix":
        """Reload a matrix saved with :meth:`save`.

        Restores the factorisation state: a matrix saved after
        :meth:`factorize` loads ready to :meth:`solve`.  When ``config`` is
        not given, the saved solver config is restored (v1 archives fall back
        to the descriptor's ``nb``/``eps``).

        ``mmap=True`` maps the archive once, read-only, instead of copying it
        into RAM (zero-copy warm starts, one file descriptor held while the
        matrix lives); either way the loaded factor solves to the same bits.
        Legacy ``.npz`` archives are always read into memory.
        """
        from dataclasses import fields

        from ..hmatrix.io import read_tile_h

        desc, meta = read_tile_h(path, mmap=mmap)
        if config is None:
            allowed = {f.name for f in fields(TileHConfig)}
            kwargs = {k: v for k, v in meta["config"].items() if k in allowed}
            kwargs.setdefault("nb", desc.nb)
            kwargs.setdefault("eps", desc.eps)
            config = TileHConfig(**kwargs)
        solver = cls(desc, config)
        if meta["factorized"]:
            solver._factorized = True
            solver._method = meta["method"]
        return solver

    def solve_refined(
        self, b: np.ndarray, matvec, *, max_iter: int = 10, rtol: float = 1e-12
    ) -> tuple[np.ndarray, list[float]]:
        """Solve with iterative refinement against the exact operator.

        ``matvec`` applies the uncompressed matrix (e.g.
        ``DenseOperator(kernel, points).matvec``); see
        :func:`iterative_refinement`.
        """
        if not self._factorized:
            raise RuntimeError("call factorize() before solve_refined()")
        return iterative_refinement(self.solve, matvec, b, max_iter=max_iter, rtol=rtol)
