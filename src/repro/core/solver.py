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

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from ..dense import sequential_blas
from ..hmatrix import UpdateAccumulator, check_compression
from ..obs.instrument import current as _current_probe
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
from .algorithms import sweep_solve_tasks
from .build import build_tile_h, drop_upper_tiles
from .descriptor import TileHDesc
from .factor_program import (
    _bind, _lookup, _nested_stats, announce, instantiate,
)
from .sweep import SweepProgram, compile_sweep

__all__ = ["TileHConfig", "FactorizationInfo", "TileHMatrix", "iterative_refinement",
           "EXEC_MODES", "FACTOR_METHODS", "default_nb"]

#: Executors of a factorisation (``TileHConfig.exec_mode``).
EXEC_MODES = ("eager", "threaded", "process")
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
        Admissible-block compression, one of
        :data:`~repro.hmatrix.aca.COMPRESSION_METHODS`: "aca" (default,
        partially pivoted ACA, matrix-free above leaf size), "svd", "rsvd"
        or "aca_full" (the last three evaluate each admissible block).
    accumulate:
        Use accumulator-based rounded arithmetic during factorisation:
        trailing-matrix updates are buffered on each Rk leaf and rounded once
        per panel step instead of once per update.  As measured it halves a
        Cholesky factorise, is level or slower on LU, and its forward error
        is somewhat worse (same eps class; ``EXPERIMENTS.md``).  ``False``
        reproduces the eager one-rounding-per-update arithmetic exactly.
    racecheck:
        Run the factorisation (and the solve) under the runtime access-mode
        race detector (:class:`~repro.runtime.RaceChecker`): every task's
        actual memory effects are verified against its declared R/W/RW
        modes, handles are screened for aliasing, and a violation raises
        :class:`~repro.runtime.RaceCheckError`.  Off by default (zero-cost
        when disabled).  It brackets each task of the one-worker eager run
        (``RaceChecker.watch``; the measured task seconds then include the
        fingerprints), so it is eager-only: another ``exec_mode`` raises
        (:func:`~repro.runtime.validate_trace` covers every run's trace).
    exec_mode:
        The executor of the factorisation (assembly is one serial loop and a
        warm :meth:`TileHMatrix.solve` replays the compiled sweep, in every
        mode), which runs the graph recorded once per block structure
        (:mod:`~repro.core.factor_program`): "eager" (default) on one leased
        :class:`~repro.runtime.ThreadedExecutor` worker; "threaded" on
        ``nworkers`` of them; "process" on ``nworkers`` worker *processes*
        of a :class:`~repro.runtime.ProcessExecutor`, tile payloads in
        shared memory — GIL-free, and as measured slower than one leased
        thread at every ledger size (``docs/parallelism.md``): kept for
        execution across address spaces, not for speed.  Eager and threaded
        runs factor to the same bits; a process run does not defer updates (a
        worker's task spec carries no accumulator), so its results are
        bit-identical to ``accumulate=False`` eager runs.
    nworkers:
        Worker thread/process count for ``exec_mode="threaded"/"process"``.
    scheduler:
        Scheduling policy driving the executor ("ws", "lws", "prio" —
        Section V-C's StarPU policies — or the FIFO "eager").
    nested:
        Expand tile kernels on H-structured tiles into fine-grain subtask
        DAGs over their block trees (nested task parallelism, after
        1906.00874/1911.07531): the schedulers see *through* the tiles, so
        a large tile's panel no longer serialises behind one opaque task.
        Results are bit-identical to the opaque path (the expansion
        regroups, never reorders, the eager recursion, flushes included).
        With ``exec_mode="process"`` subtask accesses are declared at tile
        granularity (the shared-memory data plane ships whole tiles).
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
    nested: bool = False
    nested_min_leaf: int = 128

    def __post_init__(self) -> None:
        if self.nb < 1:
            raise ValueError(f"nb must be positive, got {self.nb}")
        if not (self.eps >= 0 and math.isfinite(self.eps)):
            raise ValueError(f"eps must be non-negative, got {self.eps}")
        if self.leaf_size < 1:
            raise ValueError(f"leaf_size must be positive, got {self.leaf_size}")
        check_compression(self.method)
        if self.exec_mode not in EXEC_MODES:
            raise ValueError(f"exec_mode must be one of {EXEC_MODES}, got {self.exec_mode!r}")
        if self.nworkers < 1:
            raise ValueError(f"nworkers must be >= 1, got {self.nworkers}")
        if self.scheduler not in SCHEDULER_NAMES:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; available: {SCHEDULER_NAMES}"
            )
        if self.racecheck and self.exec_mode != "eager":
            raise ValueError(
                "racecheck is eager-only: the detector fingerprints payloads "
                "around each task of a one-worker run; use validate_trace on "
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


def _measured_graph(program, desc: TileHDesc, trace: ExecutionTrace) -> TaskGraph:
    """The graph a program run executed: bound now, with each task's measured
    seconds taken from its trace event."""
    graph = instantiate(program, desc)[0]
    for task, seconds in zip(graph.tasks, trace.task_seconds(len(graph))):
        task.seconds = seconds
    return graph


class FactorizationInfo:
    """Outcome of a factorisation: the task DAG plus convenience queries.

    ``trace`` is the run's per-worker execution timeline (one worker when
    eager; check it with :func:`~repro.runtime.validate_trace`) and
    ``wall_seconds`` its wall time.  ``graph`` is its
    :class:`~repro.runtime.TaskGraph`, bound the same way whatever the
    executor: a run executes its factor program
    (:mod:`repro.core.factor_program`) without it, and it is bound on first
    read, after the run — :func:`~repro.core.factor_program.instantiate` on
    the factor, so a subtask's flops count the factor's ranks — with each
    task's measured seconds (its trace event) written in.  The dense
    baseline's info has the graph of its eager engine section, timed by that
    section's one-worker run, and no trace; the HMAT baseline returns its one
    tile's info unchanged (``nt = 1``).

    ``racecheck`` holds the :class:`~repro.runtime.RaceChecker` that
    observed the factorisation when the detector was enabled (``None``
    otherwise); query it for ``violations`` / ``summary()``.

    After a nested-expansion run (``TileHConfig(nested=True)``),
    ``nested_stats`` holds the engine's expansion accounting and ``nested``
    is its :meth:`~repro.runtime.NestedStats.report` dict — expansion
    counts and the critical-path length before (contracted graph) and
    after expansion under the flop cost model — built on first read (it
    contracts the graph and walks it twice, which no solve needs); both are
    ``None`` otherwise.
    """

    _make_graph = None  # builds ``graph`` on first read when none was given

    def __init__(
        self,
        graph: TaskGraph | None,
        nb: int,
        nt: int,
        racecheck: RaceChecker | None = None,
        trace: ExecutionTrace | None = None,
        wall_seconds: float | None = None,
        nested_stats: NestedStats | None = None,
    ) -> None:
        if graph is not None:
            self.graph = graph  # the cached property's slot
        self.nb, self.nt = nb, nt
        self.racecheck = racecheck
        self.trace = trace
        self.wall_seconds = wall_seconds
        self.nested_stats = nested_stats

    @cached_property
    def graph(self) -> TaskGraph:
        return self._make_graph()

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

    _failure: str | None = None  # what a failed factorize() raised

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
    def _build_desc(kernel, points, cfg: TileHConfig, lower: bool = False) -> TileHDesc:
        from ..hmatrix import StrongAdmissibility

        return build_tile_h(
            kernel,
            points,
            cfg.nb,
            eps=cfg.eps,
            leaf_size=cfg.leaf_size,
            admissibility=StrongAdmissibility(eta=cfg.eta),
            method=cfg.method,
            lower=lower,
        )

    def _run(self, graph) -> tuple[float, ExecutionTrace]:
        """Run ``graph`` (a bound program or a graph) on the configured
        executor; returns the wall seconds and the execution trace."""
        cfg = self.config
        if cfg.exec_mode == "process":
            executor = ProcessExecutor(cfg.nworkers, scheduler=cfg.scheduler)
        else:  # H-kernels are interpreter-bound: run them under the executor's lease
            executor = ThreadedExecutor(1 if cfg.exec_mode == "eager" else cfg.nworkers,
                                        scheduler=cfg.scheduler, interpreter_bound=True)
        wall = executor.run(graph)
        if cfg.exec_mode == "process":
            self.desc.relink_clusters()
        return wall, executor.trace

    @classmethod
    @sequential_blas()
    def build(cls, kernel, points: np.ndarray, config: TileHConfig | None = None) -> "TileHMatrix":
        """Assemble the Tile-H matrix of ``kernel`` over ``points``.

        The ``nt^2`` tiles are assembled by one serial loop in every
        ``exec_mode``, which selects the factorisation's executor only.
        All of them, whatever the later factorisation: :meth:`matvec` is
        valid until it runs.
        """
        cfg = config or TileHConfig()
        return cls(cls._build_desc(kernel, points, cfg), cfg)

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
        """:meth:`build` followed by :meth:`factorize` (``method=``).

        A Cholesky assembles only the ``nt(nt+1)/2`` tiles on and below the
        diagonal, all it reads (``build_tile_h(lower=True)``): the matrix is
        never a matvec operand, and the factor is the one :meth:`build` +
        :meth:`factorize` gives, bit for bit.  The returned info's ``graph``,
        ``trace`` and ``wall_seconds`` cover the factorisation only: assembly
        is the serial loop in every mode.
        """
        cfg = config or TileHConfig()
        mat = cls(cls._build_desc(kernel, points, cfg, lower=method == "cholesky"), cfg)
        return mat, mat.factorize(method=method)

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
        self._check_intact()
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
    def factorize(self, *, method: str = "lu") -> FactorizationInfo:
        """Tiled factorisation in place; returns the task DAG for simulation.

        ``method="lu"`` (default) runs the unpivoted tiled H-LU of
        Algorithm 1; ``method="cholesky"`` runs the tiled H-Cholesky for
        symmetric positive definite kernels (e.g. covariance matrices) —
        about half the flops and only the lower tiles touched.  Its strictly
        upper tiles come back the rank-0 tile, which is what ``L`` holds
        there, under every executor.

        After this call the descriptor holds the packed factors and
        :meth:`solve` becomes available (``matvec`` stops being meaningful).
        A factorisation that raises leaves some tiles overwritten: the matrix
        keeps the failure, and ``matvec``, ``factorize``, ``solve`` and
        ``save`` raise :class:`RuntimeError` naming it from then on.
        """
        self._check_intact()
        if self._factorized:
            raise RuntimeError("factorize() called twice on the same matrix")
        if method not in FACTOR_METHODS:
            raise ValueError(f"method must be 'lu' or 'cholesky', got {method!r}")
        try:
            info = self._factorize(method)
        except BaseException as exc:
            self._failure = f"{type(exc).__name__}: {exc}"
            raise
        self._factorized = True
        self._method = method
        return info

    def _factorize(self, method: str) -> FactorizationInfo:
        cfg, desc = self.config, self.desc
        if method == "cholesky":
            freed, probe = drop_upper_tiles(desc), _current_probe()
            if freed and probe is not None:
                probe.h_bytes_delta(-freed)
        # Every factorisation, opaque or nested, runs a bound FactorProgram —
        # recorded first when this structure is new here.
        program, nodes = _lookup(desc, method, _nested_policy(cfg))
        announce(program, nodes)
        checker = None
        if cfg.exec_mode == "process":
            # Workers run each task's TaskSpec, which carries no accumulator:
            # process runs are undeferred.
            run = instantiate(program, desc)[0]
        else:
            acc = UpdateAccumulator(desc.eps) if cfg.accumulate else None
            run = _bind(program, nodes, desc.eps, acc)
            if cfg.racecheck:
                checker = RaceChecker()
                checker.watch(run, instantiate(program, desc)[0].tasks)
        wall, trace = self._run(run)
        info = FactorizationInfo(None, desc.nb, desc.nt, racecheck=checker, trace=trace,
                                 wall_seconds=wall, nested_stats=_nested_stats(program))
        info._make_graph = partial(_measured_graph, program, desc, trace)
        return info

    def _check_intact(self) -> None:
        if self._failure is not None:
            raise RuntimeError(
                f"a failed factorize() ({self._failure}) left this matrix "
                "partly overwritten; build or load it again"
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
        self._check_intact()
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
        standalone solve.  It stays where the caller asks for it
        (:func:`~repro.core.algorithms.sweep_solve_tasks` and the
        ``tiled_*_solve_tasks`` wrappers), and under ``racecheck``, so the
        detector also covers the solve-phase TRSV/GEMV tasks.  Every form
        interprets the steps of the one program, so all of them are
        bit-identical, and column ``c`` of a panel solution is bit-identical
        to the standalone solve of that column.
        """
        program = self.sweep_program()
        if self.config.racecheck:
            x, _ = sweep_solve_tasks(program, b, StfEngine(racecheck=True))
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

        self._check_intact()
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
        not given, the saved solver config is restored (the descriptor's
        ``nb``/``eps`` when none was saved).  A given ``config`` may choose
        the executor fields freely, but its ``nb`` and ``eps`` describe the
        archive's tiles: a value other than the archive's is a
        :class:`ValueError`.

        ``mmap=True`` maps the archive once, read-only, instead of copying it
        into RAM (zero-copy warm starts, one file descriptor held while the
        matrix lives); either way the loaded factor solves to the same bits.
        Only format v4 is read: an archive written before it (a v1/v2 ``.npz``
        or a v3 container) is a :class:`ValueError` naming the file and its
        version, and must be rebuilt (``build_factorize``, then ``save``).  A
        Cholesky factor loads with its strictly upper tiles rank-0, even from
        archives that hold data there.
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
        else:
            for name in ("nb", "eps"):
                if getattr(config, name) != getattr(desc, name):
                    raise ValueError(
                        f"config.{name}={getattr(config, name)!r} contradicts "
                        f"the archive's {name}={getattr(desc, name)!r}"
                    )
        solver = cls(desc, config)
        if meta["factorized"]:
            solver._factorized = True
            solver._method = meta["method"]
            if solver._method == "cholesky":
                drop_upper_tiles(desc)  # a load never charged the probe's h.bytes
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
