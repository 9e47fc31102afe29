"""Tiled algorithms over Tile-H descriptors (the paper's Algorithm 1).

``tiled_getrf_tasks`` reads the right-looking LU loop nest — the same
``lu_steps`` of :mod:`repro.hmatrix.rules` the H-kernels recurse through
inside a tile — over tile positions and submits one task per tile kernel to
an :class:`~repro.runtime.stf.StfEngine` with the same access modes CHAMELEON
declares (GETRF: RW on the diagonal tile; TRSM: R on the factor tile, RW on
the panel tile; GEMM: R, R, RW).  An eager engine runs the H-arithmetic when
the section closes and returns the task DAG with measured per-task costs for
the simulator; a deferred one returns it unrun.

Priorities follow CHAMELEON's LU heuristic: panel operations of earlier
iterations dominate, and GETRF > TRSM > GEMM within an iteration — the
ordering the ``prio``/``lws`` schedulers exploit in Figs. 6-7.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..dense import flops_gemm, flops_getrf, flops_potrf, flops_trsm
from ..hmatrix import UpdateAccumulator
from ..hmatrix.arithmetic import run_kernel
from ..hmatrix.rules import VARIANTS, chol_steps, lu_steps
from ..runtime import AccessMode, StfEngine, TaskGraph
from .descriptor import TileHDesc
from .sweep import SweepProgram, compile_sweep, run_steps
from .nested import _nested_spec, expander

__all__ = [
    "lu_priorities",
    "apply_bottom_level_priorities",
    "tile_steps",
    "tiled_getrf_tasks",
    "tiled_potrf_tasks",
    "tiled_solve",
    "tiled_solve_tasks",
    "tiled_chol_solve",
    "tiled_chol_solve_tasks",
    "sweep_solve_tasks",
]

R, RW = AccessMode.R, AccessMode.RW


def apply_bottom_level_priorities(graph: TaskGraph, cost_attr: str = "flops") -> dict:
    """Overwrite every task's priority with its critical-path rank.

    The priority becomes the dense rank of the task's *bottom level*
    (:meth:`~repro.runtime.dag.TaskGraph.bottom_levels` — longest path to a
    sink by ``cost_attr``), so priority-aware schedulers (``prio``, ``lws``)
    run the critical path first.  ``cost_attr="flops"`` (default) is the
    right choice for deferred graphs, whose measured ``seconds`` do not
    exist before execution; the modelled flops are available at submission
    time for every factorisation kernel.  Returns the bottom-level map.

    This is the dynamic alternative to the static CHAMELEON heuristic of
    :func:`lu_priorities`, applied to simulated graphs by the nested
    ablation (``benchmarks/bench_abl_nested.py``).
    """
    levels = graph.bottom_levels(cost_attr)
    rank = {v: r for r, v in enumerate(sorted(set(levels.values())))}
    for t in graph.tasks:
        t.priority = rank[levels[t.id]]
    return levels


def lu_priorities(nt: int, k: int, kind: str, i: int = 0, j: int = 0) -> int:
    """CHAMELEON-style LU priority: earlier panels first, GETRF highest.

    The absolute values are irrelevant; only the ordering matters to the
    priority-aware schedulers.
    """
    base = (nt - k) * 10
    if kind == "getrf":
        # +15 lifts getrf(k) above every iteration-(k-1) GEMM (+0/+1 on a
        # base 10 units higher), keeping the critical path ahead of trailing
        # updates.
        return base + 15
    if kind == "trsm":
        return base + 12
    if kind == "gemm":
        # Updates feeding the next panel (i == k+1 or j == k+1) are urgent.
        return base + (1 if (i == k + 1 or j == k + 1) else 0)
    raise ValueError(f"unknown kernel kind {kind!r}")


def tile_steps(steps, nt: int, rows: list, is_c: bool):
    """Algorithm 1 at the tile level: for each of ``steps`` (``lu_steps(nt)`` /
    ``chol_steps(nt)``, read over tile positions) yield ``(variant, kind,
    positions, label, priority, flops)`` — the task kind, the operands' tile
    positions in kernel-argument order, CHAMELEON's names (the variant row's
    label prefix) and priorities, and the dense kernel's flops for tile
    heights ``rows`` (a TRSM's right-hand sides on the row's side).  Shared by
    the Tile-H algorithms below and the dense baselines, so format
    comparisons see one graph.
    """
    for variant, operands in steps:
        pos = [(i, j) for _, i, j in operands]
        row = VARIANTS[variant]
        kind = row.kind
        if kind == "gemm":
            (i, j), (_, k) = pos[0], pos[1]
            label = f"{row.label}({i},{j},{k})"
            priority = lu_priorities(nt, k, "gemm", i, j)
            # A SYRK keeps the full product's dense model: no simulated table moves.
            flops = flops_gemm(rows[i], rows[j], rows[k], is_complex=is_c)
        elif kind == "trsm":
            (k, _), (i, j) = pos
            label = f"{row.label}({i},{j})"
            priority = lu_priorities(nt, k, "trsm")
            flops = flops_trsm(rows[k], rows[j if row.side == "left" else i], is_complex=is_c)
        else:  # getrf / potrf (which plays GETRF's role in the priorities)
            k = pos[0][0]
            label = f"{row.label}({k})"
            priority = lu_priorities(nt, k, "getrf")
            flops = (flops_getrf if kind == "getrf" else flops_potrf)(rows[k], is_complex=is_c)
        yield variant, kind, pos, label, priority, flops


def declared(variant: str, handles: list) -> list:
    """The access list of tile kernel ``variant`` on ``handles`` (given in
    kernel-argument order), in CHAMELEON's declaration order: the tiles read,
    then the tile the variant's row marks written."""
    w = VARIANTS[variant].written
    return [(h, R) for n, h in enumerate(handles) if n != w] + [(handles[w], RW)]


def _tile_paths(variant: str, arity: int) -> tuple:
    """Where each operand sits in :func:`declared`'s list: the process op's
    paths (empty: the whole tile)."""
    w = VARIANTS[variant].written
    return tuple((arity - 1 if n == w else n - (n > w), ()) for n in range(arity))


def _tiled_factorize(desc, steps, lower, engine, eps, accumulate) -> TaskGraph:
    """Submit ``steps(nt)`` over the tiles of ``desc`` (the lower ones only for
    Cholesky): per step one task whose closure, process spec, expander and
    access list all derive from ``(variant, handles)``."""
    eng = engine or StfEngine(mode="eager")
    eps_ = desc.eps if eps is None else eps
    nt = desc.nt
    grid = desc.super
    is_c = np.issubdtype(grid.dtype, np.complexfloating)
    acc = UpdateAccumulator(eps_) if accumulate else None
    tiles = {
        (i, j): grid.get_blktile(i, j)
        for i in range(nt)
        for j in range(i + 1 if lower else nt)
    }
    handles = {(i, j): eng.handle(tile, f"A[{i},{j}]") for (i, j), tile in tiles.items()}
    rows = [grid.tile_rows(k) for k in range(nt)]
    for variant, kind, pos, label, priority, flops in tile_steps(steps(nt), nt, rows, is_c):
        hs = [handles[p] for p in pos]
        eng.insert_task(
            kind,
            partial(run_kernel, variant, tuple(tiles[p].mat for p in pos), eps_, True, acc=acc),
            declared(variant, hs),
            priority=priority,
            flops=flops,
            label=label,
            spec=_nested_spec(variant, _tile_paths(variant, len(pos)), eps_, True),
            expander=expander(variant, hs, eps_, label, acc),
        )
    return eng.wait_all()


def tiled_getrf_tasks(
    desc: TileHDesc,
    engine: StfEngine | None = None,
    *,
    eps: float | None = None,
    accumulate: bool = True,
) -> TaskGraph:
    """Factorise ``desc`` in place via the tiled right-looking LU.

    Returns the task graph; with the default eager engine the tiles are
    factorised when this returns (L and U packed tile-wise: strictly
    lower tiles hold L, the diagonal packs both, upper tiles hold U).

    With ``accumulate=True`` (default) the ``nt - k`` trailing-matrix GEMM
    updates each tile receives are buffered on its Rk leaves by an
    :class:`~repro.hmatrix.UpdateAccumulator` and rounded once, at the panel
    step that next reads the tile (its GETRF or TRSM).  The flush happens
    inside a task that already declares RW on that tile and that depends on
    every deferred writer, so the declared R/W/RW access modes still cover
    all actual accesses, the inferred DAG stays sound, and every executor
    rounds the same terms in the same order: eager, threaded and nested runs
    agree bit for bit.  A process executor runs each task's spec, which
    carries no accumulator: its runs are undeferred.

    ``engine=StfEngine(racecheck=True)`` verifies every task's actual memory
    effects against its declared access modes via
    :class:`~repro.runtime.RaceChecker`.

    On an engine with a nested policy every tile kernel is submitted with
    its :mod:`~repro.core.nested` expander, so kernels on H-structured
    tiles above the granularity cutoff become sub-block subtask DAGs.
    """
    return _tiled_factorize(desc, lu_steps, False, engine, eps, accumulate)


def tiled_potrf_tasks(
    desc: TileHDesc,
    engine: StfEngine | None = None,
    *,
    eps: float | None = None,
    accumulate: bool = True,
) -> TaskGraph:
    """Tiled right-looking Cholesky of an SPD Tile-H matrix, in place.

    Only the lower triangle is referenced or written.  Task kinds: POTRF
    (diagonal), TRSM (panel, ``X L^T = B``), SYRK (``C -= A A^T`` on a
    diagonal tile, its lower triangle only; task kind ``gemm``) and GEMM
    (``C -= A B^T`` on a strictly lower tile).  The strictly upper tiles are
    not touched here — recording a factor program runs this on a matrix that
    must stay intact — :meth:`TileHMatrix.factorize
    <repro.core.TileHMatrix.factorize>` makes them come back rank-0, which is
    what ``L`` holds there.  Priorities reuse the LU heuristic (POTRF plays
    GETRF's role).  ``accumulate`` defers the trailing-update roundings and
    a checking engine race-checks the run, exactly as in
    :func:`tiled_getrf_tasks`.
    """
    return _tiled_factorize(desc, chol_steps, True, engine, eps, accumulate)


def sweep_solve_tasks(
    program: SweepProgram,
    b: np.ndarray,
    engine: StfEngine | None = None,
    *,
    executor=None,
) -> tuple[np.ndarray, TaskGraph]:
    """Solve through the runtime: ``program`` submitted as one task per
    tile-op over a fresh work array, run, gathered.  Returns ``(x, graph)``
    with ``x`` in original ordering.

    Each task runs its tile-op's steps through :func:`~repro.core.sweep.run_steps`,
    in the submission order of the eager sweep, and successive updates of one
    segment are RW on the same handle, so STF serialises them in that order:
    eager and threaded executions are bit-identical to
    :meth:`SweepProgram.solve`.  The tasks carry no process spec: a solve
    never runs on a process executor (``TileHMatrix.solve`` replays the
    compiled sweep in every ``exec_mode``).

    With a *deferred* ``engine`` the submitted kernels have not run when the
    section closes, so an ``executor`` (typically a
    :class:`~repro.runtime.ThreadedExecutor`) is required and is run on the
    graph before the solution is gathered.  ``engine=StfEngine(racecheck=True)``
    race-checks the solve tasks, as it does a factorisation's.
    """
    work, squeeze = program.scatter(b)
    eng = engine or StfEngine(mode="eager")
    nt = len(program.bounds)
    rows = [r1 - r0 for r0, r1 in program.bounds]
    segs = [eng.handle(program.segment(work, k), f"x[{k}]") for k in range(nt)]
    is_c = program.dtype.kind == "c"
    nrhs = 1 if work.ndim == 1 else work.shape[0]
    for op in program.ops:
        phase, k, j = op.phase, op.k, op.j
        tile = eng.handle(op.tile, "A[{},{}]".format(*op.pos))
        # The panel step the op waits on, counted from its sweep's start.
        step = k if j is None else j
        if phase == "bwd":
            step = nt - 1 - step
        if j is None:
            kind, name = "trsm", f"trsv({k})"
            accesses = [(tile, R), (segs[k], RW)]
            priority = lu_priorities(nt, step, "trsm")
            flops = flops_trsm(rows[k], nrhs, is_complex=is_c)
        else:
            kind, name = "gemm", f"gemv{'_t' if op.args[0] else ''}({k},{j})"
            accesses = [(tile, R), (segs[j], R), (segs[k], RW)]
            priority = lu_priorities(nt, step, "gemm", k, j)
            flops = flops_gemm(rows[k], nrhs, rows[j], is_complex=is_c)
        eng.insert_task(
            kind,
            (lambda steps=op.steps: run_steps(steps, work)),
            accesses,
            priority=priority,
            flops=flops,
            label=f"{phase}_{name}",
        )
    graph = eng.wait_all()
    if eng.mode == "deferred":
        if executor is None:
            raise ValueError(
                "a deferred engine leaves the solve kernels unexecuted; "
                "pass executor= (e.g. a ThreadedExecutor) to run them"
            )
        executor.run(graph)
    return program.gather(work, squeeze), graph


def tiled_solve(desc: TileHDesc, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` after :func:`tiled_getrf_tasks` (vector or panel).

    ``b`` and the returned ``x`` use the *original* unknown numbering; the
    clustering permutation is applied internally.  The substitution's cost is
    a lower-order term, so it is executed directly rather than through the
    runtime.  Compiles the sweep per call (a descriptor has nowhere to keep
    it); :meth:`TileHMatrix.solve <repro.core.TileHMatrix.solve>` compiles
    once per factor.

    Column ``c`` of a panel solution is bit-identical to
    ``tiled_solve(desc, b[:, c])`` (see :mod:`repro.core.sweep`).
    """
    return compile_sweep(desc, "lu").solve(b)


def tiled_chol_solve(desc: TileHDesc, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` after :func:`tiled_potrf_tasks` (``A = L L^T``);
    the Cholesky twin of :func:`tiled_solve`."""
    return compile_sweep(desc, "cholesky").solve(b)


def tiled_solve_tasks(
    desc: TileHDesc,
    b: np.ndarray,
    engine: StfEngine | None = None,
    *,
    executor=None,
) -> tuple[np.ndarray, TaskGraph]:
    """Task-parallel forward/backward substitution after the tiled LU.

    One GEMV-style update task per off-diagonal tile and one TRSV task per
    diagonal tile, with R/RW access modes on the tiles and on the per-tile
    RHS segments — the solve phase as the paper's library would run it
    through the runtime; the graph's simulated makespan quantifies the
    (limited) pipeline parallelism of triangular solves.  See
    :func:`sweep_solve_tasks` for the arguments and the return value.
    """
    return sweep_solve_tasks(compile_sweep(desc, "lu"), b, engine, executor=executor)


def tiled_chol_solve_tasks(
    desc: TileHDesc,
    b: np.ndarray,
    engine: StfEngine | None = None,
    *,
    executor=None,
) -> tuple[np.ndarray, TaskGraph]:
    """Task-parallel substitution after the tiled Cholesky (the backward
    sweep reads tile ``(j, k)`` transposed); the twin of :func:`tiled_solve_tasks`."""
    return sweep_solve_tasks(compile_sweep(desc, "cholesky"), b, engine, executor=executor)
