"""Scheduler-backed *process*-pool execution of a deferred task graph.

The threaded executor only overlaps tasks while kernels hold BLAS (the GIL
serialises everything else), so small-tile Tile-H factorizations see no real
wall-clock scaling on CPython.  This executor runs the same task graphs on
worker **processes**: tile payloads are placed in shared-memory segments by a
:class:`~repro.runtime.shmem.SharedTileArena`, workers rebuild zero-copy numpy
views and call LAPACK on shared pages, and only skeleton pickles (object
shells holding :class:`~repro.runtime.shmem.ArenaRef` pointers) cross pipes.

Every task must carry a :class:`TaskSpec` — a declarative, picklable
description (``"module:callable"`` plus scalar args) — because closures built
by a deferred :class:`~repro.runtime.stf.StfEngine` capture live objects in
the parent; a worker runs the spec of each task it is sent.  A Tile-H
factorisation's process run gets its graph, specs included, from
:func:`repro.core.factor_program.instantiate`.  The worker-side convention is ``fn(payloads, *args, **kwargs)`` where
``payloads`` holds the task's access-list payloads in declared order.

Scheduling is the simulator's own code (:mod:`~repro.runtime.ready`): the
parent drives the shared scheduler object through one ready front, a pipe
``dispatch``/``wait`` pair under :func:`~repro.runtime.ready.drive`.  With one
worker the pull order is bit-for-bit the virtual-time simulator's; with any
worker count, results are bit-identical to eager ``accumulate=False``
execution because successive updates of one tile are serialized by the STF
writer-after-writer dependencies.  A task spec carries no
:class:`~repro.hmatrix.UpdateAccumulator` (its buffers live on the parent's
leaves, beyond the pipes), so a process run stays undeferred whatever
``accumulate`` says.
"""

from __future__ import annotations

import importlib
import itertools
import os
import pickle
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection, get_context

import numpy as np

from ..dense import sequential_blas
from .ready import GraphExecutor, ReadyFront, drive
from .shmem import SEGMENT_PREFIX, SharedTileArena, orphaned_segments, unlink_segment

__all__ = ["ProcessExecutor", "TaskSpec"]

_run_counter = itertools.count()


@dataclass(frozen=True)
class TaskSpec:
    """Declarative kernel description a worker process can execute.

    ``op`` names a module-level callable as ``"package.module:callable"``;
    ``args``/``kwargs`` must be picklable scalars/metadata (never payloads —
    those travel through shared memory via the task's access list).
    """

    op: str
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)


def _resolve_op(op: str):
    mod, _, attr = op.partition(":")
    if not mod or not attr:
        raise ValueError(f"op must be 'module.path:callable', got {op!r}")
    return getattr(importlib.import_module(mod), attr)


def _check_spawnable() -> None:
    """Fail fast, in the parent, when spawn cannot re-import ``__main__``.

    The spawn start method re-runs the parent's ``__main__`` in every child.
    A parent whose ``__main__`` came down a pipe — a heredoc, ``python -``,
    a deleted script — has no importable path, so each child would die at
    startup with an opaque ``FileNotFoundError`` deep inside
    ``multiprocessing.spawn`` and the run would only report "worker died".
    Catching it here turns that into one clear, actionable error before any
    process is spawned.
    """
    main = sys.modules.get("__main__")
    if main is None:
        return
    if getattr(main, "__spec__", None) is not None:
        return  # `python -m pkg`: children re-import by module name
    path = getattr(main, "__file__", None)
    if path is None:
        return  # interactive/embedded: spawn skips the main re-import
    if not os.path.exists(path):
        raise RuntimeError(
            "cannot start worker processes: the spawn start method re-imports "
            f"__main__ in each child, but __main__ came from {path!r}, which "
            "is not a file on disk. Scripts fed via stdin (heredocs, "
            "'python -') cannot use ProcessExecutor — run the script from a "
            "real file, or use exec_mode='threaded'."
        )


# -- tiny ops used by the executor's own tests (must be importable in spawn
# children, hence module level) ------------------------------------------------
def _noop_for_tests(payloads):
    return None


def _incr_for_tests(payloads, delta=1.0):
    payloads[0][...] += delta


def _crash_for_tests(payloads):  # pragma: no cover - runs in a worker
    os._exit(3)


def _raise_for_tests(payloads, message="boom", kind=ValueError):  # pragma: no cover - in worker
    raise kind(message)


def _explode_for_tests():  # pragma: no cover - runs in a worker
    raise RuntimeError("exploding context (test helper)")


class _ExplodingContext:
    """Test helper: pickles fine in the parent, raises when a worker unpickles
    it — as a handle payload, outside any task: the minimal reproducible
    'worker dies while not running a task' failure."""

    def __reduce__(self):
        return (_explode_for_tests, ())


def _worker_main(widx: int, task_conn, res_conn, arena_tag: str) -> None:
    """Fatal-error shim around :func:`_worker_loop`.

    Any exception that escapes the loop — including failures outside a task
    like a payload that will not unpickle or an arena that will not attach —
    is reported to the parent as a ``("fatal", widx, traceback)`` message
    before the worker dies, so "worker died" errors carry the child's actual
    traceback instead of just an exit code.
    """
    try:
        # One BLAS stream per worker process, held for the worker's life:
        # oversubscription kills scaling.
        with sequential_blas():
            _worker_loop(widx, task_conn, res_conn, arena_tag)
    except BaseException:
        try:
            res_conn.send(("fatal", widx, traceback.format_exc()))
        except (OSError, BrokenPipeError, pickle.PicklingError):
            pass
        raise


def _worker_loop(widx: int, task_conn, res_conn, arena_tag: str) -> None:
    """Worker loop: receive task messages, run ops on shared views, reply.

    The worker's own arena is ``untrack=True``: the parent owns unlinking of
    every segment (workers announce names of segments they create).
    """
    arena = SharedTileArena(arena_tag, untrack=True)
    local: dict[int, object] = {}
    ops: dict[str, object] = {}
    try:
        while True:
            try:
                msg = task_conn.recv()
            except (EOFError, OSError):
                break
            if msg[0] == "stop":
                try:
                    res_conn.send(("bye", widx))
                except (OSError, BrokenPipeError):
                    pass
                break
            # One pipe read carries a batch of task entries; each entry runs
            # and replies individually (per-entry "done"), so the parent's
            # bookkeeping is unchanged — only the dispatch syscalls amortize.
            _, entries = msg
            for tid, spec, hids, writes, updates in entries:
                for hid, blob in updates:
                    local[hid] = arena.loads(blob)
                try:
                    fn = ops.get(spec.op)
                    if fn is None:
                        fn = _resolve_op(spec.op)
                        ops[spec.op] = fn
                    payloads = [local[h] for h in hids]
                    t0 = time.perf_counter()
                    fn(payloads, *spec.args, **spec.kwargs)
                    t1 = time.perf_counter()
                    # Always reship written skeletons: in-place mutations
                    # keep their ArenaRefs (cheap), replaced arrays land
                    # in fresh worker segments announced below.
                    reships = [(hid, arena.dumps(local[hid])) for hid in writes]
                except BaseException as exc:
                    try:
                        pickle.dumps(exc)
                        payload = exc
                    except Exception:
                        payload = RuntimeError(
                            f"task #{tid} failed in worker {widx}:\n"
                            f"{traceback.format_exc()}"
                        )
                    arena.take_copied_bytes()
                    res_conn.send(
                        ("error", widx, tid, payload, arena.take_new_segments())
                    )
                    # Later entries in this batch may read what the failed
                    # task was meant to write — abandon them; the parent is
                    # aborting the run anyway.
                    break
                res_conn.send(
                    ("done", widx, tid, t0, t1, reships,
                     arena.take_new_segments(), arena.take_copied_bytes())
                )
    finally:
        arena.close()


def _dead_worker_error(w: int, proc, res_conn, task) -> RuntimeError:
    """Build the 'worker died' error, draining the worker's result pipe for
    a buffered ``fatal`` traceback so the child's actual failure — not just
    an exit code — reaches the caller."""
    tb = None
    try:
        while res_conn.poll():
            msg = res_conn.recv()
            if msg[0] == "fatal":
                tb = msg[2]
    except (EOFError, OSError):
        pass
    detail = f"; child traceback:\n{tb}" if tb else ""
    return RuntimeError(
        f"worker {w} died (exit code {proc.exitcode}) "
        f"while running task #{task.id} ({task.kind}){detail}"
    )


def _install(handle, final) -> None:
    """Adopt a harvested result into the parent's original payload.

    Dense segments/tiles are written *in place* (callers hold views — e.g.
    the triangular solve gathers RHS segments out of one work vector); tile
    wrappers adopt the new ``mat``; anything else replaces the payload.
    """
    original = handle.payload
    if (
        isinstance(original, np.ndarray)
        and isinstance(final, np.ndarray)
        and original.shape == final.shape
        and original.dtype == final.dtype
    ):
        original[...] = final
    elif hasattr(original, "mat") and hasattr(final, "mat"):
        original.mat = final.mat
        original.format = final.format
    else:
        handle.payload = final


@dataclass
class ProcessExecutor(GraphExecutor):
    """Execute a deferred :class:`TaskGraph` on worker processes.

    Drop-in for :class:`~repro.runtime.threaded.ThreadedExecutor` (same
    scheduler policies, trace, probe hooks), but every task needs a
    :class:`TaskSpec` (``task.spec``), which is what a worker runs.

    Each worker holds :func:`~repro.dense.blas.sequential_blas` for its whole
    life (one BLAS stream per worker process).

    ``dispatch_batch`` caps how many task entries one pipe write may carry.
    Fine-grain graphs (nested expansion) spend most of their single-worker
    wall clock in dispatch round-trips (a one-worker run measured
    ``idle_fraction`` 0.82); batching amortizes the syscall + wakeup cost.
    With one worker the batch is built by *optimistic completion* — pop a
    task, release what it frees as if it had finished, pop again — which
    reproduces exactly the virtual-time simulator's pull order, so the
    1-worker determinism contract survives batching.  With several workers
    only currently-ready tasks are batched (conflicting tasks are never
    simultaneously ready, so intra-batch entries commute with each other).

    After ``run()``, ``ipc_bytes`` (pickled bytes across pipes) and
    ``shm_bytes`` (bytes copied into shared segments) hold the run's
    serialization/IPC accounting.
    """

    dispatch_batch: int = 8

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.dispatch_batch < 1:
            raise ValueError(
                f"dispatch_batch must be >= 1, got {self.dispatch_batch}"
            )
        self.ipc_bytes = 0
        self.shm_bytes = 0

    def _run(self, front: ReadyFront) -> float:
        """Every shared-memory segment created by the run (parent- or
        worker-side) is unlinked before returning, including on worker
        crashes and errors — a run never leaks ``/dev/shm`` entries.
        """
        _check_spawnable()
        handles = {}
        for t in front.items:
            if t.spec is None:
                raise ValueError(
                    f"task #{t.id} ({t.kind}) has no TaskSpec; the process "
                    "executor cannot ship closures to workers — submit tasks "
                    "with insert_task(..., spec=TaskSpec(...))"
                )
            for h, _mode in t.accesses:
                handles[h.id] = h
        probe = front.probe

        run_tag = f"{SEGMENT_PREFIX}{os.getpid():x}r{next(_run_counter):x}"
        arena = SharedTileArena(run_tag + "p")
        segments: set[str] = set()
        self.ipc_bytes = 0
        self.shm_bytes = 0

        mp = get_context("spawn")
        procs: list = []
        task_conns: list = []
        res_conns: list = []
        for w in range(self.nworkers):
            t_recv, t_send = mp.Pipe(duplex=False)
            r_recv, r_send = mp.Pipe(duplex=False)
            p = mp.Process(
                target=_worker_main,
                args=(w, t_recv, r_send, f"{run_tag}w{w}"),
                daemon=True,
                name=f"repro-pworker-{w}",
            )
            p.start()
            t_recv.close()
            r_send.close()
            procs.append(p)
            task_conns.append(t_send)
            res_conns.append(r_recv)

        if probe is not None:
            probe.process_workers(self.nworkers)

        blob: dict[int, bytes] = {}
        version: dict[int, int] = {}
        known: list[dict[int, int]] = [dict() for _ in range(self.nworkers)]
        written: set[int] = set()
        running: dict[int, deque] = {w: deque() for w in range(self.nworkers)}
        t_start = time.perf_counter()

        def dead(w: int) -> RuntimeError:
            return _dead_worker_error(w, procs[w], res_conns[w], running[w][0])

        def dispatch(w: int) -> bool:
            """Send worker ``w`` one batch of what the front has for it."""
            if self.nworkers == 1:
                limit = self.dispatch_batch
            else:
                # Ready-only batching: don't let one worker drain a queue
                # other idle workers could be eating from (idle = nothing
                # running at this moment of the pass).
                nidle = sum(not q for q in running.values())
                limit = max(
                    1, min(self.dispatch_batch, front.scheduler.pending() // nidle)
                )
            entries: list[tuple] = []
            batch_written: set[int] = set()
            while len(entries) < limit:
                task = front.pop(w)
                if task is None:
                    break
                hids: list[int] = []
                writes: list[int] = []
                updates: list[tuple[int, bytes]] = []
                for h, mode in task.accesses:
                    if h.id not in blob:
                        blob[h.id] = arena.dumps(h.payload)
                        version[h.id] = 0
                    hids.append(h.id)
                    if mode.writes and h.id not in writes:
                        writes.append(h.id)
                for hid in hids:
                    if hid in batch_written:
                        # An earlier entry in this batch writes this handle:
                        # the worker's local copy is current when this entry
                        # runs; its reship will refresh known[w] at done-time.
                        continue
                    if known[w].get(hid) != version[hid]:
                        updates.append((hid, blob[hid]))
                        known[w][hid] = version[hid]
                batch_written.update(writes)
                entries.append((task.id, task.spec, hids, writes, updates))
                running[w].append(task)
                if probe is not None:
                    probe.process_dispatch(sum(len(b) for _, b in updates))
                if self.nworkers == 1 and len(entries) < limit:
                    # Optimistic completion: the sole worker runs batch
                    # entries in order, so this task finishes before the next
                    # pop — releasing what it frees now keeps the pop
                    # sequence identical to the simulator's.
                    front.release(task, w)
            if not entries:
                return False
            try:
                task_conns[w].send(("batch", entries))
            except (OSError, BrokenPipeError):
                # The worker died before this dispatch; surface its traceback
                # (if it managed to send one) instead of a bare
                # BrokenPipeError.
                raise dead(w) from None
            self.ipc_bytes += sum(
                len(b) for _, _, _, _, ups in entries for _, b in ups
            )
            self.shm_bytes += arena.take_copied_bytes()
            segments.update(arena.take_new_segments())
            if probe is not None:
                probe.process_dispatch_batch(len(entries))
            return True

        def done(w: int, msg: tuple) -> None:
            """Adopt one finished task's reships, retire and record it."""
            _, _, _tid, t0_abs, t1_abs, reships, new_segs, copied = msg
            task = running[w].popleft()
            segments.update(new_segs)
            self.shm_bytes += copied
            got = 0
            for hid, b in reships:
                blob[hid] = b
                version[hid] = version.get(hid, 0) + 1
                known[w][hid] = version[hid]
                written.add(hid)
                got += len(b)
            self.ipc_bytes += got
            # perf_counter is CLOCK_MONOTONIC: one clock across processes on
            # Linux.
            t0 = t0_abs - t_start
            t1 = t1_abs - t_start
            front.retire(task, w)
            front.record(task, w, t0, t1, t1)
            if probe is not None and got:
                probe.process_result_bytes(got)

        def wait() -> list[int] | None:
            """Block for results; returns the workers whose batch drained."""
            busy = [w for w in range(self.nworkers) if running[w]]
            if not busy:
                return None
            connection.wait(
                [res_conns[w] for w in busy] + [procs[w].sentinel for w in busy]
            )
            progressed = False
            for w in busy:
                conn = res_conns[w]
                while True:
                    # Only the pipe read is guarded: a worker's own OSError,
                    # re-raised below from its "error" message, must reach
                    # the caller.
                    try:
                        if not conn.poll():
                            break
                        msg = conn.recv()
                    except (EOFError, OSError):
                        break
                    progressed = True
                    if msg[0] == "done":
                        done(w, msg)
                    elif msg[0] == "error":
                        segments.update(msg[4])
                        raise msg[3]
                    elif msg[0] == "fatal":
                        task = running[w][0] if running[w] else None
                        at = (
                            f"while running task #{task.id} ({task.kind})"
                            if task is not None else "between tasks"
                        )
                        raise RuntimeError(
                            f"worker {w} died {at}; child traceback:\n{msg[2]}"
                        )
            if not progressed:
                for w in busy:
                    if not procs[w].is_alive():
                        raise dead(w)
            return [w for w in busy if not running[w]]

        try:
            drive(front, self.nworkers, dispatch, wait)
            # Harvest: privatize every written payload back into the parent's
            # originals.  One cache across handles so payloads that share an
            # array keep sharing it.
            cache: dict = {}
            for hid in sorted(written):
                _install(handles[hid], arena.loads_private(blob[hid], cache))
            return time.perf_counter() - t_start
        finally:
            for c in task_conns:
                try:
                    c.send(("stop",))
                except (OSError, BrokenPipeError):
                    pass
            deadline = time.monotonic() + 10.0
            for p in procs:
                p.join(max(0.1, deadline - time.monotonic()))
                if p.is_alive():  # pragma: no cover - stuck worker
                    p.terminate()
                    p.join(5.0)
            for c in task_conns + res_conns:
                try:
                    c.close()
                except OSError:  # pragma: no cover
                    pass
            segments.update(arena.segment_names())
            arena.close()
            for name in sorted(segments):
                unlink_segment(name)
            # Sweep anything a crashed worker created but never announced.
            for name in orphaned_segments(run_tag):
                unlink_segment(name)
            if probe is not None:
                probe.process_segments(len(segments))
                probe.process_shm_bytes(self.shm_bytes)
