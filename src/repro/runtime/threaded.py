"""Scheduler-backed thread-pool execution of a deferred task graph.

This executor runs a graph recorded by a :class:`~repro.runtime.stf.StfEngine`
(an eager one's ``wait_all`` runs its section here) — or a bound factor program
(:mod:`repro.core.factor_program`), whose tasks are bare ids run from the
program's arrays — with real worker threads driven by any virtual-time
:class:`~repro.runtime.schedulers.Scheduler` policy (``ws``, ``lws``,
``prio``, ``eager``): ready tasks are pushed to the worker that released them
(``push(task, w)``), idle workers pull or steal through the policy's own
``pop(w)``.  All scheduler calls go through the simulator's own ready set
(:mod:`~repro.runtime.ready`) under one condition variable, so queue and
steal semantics are the simulator's — a threaded run follows the same
pull/steal order a virtual-time replay would take under equal costs
(bit-for-bit with one worker, where timing jitter cannot reorder
completions).  Per task the loop runs ``front.execute(task)`` between two
clock reads, then in one critical section retires it, logs ``(task, worker,
start, end)`` and — while the worker keeps the lease — pops its next task;
the trace events and a graph's measured ``task.seconds`` are made from that
log after the run.

**The interpreter lease.**  Threads overlap only where a task waits or sits
in native code that releases the GIL for longer than a GIL handoff costs.
The H-kernels do not: ACA rows and QR/SVD on 48-192-row factors release the
GIL hundreds of times per task for 10-40 us each, and with a second worker
waiting every release hands the interpreter to the other core (~22 us plus
cold caches).  Measured on the 144-task assembly stage of the n=2304,
nb=192 Laplace case: 0.6 s and 6 voluntary context switches on one worker,
1.2-1.3 s and ~25 000-29 000 on two — two workers 1.6-2x *slower* than one.
``ThreadedExecutor(..., interpreter_bound=True)`` is how the owner of such a
graph says so: one ``threading.Lock`` per ``run()`` that a worker holds
while it executes task closures, so the other workers park on the lease,
not on the GIL, and the interpreter changes hands at task boundaries only.
A worker keeps the lease across consecutive tasks for
``sys.getswitchinterval()`` (CPython's own forced-switch quantum), takes it
*before* popping (a parked worker never sits on a popped task), and gives
it back before waiting for work and on every way out.  ``task.seconds`` and
the trace stay kernel time; lease wait is worker wait.  The same stage then
takes 0.6 s on two workers (~70 voluntary context switches).  That is the
floor: a leased graph runs at its 1-worker time, never below it.  No
executor here goes below it today: on the same graph the process executor
reads 3.3-3.5 s on two workers where one leased thread reads 0.45 s
(EXPERIMENTS.md, "A cold build by layer").  The default
(``interpreter_bound=False``) takes no lease, so tasks that block or spend
their time in long BLAS calls still overlap.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass

from .ready import GraphExecutor, ReadyFront

__all__ = ["ThreadedExecutor"]


@dataclass
class ThreadedExecutor(GraphExecutor):
    """Execute a deferred :class:`TaskGraph` (or a lowered program, see the
    module docstring) on real threads under a policy.

    ``scheduler`` accepts any :func:`~repro.runtime.schedulers.make_scheduler`
    name or a :class:`Scheduler` instance; it is reset (``setup``) per run.
    Worker 0 is the calling thread; the others are spawned and joined.

    ``interpreter_bound=True`` declares the graph's closures interpreter-bound
    (H-kernels) and runs them under the interpreter lease — see the module
    docstring.

    When an :class:`~repro.obs.Instrumentation` probe is active (or passed
    via ``instrument``), the run records per-task spans, per-worker wait
    time (condition wait plus lease wait), lease handoffs, scheduler counters
    and a queue-depth time series into it.
    """

    interpreter_bound: bool = False

    def _run(self, front: ReadyFront) -> float:
        probe = front.probe
        execute = front.execute
        # The front is not thread-safe: every call on it is made under `lock`.
        lock = threading.Condition()
        # "waiting": workers parked in lock.wait(); a retire notifies only them.
        state = {"error": None, "lessee": None, "waiting": 0}
        # One lease per run; "lessee" (its last holder) is written under it.
        # Held across consecutive tasks for CPython's own forced-switch quantum.
        lease = threading.Lock() if self.interpreter_bound else None
        quantum = sys.getswitchinterval()
        clock = time.perf_counter
        t_start = clock()

        def worker(widx: int) -> None:
            wait_seconds = 0.0
            handoffs = 0
            leased_at = None  # when this worker took the lease; None = not held
            task = None  # popped and not yet run
            try:
                while True:
                    if task is None:
                        if lease is not None and leased_at is None:
                            # Taken *before* the pop, so a parked worker never
                            # sits on a popped (possibly critical-path) task.
                            w0 = clock()
                            lease.acquire()
                            leased_at = clock()
                            wait_seconds += leased_at - w0
                            if state["lessee"] not in (None, widx):
                                handoffs += 1
                            state["lessee"] = widx
                        with lock:
                            if state["error"] is not None or not front.remaining:
                                lock.notify_all()
                                return
                            task = front.pop(widx)
                            if task is None:
                                if leased_at is not None:
                                    lease.release()
                                    leased_at = None
                                w0 = clock()
                                state["waiting"] += 1
                                lock.wait()
                                state["waiting"] -= 1
                                wait_seconds += clock() - w0
                                continue
                    try:
                        t0 = clock() - t_start
                        execute(task)
                        t1 = clock() - t_start
                    except BaseException as exc:  # propagate to the caller
                        with lock:
                            state["error"] = exc
                            lock.notify_all()
                        return
                    spent = leased_at is not None and t_start + t1 - leased_at >= quantum
                    with lock:
                        # What this task frees lands on this worker's queue.
                        front.retire(task, widx)
                        front.record(task, widx, t0, t1, t1)
                        if state["waiting"]:
                            lock.notify_all()
                        # While the lease (if any) is still this worker's, the
                        # next pop shares the retire's critical section.
                        task = None
                        if not spent and state["error"] is None and front.remaining:
                            task = front.pop(widx)
                    if spent:
                        # Quantum spent: offer the interpreter at this task
                        # boundary (what it freed is already pushed).
                        lease.release()
                        leased_at = None
            finally:
                if leased_at is not None:
                    lease.release()
                if probe is not None:
                    if wait_seconds > 0.0:
                        probe.worker_wait(widx, wait_seconds)
                    if handoffs:
                        probe.lease_handoffs(widx, handoffs)

        # Worker 0 is the caller's thread: a spawned one would allocate from a
        # malloc arena of its own and keep it (peak RSS +15 MB at n=2304).
        threads = [
            threading.Thread(target=worker, args=(w,), name=f"repro-worker-{w}")
            for w in range(1, self.nworkers)
        ]
        for th in threads:
            th.start()
        try:
            worker(0)
        except BaseException as exc:  # out of the loop itself: stop the others
            with lock:
                state["error"] = state["error"] or exc
                lock.notify_all()
            raise
        finally:
            for th in threads:
                th.join()
        if state["error"] is not None:
            raise state["error"]
        return clock() - t_start
