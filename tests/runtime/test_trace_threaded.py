"""Unit tests for execution traces, gantt rendering, and the threaded executor."""

import threading

import numpy as np
import pytest

from repro.runtime import (
    AccessMode,
    ExecutionTrace,
    StfEngine,
    ThreadedExecutor,
    TraceEvent,
    render_gantt,
)

R, W, RW = AccessMode.R, AccessMode.W, AccessMode.RW


class TestExecutionTrace:
    def test_makespan(self):
        tr = ExecutionTrace(nworkers=2)
        tr.add(TraceEvent(0, "gemm", 0, 0.0, 1.0))
        tr.add(TraceEvent(1, "trsm", 1, 0.5, 2.5))
        assert tr.makespan == 2.5

    def test_busy_time(self):
        tr = ExecutionTrace(nworkers=2)
        tr.add(TraceEvent(0, "gemm", 0, 0.0, 1.0))
        tr.add(TraceEvent(1, "gemm", 0, 1.0, 3.0))
        assert tr.busy_time(0) == 3.0
        assert tr.busy_time(1) == 0.0

    def test_utilization(self):
        tr = ExecutionTrace(nworkers=2)
        tr.add(TraceEvent(0, "gemm", 0, 0.0, 2.0))
        tr.add(TraceEvent(1, "gemm", 1, 0.0, 1.0))
        assert tr.utilization() == pytest.approx(0.75)

    def test_empty_utilization(self):
        assert ExecutionTrace(nworkers=3).utilization() == 0.0

    def test_validation(self):
        tr = ExecutionTrace(nworkers=1)
        with pytest.raises(ValueError):
            tr.add(TraceEvent(0, "k", 5, 0.0, 1.0))
        with pytest.raises(ValueError):
            tr.add(TraceEvent(0, "k", 0, 2.0, 1.0))

    def test_timelines_sorted(self):
        tr = ExecutionTrace(nworkers=1)
        tr.add(TraceEvent(1, "k", 0, 2.0, 3.0))
        tr.add(TraceEvent(0, "k", 0, 0.0, 1.0))
        lane = tr.worker_timelines()[0]
        assert [e.task_id for e in lane] == [0, 1]


class TestRenderGantt:
    def test_empty(self):
        assert render_gantt(ExecutionTrace(nworkers=2)) == "(empty trace)"

    def test_kind_letters(self):
        tr = ExecutionTrace(nworkers=2)
        tr.add(TraceEvent(0, "getrf", 0, 0.0, 1.0))
        tr.add(TraceEvent(1, "gemm", 1, 0.5, 1.0))
        art = render_gantt(tr, width=20)
        assert "G" in art and "M" in art and "." in art
        assert art.count("\n") == 1  # two worker rows

    def test_registered_kind_from_shared_registry(self):
        # "compress" and "trsm-solve" used to render "?" because the gantt
        # kept its own kind table; both now come from the shared registry.
        tr = ExecutionTrace(nworkers=2)
        tr.add(TraceEvent(0, "compress", 0, 0.0, 1.0))
        tr.add(TraceEvent(1, "trsm-solve", 1, 0.0, 1.0))
        art = render_gantt(tr, width=10)
        assert "C" in art and "S" in art and "?" not in art

    def test_unknown_kind(self):
        tr = ExecutionTrace(nworkers=1)
        tr.add(TraceEvent(0, "no-such-kernel", 0, 0.0, 1.0))
        assert "?" in render_gantt(tr, width=10)


class TestThreadedExecutor:
    def _graph(self, nchains=4, length=5):
        eng = StfEngine(mode="deferred")
        results = [[] for _ in range(nchains)]
        for c in range(nchains):
            h = eng.handle(results[c], f"chain{c}")
            for i in range(length):
                eng.insert_task(
                    "k", (lambda c=c, i=i: results[c].append(i)), [(h, RW)]
                )
        return eng.wait_all(), results

    def test_runs_all_tasks_in_order(self):
        g, results = self._graph()
        ThreadedExecutor(4).run(g)
        for chain in results:
            assert chain == list(range(5))

    def test_single_worker(self):
        g, results = self._graph(nchains=2, length=3)
        ThreadedExecutor(1).run(g)
        assert all(chain == [0, 1, 2] for chain in results)

    def test_trace_collected(self):
        g, _ = self._graph(nchains=2, length=2)
        ex = ThreadedExecutor(2)
        ex.run(g)
        assert len(ex.trace.events) == 4

    def test_caller_supplied_trace_reused(self):
        g, _ = self._graph(nchains=2, length=2)
        tr = ExecutionTrace(nworkers=2)
        ex = ThreadedExecutor(2, trace=tr)
        ex.run(g)
        assert ex.trace is tr
        assert len(tr.events) == 4

    def test_caller_trace_too_small_rejected(self):
        g, _ = self._graph(nchains=1, length=1)
        ex = ThreadedExecutor(2, trace=ExecutionTrace(nworkers=1))
        with pytest.raises(ValueError, match="covers 1 workers"):
            ex.run(g)

    def test_measured_seconds_written_back(self):
        import time

        eng = StfEngine(mode="deferred")
        h = eng.handle(object())
        eng.insert_task("k", (lambda: time.sleep(0.01)), [(h, RW)])
        g = eng.wait_all()
        assert g.tasks[0].seconds == 0.0  # deferred: no cost yet
        ThreadedExecutor(1).run(g)
        assert g.tasks[0].seconds >= 0.01
        # A deferred graph replayed in the simulator now has real costs.
        from repro.runtime import simulate

        assert simulate(g, 1, "prio").makespan >= 0.01

    def test_empty_graph(self):
        from repro.runtime import TaskGraph

        assert ThreadedExecutor(2).run(TaskGraph()) == 0.0

    def test_exception_propagates(self):
        def boom():
            raise RuntimeError("kernel failed")

        # Leased too: the failing worker must give the lease back, or the
        # parked one never wakes and run() hangs instead of raising.
        for leased in (False, True):
            eng = StfEngine(mode="deferred")
            h = eng.handle(object())
            eng.insert_task("k", boom, [(h, RW)])
            eng.insert_task("k", lambda: None, [(h, RW)])
            ex = ThreadedExecutor(2, interpreter_bound=leased)
            outcome = []

            def call(ex=ex, graph=eng.wait_all()):
                try:
                    ex.run(graph)
                except RuntimeError as exc:
                    outcome.append(exc)

            th = threading.Thread(target=call, daemon=True)
            th.start()
            th.join(timeout=10)
            assert not th.is_alive(), f"run() hung (leased={leased})"
            assert len(outcome) == 1 and "kernel failed" in str(outcome[0])

    def test_parallel_execution_uses_threads(self):
        # Two independent tasks that each wait on a barrier: completes only
        # if they genuinely overlap on two worker threads.
        eng = StfEngine(mode="deferred")
        barrier = threading.Barrier(2, timeout=10)
        for i in range(2):
            h = eng.handle(object())
            eng.insert_task("k", barrier.wait, [(h, RW)])
        ThreadedExecutor(2).run(eng.wait_all())  # would raise BrokenBarrier if serial

    def test_validation(self):
        with pytest.raises(ValueError):
            ThreadedExecutor(0)

    @staticmethod
    def _spawned():
        return sorted(t.name for t in threading.enumerate()
                      if t.name.startswith("repro-worker-"))

    def test_worker_zero_is_the_calling_thread(self):
        # Two tasks that overlap (a barrier): one runs on the caller's thread,
        # the other on the one spawned worker.
        eng = StfEngine(mode="deferred")
        barrier = threading.Barrier(2, timeout=10)
        ran, spawned = set(), []

        def kernel():
            ran.add(threading.current_thread().name)
            spawned.append(self._spawned())
            barrier.wait()

        for _ in range(2):
            eng.insert_task("k", kernel, [(eng.handle(object()), RW)])
        ThreadedExecutor(2).run(eng.wait_all())
        assert ran == {threading.current_thread().name, "repro-worker-1"}
        assert spawned == [["repro-worker-1"]] * 2
        assert self._spawned() == []

    def test_no_worker_outlives_a_failed_run(self):
        def boom():
            raise RuntimeError("kernel failed")

        for leased in (False, True):
            eng = StfEngine(mode="deferred")
            for i in range(4):
                h = eng.handle(object())
                eng.insert_task("k", boom if i == 2 else lambda: None, [(h, RW)])
            with pytest.raises(RuntimeError, match="kernel failed"):
                ThreadedExecutor(2, interpreter_bound=leased).run(eng.wait_all())
            assert self._spawned() == []

    def test_worker_zero_leaving_by_base_exception_stops_the_others(self):
        # Worker 0 leaves its loop itself, not through a task: releasing the
        # successor of its first task raises.  The spawned worker, parked for
        # work that will never come, must be told to stop and be joined
        # before run() re-raises.
        class Interrupted(BaseException):
            pass

        from repro.runtime import make_scheduler

        eng = StfEngine(mode="deferred")
        h = eng.handle(object())
        for _ in range(2):
            eng.insert_task("k", lambda: None, [(h, RW)])
        graph = eng.wait_all()
        scheduler = make_scheduler("eager")
        pop, push = scheduler.pop, scheduler.push

        def push_or_leave(task, w):
            if w == 0:
                raise Interrupted
            push(task, w)

        scheduler.pop = lambda w: pop(w) if w == 0 else None  # worker 1 only waits
        scheduler.push = push_or_leave
        outcome = []

        def call():
            try:
                ThreadedExecutor(2, scheduler=scheduler).run(graph)
            except Interrupted as exc:
                outcome.append(exc)

        th = threading.Thread(target=call, daemon=True)
        th.start()
        th.join(timeout=10)
        assert not th.is_alive(), "run() hung"
        assert len(outcome) == 1 and self._spawned() == []


class TestChromeTraceExport:
    def test_export_roundtrip(self, tmp_path):
        import json

        from repro.runtime import export_chrome_trace

        tr = ExecutionTrace(nworkers=2)
        tr.add(TraceEvent(0, "gemm", 0, 0.0, 1.5))
        tr.add(TraceEvent(1, "trsm", 1, 0.5, 1.0))
        p = export_chrome_trace(tr, tmp_path / "sub" / "trace.json")
        data = json.loads(p.read_text())
        assert data["metadata"]["nworkers"] == 2
        xs = [e for e in data["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == 2
        ev = xs[0]
        assert ev["tid"] == 0
        assert ev["dur"] == pytest.approx(1.5e6)
        # Thread-name metadata events precede the duration events.
        names = [e for e in data["traceEvents"] if e["ph"] == "M" and e["name"] == "thread_name"]
        assert [e["args"]["name"] for e in names] == ["worker 0", "worker 1"]

    def test_export_empty(self, tmp_path):
        import json

        from repro.runtime import export_chrome_trace

        p = export_chrome_trace(ExecutionTrace(nworkers=1), tmp_path / "t.json")
        data = json.loads(p.read_text())
        # Only the per-worker metadata events remain for an empty trace.
        assert all(e["ph"] == "M" for e in data["traceEvents"])
        assert data["metadata"]["makespan"] == 0.0
