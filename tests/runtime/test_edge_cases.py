"""Edge-case and error-path tests for the runtime substrate."""

import numpy as np
import pytest

from repro.obs import Instrumentation
from repro.runtime import (
    AccessMode,
    RuntimeOverheadModel,
    StfEngine,
    TaskGraph,
    ThreadedExecutor,
    make_scheduler,
    simulate,
)

from .graphs import costed_graph

R, W, RW = AccessMode.R, AccessMode.W, AccessMode.RW
ZERO = RuntimeOverheadModel.zero()


class TestSimulatorDeadlock:
    def test_cycle_raises_runtime_error(self):
        g = TaskGraph()
        a, b = g.new_task("a", seconds=1.0), g.new_task("b", seconds=1.0)
        # Hand-craft a cycle (add_dependency only rejects self-loops).
        a.deps.add(b.id)
        b.successors.add(a.id)
        b.deps.add(a.id)
        a.successors.add(b.id)
        with pytest.raises(RuntimeError, match="deadlock"):
            simulate(g, 2, "eager", overheads=ZERO)


class TestSchedulerObjectReuse:
    def test_scheduler_instance_accepted(self):
        from repro.runtime import PrioScheduler

        g = TaskGraph()
        g.new_task("k", seconds=1.0)
        sched = PrioScheduler()
        r1 = simulate(g, 2, sched, overheads=ZERO)
        r2 = simulate(g, 2, sched, overheads=ZERO)  # setup() resets state
        assert r1.makespan == r2.makespan == pytest.approx(1.0)

    def test_name_and_object_agree(self):
        g = TaskGraph()
        rng = np.random.default_rng(0)
        ts = [g.new_task("k", seconds=float(rng.uniform(0.1, 1))) for _ in range(20)]
        for i in range(1, 20):
            g.add_dependency(ts[i - 1], ts[i]) if i % 3 == 0 else None
        from repro.runtime import make_scheduler

        a = simulate(g, 3, "lws", overheads=ZERO).makespan
        b = simulate(g, 3, make_scheduler("lws"), overheads=ZERO).makespan
        assert a == pytest.approx(b)

    @pytest.mark.parametrize("run", [
        lambda g, s: ThreadedExecutor(1, scheduler=s).run(g),
        lambda g, s: simulate(g, 1, s),
    ], ids=["threaded", "simulate"])
    def test_finished_run_leaves_no_probe_on_the_scheduler(self, run):
        sched = make_scheduler("lws")
        with Instrumentation() as probe:
            run(costed_graph(7), sched)
            pushes = probe.sched.pushes
            assert sched.stats is None
            sched.push(costed_graph(7).tasks[0], None)
            assert probe.sched.pushes == pushes

    def test_failed_run_leaves_no_probe_on_the_scheduler(self):
        g = TaskGraph()

        def boom():
            raise ValueError("kaboom")

        g.new_task("k", seconds=1.0).func = boom
        sched = make_scheduler("ws")
        with Instrumentation(), pytest.raises(ValueError, match="kaboom"):
            ThreadedExecutor(2, scheduler=sched).run(g)
        assert sched.stats is None


class TestStfWriteOnlyMode:
    def test_pure_write_does_not_read(self):
        """W (unlike RW) still orders against previous writers/readers but
        the task is not recorded as a reader afterwards."""
        eng = StfEngine()
        h = eng.handle(object())
        w1 = eng.insert_task("w", None, [(h, W)])
        r1 = eng.insert_task("r", None, [(h, R)])
        w2 = eng.insert_task("w", None, [(h, W)])
        r2 = eng.insert_task("r", None, [(h, R)])
        assert w1.id in r1.deps
        assert r1.id in w2.deps
        assert w2.id in r2.deps
        assert r1.id not in r2.deps

    def test_task_reading_two_handles(self):
        eng = StfEngine()
        a, b = eng.handle(object(), "a"), eng.handle(object(), "b")
        w_a = eng.insert_task("wa", None, [(a, W)])
        w_b = eng.insert_task("wb", None, [(b, W)])
        r = eng.insert_task("r", None, [(a, R), (b, R)])
        assert {w_a.id, w_b.id} <= r.deps

    def test_rw_single_self_dependency_avoided(self):
        eng = StfEngine()
        h = eng.handle(object())
        t = eng.insert_task("k", None, [(h, R), (h, RW)])
        assert t.id not in t.deps


class TestHandleNames:
    def test_named_handle_shows_in_repr(self):
        eng = StfEngine()
        h = eng.handle(object(), "A[3,4]")
        assert "A[3,4]" in repr(h)


class TestTraceEdge:
    def test_utilization_single_event(self):
        from repro.runtime import ExecutionTrace, TraceEvent

        tr = ExecutionTrace(nworkers=4)
        tr.add(TraceEvent(0, "gemm", 2, 0.0, 2.0))
        assert tr.utilization() == pytest.approx(0.25)
        assert tr.busy_time(2) == 2.0


class TestSubmissionWithDependencies:
    def test_submission_and_deps_compose(self):
        g = TaskGraph()
        a = g.new_task("a", seconds=1.0)
        b = g.new_task("b", seconds=1.0)
        g.add_dependency(a, b)
        m = RuntimeOverheadModel(per_task=0.0, per_dependency=0.0, submission=3.0)
        r = simulate(g, 2, "eager", overheads=m)
        # a starts at 0, ends 1; b released by submission at 3, runs 3..4.
        assert r.makespan == pytest.approx(4.0)

    def test_serialized_plus_submission(self):
        g = TaskGraph()
        for _ in range(2):
            g.new_task("k", seconds=0.0)
        m = RuntimeOverheadModel(per_task=1.0, per_dependency=0.0, submission=0.5, serialized=True)
        r = simulate(g, 2, "eager", overheads=m)
        # Runtime core processes releases at 1.0 and 2.0.
        assert r.makespan == pytest.approx(2.0)
