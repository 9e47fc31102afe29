"""ProcessExecutor: scheduler fidelity, shared-memory hygiene, crash safety.

The process executor must be indistinguishable from the threaded executor at
the scheduling level (same policies, same single-worker pull order as the
virtual-time simulator, traces that are linear extensions of the DAG) while
moving payloads through shared-memory segments instead of a shared heap.
These tests pin both halves down, plus the cleanup contract: **no run ever
leaves a segment in /dev/shm**, not even when a worker raises or dies.
"""

import numpy as np
import pytest

from repro.runtime import (
    SCHEDULER_NAMES,
    AccessMode,
    ProcessExecutor,
    RuntimeOverheadModel,
    StfEngine,
    TaskSpec,
    orphaned_segments,
    simulate,
    validate_trace,
)
from repro.runtime.dag import TaskGraph

from .graphs import costed_graph

R, W, RW = AccessMode.R, AccessMode.W, AccessMode.RW
ZERO = RuntimeOverheadModel.zero()

INCR = TaskSpec("repro.runtime.process:_incr_for_tests")
NOOP = TaskSpec("repro.runtime.process:_noop_for_tests")


def _incr_graph(n_arrays=4, chain=5):
    """Deferred graph of RW increment chains over shared ndarray payloads."""
    eng = StfEngine(mode="deferred")
    arrays = [np.zeros(8) for _ in range(n_arrays)]
    for step in range(chain):
        for i, a in enumerate(arrays):
            eng.insert_task(
                "incr",
                lambda a=a: None,  # placeholder closure; spec is what runs
                [(eng.handle(a, f"a{i}"), RW)],
                spec=TaskSpec("repro.runtime.process:_incr_for_tests",
                              kwargs={"delta": float(step + 1)}),
            )
    return eng.wait_all(), arrays


@pytest.fixture(autouse=True)
def _no_shm_leaks():
    """Every test must leave /dev/shm exactly as it found it."""
    before = set(orphaned_segments())
    yield
    leaked = sorted(set(orphaned_segments()) - before)
    assert leaked == [], f"leaked shared-memory segments: {leaked}"


@pytest.mark.parametrize("policy", SCHEDULER_NAMES)
def test_single_worker_process_matches_simulator_order(policy):
    """At nworkers=1 the process executor pulls tasks in exactly the order
    the virtual-time simulator schedules them, for every policy."""
    g_sim = costed_graph(seed=7)
    r = simulate(g_sim, 1, policy, overheads=ZERO)
    sim_order = [e.task_id for e in r.trace.events]

    g_proc = costed_graph(seed=7)
    ex = ProcessExecutor(1, scheduler=policy)
    ex.run(g_proc)
    proc_order = [e.task_id for e in sorted(ex.trace.events, key=lambda e: e.start)]
    assert proc_order == sim_order


@pytest.mark.parametrize("policy", SCHEDULER_NAMES)
def test_multi_worker_process_trace_is_linear_extension(policy):
    g, arrays = _incr_graph()
    ex = ProcessExecutor(2, scheduler=policy)
    ex.run(g)
    assert validate_trace(g, ex.trace) == []
    # 5 serialized RW increments of 1..5 on every array.
    for a in arrays:
        np.testing.assert_array_equal(a, np.full(8, 15.0))


def test_payload_mutations_round_trip_into_parent_arrays():
    """Worker-side in-place writes land back in the parent's original arrays
    (the executor installs harvested results in place, preserving aliases)."""
    g, arrays = _incr_graph(n_arrays=2, chain=3)
    originals = list(arrays)
    ex = ProcessExecutor(2)
    ex.run(g)
    for orig, a in zip(originals, arrays):
        assert orig is a
        np.testing.assert_array_equal(orig, np.full(8, 6.0))
    assert ex.ipc_bytes > 0
    assert ex.shm_bytes > 0


def test_closure_without_spec_is_rejected():
    eng = StfEngine(mode="deferred")
    a = np.zeros(4)
    eng.insert_task("k", lambda: None, [(eng.handle(a, "a"), RW)])
    g = eng.wait_all()
    with pytest.raises(ValueError, match="TaskSpec"):
        ProcessExecutor(1).run(g)


def test_worker_exception_propagates_and_cleans_up():
    eng = StfEngine(mode="deferred")
    a = np.zeros(4)
    h = eng.handle(a, "a")
    eng.insert_task("k", lambda: None, [(h, RW)], spec=INCR)
    eng.insert_task(
        "k", lambda: None, [(h, RW)],
        spec=TaskSpec("repro.runtime.process:_raise_for_tests",
                      kwargs={"message": "kaboom"}),
    )
    g = eng.wait_all()
    with pytest.raises(ValueError, match="kaboom"):
        ProcessExecutor(2).run(g)
    # Segment cleanup is asserted by the autouse fixture.


def test_worker_oserror_propagates_and_cleans_up():
    """A task's own ``OSError`` is the caller's to see: the parent's pipe
    loop guards its reads with ``except (EOFError, OSError)`` and must not
    swallow the exception a worker reported."""
    eng = StfEngine(mode="deferred")
    h = eng.handle(np.zeros(4), "a")
    eng.insert_task(
        "k", lambda: None, [(h, RW)],
        spec=TaskSpec("repro.runtime.process:_raise_for_tests",
                      kwargs={"message": "disk gone", "kind": OSError}),
    )
    eng.insert_task("k", lambda: None, [(h, RW)], spec=INCR)
    from repro.obs import Instrumentation

    ex = ProcessExecutor(2)
    with Instrumentation(), pytest.raises(OSError, match="disk gone"):
        ex.run(eng.wait_all())
    assert ex.scheduler.stats is None  # the failed run's probe is detached
    # Zero segments left: asserted by the autouse fixture.


def test_worker_crash_raises_and_cleans_up():
    """A worker that dies mid-task (os._exit) must surface a RuntimeError in
    the parent and still unlink every shared segment."""
    eng = StfEngine(mode="deferred")
    a = np.zeros(4)
    h = eng.handle(a, "a")
    eng.insert_task("k", lambda: None, [(h, RW)], spec=INCR)
    eng.insert_task("k", lambda: None, [(h, RW)],
                    spec=TaskSpec("repro.runtime.process:_crash_for_tests"))
    g = eng.wait_all()
    with pytest.raises(RuntimeError, match="died"):
        ProcessExecutor(1).run(g)


def test_crash_error_names_worker_task_and_exit_code():
    """The 'worker died' error must say which worker, which task, and the
    exit code — not just raise a bare BrokenPipeError."""
    eng = StfEngine(mode="deferred")
    a = np.zeros(4)
    h = eng.handle(a, "a")
    eng.insert_task("k", lambda: None, [(h, RW)],
                    spec=TaskSpec("repro.runtime.process:_crash_for_tests"))
    g = eng.wait_all()
    with pytest.raises(RuntimeError, match=r"worker 0 died \(exit code 3\).*task #0"):
        ProcessExecutor(1).run(g)


def test_startup_death_carries_child_traceback():
    """A worker that dies outside any task (here: a handle payload that raises
    when the worker unpickles it) must surface the child's traceback in the
    parent error, and the run must still unlink every segment."""
    from repro.runtime.process import _ExplodingContext

    eng = StfEngine(mode="deferred")
    eng.insert_task("k", lambda: None, [(eng.handle(_ExplodingContext(), "a"), RW)],
                    spec=NOOP)
    g = eng.wait_all()
    with pytest.raises(RuntimeError, match="exploding context \\(test helper\\)"):
        ProcessExecutor(1).run(g)


class TestSpawnableCheck:
    """_check_spawnable: fail fast when spawn cannot re-import __main__."""

    @staticmethod
    def _fake_main(**attrs):
        import types

        mod = types.ModuleType("__main__")
        mod.__spec__ = None
        for k, v in attrs.items():
            setattr(mod, k, v)
        return mod

    def test_stdin_main_is_rejected_before_spawn(self, monkeypatch):
        import sys

        from repro.runtime.process import _check_spawnable

        monkeypatch.setitem(sys.modules, "__main__",
                            self._fake_main(__file__="<stdin>"))
        with pytest.raises(RuntimeError, match="stdin"):
            _check_spawnable()

    def test_real_file_main_is_accepted(self, monkeypatch):
        import sys

        from repro.runtime.process import _check_spawnable

        monkeypatch.setitem(sys.modules, "__main__",
                            self._fake_main(__file__=__file__))
        _check_spawnable()  # must not raise

    def test_module_main_is_accepted_even_without_file(self, monkeypatch):
        # `python -m pkg` sets __spec__; children re-import by module name,
        # so a missing/virtual __file__ is fine.
        import sys

        from repro.runtime.process import _check_spawnable

        mod = self._fake_main(__file__="<frozen>")
        mod.__spec__ = object()
        monkeypatch.setitem(sys.modules, "__main__", mod)
        _check_spawnable()  # must not raise

    def test_interactive_main_is_accepted(self, monkeypatch):
        import sys

        from repro.runtime.process import _check_spawnable

        monkeypatch.setitem(sys.modules, "__main__", self._fake_main())
        _check_spawnable()  # must not raise


def test_empty_graph_returns_zero():
    assert ProcessExecutor(2).run(TaskGraph()) == 0.0


def test_bad_nworkers_rejected():
    with pytest.raises(ValueError, match="nworkers"):
        ProcessExecutor(0)


@pytest.mark.parametrize("policy", SCHEDULER_NAMES)
def test_batched_single_worker_still_matches_simulator_order(policy):
    """Batched dispatch must not change the 1-worker pull order: optimistic
    completion replays the exact pop -> release -> pop sequence the
    simulator uses, just without waiting for per-task round trips."""
    g_sim = costed_graph(seed=11)
    sim_order = [
        e.task_id for e in simulate(g_sim, 1, policy, overheads=ZERO).trace.events
    ]
    g_proc = costed_graph(seed=11)
    ex = ProcessExecutor(1, scheduler=policy, dispatch_batch=4)
    ex.run(g_proc)
    proc_order = [
        e.task_id for e in sorted(ex.trace.events, key=lambda e: e.start)
    ]
    assert proc_order == sim_order


@pytest.mark.parametrize("nworkers", [1, 2])
def test_batched_dispatch_results_and_trace(nworkers):
    g, arrays = _incr_graph()
    ex = ProcessExecutor(nworkers, scheduler="lws", dispatch_batch=4)
    ex.run(g)
    assert validate_trace(g, ex.trace) == []
    for a in arrays:
        np.testing.assert_array_equal(a, np.full(8, 15.0))


def test_dispatch_batches_counter_shows_coalescing():
    from repro.obs import Instrumentation

    g, _arrays = _incr_graph(n_arrays=2, chain=4)
    with Instrumentation() as probe:
        ProcessExecutor(1, dispatch_batch=8, instrument=probe).run(g)
    reg = probe.registry
    n_tasks = reg.counter("process.dispatches")
    n_batches = reg.counter("process.dispatch_batches")
    assert n_tasks == len(g)
    # Optimistic completion walks the RW chains, so the 8 tasks leave in
    # strictly fewer pipe writes than tasks.
    assert 0 < n_batches < n_tasks


def test_bad_dispatch_batch_rejected():
    with pytest.raises(ValueError, match="dispatch_batch"):
        ProcessExecutor(1, dispatch_batch=0)
