"""Threaded execution under every scheduler policy.

The threaded executor drives the *same* scheduler objects as the
virtual-time simulator, with the same push-to-releasing-worker and steal
semantics.  These tests pin that equivalence down:

* property: on random DAGs every policy runs every task exactly once and
  produces a trace that is a linear extension of the DAG, at 1-3 workers;
* with one worker (no timing jitter) the threaded pull order reproduces the
  simulator's schedule event for event, for all five policies;
* virtual-time policies are deterministic on tied priorities;
* the ``ws`` steal path picks a victim other than the idle caller.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.runtime import (
    SCHEDULER_NAMES,
    AccessMode,
    RuntimeOverheadModel,
    StfEngine,
    TaskGraph,
    ThreadedExecutor,
    make_scheduler,
    simulate,
    validate_trace,
)

from .graphs import costed_graph, seeds, sizes

R, W, RW = AccessMode.R, AccessMode.W, AccessMode.RW

ZERO = RuntimeOverheadModel.zero()


def _random_deferred_graph(seed, n, log):
    """Random DAG of deferred tasks that append their id to ``log``."""
    rng = np.random.default_rng(seed)
    g = TaskGraph()
    ts = []
    for i in range(n):
        t = g.new_task("k", seconds=float(rng.uniform(0.01, 1.0)),
                       priority=int(rng.integers(0, 5)))
        t.func = lambda i=i: log.append(i)
        ts.append(t)
    for i in range(1, n):
        k = int(rng.integers(0, min(4, i) + 1))
        for d in rng.choice(i, size=k, replace=False):
            g.add_dependency(ts[int(d)], ts[i])
    return g


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=1, max_value=30),
    nworkers=st.integers(min_value=1, max_value=3),
    policy=st.sampled_from(SCHEDULER_NAMES),
)
def test_property_every_policy_runs_every_task_exactly_once(
    seed, n, nworkers, policy
):
    log = []
    g = _random_deferred_graph(seed, n, log)
    ex = ThreadedExecutor(nworkers, scheduler=policy)
    ex.run(g)
    assert sorted(log) == list(range(n))
    # validate_trace checks exactly-once *and* linear extension; strict mode
    # raises on the first violation.
    assert validate_trace(g, ex.trace) == []


@pytest.mark.parametrize("policy", SCHEDULER_NAMES)
@settings(max_examples=20, deadline=None)
@given(seed=seeds, n=sizes)
@example(seed=7, n=24)
def test_single_worker_threaded_matches_simulator_order(policy, seed, n):
    """At nworkers=1 there is no timing jitter: the threaded executor must
    pull tasks in exactly the order the virtual-time simulator does — with
    or without the (uncontended) interpreter lease."""
    g_sim = costed_graph(seed, n)
    r = simulate(g_sim, 1, policy, overheads=ZERO)
    sim_order = [e.task_id for e in r.trace.events]

    # Looped, not parametrized: the five test ids stay as they were.
    for leased in (False, True):
        g_thr = costed_graph(seed, n)  # fresh graph, same structure
        ex = ThreadedExecutor(1, scheduler=policy, interpreter_bound=leased)
        ex.run(g_thr)
        thr_order = [e.task_id for e in sorted(ex.trace.events, key=lambda e: e.start)]
        assert thr_order == sim_order, f"leased={leased}"


def test_single_worker_threaded_matches_simulator_on_a_nested_tile_h_graph():
    """The same contract on a real graph: the expanded factorisation of a
    4x4-tile Laplace matrix (closures that run H-kernels, measured costs —
    at p=1 the order is fixed by the push/pop sequence alone)."""
    from repro.core import TileHConfig, TileHMatrix
    from repro.geometry import cylinder_cloud, make_kernel

    pts = cylinder_cloud(400)
    cfg = TileHConfig(nb=100, eps=1e-4, leaf_size=25, accumulate=False,
                      nested=True, nested_min_leaf=25,
                      exec_mode="threaded", nworkers=1, scheduler="ws")
    _a, info = TileHMatrix.build_factorize(make_kernel("laplace", pts), pts, cfg)
    assert info.nested["expanded_tasks"] > 0
    r = simulate(info.graph, 1, "ws", overheads=ZERO)
    run_order = [e.task_id for e in sorted(info.trace.events, key=lambda e: e.start)]
    assert run_order == [e.task_id for e in r.trace.events]


@pytest.mark.parametrize("policy", SCHEDULER_NAMES)
@pytest.mark.parametrize("nworkers", [2, 3])
def test_multi_worker_threaded_trace_is_linear_extension(policy, nworkers):
    log = []
    g = _random_deferred_graph(11, 40, log)
    ex = ThreadedExecutor(nworkers, scheduler=policy)
    ex.run(g)
    assert sorted(log) == list(range(40))
    assert validate_trace(g, ex.trace) == []


@pytest.mark.parametrize("policy", SCHEDULER_NAMES)
def test_virtual_time_determinism_on_tied_priorities(policy):
    """All tasks share one priority: ties must break on submission order,
    identically across repeated simulations."""
    def graph():
        g = costed_graph(seed=3, n=30)
        for t in g.tasks:
            t.priority = 7
        return g

    runs = [
        [(e.task_id, e.worker, e.start) for e in
         simulate(graph(), 3, policy, overheads=ZERO).trace.events]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


class TestWorkStealingPop:
    def test_idle_caller_steals_despite_empty_own_queue(self):
        """The idle caller's own empty queue must never mask a victim: with
        one task queued on worker 1, pop(0) steals it."""
        g = TaskGraph()
        t = g.new_task("k", seconds=1.0)
        sched = make_scheduler("ws")
        sched.setup(2)
        sched.push(t, 1)
        assert sched.pop(0) is t
        assert sched.pending() == 0

    def test_steals_from_most_loaded_other_worker(self):
        g = TaskGraph()
        ts = [g.new_task("k", seconds=1.0) for _ in range(5)]
        sched = make_scheduler("ws")
        sched.setup(3)
        sched.push(ts[0], 1)
        for t in ts[1:4]:
            sched.push(t, 2)
        # Worker 0 is idle: steals from worker 2 (load 3 > 1), from the tail.
        assert sched.pop(0) is ts[3]

    def test_all_empty_returns_none(self):
        sched = make_scheduler("ws")
        sched.setup(3)
        assert sched.pop(1) is None

    def test_tie_breaks_on_lowest_index(self):
        g = TaskGraph()
        a, b = g.new_task("k"), g.new_task("k")
        sched = make_scheduler("ws")
        sched.setup(4)
        sched.push(a, 1)
        sched.push(b, 3)
        assert sched.pop(0) is a  # workers 1 and 3 tie at load 1


class TestBottomLevels:
    def test_hand_checked_dag(self):
        # chain a(2) -> b(3) -> d(1); a -> c(5) -> d
        g = TaskGraph()
        a = g.new_task("k", seconds=2.0)
        b = g.new_task("k", seconds=3.0)
        c = g.new_task("k", seconds=5.0)
        d = g.new_task("k", seconds=1.0)
        g.add_dependency(a, b)
        g.add_dependency(a, c)
        g.add_dependency(b, d)
        g.add_dependency(c, d)
        levels = g.bottom_levels()
        assert levels[d.id] == 1.0
        assert levels[b.id] == 4.0
        assert levels[c.id] == 6.0
        assert levels[a.id] == 8.0

    def test_max_bottom_level_is_critical_path(self):
        g = costed_graph(seed=5, n=40)
        levels = g.bottom_levels()
        assert max(levels.values()) == pytest.approx(g.critical_path())

    def test_flops_cost_attr(self):
        g = TaskGraph()
        a = g.new_task("k", flops=10.0)
        b = g.new_task("k", flops=4.0)
        g.add_dependency(a, b)
        assert g.bottom_levels("flops") == {a.id: 14.0, b.id: 4.0}


class TestNewKindRendering:
    def test_to_dot_colors_new_kinds(self):
        eng = StfEngine(mode="eager")
        tile = object()
        h = eng.handle(tile, "t")
        eng.insert_task("trsv", lambda: None, [(h, W)])
        eng.insert_task("potrf", lambda: None, [(h, RW)])
        eng.insert_task("trsm-solve", lambda: None, [(h, RW)])
        dot = eng.wait_all().to_dot()
        assert "darkorchid" in dot      # trsv
        assert "indianred" in dot       # potrf
        assert "darkgoldenrod" in dot   # trsm-solve
        assert "trsv" in dot and "potrf" in dot

    def test_gantt_assemble_letter(self):
        from repro.runtime import ExecutionTrace, TraceEvent, render_gantt

        tr = ExecutionTrace(nworkers=1)
        tr.add(TraceEvent(0, "trsv", 0, 0.0, 1.0))
        assert "V" in render_gantt(tr, width=10)
