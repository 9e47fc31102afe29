"""The interpreter lease of ``ThreadedExecutor(interpreter_bound=True)``.

A leased run executes one task closure at a time: workers park on the lease,
not on the GIL, and the interpreter changes hands at task boundaries only.
The lease changes *when* a task runs, never which tasks run or in what
dependency order.
"""

import sys
import time

from repro.core import TileHConfig, TileHMatrix
from repro.core.algorithms import tiled_getrf_tasks
from repro.geometry import cylinder_cloud, make_kernel
from repro.obs import Instrumentation
from repro.runtime import (
    AccessMode,
    NestedPolicy,
    StfEngine,
    ThreadedExecutor,
    validate_trace,
)

RW = AccessMode.RW


def _independent(funcs):
    eng = StfEngine(mode="deferred")
    for f in funcs:
        eng.insert_task("k", f, [(eng.handle(object()), RW)])
    return eng.wait_all()


def _cross_worker_overlaps(trace):
    events = sorted(trace.events, key=lambda e: e.start)
    return [
        (a.task_id, b.task_id)
        for a, b in zip(events, events[1:])
        if a.worker != b.worker and b.start < a.end
    ]


def test_leased_nested_factorisation_never_overlaps_workers():
    n, nb, leaf = 256, 64, 32
    pts = cylinder_cloud(n)
    kern = make_kernel("laplace", pts)
    a = TileHMatrix.build(
        kern, pts, TileHConfig(nb=nb, eps=1e-4, leaf_size=leaf, accumulate=False)
    )
    eng = StfEngine(mode="deferred", nested=NestedPolicy(min_leaf=leaf))
    graph = tiled_getrf_tasks(a.desc, eng, accumulate=False)
    ex = ThreadedExecutor(2, scheduler="lws", interpreter_bound=True)
    ex.run(graph)
    assert len(ex.trace.events) == len(graph) > a.nt**2
    assert validate_trace(graph, ex.trace) == []
    assert _cross_worker_overlaps(ex.trace) == []


def test_task_seconds_exclude_lease_wait():
    g = _independent([lambda: time.sleep(0.02)] * 2)
    wall = ThreadedExecutor(2, interpreter_bound=True).run(g)
    # Serialised by the lease: the second task waits ~0.02 s for it, and
    # none of that wait is charged to the task.
    assert 0.04 <= wall < 0.2
    for t in g.tasks:
        assert 0.02 <= t.seconds < 0.035


def test_lease_wait_and_handoffs_reach_the_probe():
    g = _independent([lambda: time.sleep(0.02)] * 2)
    with Instrumentation(trace_capacity=0) as probe:
        ThreadedExecutor(2, interpreter_bound=True).run(g)
    # Whichever worker did not start first sat out at least one task.
    assert sum(w["wait_seconds"] for w in probe.workers.values()) >= 0.02
    handoffs = probe.registry.counter("executor.lease_handoffs")
    assert handoffs == sum(w["lease_handoffs"] for w in probe.workers.values())
    assert handoffs >= 1  # the run cannot end before both workers held it

    with Instrumentation(trace_capacity=0) as probe:
        ThreadedExecutor(2).run(_independent([lambda: None] * 4))
    assert probe.registry.counter("executor.lease_handoffs") == 0


def test_leased_stress_more_workers_than_cores_loses_no_update():
    """Unsynchronised read-yield-write on shared state: only the lease keeps
    the closures apart, so a single overlap loses an update.

    The first lessee may win every lease race and run the whole graph
    alone; such a run is checked like any other and the stress is repeated,
    a bounded number of times, until a second worker has run tasks."""
    ntasks = 400
    workers = set()
    for _attempt in range(10):
        box = {"v": 0}

        def bump():
            v = box["v"]
            time.sleep(0)  # drop the GIL between the read and the write
            box["v"] = v + 1

        g = _independent([bump] * ntasks)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # also shrinks the lease quantum: many handoffs
        try:
            ex = ThreadedExecutor(4, scheduler="ws", interpreter_bound=True)
            wall = ex.run(g)
        finally:
            sys.setswitchinterval(old)
        assert wall < 30
        assert box["v"] == ntasks
        assert validate_trace(g, ex.trace) == []
        assert _cross_worker_overlaps(ex.trace) == []
        workers = {e.worker for e in ex.trace.events}
        if len(workers) > 1:
            break
    assert len(workers) > 1
