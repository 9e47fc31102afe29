"""Shared graph generators of the pull-order tests (threaded, process, core)."""

import numpy as np
from hypothesis import strategies as st

from repro.runtime import TaskGraph, TaskSpec

#: Hypothesis draws ``(seed, n)``; the DAG itself comes from numpy's RNG so
#: two calls with one draw build the same structure twice (one graph per run).
seeds = st.integers(min_value=0, max_value=2**31 - 1)
sizes = st.integers(min_value=1, max_value=30)

_NOOP = TaskSpec("repro.runtime.process:_noop_for_tests")


def _noop():
    pass


def costed_graph(seed, n=24):
    """Random DAG of no-op tasks — a closure and a process spec each — with
    costs for the simulator (a real run measures its own).  At one worker
    the pull order depends on the priorities and the graph alone, so it is
    the same threaded, in processes or simulated.
    """
    rng = np.random.default_rng(seed)
    g = TaskGraph()
    ts = [
        g.new_task("k", seconds=float(rng.uniform(0.01, 1.0)),
                   priority=int(rng.integers(0, 5)), func=_noop, spec=_NOOP)
        for _ in range(n)
    ]
    for i in range(1, n):
        k = int(rng.integers(0, min(3, i) + 1))
        for d in rng.choice(i, size=k, replace=False):
            g.add_dependency(ts[int(d)], ts[i])
    return g

