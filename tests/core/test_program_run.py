"""A threaded nested factorisation runs its bound program from the arrays.

Nothing reads the graph before or during such a run, so none is made: the
ready front counts the program's CSR indegrees down, releases its sorted
successor slices and resolves each kernel from its slots at dispatch.  The
graph appears when ``info.graph`` is first read — field by field the graph
:func:`~repro.core.factor_program.instantiate` binds, carrying the seconds the
run measured.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.core import TileHConfig, TileHMatrix, factor_program as fp
from repro.geometry import cylinder_cloud, make_kernel
from repro.runtime import NestedPolicy, Task

N, NB, LEAF = 384, 96, 24


@lru_cache(maxsize=None)
def _problem(n=N):
    pts = cylinder_cloud(n)
    return pts, make_kernel("laplace", pts)


def _cfg(**kw):
    return TileHConfig(nb=NB, eps=1e-4, leaf_size=LEAF, accumulate=False, exec_mode="threaded",
                       nested=True, nested_min_leaf=32, **kw)


@pytest.mark.parametrize("coarse", [False, True], ids=["fine", "coarse"])
@pytest.mark.parametrize("method", ["lu", "cholesky"])
def test_every_successor_slice_is_sorted(method, coarse):
    pts, kern = _problem()
    a = TileHMatrix.build(kern, pts, TileHConfig(nb=NB, leaf_size=LEAF))
    program = fp.record(a.desc, method, NestedPolicy(min_leaf=32, coarse=coarse))
    ptr, suc = program.suc_ptr, program.suc_idx
    assert len(ptr) == len(program) + 1 and ptr[-1] == len(suc) == program.n_edges
    for t in range(len(program)):
        row = suc[ptr[t]:ptr[t + 1]]
        assert np.all(row[1:] > row[:-1]), t


@pytest.mark.parametrize("nworkers", [1, 2])
@pytest.mark.parametrize("method", ["lu", "cholesky"])
def test_graph_read_after_the_run_is_the_bound_graph_with_measured_seconds(method, nworkers):
    pts, kern = _problem()
    a, info = TileHMatrix.build_factorize(kern, pts, _cfg(nworkers=nworkers), method=method)
    assert "graph" not in vars(info)  # not bound by the run
    program = fp.program_for(a.desc, method, NestedPolicy(min_leaf=32))
    ref = fp.instantiate(program, a.desc, a.desc.eps)[0]
    graph = info.graph
    assert info.graph is graph and len(graph) == len(ref) == len(program)
    for t, u in zip(graph.tasks, ref.tasks):
        assert (t.id, t.kind, t.label, t.priority, t.flops) == (u.id, u.kind, u.label, u.priority,
                                                               u.flops)
        assert [(h.name, m) for h, m in t.accesses] == [(h.name, m) for h, m in u.accesses]
        assert all(h.payload is k.payload for (h, _), (k, _) in zip(t.accesses, u.accesses))
        assert t.deps == u.deps and t.successors == u.successors
    events = {e.task_id: e for e in info.trace.events}
    assert sorted(events) == list(range(len(graph)))
    assert [t.seconds for t in graph.tasks] == [events[t.id].duration for t in graph.tasks]
    busy = sum(info.trace.busy_time(w) for w in range(info.trace.nworkers))
    assert graph.total_work("seconds") == pytest.approx(busy, rel=1e-12)
    assert info.n_tasks == info.nested_stats.subtasks == len(program)


def test_an_unobserved_nested_threaded_run_builds_no_task(monkeypatch):
    """The benchmark's ``lu_d_tasks2`` problem: 5 109 subtasks on 2 leased
    workers, not one :class:`Task` until the graph is asked for."""
    pts = cylinder_cloud(2304)
    kern = make_kernel("laplace", pts)
    cfg = TileHConfig(nb=192, eps=1e-4, leaf_size=48, accumulate=False, exec_mode="threaded",
                      nworkers=2, scheduler="lws", nested=True, nested_min_leaf=48)
    a = TileHMatrix.build(kern, pts, cfg)
    fp.program_for(a.desc, "lu", NestedPolicy(min_leaf=48))  # recording makes Tasks
    made = []
    init = Task.__init__

    def counting(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Task, "__init__", counting)
    info = a.factorize()
    assert len(made) == 0
    assert len(info.graph) == 5109
    assert len(made) == 5109
