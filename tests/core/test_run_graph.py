"""A factorisation's ``info.graph`` is the graph its run executed, whatever
the executor.

Every executor runs the one recorded program — eager on one worker,
threaded on two, race-checked on one with :meth:`RaceChecker.watch
<repro.runtime.RaceChecker.watch>` bracketing its ``execute``, process on two
worker processes from the specs :func:`~repro.core.factor_program.instantiate`
describes — and ``info.graph`` is bound one way for all of them: on first
read, after the run, so a subtask's flops count the factor's ranks.  With the
accumulator off every executor leaves the same factor, so task for task the
graphs agree in kind, label, priority and flops, and in their edges: a nested
process run executes the coarse program (tile-granular accesses, what the
shared-memory data plane ships), whose edges are that program's.
"""

import copy
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from repro.core import TileHConfig, TileHMatrix, factor_program as fp
from repro.geometry import cylinder_cloud, make_kernel
from repro.hmatrix import arithmetic
from repro.runtime import AccessMode, NestedPolicy, RaceChecker, RaceCheckError, StfEngine

from .test_cholesky_lower import _on_recording_platform

N, NB, LEAF, MIN_LEAF = 384, 96, 24, 32
PROBLEMS = {"lu-d": ("laplace", "lu"), "lu-z": ("helmholtz", "lu"),
            "cholesky": ("exponential", "cholesky")}
EXECUTORS = {
    "eager": {},
    "threaded": {"exec_mode": "threaded", "nworkers": 2},
    "racecheck": {"racecheck": True},
    "process": {"exec_mode": "process", "nworkers": 2},
}


@lru_cache(maxsize=None)
def _assembled(problem: str, nested: bool) -> TileHMatrix:
    kernel, _ = PROBLEMS[problem]
    pts = cylinder_cloud(N)
    cfg = TileHConfig(nb=NB, eps=1e-4, leaf_size=LEAF, accumulate=False, nested=nested,
                      nested_min_leaf=MIN_LEAF)
    return TileHMatrix.build(make_kernel(kernel, pts), pts, cfg)


def _rows(graph) -> list[tuple]:
    return [(t.kind, t.label, t.priority, t.flops) for t in graph.tasks]


def _deps(graph) -> list[list[int]]:
    return [sorted(t.deps) for t in graph.tasks]


@pytest.mark.parametrize("nested", [False, True], ids=["opaque", "nested"])
@pytest.mark.parametrize("problem", PROBLEMS)
def test_every_executor_reports_the_graph_it_ran(problem, nested):
    _, method = PROBLEMS[problem]
    base = _assembled(problem, nested)
    infos, mats = {}, {}
    for name, kw in EXECUTORS.items():
        a = TileHMatrix(copy.deepcopy(base.desc), replace(base.config, **kw))
        infos[name], mats[name] = a.factorize(method=method), a
        assert "graph" not in vars(infos[name]), name  # nothing bound before the first read
    eager = infos["eager"].graph
    for name, info in infos.items():
        graph = info.graph
        assert _rows(graph) == _rows(eager), name
        if name == "process" and nested:
            coarse = fp.program_for(mats[name].desc, method,
                                    NestedPolicy(min_leaf=MIN_LEAF, coarse=True))
            assert _deps(graph) == _deps(fp.instantiate(coarse, mats[name].desc)[0])
        else:
            assert _deps(graph) == _deps(eager), name
        events = {e.task_id: e.duration for e in info.trace.events}
        assert [t.seconds for t in graph.tasks] == [events[t.id] for t in graph.tasks], name
    assert infos["racecheck"].racecheck.n_checked_tasks == len(eager)


def test_the_accumulated_nested_lu_counts_the_factors_ranks():
    """The n=600 nested LU d cell with the accumulator on: eager, threaded
    and race-checked runs report one graph, whose flops (the factor's ranks)
    are pinned on the recording platform."""
    pts = cylinder_cloud(600)
    cfg = TileHConfig(nb=150, eps=1e-4, leaf_size=32, nested=True, nested_min_leaf=32)
    base = TileHMatrix.build(make_kernel("laplace", pts), pts, cfg)
    graphs = []
    for name in ("eager", "threaded", "racecheck"):
        a = TileHMatrix(copy.deepcopy(base.desc), replace(cfg, **EXECUTORS[name]))
        graphs.append(a.factorize().graph)
    assert all(_rows(g) == _rows(graphs[0]) and _deps(g) == _deps(graphs[0]) for g in graphs)
    _on_recording_platform()
    assert graphs[0].total_work("flops") == 34_703_728


@pytest.fixture
def watches(monkeypatch):
    """Every :meth:`RaceChecker.watch` call of the test."""
    calls = []
    watch = RaceChecker.watch

    def spy(self, low, tasks):
        calls.append(len(tasks))
        watch(self, low, tasks)

    monkeypatch.setattr(RaceChecker, "watch", spy)
    return calls


def test_an_undeclared_write_in_an_engine_section_raises_through_watch(watches):
    eng = StfEngine(racecheck=True)
    x, y = np.zeros(4), np.zeros(4)
    hx, hy = eng.handle(x, "x"), eng.handle(y, "y")

    def writes_what_it_reads():
        y[:] = x + 1.0
        x[0] = 1.0

    eng.insert_task("axpy", writes_what_it_reads, [(hx, AccessMode.R), (hy, AccessMode.W)])
    with pytest.raises(RaceCheckError, match="undeclared-write"):
        eng.wait_all()
    assert watches == [1]


def test_an_undeclared_write_in_a_program_run_raises_through_watch(watches, monkeypatch):
    a = TileHMatrix(copy.deepcopy(_assembled("lu-d", True).desc),
                    replace(_assembled("lu-d", True).config, racecheck=True))
    trsm = arithmetic._KERNELS["trsm_ll"]

    def writes_its_triangle(nodes, *args):
        trsm(nodes, *args)
        leaf = next(nodes[0].leaves())
        (leaf.full if leaf.full is not None else leaf.rk.u)[0, 0] += 1.0

    monkeypatch.setitem(arithmetic._KERNELS, "trsm_ll", writes_its_triangle)
    with pytest.raises(RaceCheckError, match="undeclared-write"):
        a.factorize()
    program = fp.program_for(a.desc, "lu", NestedPolicy(min_leaf=MIN_LEAF))
    assert watches == [len(program)]
