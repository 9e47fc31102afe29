"""Every factorisation runs its bound program from the arrays — eager on one
worker, threaded on several.

Nothing reads the graph before or during such a run, so none is made: the
ready front counts the program's CSR indegrees down, releases its sorted
successor slices and resolves each kernel from its slots at dispatch.  The
graph appears when ``info.graph`` is first read — field by field the graph
:func:`~repro.core.factor_program.instantiate` binds, carrying the seconds the
run measured.  A race-checked run is the same one-worker program run, its
``execute`` bracketed by the checker.
"""

import copy
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from repro.core import TileHConfig, TileHMatrix, factor_program as fp
from repro.core.algorithms import tiled_getrf_tasks, tiled_potrf_tasks
from repro.geometry import cylinder_cloud, make_kernel
from repro.obs import Instrumentation
from repro.hmatrix import arithmetic
from repro.runtime import NestedPolicy, RaceCheckError, StfEngine, Task

N, NB, LEAF = 384, 96, 24
# Per method the kernels of the announcement test: LU real, then complex.
KERNELS = {"lu": ("laplace", "helmholtz"), "cholesky": ("exponential",)}


@lru_cache(maxsize=None)
def _problem(n=N):
    pts = cylinder_cloud(n)
    return pts, make_kernel("laplace", pts)


def _cfg(**kw):
    kw.setdefault("exec_mode", "threaded")
    kw.setdefault("nested", True)
    kw.setdefault("accumulate", False)
    return TileHConfig(nb=NB, eps=1e-4, leaf_size=LEAF, nested_min_leaf=32, **kw)


def _tile_bytes(a: TileHMatrix) -> list[bytes]:
    out = []
    for tile in a.desc.super.tiles:
        for leaf in tile.mat.leaves():
            arrays = (leaf.full,) if leaf.full is not None else (leaf.rk.u, leaf.rk.v)
            out += [x.tobytes() for x in arrays]
    return out


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
    ref = fp.instantiate(program, a.desc)[0]
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
    """The benchmark's ``lu_d_tasks2`` problem — 5 109 subtasks nested, 650
    tile tasks opaque — on 2 leased workers and eagerly (one worker) makes
    not one :class:`Task` until the graph is asked for, and a probe watching
    the run changes nothing: it is told the tasks from the program."""
    pts = cylinder_cloud(2304)
    kern = make_kernel("laplace", pts)
    cfg = TileHConfig(nb=192, eps=1e-4, leaf_size=48, accumulate=False, exec_mode="threaded",
                      nworkers=2, scheduler="lws", nested=True, nested_min_leaf=48)
    base = TileHMatrix.build(kern, pts, cfg)
    made = []
    init = Task.__init__

    def counting(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Task, "__init__", counting)
    for exec_mode in ("threaded", "eager"):
        for nested, n_tasks in ((True, 5109), (False, 650)):
            cfg = replace(base.config, exec_mode=exec_mode, nested=nested)
            a, probed = (TileHMatrix(copy.deepcopy(base.desc), cfg) for _ in range(2))
            fp.program_for(a.desc, "lu", NestedPolicy(min_leaf=48) if nested else None)
            made.clear()  # recording makes Tasks
            info = a.factorize()
            assert len(made) == 0
            assert info.trace.nworkers == (1 if exec_mode == "eager" else 2)
            assert len(info.graph) == n_tasks
            assert len(made) == n_tasks
            assert (info.nested_stats is None) == (not nested)

            made.clear()
            with Instrumentation(trace_capacity=0) as probe:
                info = probed.factorize()
            assert len(made) == 0
            assert probe.registry.counter("tasks.submitted") == n_tasks
            assert len(info.trace.events) == n_tasks
            assert len(info.graph) == n_tasks
            assert len(made) == n_tasks


def test_a_graph_read_under_a_later_probe_announces_nothing():
    """The probe that watched no run is told of no task: binding the graph
    on first read is not a submission."""
    pts, kern = _problem()
    _a, info = TileHMatrix.build_factorize(kern, pts, _cfg(nworkers=2))
    with Instrumentation(trace_capacity=0) as later:
        assert len(info.graph) > 0
    assert later.registry.counter("tasks.submitted") == 0
    assert not later.kinds


def _probed(fn) -> tuple[dict, dict]:
    with Instrumentation(trace_capacity=0) as probe:
        fn()
    kinds = {k: (v["submitted"], v["flops"], v["operand_bytes"]) for k, v in probe.kinds.items()}
    return kinds, probe.registry.histogram("tasks.operand_max_rank")


@pytest.mark.parametrize("exec_mode", ["eager", "threaded", "process"])
@pytest.mark.parametrize("method", ["lu", "cholesky"])
def test_a_program_run_announces_what_a_fresh_submission_does(exec_mode, method):
    """What a probe is told of a program run, opaque or nested — per kind
    the submissions, flops and operand bytes, and the operand ranks — is what
    a deferred engine announces submitting the same graph afresh.

    An opaque tile kernel announces the dense model's flops, which count a
    complex tile four times: the LU runs a real and then a complex matrix of
    one structure in this process, which must not share an opaque program."""
    pts, _ = _problem()
    tasks_fn = tiled_getrf_tasks if method == "lu" else tiled_potrf_tasks
    for nested in (False, True):
        policy = NestedPolicy(min_leaf=32, coarse=exec_mode == "process") if nested else None
        for kernel in KERNELS[method]:
            cfg = _cfg(exec_mode=exec_mode, nworkers=2, nested=nested)
            a = TileHMatrix.build(make_kernel(kernel, pts), pts, cfg)
            # A deferred submission runs nothing: the tiles stay as assembled.
            fresh = _probed(lambda: tasks_fn(a.desc, StfEngine(mode="deferred", nested=policy),
                                             accumulate=False))
            run = _probed(lambda: a.factorize(method=method))
            assert run == fresh, (kernel, nested)
            assert sum(v[0] for v in run[0].values()) == len(
                fp.program_for(a.desc, method, policy))


PROBLEMS = {"lu-d": ("laplace", "lu"), "lu-z": ("helmholtz", "lu"),
            "cholesky": ("exponential", "cholesky")}


@pytest.mark.parametrize("accumulate", [False, True], ids=["direct", "accumulate"])
@pytest.mark.parametrize("nested", [False, True], ids=["opaque", "nested"])
@pytest.mark.parametrize("problem", PROBLEMS)
def test_a_race_checked_factorisation_is_a_checked_program_run(problem, nested, accumulate):
    """Under ``racecheck`` the eager factorisation is the one-worker program
    run with every task bracketed: each task of the graph checked, none
    flagged, and the factor the unchecked run's, bit for bit."""
    kernel, method = PROBLEMS[problem]
    pts, _ = _problem()
    kern = make_kernel(kernel, pts)
    cfg = _cfg(exec_mode="eager", nested=nested, accumulate=accumulate)
    ref, _ = TileHMatrix.build_factorize(kern, pts, cfg, method=method)
    a, info = TileHMatrix.build_factorize(kern, pts, replace(cfg, racecheck=True), method=method)
    checker = info.racecheck
    assert checker.n_errors == 0
    assert checker.n_checked_tasks == len(info.graph) == len(
        fp.program_for(a.desc, method, NestedPolicy(min_leaf=32) if nested else None))
    assert info.trace.nworkers == 1 and len(info.trace.events) == len(info.graph)
    assert _tile_bytes(a) == _tile_bytes(ref)


def test_an_undeclared_write_in_a_program_run_raises(monkeypatch):
    """A kernel that also writes the triangle it declared read-only is caught
    in the program run, and the matrix keeps the failure."""
    pts, kern = _problem()
    a = TileHMatrix.build(kern, pts, _cfg(exec_mode="eager", nested=False, racecheck=True))
    trsm = arithmetic._KERNELS["trsm_ll"]

    def writes_its_triangle(nodes, *args):
        trsm(nodes, *args)
        leaf = next(nodes[0].leaves())
        (leaf.full if leaf.full is not None else leaf.rk.u)[0, 0] += 1.0

    monkeypatch.setitem(arithmetic._KERNELS, "trsm_ll", writes_its_triangle)
    with pytest.raises(RaceCheckError, match="undeclared-write"):
        a.factorize()
    with pytest.raises(RuntimeError, match="RaceCheckError"):
        a.solve(np.ones(N))
