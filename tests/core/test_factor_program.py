"""Recorded factorisation programs: a bound graph is the fresh graph.

The recorder — ``tiled_getrf_tasks``/``tiled_potrf_tasks`` on a deferred
engine, nested or (``policy=None``) opaque — is the reference.  A
:class:`FactorProgram` bound to a descriptor must equal, field by field, the
graph the recorder would derive on that descriptor, whatever matrix of the
same block structure it was recorded on; executed, it must leave eager's bits.
The key must change with everything an expander reads and with nothing else.
"""

import gc
import threading
import weakref
from functools import lru_cache

import numpy as np
import pytest

from repro.core import TileHConfig, TileHMatrix, factor_program as fp
from repro.core.algorithms import (
    apply_bottom_level_priorities,
    tiled_getrf_tasks,
    tiled_potrf_tasks,
)
from repro.geometry import cylinder_cloud, make_kernel, plate_cloud, streamed_matvec
from repro.hmatrix import HMatrix
from repro.hmatrix.arithmetic import run_kernel
from repro.obs import Instrumentation, build_run_report, render_report, validate_report
from repro.runtime import NestedPolicy, RuntimeOverheadModel, StfEngine, simulate

# nb=96 over leaves of 24: block trees 96 -> 48 -> 24, so min_leaf 32 and 48
# cut at different depths and min_leaf >= nb expands nothing.
N, NB, LEAF = 384, 96, 24
MIN_LEAVES = (32, 48, NB)
# Every nested cut-off at either access granularity, and the opaque graph.
POLICIES = [
    pytest.param(NestedPolicy(min_leaf=m, coarse=c), id=f"{m}-{'coarse' if c else 'fine'}")
    for m in MIN_LEAVES
    for c in (False, True)
] + [pytest.param(None, id="opaque")]
KERNELS = ("laplace", "helmholtz", "sqexp")
TASKS_FN = {"lu": tiled_getrf_tasks, "cholesky": tiled_potrf_tasks}


@pytest.fixture(autouse=True)
def empty_table():
    """Every test starts without recorded programs (and leaves none)."""
    with fp._programs_lock:
        fp._programs.clear()
    yield
    with fp._programs_lock:
        fp._programs.clear()


def _cfg(**kw):
    kw.setdefault("eps", 1e-4)
    return TileHConfig(nb=NB, leaf_size=LEAF, accumulate=False, **kw)


def _nested(**kw):
    kw.setdefault("exec_mode", "threaded")
    kw.setdefault("nested_min_leaf", 32)
    return _cfg(nested=True, **kw)


@lru_cache(maxsize=None)
def _points(n=N):
    return cylinder_cloud(n)


def _kernel(name, **params):
    if name == "sqexp":
        params.setdefault("nugget", 1e-2)
    return make_kernel(name, _points(), **params)


@lru_cache(maxsize=None)
def _assembled(name, eps=1e-4):
    """An assembled, never factorised matrix (graphs below are only built)."""
    return TileHMatrix.build(_kernel(name), _points(), _cfg(eps=eps))


def _fresh(desc, method, policy):
    engine = StfEngine(mode="deferred", nested=policy)
    return TASKS_FN[method](desc, engine, accumulate=False), engine.nested_stats


def _assert_same_graph(program, desc, bound, fresh):
    """``bound`` (``program`` described on ``desc``) is ``fresh`` field by
    field, kernel-less; and each task's kernel as :func:`fp._bind` runs it —
    variant, this descriptor's operands, ε, ``unit``, ``flush`` — is the
    fresh task's closure."""
    (g, stats), (g0, stats0) = bound, fresh
    assert len(g) == len(g0)
    operands = fp.task_operands(program, fp._walk(desc, program.method)[0])
    for t, u in zip(g.tasks, g0.tasks):
        assert (t.id, t.kind, t.label, t.priority) == (u.id, u.kind, u.label, u.priority)
        assert t.flops == u.flops
        assert [(h.name, m) for h, m in t.accesses] == [(h.name, m) for h, m in u.accesses]
        assert all(h.payload is k.payload for (h, _), (k, _) in zip(t.accesses, u.accesses))
        assert t.deps == u.deps and t.successors == u.successors
        assert t.spec == u.spec and t.func is None
        variant0, nodes0, eps0, unit0 = u.func.args
        assert u.func.func is run_kernel
        assert (program.variants[t.id], desc.eps, program.units[t.id],
                program.flushes[t.id]) == (variant0, eps0, unit0, u.func.keywords.get("flush", False))
        nodes = operands[t.id]
        assert len(nodes) == len(nodes0) and all(a is b for a, b in zip(nodes, nodes0))
    if stats0 is None:  # opaque: nothing expanded
        assert stats is None
        return
    assert stats.policy == stats0.policy
    assert stats.records == stats0.records


# -- the equivalence matrix ----------------------------------------------------


@pytest.mark.parametrize("priority_mode", ["static", "bottom-level"])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("method", ["lu", "cholesky"])
def test_bound_graph_equals_fresh(method, kernel, policy, priority_mode):
    desc = _assembled(kernel).desc
    program = fp.program_for(desc, method, policy)
    bound = fp.instantiate(program, desc)
    fresh = _fresh(desc, method, policy)
    if priority_mode == "bottom-level":
        apply_bottom_level_priorities(bound[0], "flops")
        apply_bottom_level_priorities(fresh[0], "flops")
    _assert_same_graph(program, desc, bound, fresh)
    bound[0].validate()
    assert len(program) == len(fresh[0]) and program.n_edges == fresh[0].n_edges()
    if policy is None:  # the opaque graph: one task, with its spec, per tile kernel
        assert all(t.spec is not None for t in bound[0].tasks)
    elif policy.min_leaf >= NB:  # nothing expands: one subtask per tile kernel
        assert all(r.n_subtasks == 1 for r in bound[1].records)


@pytest.mark.parametrize("method", ["lu", "cholesky"])
def test_program_recorded_on_one_matrix_binds_to_another(method):
    """Same points, other numbers (ε, kernel, dtype): one key, and the program
    recorded on the first matrix gives the second exactly its own fresh graph
    — its own nodes in the closures, its own ranks in the flops."""
    policy = NestedPolicy(min_leaf=32)
    first = _assembled("laplace").desc
    program = fp.record(first, method, policy)
    for other in (_assembled("laplace", 1e-6).desc, _assembled("helmholtz").desc,
                  _assembled("sqexp").desc):
        assert fp.structure_key(other, method, policy) == program.key
        _assert_same_graph(program, other, fp.instantiate(program, other),
                           _fresh(other, method, policy))
    ranks_moved = [
        t.flops != u.flops
        for t, u in zip(fp.instantiate(program, first)[0].tasks,
                        fp.instantiate(program, _assembled("laplace", 1e-6).desc)[0].tasks)
    ]
    assert any(ranks_moved)  # the flops really are per set of tiles


def test_program_holds_no_tile():
    """Flat atoms and integer arrays: nothing that refers to a matrix, nothing
    the cyclic collector tracks once it has looked at it."""
    desc = _assembled("laplace").desc
    program = fp.record(desc, "lu", NestedPolicy(min_leaf=32, coarse=True))
    for name in program.__slots__:
        value = getattr(program, name)
        assert isinstance(value, (tuple, np.ndarray, str, int, NestedPolicy, type(None))), name
        if isinstance(value, np.ndarray):
            assert value.dtype.kind == "i"
        elif isinstance(value, tuple) and name not in ("key", "paths"):
            assert all(isinstance(x, (str, bool)) for x in value), name
    gc.collect()
    assert not gc.is_tracked(program.labels) and not gc.is_tracked(program.kinds)


def test_instantiate_rejects_another_structure():
    program = fp.record(_assembled("laplace").desc, "lu", NestedPolicy(min_leaf=32))
    other = TileHMatrix.build(make_kernel("laplace", _points(288)), _points(288), _cfg())
    with pytest.raises(ValueError, match="not the structure"):
        fp.instantiate(program, other.desc)


# -- executed: eager's bits ------------------------------------------------------


@lru_cache(maxsize=None)
def _eager(kernel, method):
    a = TileHMatrix.build(_kernel(kernel), _points(), _cfg())
    a.factorize(method=method)
    rng = np.random.default_rng(7)
    x0 = rng.standard_normal((N, 2))
    b = streamed_matvec(_kernel(kernel), _points(), x0)
    return a.desc.to_dense(), b, a.solve(b)


BITS = [("lu", "laplace"), ("lu", "helmholtz"), ("lu", "sqexp"), ("cholesky", "sqexp")]


def _nested_programs() -> list:
    """The table's nested programs (the eager reference records an opaque one)."""
    return [p for p in fp._programs.values() if p.policy is not None]


@pytest.mark.parametrize("nworkers", [1, 2])
@pytest.mark.parametrize("method,kernel", BITS)
def test_threaded_replay_leaves_eager_bits(method, kernel, nworkers):
    factor, b, x = _eager(kernel, method)
    cfg = _nested(nworkers=nworkers)
    for build in ("miss", "hit"):
        a, info = TileHMatrix.build_factorize(_kernel(kernel), _points(), cfg, method=method)
        assert info.nested["expanded_tasks"] > 0, build
        assert np.array_equal(a.desc.to_dense(), factor), build
        assert np.array_equal(a.solve(b), x), build
    assert len(_nested_programs()) == 1


@pytest.mark.parametrize("method,kernel", [("lu", "laplace"), ("cholesky", "sqexp")])
def test_process_replay_leaves_eager_bits(method, kernel):
    factor, b, x = _eager(kernel, method)
    a = TileHMatrix.build(_kernel(kernel), _points(), _cfg())
    fp.program_for(a.desc, method, NestedPolicy(min_leaf=32, coarse=True))  # so this is a hit
    a.config = _nested(exec_mode="process", nworkers=2)
    info = a.factorize(method=method)
    assert info.nested["coarse"] and len(_nested_programs()) == 1
    assert np.array_equal(a.desc.to_dense(), factor)
    assert np.array_equal(a.solve(b), x)


@pytest.mark.parametrize("min_leaf", [24, 200])
def test_single_tile(min_leaf):
    """nb >= n: one tile, and above the cutoff a one-task graph."""
    pts = cylinder_cloud(96)
    kern = make_kernel("laplace", pts)
    eager = TileHConfig(nb=128, leaf_size=LEAF, accumulate=False)
    ref = TileHMatrix.build(kern, pts, eager)
    ref.factorize()
    cfg = TileHConfig(nb=128, leaf_size=LEAF, accumulate=False, exec_mode="threaded",
                      nworkers=2, nested=True, nested_min_leaf=min_leaf)
    for _build in ("miss", "hit"):
        a, info = TileHMatrix.build_factorize(kern, pts, cfg)
        assert a.nt == 1 and (len(info.graph) == 1) == (min_leaf == 200)
        assert np.array_equal(a.desc.to_dense(), ref.desc.to_dense())


def test_one_worker_replay_follows_the_simulator():
    cfg = _nested(nworkers=1, scheduler="lws")
    for _build in ("miss", "hit"):
        _a, info = TileHMatrix.build_factorize(_kernel("laplace"), _points(), cfg)
    ran = [e.task_id for e in sorted(info.trace.events, key=lambda e: e.start)]
    sim = simulate(info.graph, 1, "lws", overheads=RuntimeOverheadModel.zero())
    assert ran == [e.task_id for e in sim.trace.events]


def test_two_threads_meeting_a_new_structure():
    _factor, b, x = _eager("laplace", "lu")
    out = [None, None]

    def build(i):
        a, _info = TileHMatrix.build_factorize(_kernel("laplace"), _points(), _nested(nworkers=1))
        out[i] = a.solve(b)

    threads = [threading.Thread(target=build, args=(i,)) for i in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert np.array_equal(out[0], x) and np.array_equal(out[1], x)
    assert len(_nested_programs()) == 1


# -- what the probe sees -----------------------------------------------------------


def test_probe_sees_a_hit_like_a_miss():
    seen = []
    for _build in ("miss", "hit"):
        with Instrumentation(trace_capacity=0) as probe:
            _a, info = TileHMatrix.build_factorize(_kernel("laplace"), _points(), _nested(nworkers=1))
        reg = probe.registry
        seen.append(
            {k: (v["submitted"], v["flops"], v["operand_bytes"]) for k, v in probe.kinds.items()}
        )
        lookups = (reg.counter("nested.program.hits"), reg.counter("nested.program.misses"))
        assert lookups == ((0, 1) if _build == "miss" else (1, 0))
    assert seen[0] == seen[1]
    submitted = sum(v[0] for v in seen[0].values())
    assert submitted == len(info.graph)  # the recorder announced nothing
    report = build_run_report(probe=probe, trace=info.trace, graph=info.graph, nested=info.nested)
    assert validate_report(report) == []
    assert (report["nested"]["program_hits"], report["nested"]["program_misses"]) == (1, 0)
    assert "graph replayed in 1 of 1 builds" in render_report(report)


def test_direct_callers_record_nothing_and_eager_records_once():
    """A caller of ``tiled_*_tasks`` submits to its own engine and records
    nothing; an eager factorisation is a one-worker program run and records."""
    with Instrumentation(trace_capacity=0) as probe:
        _fresh(_assembled("laplace").desc, "lu", NestedPolicy(min_leaf=32))
    assert len(fp._programs) == 0
    assert probe.registry.counter("nested.program.misses") == 0
    with Instrumentation(trace_capacity=0) as probe:
        a = TileHMatrix.build(_kernel("laplace"), _points(), _cfg(nested=True, nested_min_leaf=32))
        a.factorize()
    assert len(fp._programs) == 1
    assert probe.registry.counter("nested.program.misses") == 1


# -- the key ---------------------------------------------------------------------------


def _key(desc, method="lu", **policy):
    policy.setdefault("min_leaf", 32)
    return fp.structure_key(desc, method, NestedPolicy(**policy))


def _copy(desc):
    import copy

    return copy.deepcopy(desc)


def test_key_ignores_numbers():
    base = _key(_assembled("laplace").desc)
    assert _key(_assembled("laplace", 1e-6).desc) == base  # ε
    assert _key(_assembled("helmholtz").desc) == base  # dtype, ranks
    for length in (0.3, 1.0):  # kernel parameters
        a = TileHMatrix.build(_kernel("sqexp", length=length), _points(), _cfg())
        assert _key(a.desc) == base
    hash(base)


def test_key_holds_method_and_policy():
    desc = _assembled("laplace").desc
    keys = {
        _key(desc), _key(desc, "cholesky"), _key(desc, min_leaf=48), _key(desc, coarse=True),
    }
    assert len(keys) == 4


def _first(desc, pred):
    """``(parent, i, j, node)`` of the first block-tree node satisfying ``pred``."""
    for tile in desc.super.tiles:
        stack = [tile.mat]
        while stack:
            node = stack.pop()
            for idx, child in enumerate(node.children):
                if pred(child):
                    return node, idx // node.ncol_children, idx % node.ncol_children, child
                stack.append(child)
    raise AssertionError("no such node")


def test_key_changes_with_a_leaf_kind():
    desc = _copy(_assembled("laplace").desc)
    base = _key(desc)
    parent, i, j, leaf = _first(desc, lambda h: h.rk is not None)
    parent.set_child(i, j, HMatrix(leaf.rows, leaf.cols, full=leaf.to_dense()))
    assert _key(desc) != base


def test_key_changes_with_a_child_grid():
    desc = _copy(_assembled("laplace").desc)
    base = _key(desc)
    parent, i, j, node = _first(desc, lambda h: h.children)
    node.nrow_children, node.ncol_children = 1, len(node.children)
    assert _key(desc) != base
    # ... and with a subdivision that is there or not.
    desc = _copy(_assembled("laplace").desc)
    parent, i, j, node = _first(desc, lambda h: h.children)
    parent.set_child(i, j, HMatrix(node.rows, node.cols, full=node.to_dense()))
    assert _key(desc) != base
    finer = TileHMatrix.build(_kernel("laplace"), _points(), TileHConfig(nb=NB, leaf_size=12))
    assert _key(finer.desc) != base


@pytest.mark.parametrize("n,nb,threshold", [
    (2 * 48, 48, 48), (2 * 49, 49, 48),  # a tile at / just above min_leaf=48
    (2 * 256, 256, 256), (2 * 257, 257, 256),  # a diagonal at / just above _PACK_TRI_MAX
])
def test_key_changes_with_a_shape_across_a_threshold(n, nb, threshold):
    from repro.hmatrix.arithmetic import _PACK_TRI_MAX

    assert _PACK_TRI_MAX == 256
    pts = cylinder_cloud(n)
    a = TileHMatrix.build(make_kernel("laplace", pts), pts, TileHConfig(nb=nb, leaf_size=LEAF))
    assert a.desc.super.tile_rows(0) == nb
    policy = NestedPolicy(min_leaf=48)
    key = fp.structure_key(a.desc, "lu", policy)
    pts2 = cylinder_cloud(2 * threshold)
    b = TileHMatrix.build(make_kernel("laplace", pts2), pts2,
                          TileHConfig(nb=threshold, leaf_size=LEAF))
    assert (key == fp.structure_key(b.desc, "lu", policy)) == (nb == threshold)
    # Whatever side of the threshold, the bound graph is that side's fresh graph.
    program = fp.program_for(a.desc, "lu", policy)
    _assert_same_graph(program, a.desc, fp.instantiate(program, a.desc),
                       _fresh(a.desc, "lu", policy))


def test_equal_nt_other_trees_miss():
    cyl = _assembled("laplace")
    pts = plate_cloud(N)
    plate = TileHMatrix.build(make_kernel("laplace", pts), pts, _cfg())
    assert plate.nt == cyl.nt
    assert _key(plate.desc) != _key(cyl.desc)
    with Instrumentation(trace_capacity=0) as probe:
        for mat in (cyl, plate):
            fp.program_for(mat.desc, "lu", NestedPolicy(min_leaf=32))
    assert probe.registry.counter("nested.program.misses") == 2
    assert len(fp._programs) == 2


def test_ninth_structure_evicts_the_least_recently_used():
    desc = _assembled("laplace").desc
    programs = [fp.program_for(desc, "lu", NestedPolicy(min_leaf=m)) for m in range(1, 9)]
    assert len(fp._programs) == fp.MAX_PROGRAMS == 8
    assert fp.program_for(desc, "lu", NestedPolicy(min_leaf=1)) is programs[0]  # 2 is now oldest
    fp.program_for(desc, "lu", NestedPolicy(min_leaf=9))
    assert len(fp._programs) == 8
    kept = {key[2] for key in fp._programs}
    assert kept == {1, 3, 4, 5, 6, 7, 8, 9}


# -- acyclic by construction ----------------------------------------------------------


@pytest.mark.parametrize("build", ["miss", "hit"])
def test_dropped_factorisation_dies_by_reference_count(build):
    """Handles link child -> parent only and the recorder's own graph is
    unlinked before it is dropped: with the collector off, the tasks of a
    nested threaded ``build_factorize`` and its tile payloads go when matrix
    and info do — on a first build (record, bind) as on a replay."""
    if build == "hit":
        TileHMatrix.build_factorize(_kernel("laplace"), _points(), _nested(nworkers=2))
    gc.collect()
    gc.disable()
    try:
        a, info = TileHMatrix.build_factorize(_kernel("laplace"), _points(), _nested(nworkers=2))
        assert info.nested_stats.subtasks == len(info.graph) > a.nt ** 2
        refs = [weakref.ref(t) for t in info.graph.tasks]
        refs.append(weakref.ref(a.desc.super.get_blktile(0, 0)))
        refs.append(weakref.ref(next(iter(a.desc.super.get_blktile(1, 1).mat.leaves())).full))
        del a, info
        assert [r for r in refs if r() is not None] == []
    finally:
        gc.enable()
