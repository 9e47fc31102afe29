"""The generic expander against the hand-written ones: same graphs, same bits.

``tests/core/reference_nested.py`` is what the library ran before the
ℌ-kernels' recursion became one rule table: seven expanders, two flop
estimators, seven factories and the tile-level loop nests, verbatim.  Built on
the same assembled tiles, the graph ``tiled_getrf_tasks``/``tiled_potrf_tasks``
derive from the rules must equal the reference's field by field — in every
cell of {real LU, complex LU, Cholesky} x ``min_leaf`` x {fine, coarse} x
{static, bottom-level priorities} — and, run, must leave eager's bits.  The
reference's Cholesky updated a diagonal block by a full ``gemm_tb``; the
rules' lower-only ``syrk`` writes nothing above the diagonal, so a Cholesky
graph is held to the reference's less those subtasks (:func:`lower_only`).
"""

from bisect import bisect_left
from dataclasses import replace
from functools import lru_cache, partial
from types import SimpleNamespace

import numpy as np
import pytest

from repro.baselines import DenseTiledCholesky, DenseTiledLU
from repro.core import TileHConfig, TileHMatrix
from repro.core.algorithms import (
    apply_bottom_level_priorities,
    tiled_getrf_tasks,
    tiled_potrf_tasks,
)
from repro.geometry import assemble_dense, cylinder_cloud, make_kernel
from repro.runtime import NestedPolicy, StfEngine, TaskGraph

from . import reference_nested as ref

# nb=96 over leaves of 24: block trees 96 -> 48 -> 24, so min_leaf 32 and 48
# cut at different depths, 128 (>= nb) and 10**9 ("never") expand nothing.
N, NB, LEAF = 384, 96, 24
MIN_LEAVES = (32, 48, 128, 10**9)
PROBLEMS = {  # name -> (kernel, method)
    "laplace-lu": ("laplace", "lu"),
    "helmholtz-lu": ("helmholtz", "lu"),
    "sqexp-chol": ("sqexp", "cholesky"),
}
NEW = {"lu": tiled_getrf_tasks, "cholesky": tiled_potrf_tasks}
OLD = {"lu": ref.tiled_getrf_tasks, "cholesky": ref.tiled_potrf_tasks}


@lru_cache(maxsize=None)
def _points(n=N):
    return cylinder_cloud(n)


def _kernel(name, n=N):
    params = {"nugget": 1e-2} if name == "sqexp" else {}
    return make_kernel(name, _points(n), **params)


def _cfg(nb=NB, leaf=LEAF, **kw):
    return TileHConfig(nb=nb, eps=1e-4, leaf_size=leaf, accumulate=False, **kw)


@lru_cache(maxsize=None)
def _assembled(kernel, n=N, nb=NB, leaf=LEAF):
    """An assembled, never factorised matrix (graphs below are only built)."""
    return TileHMatrix.build(_kernel(kernel, n), _points(n), _cfg(nb, leaf))


def assert_same_graph(new, old, nested=True):
    """``new``/``old``: ``(graph, engine)`` of a deferred run on the same tiles."""
    (g, eng), (g0, eng0) = new, old
    assert len(g) == len(g0)
    for t, u in zip(g.tasks, g0.tasks):
        assert (t.id, t.kind, t.label, t.priority) == (u.id, u.kind, u.label, u.priority)
        assert t.flops == u.flops  # exactly: the estimators sum in the same order
        assert [(h.name, m) for h, m in t.accesses] == [(h.name, m) for h, m in u.accesses]
        assert all(h.payload is k.payload for (h, _), (k, _) in zip(t.accesses, u.accesses))
        assert t.deps == u.deps and t.successors == u.successors
        if not nested:
            continue  # a tile-level closure is a lambda; its process op was renamed
        variant, nodes, eps, unit = t.func.args
        variant0, nodes0, eps0, unit0 = u.func.args
        assert (variant, eps, unit) == (variant0, eps0, unit0)
        assert len(nodes) == len(nodes0) and all(a is b for a, b in zip(nodes, nodes0))
        assert t.spec == u.spec  # op, paths, eps, unit (None on fine graphs)
    if nested:
        assert eng.nested_stats.policy == eng0.nested_stats.policy
        assert eng.nested_stats.records == eng0.nested_stats.records


def _written(task):
    """The node a reference Cholesky ``gemm_tb`` subtask writes (else ``None``)."""
    args = getattr(task.func, "args", ())
    return args[1][0] if args and args[0] == "gemm_tb" else None


def _leaf_edges(tasks) -> list:
    """STF's dependencies of ``tasks`` (submission order) on the leaves under
    their accesses: a task's modes merge per leaf, a write winning; then every
    access waits for the leaf's last writer, a write also for its readers
    since."""
    last, readers, out = {}, {}, []
    for t in tasks:
        writes = {}
        for h, m in t.accesses:
            for leaf in getattr(h.payload, "mat", h.payload).leaves():
                writes[id(leaf)] = writes.get(id(leaf), False) or m.writes
        deps = set()
        for leaf, write in writes.items():
            if leaf in last:
                deps.add(last[leaf])
            if write:
                deps |= readers.pop(leaf, set())
                last[leaf] = t.id
            else:
                readers.setdefault(leaf, set()).add(t.id)
        out.append(deps)
    return out


def lower_only(old, priority_mode):
    """The reference Cholesky graph ``old`` as the lower-only SYRK derives it.

    Subtasks writing a block strictly above a diagonal (rows before columns)
    are gone; a ``gemm_tb`` on a diagonal block is ``syrk`` on ``(c, a)``, one
    access to ``a`` instead of two; ids, edges and expansion records are
    renumbered, and bottom-level priorities taken on what is left.  A gone
    subtask leaves a gap in the chain of every leaf it wrote, which the
    chain closes over, so the edges are inferred again — by a replica of
    STF's rule that must first give the reference its own edges.
    """
    g0, eng0 = old
    keep = {}
    for u in g0.tasks:
        c = _written(u)
        if c is None or c.rows.stop > c.cols.start:
            keep[u.id] = len(keep)
    graph = TaskGraph()
    for u in g0.tasks:
        if u.id not in keep:
            continue
        t = replace(u, id=keep[u.id], deps=set(), successors=set())
        c = _written(u)
        if (c is not None and c.rows is c.cols) or u.label.startswith("syrk("):
            first = {}
            for h, m in u.accesses:
                first.setdefault(h.id, (h, m))
            t.accesses = list(first.values())
        if c is not None and c.rows is c.cols:
            variant, nodes, eps, unit = u.func.args
            t.func = partial(u.func.func, "syrk", nodes[:2], eps, unit)
            t.label = u.label.replace("/gemm_tb@", "/syrk@")
            if u.spec is not None:
                _, paths, eps = u.spec.args
                t.spec = replace(u.spec, args=("syrk", paths[:2], eps))
        graph.tasks.append(t)
    assert _leaf_edges(g0.tasks) == [u.deps for u in g0.tasks]
    for t, deps in zip(graph.tasks, _leaf_edges(graph.tasks)):
        t.deps = deps
        for d in deps:
            graph.tasks[d].successors.add(t.id)
    if priority_mode == "bottom-level":
        apply_bottom_level_priorities(graph, "flops")
    stats = eng0.nested_stats
    if stats is not None:
        kept = sorted(keep)
        at = partial(bisect_left, kept)  # kept ids below i: i's new id
        stats = replace(stats, records=[
            replace(r, start=at(r.start), stop=at(r.stop)) for r in stats.records
        ])
    return graph, SimpleNamespace(nested_stats=stats)


def graphs(desc, method, policy, priority_mode="static"):
    """The rules' graph and the reference's, both deferred on ``desc`` (the
    reference's Cholesky through :func:`lower_only`)."""
    out = []
    for tasks_fn in (NEW[method], OLD[method]):
        engine = StfEngine(mode="deferred", nested=policy)
        graph = tasks_fn(desc, engine, accumulate=False)
        if priority_mode == "bottom-level":
            apply_bottom_level_priorities(graph, "flops")
        out.append((graph, engine))
    if method == "cholesky":
        out[1] = lower_only(out[1], priority_mode)
    return out


@pytest.mark.parametrize("priority_mode", ["static", "bottom-level"])
@pytest.mark.parametrize("coarse", [False, True], ids=["fine", "coarse"])
@pytest.mark.parametrize("min_leaf", MIN_LEAVES)
@pytest.mark.parametrize("problem", PROBLEMS)
def test_generic_expander_equals_reference(problem, min_leaf, coarse, priority_mode):
    kernel, method = PROBLEMS[problem]
    desc = _assembled(kernel).desc
    policy = NestedPolicy(min_leaf=min_leaf, coarse=coarse)
    new, old = graphs(desc, method, policy, priority_mode)
    assert_same_graph(new, old)
    new[0].validate()
    if min_leaf >= NB:  # nothing expands: one subtask per tile kernel
        assert all(r.n_subtasks == 1 for r in new[1].nested_stats.records)
    else:
        assert len(new[0]) > len(new[1].nested_stats.records)


@pytest.mark.parametrize("problem", PROBLEMS)
def test_mixed_depth_tiles_expand_alike(problem):
    """A tile size that is no multiple of the leaf size: ragged last tiles,
    block trees of different depths under one kernel."""
    kernel, method = PROBLEMS[problem]
    desc = _assembled(kernel, 300, 110, 20).desc
    for coarse in (False, True):
        new, old = graphs(desc, method, NestedPolicy(min_leaf=24, coarse=coarse))
        assert_same_graph(new, old)
        assert len(new[0]) > len(new[1].nested_stats.records)


@pytest.mark.parametrize("problem", PROBLEMS)
def test_tile_level_graph_equals_reference(problem):
    """No nested policy: the tile-level tasks alone — CHAMELEON's labels and
    priorities, dense flops, access order (GEMM: a, b, then c; SYRK: a, c)."""
    kernel, method = PROBLEMS[problem]
    desc = _assembled(kernel).desc
    new, old = graphs(desc, method, None)
    assert_same_graph(new, old, nested=False)
    gemm = next(t for t in new[0].tasks if t.label.startswith("gemm("))
    assert [m.name for _, m in gemm.accesses] == ["R", "R", "RW"]
    if method == "cholesky":
        syrk = next(t for t in new[0].tasks if t.label.startswith("syrk("))
        assert [(h.name, m.name) for h, m in syrk.accesses] == [("A[1,0]", "R"), ("A[1,1]", "RW")]


@pytest.mark.parametrize("cls,method", [(DenseTiledLU, "lu"), (DenseTiledCholesky, "cholesky")])
def test_dense_baseline_reads_the_same_steps(cls, method):
    """Same labels, priorities, flops, access names and edges as the Tile-H
    tile-level graph of the same (n, nb): format comparisons see one graph."""
    kernel = "laplace" if method == "lu" else "sqexp"
    desc = _assembled(kernel).desc
    tile_h = graphs(desc, method, None)[0][0]
    dense = cls(assemble_dense(_kernel(kernel), _points()), NB)
    graph = dense.factorize(StfEngine(mode="deferred")).graph
    assert len(graph) == len(tile_h)
    for t, u in zip(graph.tasks, tile_h.tasks):
        assert (t.kind, t.label, t.priority, t.flops) == (u.kind, u.label, u.priority, u.flops)
        assert [(h.name, m) for h, m in t.accesses] == [(h.name, m) for h, m in u.accesses]
        assert t.deps == u.deps and t.successors == u.successors


def _leaf_bits(a):
    out = []
    for tile in a.desc.super.tiles:
        for leaf in tile.mat.leaves():
            out.append(leaf.full if leaf.full is not None else (leaf.rk.u, leaf.rk.v))
    return out


def _same_bits(x, y):
    return len(x) == len(y) and all(
        np.array_equal(p, q) if isinstance(p, np.ndarray)
        else np.array_equal(p[0], q[0]) and np.array_equal(p[1], q[1])
        for p, q in zip(x, y)
    )


@lru_cache(maxsize=None)
def _eager_factor(problem):
    kernel, method = PROBLEMS[problem]
    a = TileHMatrix.build(_kernel(kernel), _points(), _cfg())
    a.factorize(method=method)
    return a


@pytest.mark.parametrize("nworkers", [1, 2])
@pytest.mark.parametrize("problem", PROBLEMS)
def test_nested_threaded_factor_bits_equal_eager(problem, nworkers):
    kernel, method = PROBLEMS[problem]
    cfg = _cfg(nested=True, nested_min_leaf=32, exec_mode="threaded",
               nworkers=nworkers, scheduler="lws")
    a, info = TileHMatrix.build_factorize(_kernel(kernel), _points(), cfg, method=method)
    assert info.nested["expanded_tasks"] > 0
    assert _same_bits(_leaf_bits(a), _leaf_bits(_eager_factor(problem)))
