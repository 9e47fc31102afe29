"""A recording STF engine gives the inline engine's graphs and bits.

An eager :class:`~repro.runtime.StfEngine` records its section and runs it on
one leased executor worker at ``wait_all``; the engine it replaced ran each
kernel inside ``insert_task`` (kept verbatim in ``reference_stf.py``).  Every
writer of a handle is ordered by the inferred DAG, so both run each handle's
kernels in submission order, and every direct caller of the engine must get
the same task graph — kind, label, priority and dependencies per task — and
the same factor and solve bits from either.  The cells are every such caller:
the tiled factorisations (LU d/z, Cholesky) opaque and nested, with the
rounding accumulator on and off, their task-parallel solves, the dense tiled
baselines and the global H-LU baseline under its race checker.
"""

import itertools
from functools import lru_cache

import numpy as np
import pytest

from repro.baselines import DenseTiledCholesky, DenseTiledLU, HMatSolver
from repro.core import (
    TileHConfig,
    TileHMatrix,
    tiled_chol_solve,
    tiled_chol_solve_tasks,
    tiled_getrf_tasks,
    tiled_potrf_tasks,
    tiled_solve,
    tiled_solve_tasks,
)
from repro.geometry import assemble_dense, cylinder_cloud, make_kernel
from repro.runtime import NestedPolicy, StfEngine

from .reference_stf import ReferenceStfEngine

# nb=128 over leaves of 16: min_leaf 32 expands two levels deep.
N, NB, LEAF, MIN_LEAF = 384, 128, 16, 32
PROBLEMS = {"lu-d": ("laplace", tiled_getrf_tasks, tiled_solve, tiled_solve_tasks),
            "lu-z": ("helmholtz", tiled_getrf_tasks, tiled_solve, tiled_solve_tasks),
            "cholesky": ("exponential", tiled_potrf_tasks, tiled_chol_solve,
                         tiled_chol_solve_tasks)}
CELLS = list(itertools.product(PROBLEMS, ("opaque", "nested"), (False, True)))
IDS = [f"{p}-{shape}" + ("-accumulate" if acc else "") for p, shape, acc in CELLS]


@lru_cache(maxsize=None)
def _problem(kernel):
    pts = cylinder_cloud(N)
    rng = np.random.default_rng(0)
    b = rng.standard_normal((N, 3))
    if kernel == "helmholtz":
        b = b + 1j * rng.standard_normal((N, 3))
    return pts, make_kernel(kernel, pts), b


def _desc(kernel):
    pts, kern, _ = _problem(kernel)
    return TileHMatrix.build(kern, pts, TileHConfig(nb=NB, eps=1e-6, leaf_size=LEAF)).desc


def _tile_bytes(desc) -> list[bytes]:
    out = []
    for tile in desc.super.tiles:
        for leaf in tile.mat.leaves():
            assert leaf.pending is None
            arrays = (leaf.full,) if leaf.full is not None else (leaf.rk.u, leaf.rk.v)
            out += [x.tobytes() for x in arrays]
    return out


def _fields(graph) -> list[tuple]:
    return [(t.kind, t.label, t.priority, t.deps) for t in graph.tasks]


def _same_bits(x, y) -> None:
    assert x.dtype == y.dtype and x.shape == y.shape
    assert x.tobytes() == y.tobytes()


@lru_cache(maxsize=None)
def _factored(problem, shape, accumulate, engine_cls):
    kernel, factor, _solve, _tasks = PROBLEMS[problem]
    desc = _desc(kernel)
    eng = engine_cls(nested=NestedPolicy(min_leaf=MIN_LEAF) if shape == "nested" else None)
    graph = factor(desc, eng, accumulate=accumulate)
    return desc, graph, eng


@pytest.mark.parametrize("problem,shape,accumulate", CELLS, ids=IDS)
def test_factorisation_matches_the_inline_engine(problem, shape, accumulate):
    ref_desc, ref_graph, ref_eng = _factored(problem, shape, accumulate, ReferenceStfEngine)
    desc, graph, eng = _factored(problem, shape, accumulate, StfEngine)
    assert _fields(graph) == _fields(ref_graph)
    assert all(t.func is None and t.seconds > 0 for t in graph.tasks)
    if shape == "nested":
        assert eng.nested_stats.records == ref_eng.nested_stats.records
    assert _tile_bytes(desc) == _tile_bytes(ref_desc)
    b = _problem(PROBLEMS[problem][0])[2]
    solve = PROBLEMS[problem][2]
    _same_bits(solve(desc, b), solve(ref_desc, b))


@pytest.mark.parametrize("racecheck", [False, True], ids=["plain", "racecheck"])
@pytest.mark.parametrize("problem", ["lu-d", "cholesky"])
def test_task_solve_matches_the_inline_engine(problem, racecheck):
    desc = _factored(problem, "opaque", True, StfEngine)[0]
    b = _problem(PROBLEMS[problem][0])[2]
    tasks = PROBLEMS[problem][3]
    ref_eng, eng = ReferenceStfEngine(racecheck=racecheck), StfEngine(racecheck=racecheck)
    for rhs in (b[:, 0], b):
        x_ref, g_ref = tasks(desc, rhs, ref_eng)
        x, g = tasks(desc, rhs, eng)
        _same_bits(x, x_ref)
        assert _fields(g) == _fields(g_ref)
    if racecheck:
        assert eng.racecheck.n_checked_tasks == ref_eng.racecheck.n_checked_tasks == len(g)
        assert eng.racecheck.violations == ref_eng.racecheck.violations == []


@pytest.mark.parametrize("cls", [DenseTiledLU, DenseTiledCholesky])
def test_dense_tiled_baseline_matches_the_inline_engine(cls):
    pts, kern, b = _problem("exponential")
    a = assemble_dense(kern, pts)
    ref, new = cls(a, 100), cls(a, 100)
    ref_info, info = ref.factorize(ReferenceStfEngine()), new.factorize()
    assert _fields(info.graph) == _fields(ref_info.graph)
    assert all(t.func is None and t.seconds > 0 for t in info.graph.tasks)
    for k, tile in new.tiles.items():
        _same_bits(tile, ref.tiles[k])
    _same_bits(new.solve(b), ref.solve(b))


def test_hmat_baseline_matches_the_inline_engine():
    pts, kern, b = _problem("laplace")
    pts, b = pts[:200], b[:200]
    kern = make_kernel("laplace", pts)
    solver = HMatSolver(kern, pts, eps=1e-5, leaf_size=32, racecheck=True)
    info = solver.factorize()
    # The one tile's factorisation, submitted to the inline engine.
    ref_desc = HMatSolver(kern, pts, eps=1e-5, leaf_size=32)._tile.desc
    ref_eng = ReferenceStfEngine(racecheck=True, nested=NestedPolicy(min_leaf=32))
    ref_graph = tiled_getrf_tasks(ref_desc, ref_eng, accumulate=True)
    desc = solver._tile.desc
    assert _fields(info.graph) == _fields(ref_graph)
    assert info.racecheck is not None
    assert info.racecheck.violations == ref_eng.racecheck.violations == []
    assert _tile_bytes(desc) == _tile_bytes(ref_desc)
    _same_bits(tiled_solve(desc, b), tiled_solve(ref_desc, b))
