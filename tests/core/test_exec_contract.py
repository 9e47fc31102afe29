"""Every executor factorises the same tiles into the same factor.

Assembly is one serial loop whatever ``exec_mode`` says, so a threaded
``build_factorize`` — opaque or nested, with the rounding accumulator on or
off — and an eager nested one must leave tiles whose every leaf is
byte-for-byte the eager opaque factor's under the same ``accumulate``, and
solve vectors and panels to the same bits.  The accumulator buffers a leaf's
updates on the leaf, and STF orders every writer and reader of a leaf, so
this holds by construction.  A process run carries no accumulator: its cells
are ``accumulate=False`` only.  An opaque run's graph is the eager graph,
task for task.  No factorisation leaves an update pending on any leaf.  The
cells are the product of the axes below.
"""

import itertools
import sys
from functools import lru_cache

import numpy as np
import pytest

from repro.baselines import HMatSolver
from repro.core import TileHConfig, TileHMatrix
from repro.geometry import cylinder_cloud, make_kernel
from repro.runtime import ProcessExecutor, StfEngine, ThreadedExecutor, validate_trace

# nb=128 over leaves of 16: block trees 128 -> 64 -> 32 -> 16, so min_leaf 32
# expands two levels deep — deep enough that a split factorisation's flush
# (run_kernel's flush=, the pack of a split potrf) decides the bits.
N, NB, LEAF = 384, 128, 16
PROBLEMS = {"lu-d": ("laplace", "lu"), "lu-z": ("helmholtz", "lu"),
            "cholesky": ("exponential", "cholesky")}
# (exec_mode, shape, problem, accumulate): every executor without the
# accumulator, and every one but the process executor with it.
CELLS = [(*cell, False) for cell in itertools.product(
    ("threaded", "process"), ("opaque", "nested"), PROBLEMS)]
CELLS += [(*cell, True) for cell in itertools.product(
    ("eager", "threaded"), ("opaque", "nested"), PROBLEMS) if cell[:2] != ("eager", "opaque")]
IDS = ["-".join(cell[:3]) + ("-accumulate" if cell[3] else "") for cell in CELLS]


def _cfg(accumulate=False, **kw):
    return TileHConfig(nb=NB, eps=1e-6, leaf_size=LEAF, accumulate=accumulate, **kw)


@lru_cache(maxsize=None)
def _problem(kernel):
    pts = cylinder_cloud(N)
    rng = np.random.default_rng(0)
    b = rng.standard_normal((N, 3))
    if kernel == "helmholtz":
        b = b + 1j * rng.standard_normal((N, 3))
    return pts, make_kernel(kernel, pts), b


def _leaves(a: TileHMatrix):
    return (leaf for tile in a.desc.super.tiles for leaf in tile.mat.leaves())


def _tile_bytes(a: TileHMatrix) -> list[bytes]:
    out = []
    for leaf in _leaves(a):
        arrays = (leaf.full,) if leaf.full is not None else (leaf.rk.u, leaf.rk.v)
        out += [x.tobytes() for x in arrays]
    return out


def _fields(graph) -> list[tuple]:
    return [(t.kind, t.label, t.priority, t.flops, t.deps) for t in graph.tasks]


@lru_cache(maxsize=None)
def _factor(exec_mode, shape, problem, accumulate):
    kernel, method = PROBLEMS[problem]
    pts, kern, _ = _problem(kernel)
    cfg = _cfg(accumulate, exec_mode=exec_mode, nworkers=2, nested=shape == "nested",
               nested_min_leaf=32)
    return TileHMatrix.build_factorize(kern, pts, cfg, method=method)


@lru_cache(maxsize=None)
def _eager(problem, accumulate):
    a, info = _factor("eager", "opaque", problem, accumulate)
    b = _problem(PROBLEMS[problem][0])[2]
    return _tile_bytes(a), a.solve(b[:, 0]), a.solve(b), _fields(info.graph)


@pytest.mark.parametrize("exec_mode,shape,problem,accumulate", CELLS, ids=IDS)
def test_build_factorize_is_eager_bit_for_bit(exec_mode, shape, problem, accumulate):
    a, info = _factor(exec_mode, shape, problem, accumulate)
    b = _problem(PROBLEMS[problem][0])[2]
    tiles, x, panel, graph = _eager(problem, accumulate)
    assert _tile_bytes(a) == tiles
    assert np.array_equal(a.solve(b[:, 0]), x)
    assert np.array_equal(a.solve(b), panel)
    if exec_mode != "eager":
        assert validate_trace(info.graph, info.trace) == []
    if shape == "nested":
        assert info.nested["expanded_tasks"] > 0
    else:
        assert _fields(info.graph) == graph


DEFERRED = [("eager", "opaque", p, True) for p in PROBLEMS] + [c for c in CELLS if c[3]]


@pytest.mark.parametrize("exec_mode,shape,problem,accumulate", DEFERRED,
                         ids=["-".join(c[:3]) for c in DEFERRED])
def test_no_leaf_left_pending(exec_mode, shape, problem, accumulate):
    a, _ = _factor(exec_mode, shape, problem, accumulate)
    assert all(leaf.pending is None for leaf in _leaves(a))


def test_no_leaf_left_pending_hmat():
    pts, kern, _ = _problem("laplace")
    solver = HMatSolver(kern, pts, eps=1e-6, leaf_size=LEAF)
    solver.factorize()
    assert all(leaf.pending is None for leaf in solver.matrix.leaves())


@pytest.mark.parametrize("nested", [False, True], ids=["opaque", "nested"])
@pytest.mark.parametrize("exec_mode", ["eager", "threaded", "process"])
def test_build_runs_no_engine_and_no_executor(exec_mode, nested, monkeypatch):
    built = []
    for cls in (StfEngine, ThreadedExecutor, ProcessExecutor):
        def spy(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built.append(_name)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", spy)
    pts, kern, _ = _problem("laplace")
    a = TileHMatrix.build(kern, pts, _cfg(exec_mode=exec_mode, nested=nested))
    assert built == []
    a.factorize()  # the spies see the factorisation's executor
    assert built or exec_mode == "eager"


@pytest.mark.parametrize("problem", PROBLEMS)
def test_nested_accumulated_run_is_racecheck_clean(problem):
    """No subtask reads a block that still holds pending updates, and no
    flush writes a block its subtask declared read-only."""
    kernel, method = PROBLEMS[problem]
    pts, kern, _ = _problem(kernel)
    cfg = _cfg(True, nested=True, nested_min_leaf=32, racecheck=True)
    _, info = TileHMatrix.build_factorize(kern, pts, cfg, method=method)
    assert info.racecheck.n_checked_tasks == len(info.graph)
    assert info.racecheck.n_errors == info.racecheck.n_warnings == 0


@pytest.mark.parametrize("problem", ["lu-d", "cholesky"])
def test_shared_accumulator_under_thread_stress(problem):
    """Four workers on a small host, switching every microsecond: a lost or
    reordered deferral would change the bits or leave a leaf pending."""
    kernel, method = PROBLEMS[problem]
    pts, kern, _ = _problem(kernel)
    cfg = _cfg(True, exec_mode="threaded", nworkers=4, nested=True, nested_min_leaf=32)
    prev = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        a, _ = TileHMatrix.build_factorize(kern, pts, cfg, method=method)
    finally:
        sys.setswitchinterval(prev)
    assert _tile_bytes(a) == _eager(problem, True)[0]
    assert all(leaf.pending is None for leaf in _leaves(a))
