"""Every executor factorises the same tiles into the same factor.

Assembly is one serial loop whatever ``exec_mode`` says, so a threaded or
process ``build_factorize`` — opaque or nested — must leave tiles whose every
leaf is byte-for-byte the eager factor's, and solve vectors and panels to the
same bits (``accumulate=False`` on both sides: the rounding accumulator is
eager-only).  An opaque run's graph is the eager graph, task for task.  The
cells are the product of the axes below.
"""

import itertools
from functools import lru_cache

import numpy as np
import pytest

from repro.core import TileHConfig, TileHMatrix
from repro.geometry import cylinder_cloud, make_kernel
from repro.runtime import ProcessExecutor, StfEngine, ThreadedExecutor, validate_trace

# nb=64 over leaves of 16: block trees 64 -> 32 -> 16, so min_leaf 32 expands.
N, NB, LEAF = 256, 64, 16
PROBLEMS = {"lu-d": ("laplace", "lu"), "lu-z": ("helmholtz", "lu"),
            "cholesky": ("exponential", "cholesky")}
CELLS = list(itertools.product(("threaded", "process"), ("opaque", "nested"), PROBLEMS))


def _cfg(**kw):
    return TileHConfig(nb=NB, eps=1e-6, leaf_size=LEAF, accumulate=False, **kw)


@lru_cache(maxsize=None)
def _problem(kernel):
    pts = cylinder_cloud(N)
    rng = np.random.default_rng(0)
    b = rng.standard_normal((N, 3))
    if kernel == "helmholtz":
        b = b + 1j * rng.standard_normal((N, 3))
    return pts, make_kernel(kernel, pts), b


def _tile_bytes(a: TileHMatrix) -> list[bytes]:
    out = []
    for tile in a.desc.super.tiles:
        for leaf in tile.mat.leaves():
            arrays = (leaf.full,) if leaf.full is not None else (leaf.rk.u, leaf.rk.v)
            out += [x.tobytes() for x in arrays]
    return out


def _fields(graph) -> list[tuple]:
    return [(t.kind, t.label, t.priority, t.flops, t.deps) for t in graph.tasks]


@lru_cache(maxsize=None)
def _eager(problem):
    kernel, method = PROBLEMS[problem]
    pts, kern, b = _problem(kernel)
    a, info = TileHMatrix.build_factorize(kern, pts, _cfg(), method=method)
    return _tile_bytes(a), a.solve(b[:, 0]), a.solve(b), _fields(info.graph)


@pytest.mark.parametrize("exec_mode,shape,problem", CELLS, ids=["-".join(c) for c in CELLS])
def test_build_factorize_is_eager_bit_for_bit(exec_mode, shape, problem):
    kernel, method = PROBLEMS[problem]
    pts, kern, b = _problem(kernel)
    cfg = _cfg(exec_mode=exec_mode, nworkers=2, nested=shape == "nested",
               nested_min_leaf=32)
    a, info = TileHMatrix.build_factorize(kern, pts, cfg, method=method)
    tiles, x, panel, graph = _eager(problem)
    assert _tile_bytes(a) == tiles
    assert np.array_equal(a.solve(b[:, 0]), x)
    assert np.array_equal(a.solve(b), panel)
    assert validate_trace(info.graph, info.trace) == []
    if shape == "nested":
        assert info.nested["expanded_tasks"] > 0
    else:
        assert _fields(info.graph) == graph


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
