"""Task-parallel Cholesky substitution (`tiled_chol_solve_tasks`).

The solve phase must be bit-identical to the sequential sweeps on every
executor: successive updates of one RHS segment are RW on the same handle,
so STF serialises them in submission order regardless of scheduler.
"""

import numpy as np
import pytest

from repro.core import (
    TileHConfig,
    TileHMatrix,
    tiled_chol_solve,
    tiled_chol_solve_tasks,
    tiled_potrf_tasks,
)
from repro.core.build import build_tile_h
from repro.geometry import assemble_dense, exponential_kernel, plate_cloud
from repro.runtime import StfEngine, ThreadedExecutor

N = 600
NB = 150
EPS = 1e-8


@pytest.fixture(scope="module")
def factored():
    pts = plate_cloud(N)
    kern = exponential_kernel(pts, length=0.6)
    desc = build_tile_h(kern, pts, NB, eps=EPS, leaf_size=40)
    dense = assemble_dense(kern, pts)
    tiled_potrf_tasks(desc)
    return desc, dense


@pytest.fixture(scope="module")
def rhs():
    return np.random.default_rng(5).standard_normal(N)


class TestBitIdentity:
    def test_eager_matches_sequential(self, factored, rhs):
        desc, _ = factored
        ref = tiled_chol_solve(desc, rhs)
        x, graph = tiled_chol_solve_tasks(desc, rhs)
        assert np.array_equal(x, ref)
        assert len(graph) > 0

    def test_threaded_matches_sequential(self, factored, rhs):
        desc, _ = factored
        ref = tiled_chol_solve(desc, rhs)
        x, _ = tiled_chol_solve_tasks(
            desc, rhs, StfEngine(mode="deferred"),
            executor=ThreadedExecutor(nworkers=2, scheduler="lws"),
        )
        assert np.array_equal(x, ref)

    def test_racecheck_clean_and_identical(self, factored, rhs):
        desc, _ = factored
        ref = tiled_chol_solve(desc, rhs)
        eng = StfEngine(racecheck=True)
        x, _ = tiled_chol_solve_tasks(desc, rhs, eng)
        assert np.array_equal(x, ref)
        assert eng.racecheck.n_checked_tasks > 0 and eng.racecheck.violations == []

    def test_multi_rhs_columns_match_standalone(self, factored):
        desc, _ = factored
        panel = np.random.default_rng(6).standard_normal((N, 4))
        x, _ = tiled_chol_solve_tasks(desc, panel)
        for j in range(panel.shape[1]):
            col, _ = tiled_chol_solve_tasks(desc, panel[:, j])
            assert np.array_equal(x[:, j], col)


class TestGraphShape:
    def test_kind_counts(self, factored, rhs):
        desc, _ = factored
        nt = desc.nt
        _, graph = tiled_chol_solve_tasks(desc, rhs)
        counts = graph.kind_counts()
        assert counts["trsm"] == 2 * nt  # one TRSV per tile per sweep
        assert counts["gemm"] == nt * (nt - 1)  # forward + backward updates

    def test_deferred_engine_requires_executor(self, factored, rhs):
        desc, _ = factored
        with pytest.raises(ValueError, match="executor"):
            tiled_chol_solve_tasks(desc, rhs, StfEngine(mode="deferred"))

    def test_solution_accuracy(self, factored):
        desc, dense = factored
        x0 = np.random.default_rng(7).standard_normal(N)
        x, _ = tiled_chol_solve_tasks(desc, dense @ x0)
        assert np.linalg.norm(x - x0) <= 1e-5 * np.linalg.norm(x0)


class TestSolverRouting:
    def _build(self, **cfg_kw):
        pts = plate_cloud(N)
        kern = exponential_kernel(pts, length=0.6)
        cfg = TileHConfig(nb=NB, eps=EPS, leaf_size=40, accumulate=False, **cfg_kw)
        solver, _ = TileHMatrix.build_factorize(kern, pts, cfg, method="cholesky")
        return solver

    def test_threaded_solve_bit_identical_to_eager(self, rhs):
        x_e = self._build().solve(rhs)
        x_t = self._build(exec_mode="threaded", nworkers=2).solve(rhs)
        assert np.array_equal(x_e, x_t)

    def test_racecheck_solve_routes_through_tasks(self, rhs):
        x_e = self._build().solve(rhs)
        x_r = self._build(racecheck=True).solve(rhs)  # raises on a race
        assert np.array_equal(x_e, x_r)
