"""End-to-end threaded pipeline: fused assembly+factorisation and baselines.

The acceptance bar for the threaded path: a fused threaded solve at
nworkers=4 produces a forward error identical to the eager path (same DAG,
same arithmetic — ``accumulate=False`` on both sides since the rounding
accumulator is eager-only), and the threaded trace is a linear extension of
the submitted graph.
"""

import numpy as np
import pytest

from repro.baselines import HMatSolver
from repro.core import TileHConfig, TileHMatrix, assemble_priority, build_tile_h
from repro.geometry import cylinder_cloud, make_kernel, streamed_matvec
from repro.runtime import StfEngine, ThreadedExecutor, validate_trace

N, NB = 480, 120


@pytest.fixture(scope="module")
def problem():
    pts = cylinder_cloud(N)
    kern = make_kernel("laplace", pts)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(N)
    b = streamed_matvec(kern, pts, x)
    return pts, kern, x, b


def _cfg(**kw):
    kw.setdefault("nb", NB)
    kw.setdefault("eps", 1e-4)
    kw.setdefault("leaf_size", 48)
    kw.setdefault("accumulate", False)
    return TileHConfig(**kw)


class TestFusedBuildFactorize:
    def test_threaded_matches_eager_bitwise(self, problem):
        pts, kern, x, b = problem
        a_e, info_e = TileHMatrix.build_factorize(kern, pts, _cfg())
        a_t, info_t = TileHMatrix.build_factorize(
            kern, pts, _cfg(exec_mode="threaded", nworkers=4, scheduler="lws")
        )
        err_e = np.linalg.norm(a_e.solve(b) - x) / np.linalg.norm(x)
        err_t = np.linalg.norm(a_t.solve(b) - x) / np.linalg.norm(x)
        # Same DAG, same per-tile arithmetic: identical to the last bit
        # (each kernel sees bit-identical inputs; the DAG serialises every
        # writer of a tile).
        assert err_t == pytest.approx(err_e, rel=1e-9)
        assert err_e < 1e-2

    def test_fused_graph_contains_assembly_and_factorization(self, problem):
        pts, kern, _, _ = problem
        _, info = TileHMatrix.build_factorize(
            kern, pts, _cfg(exec_mode="threaded", nworkers=2)
        )
        kinds = {t.kind for t in info.graph.tasks}
        assert {"assemble", "getrf", "trsm", "gemm"} <= kinds
        # Fusion means factorisation tasks depend on assemble tasks directly.
        assemble_ids = {t.id for t in info.graph.tasks if t.kind == "assemble"}
        getrf_deps = set().union(
            *(t.deps for t in info.graph.tasks if t.kind == "getrf")
        )
        assert assemble_ids & getrf_deps

    def test_threaded_trace_validates(self, problem):
        pts, kern, _, _ = problem
        _, info = TileHMatrix.build_factorize(
            kern, pts, _cfg(exec_mode="threaded", nworkers=4, scheduler="ws")
        )
        assert info.trace is not None
        assert info.wall_seconds is not None and info.wall_seconds > 0
        assert validate_trace(info.graph, info.trace) == []

    @pytest.mark.parametrize("scheduler", ["ws", "lws", "prio", "eager"])
    def test_every_policy_solves(self, problem, scheduler):
        pts, kern, x, b = problem
        a, info = TileHMatrix.build_factorize(
            kern, pts, _cfg(exec_mode="threaded", nworkers=2, scheduler=scheduler)
        )
        err = np.linalg.norm(a.solve(b) - x) / np.linalg.norm(x)
        assert err < 1e-2
        assert validate_trace(info.graph, info.trace) == []

    def test_bottom_level_priorities(self, problem):
        pts, kern, x, b = problem
        a, info = TileHMatrix.build_factorize(
            kern, pts,
            _cfg(exec_mode="threaded", nworkers=3, priority_mode="bottom-level"),
        )
        err = np.linalg.norm(a.solve(b) - x) / np.linalg.norm(x)
        assert err < 1e-2
        # Bottom-level ranks: a task's priority strictly exceeds each
        # successor's whenever its own cost is positive.
        for t in info.graph.tasks:
            for s in t.successors:
                assert t.priority >= info.graph.tasks[s].priority

    def test_cholesky_fused(self):
        from repro.geometry import assemble_dense, exponential_kernel, plate_cloud

        pts = plate_cloud(320)
        kern = exponential_kernel(pts, length=0.6)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(320)
        b = assemble_dense(kern, pts) @ x
        a, info = TileHMatrix.build_factorize(
            kern, pts,
            _cfg(nb=80, eps=1e-8, leaf_size=40, exec_mode="threaded", nworkers=2),
            method="cholesky",
        )
        assert {"assemble", "potrf"} <= {t.kind for t in info.graph.tasks}
        err = np.linalg.norm(a.solve(b) - x) / np.linalg.norm(x)
        assert err < 1e-4


class TestConfigValidation:
    def test_racecheck_threaded_rejected(self):
        with pytest.raises(ValueError, match="racecheck"):
            TileHConfig(nb=64, racecheck=True, exec_mode="threaded")

    def test_bad_exec_mode(self):
        with pytest.raises(ValueError, match="exec_mode"):
            TileHConfig(nb=64, exec_mode="gpu")

    def test_bad_scheduler(self):
        with pytest.raises(ValueError, match="scheduler"):
            TileHConfig(nb=64, scheduler="fifo")

    def test_bad_priority_mode(self):
        with pytest.raises(ValueError, match="priority_mode"):
            TileHConfig(nb=64, priority_mode="random")

    def test_bad_nworkers(self):
        with pytest.raises(ValueError, match="nworkers"):
            TileHConfig(nb=64, nworkers=0)


class TestThreadedBuildOnly:
    def test_threaded_build_matches_eager(self, problem):
        pts, kern, _, _ = problem
        a = TileHMatrix.build(kern, pts, _cfg())
        b_ = TileHMatrix.build(kern, pts, _cfg(exec_mode="threaded", nworkers=3))
        assert np.array_equal(a.to_dense(), b_.to_dense())

    def test_deferred_build_without_executor_stays_pending(self, problem):
        pts, kern, _, _ = problem
        eng = StfEngine(mode="deferred")
        desc = build_tile_h(kern, pts, NB, leaf_size=48, engine=eng)
        assert desc.format_counts().get("pending", 0) == desc.super.nt ** 2
        ThreadedExecutor(2).run(eng.wait_all())
        assert "pending" not in desc.format_counts()

    def test_assemble_priority_slots_between_trsm_and_getrf(self):
        nt = 4
        for i in range(nt):
            for j in range(nt):
                k = min(i, j)
                base = (nt - k) * 10
                assert base + 12 < assemble_priority(nt, i, j) < base + 15


class TestHMatThreadedAssembly:
    def test_identical_to_eager(self, problem):
        pts, kern, _, _ = problem
        a = HMatSolver(kern, pts, leaf_size=48)
        b_ = HMatSolver(kern, pts, leaf_size=48, exec_mode="threaded",
                        nworkers=3, scheduler="ws")
        assert np.array_equal(a.matrix.to_dense(), b_.matrix.to_dense())
        assert b_.assembly_trace is not None
        assert validate_trace(b_.assembly_graph, b_.assembly_trace) == []

    def test_threaded_solve_end_to_end(self, problem):
        pts, kern, x, b = problem
        s = HMatSolver(kern, pts, leaf_size=48, exec_mode="threaded", nworkers=2)
        s.factorize()
        err = np.linalg.norm(s.solve(b) - x) / np.linalg.norm(x)
        assert err < 1e-2

    def test_racecheck_threaded_rejected(self, problem):
        pts, kern, _, _ = problem
        with pytest.raises(ValueError, match="racecheck"):
            HMatSolver(kern, pts, exec_mode="threaded", racecheck=True)

    def test_bad_exec_mode(self, problem):
        pts, kern, _, _ = problem
        with pytest.raises(ValueError, match="exec_mode"):
            HMatSolver(kern, pts, exec_mode="simd")
