"""End-to-end threaded pipeline: assembly, then a threaded factorisation.

The acceptance bar for the threaded path: a threaded build_factorize at
nworkers=4 produces a forward error identical to the eager path (same DAG,
same arithmetic — ``accumulate=False`` on both sides here; the accumulated
cells are ``tests/core/test_exec_contract.py``'s), and the threaded trace is
a linear extension of the submitted graph.
"""

import numpy as np
import pytest

from repro.core import TileHConfig, TileHMatrix
from repro.geometry import cylinder_cloud, make_kernel, streamed_matvec
from repro.runtime import validate_trace

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
        assert "potrf" in {t.kind for t in info.graph.tasks}
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

    def test_bad_nworkers(self):
        with pytest.raises(ValueError, match="nworkers"):
            TileHConfig(nb=64, nworkers=0)


class TestThreadedBuildOnly:
    def test_threaded_build_matches_eager(self, problem):
        pts, kern, _, _ = problem
        a = TileHMatrix.build(kern, pts, _cfg())
        b_ = TileHMatrix.build(kern, pts, _cfg(exec_mode="threaded", nworkers=3))
        assert np.array_equal(a.to_dense(), b_.to_dense())

