"""Multi-RHS panel solves: column-stability is a bit-level contract.

The solve service batches concurrent requests into one panel sweep, which is
only sound if column ``c`` of a panel solution is *bit-identical* to solving
that column alone — for every width, dtype, factorization and executor.
"""

import numpy as np
import pytest

from repro.core import (
    TileHConfig,
    TileHMatrix,
    tiled_chol_solve,
    tiled_getrf_tasks,
    tiled_potrf_tasks,
    tiled_solve,
    tiled_solve_tasks,
)
from repro.geometry import cylinder_cloud, exponential_kernel, laplace_kernel, make_kernel

N = 400


def _factorized_desc(kernel_name):
    pts = cylinder_cloud(N)
    kern = make_kernel(kernel_name, pts)
    a = TileHMatrix.build(kern, pts, TileHConfig(nb=100, eps=1e-7, leaf_size=32))
    tiled_getrf_tasks(a.desc)
    return a.desc


@pytest.fixture(scope="module")
def lu_d():
    return _factorized_desc("laplace")


@pytest.fixture(scope="module")
def lu_z():
    return _factorized_desc("helmholtz")


def _panel(n, width, seed, complex_=False):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, width))
    if complex_:
        b = b + 1j * rng.standard_normal((n, width))
    return b


class TestPanelBitIdentity:
    @pytest.mark.parametrize("width", [1, 2, 5, 8, 16])
    def test_lu_panel_matches_columns_d(self, lu_d, width):
        b = _panel(N, width, seed=width)
        xp = tiled_solve(lu_d, b)
        assert xp.shape == (N, width)
        for c in range(width):
            assert np.array_equal(xp[:, c], tiled_solve(lu_d, b[:, c]))

    @pytest.mark.parametrize("width", [1, 3, 8])
    def test_lu_panel_matches_columns_z(self, lu_z, width):
        b = _panel(N, width, seed=width, complex_=True)
        xp = tiled_solve(lu_z, b)
        for c in range(width):
            assert np.array_equal(xp[:, c], tiled_solve(lu_z, b[:, c]))

    def test_panel_subset_invariance(self, lu_d):
        # A request's bits cannot depend on which batch it landed in.
        b = _panel(N, 8, seed=42)
        x8 = tiled_solve(lu_d, b)
        x3 = tiled_solve(lu_d, b[:, [0, 4, 7]])
        assert np.array_equal(x8[:, [0, 4, 7]], x3)

    def test_cholesky_panel_matches_columns(self):
        pts = cylinder_cloud(N)
        kern = exponential_kernel(pts)
        a = TileHMatrix.build(kern, pts, TileHConfig(nb=100, eps=1e-8, leaf_size=32))
        tiled_potrf_tasks(a.desc)
        b = _panel(N, 6, seed=7)
        xp = tiled_chol_solve(a.desc, b)
        for c in range(6):
            assert np.array_equal(xp[:, c], tiled_chol_solve(a.desc, b[:, c]))

    def test_tasked_solve_panel_matches_columns(self, lu_d):
        b = _panel(N, 4, seed=3)
        xp, _ = tiled_solve_tasks(lu_d, b)
        for c in range(4):
            xc, _ = tiled_solve_tasks(lu_d, b[:, c])
            assert np.array_equal(xp[:, c], xc)

    def test_tasked_matches_direct(self, lu_d):
        b = _panel(N, 4, seed=9)
        xp, _ = tiled_solve_tasks(lu_d, b)
        assert np.array_equal(xp, tiled_solve(lu_d, b))


class TestPanelValidation:
    def test_vector_shape_preserved(self, lu_d):
        x = tiled_solve(lu_d, np.ones(N))
        assert x.shape == (N,)

    def test_panel_shape_preserved(self, lu_d):
        x = tiled_solve(lu_d, np.ones((N, 2)))
        assert x.shape == (N, 2)

    def test_wrong_length_rejected(self, lu_d):
        with pytest.raises(ValueError):
            tiled_solve(lu_d, np.ones(N + 1))

    def test_wrong_panel_rows_rejected(self, lu_d):
        with pytest.raises(ValueError):
            tiled_solve(lu_d, np.ones((N - 1, 3)))

    def test_3d_rejected(self, lu_d):
        with pytest.raises(ValueError):
            tiled_solve(lu_d, np.ones((N, 2, 2)))


class TestSolverFacadePanel:
    def test_solver_solve_panel(self):
        pts = cylinder_cloud(N)
        kern = laplace_kernel(pts)
        a = TileHMatrix.build(kern, pts, TileHConfig(nb=100, eps=1e-7, leaf_size=32))
        a.factorize()
        b = _panel(N, 5, seed=1)
        xp = a.solve(b)
        assert xp.shape == (N, 5)
        for c in range(5):
            assert np.array_equal(xp[:, c], a.solve(b[:, c]))

    def test_threaded_solver_panel_column_stable(self):
        # Column-stability must hold within each executor (the threaded
        # factor's bits are eager's: tests/core/test_exec_contract.py).
        pts = cylinder_cloud(N)
        kern = laplace_kernel(pts)
        threaded = TileHMatrix.build(
            kern, pts,
            TileHConfig(nb=100, eps=1e-7, leaf_size=32, exec_mode="threaded", nworkers=2),
        )
        threaded.factorize()
        b = _panel(N, 4, seed=5)
        xt = threaded.solve(b)
        assert xt.shape == (N, 4)
        for c in range(4):
            assert np.array_equal(xt[:, c], threaded.solve(b[:, c]))
