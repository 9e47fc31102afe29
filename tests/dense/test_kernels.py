"""Unit tests for the dense unpivoted LU / TRSM / GEMM kernels."""

import numpy as np
import pytest

from repro.dense import (
    SingularTileError,
    gemm_update,
    getrf_nopiv,
    split_lu,
    tri_solve,
    trsm,
)


def _spd_like(n, dtype=np.float64, seed=0):
    """Random diagonally dominant matrix (safe for unpivoted LU)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)).astype(dtype)
    if np.issubdtype(dtype, np.complexfloating):
        a = a + 1j * rng.standard_normal((n, n))
    a += n * np.eye(n, dtype=dtype)
    return a


class TestGetrfNopiv:
    @pytest.mark.parametrize("n", [1, 2, 7, 63, 64, 65, 200, 257])
    def test_reconstruction_real(self, n):
        a = _spd_like(n)
        lu = getrf_nopiv(a.copy())
        l, u = split_lu(lu)
        assert np.allclose(l @ u, a, atol=1e-10 * n)

    @pytest.mark.parametrize("n", [5, 130])
    def test_reconstruction_complex(self, n):
        a = _spd_like(n, dtype=np.complex128)
        lu = getrf_nopiv(a.copy())
        l, u = split_lu(lu)
        assert np.allclose(l @ u, a, atol=1e-10 * n)

    def test_matches_scipy_on_no_pivot_case(self):
        # For a diagonally dominant ordered matrix scipy's pivoted LU picks the
        # identity permutation, so factors must coincide.
        import scipy.linalg as sla

        a = np.diag(np.arange(10, 0, -1.0)) + 0.01 * np.ones((10, 10))
        lu_ref, piv = sla.lu_factor(a)
        assert np.array_equal(piv, np.arange(10))
        lu = getrf_nopiv(a.copy())
        assert np.allclose(lu, lu_ref)

    def test_in_place(self):
        a = _spd_like(32)
        out = getrf_nopiv(a, overwrite=True)
        assert out is a  # same buffer

    def test_copy_mode(self):
        a = _spd_like(32)
        backup = a.copy()
        out = getrf_nopiv(a, overwrite=False)
        assert np.array_equal(a, backup)
        assert out is not a

    def test_zero_pivot_raises(self):
        a = np.ones((4, 4))  # singular: second pivot exactly 0
        with pytest.raises(SingularTileError):
            getrf_nopiv(a)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            getrf_nopiv(np.zeros((3, 4)))

    def test_empty(self):
        out = getrf_nopiv(np.zeros((0, 0)))
        assert out.shape == (0, 0)


def _lu_solve(lu, b):
    """``A x = b`` from the packed unpivoted LU of ``A``: two triangular solves."""
    y = tri_solve(lu, b, lower=True, unit_diagonal=True)
    return tri_solve(lu, y, lower=False)


class TestLuSolve:
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_solve_vector(self, dtype):
        a = _spd_like(80, dtype=dtype)
        x0 = np.arange(1, 81).astype(dtype)
        lu = getrf_nopiv(a.copy())
        x = _lu_solve(lu, a @ x0)
        assert np.allclose(x, x0)

    def test_solve_panel(self):
        a = _spd_like(50)
        b = np.random.default_rng(3).standard_normal((50, 6))
        lu = getrf_nopiv(a.copy())
        x = _lu_solve(lu, b)
        assert np.allclose(a @ x, b)


class TestTrsm:
    @pytest.fixture()
    def lfac(self):
        a = _spd_like(40)
        l, u = split_lu(getrf_nopiv(a.copy()))
        return l, u

    def test_left_lower_unit(self, lfac):
        l, _ = lfac
        b = np.random.default_rng(0).standard_normal((40, 3))
        x = trsm("left", "lower", l, b, unit_diagonal=True)
        assert np.allclose(l @ x, b)

    def test_left_upper(self, lfac):
        _, u = lfac
        b = np.random.default_rng(1).standard_normal((40, 3))
        x = trsm("left", "upper", u, b)
        assert np.allclose(u @ x, b)

    def test_right_upper(self, lfac):
        _, u = lfac
        b = np.random.default_rng(2).standard_normal((3, 40))
        x = trsm("right", "upper", u, b)
        assert np.allclose(x @ u, b)

    def test_right_lower_unit(self, lfac):
        l, _ = lfac
        b = np.random.default_rng(3).standard_normal((3, 40))
        x = trsm("right", "lower", l, b, unit_diagonal=True)
        assert np.allclose(x @ l, b)

    def test_right_complex(self):
        a = _spd_like(30, dtype=np.complex128)
        _, u = split_lu(getrf_nopiv(a.copy()))
        rng = np.random.default_rng(4)
        b = rng.standard_normal((5, 30)) + 1j * rng.standard_normal((5, 30))
        x = trsm("right", "upper", u, b)
        assert np.allclose(x @ u, b)

    def test_vector_rhs_keeps_shape(self, lfac):
        l, _ = lfac
        b = np.random.default_rng(5).standard_normal(40)
        x = trsm("left", "lower", l, b, unit_diagonal=True)
        assert x.shape == (40,)

    def test_overwrite(self, lfac):
        l, _ = lfac
        b = np.random.default_rng(6).standard_normal((40, 2))
        ref = trsm("left", "lower", l, b, unit_diagonal=True)
        out = trsm("left", "lower", l, b, unit_diagonal=True, overwrite=True)
        assert out is b and np.allclose(b, ref)

    def test_bad_args(self, lfac):
        l, _ = lfac
        with pytest.raises(ValueError):
            trsm("top", "lower", l, np.zeros((40, 1)))
        with pytest.raises(ValueError):
            trsm("left", "diag", l, np.zeros((40, 1)))


class TestGemmUpdate:
    def test_default_subtracts(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((6, 4)), rng.standard_normal((4, 5))
        c = rng.standard_normal((6, 5))
        ref = c - a @ b
        out = gemm_update(c, a, b)
        assert out is c and np.allclose(c, ref)

    @pytest.mark.parametrize("alpha", [1.0, -1.0, 0.5])
    def test_alpha(self, alpha):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        c = rng.standard_normal((3, 3))
        ref = c + alpha * (a @ b)
        gemm_update(c, a, b, alpha=alpha)
        assert np.allclose(c, ref)
