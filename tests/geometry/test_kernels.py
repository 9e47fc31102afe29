"""Unit tests for the interaction kernels."""

import math

import numpy as np
import pytest

from repro.geometry import (
    cylinder_cloud,
    exponential_kernel,
    gravity_kernel,
    helmholtz_kernel,
    laplace_kernel,
    make_kernel,
    mesh_step,
    rule_of_thumb_wavenumber,
)
from repro.geometry import kernels


@pytest.fixture(scope="module")
def pts():
    return cylinder_cloud(400)


class TestLaplaceKernel:
    def test_values_match_inverse_distance(self, pts):
        k = laplace_kernel(pts)
        sub = pts[:10]
        block = k(sub, pts[10:30])
        d = np.linalg.norm(sub[:, None, :] - pts[None, 10:30, :], axis=2)
        d = np.maximum(d, k.d_min)
        assert np.allclose(block, 1.0 / d)

    def test_dtype_real(self, pts):
        k = laplace_kernel(pts)
        assert k.dtype == np.float64
        assert not k.is_complex

    def test_diagonal_clamped(self, pts):
        k = laplace_kernel(pts)
        block = k(pts[:5], pts[:5])
        # Diagonal = K(d_min) = 1/(h/2), the dominant entry of each row.
        expected = 1.0 / k.d_min
        assert np.allclose(np.diag(block), expected)
        assert np.all(np.diag(block) >= block.max(axis=1) - 1e-12)

    def test_symmetry(self, pts):
        k = laplace_kernel(pts)
        a = k(pts[:20], pts[20:40])
        b = k(pts[20:40], pts[:20])
        assert np.allclose(a, b.T)

    def test_scale_parameter(self, pts):
        k1 = laplace_kernel(pts, scale=1.0)
        k3 = laplace_kernel(pts, scale=3.0)
        assert np.allclose(3.0 * k1(pts[:5], pts[5:10]), k3(pts[:5], pts[5:10]))


class TestHelmholtzKernel:
    def test_dtype_complex(self, pts):
        k = helmholtz_kernel(pts)
        assert k.dtype == np.complex128
        assert k.is_complex

    def test_magnitude_matches_laplace(self, pts):
        kz = helmholtz_kernel(pts)
        kd = laplace_kernel(pts)
        bz = kz(pts[:15], pts[30:60])
        bd = kd(pts[:15], pts[30:60])
        assert np.allclose(np.abs(bz), bd)

    def test_rule_of_thumb_default(self, pts):
        k = helmholtz_kernel(pts)
        h = mesh_step(pts)
        assert math.isclose(k.params["wavenumber"], 2 * math.pi / (10 * h), rel_tol=1e-9)

    def test_explicit_wavenumber(self, pts):
        k = helmholtz_kernel(pts, wavenumber=5.0)
        assert k.params["wavenumber"] == 5.0

    def test_zero_wavenumber_reduces_to_laplace(self, pts):
        kz = helmholtz_kernel(pts, wavenumber=0.0)
        kd = laplace_kernel(pts)
        assert np.allclose(kz(pts[:8], pts[8:16]).real, kd(pts[:8], pts[8:16]))
        assert np.allclose(kz(pts[:8], pts[8:16]).imag, 0.0)

    def test_negative_wavenumber_rejected(self, pts):
        with pytest.raises(ValueError):
            helmholtz_kernel(pts, wavenumber=-1.0)


class TestOtherKernels:
    def test_gravity_smooth_at_zero(self, pts):
        k = gravity_kernel(pts)
        block = k(pts[:4], pts[:4])
        assert np.all(np.isfinite(block))
        eps = k.params["softening"]
        # No clamp needed: the softened kernel is finite at d = 0.
        assert np.allclose(np.diag(block), 1.0 / eps)

    def test_exponential_spd(self, pts):
        # Smooth covariance kernels must stay symmetric positive definite:
        # the diagonal is the exact K(0) = 1 (no clamping).
        k = exponential_kernel(pts, length=0.7)
        block = k(pts[:100], pts[:100])
        assert np.allclose(np.diag(block), 1.0)
        assert np.linalg.eigvalsh(block).min() > 0

    def test_exponential_bounded_by_one(self, pts):
        k = exponential_kernel(pts, length=0.7)
        block = k(pts[:10], pts[100:150])
        assert np.all(block > 0) and np.all(block <= 1.0)

    def test_exponential_rejects_bad_length(self, pts):
        with pytest.raises(ValueError):
            exponential_kernel(pts, length=0.0)


class TestMakeKernel:
    @pytest.mark.parametrize("name", ["laplace", "helmholtz", "gravity", "exponential"])
    def test_factory_names(self, pts, name):
        k = make_kernel(name, pts)
        assert k.name == name

    def test_unknown_name(self, pts):
        with pytest.raises(ValueError, match="unknown kernel"):
            make_kernel("stokes", pts)


class TestRowPanels:
    """A block evaluated panel by panel is bit for bit the one-pass block."""

    @pytest.mark.parametrize("name", sorted(kernels._FACTORIES))
    @pytest.mark.parametrize("shape", [(48, 48), (300, 400), (1, 400), (400, 1)])
    def test_equal_to_one_panel(self, pts, name, shape, monkeypatch):
        k = make_kernel(name, pts)
        # Rows and columns overlap: coincident points, the exact-zero
        # distances the GP nugget keys on, fall inside the block.
        x, y = pts[: shape[0]], pts[: shape[1]]
        monkeypatch.setattr(kernels, "_PANEL_ENTRIES", 1 << 40)
        whole = k(x, y)
        for entries in (1, 37, 4096):  # one row at a time, ragged, several rows
            monkeypatch.setattr(kernels, "_PANEL_ENTRIES", entries)
            block = k(x, y)
            assert block.dtype == whole.dtype == k.dtype
            assert block.flags.c_contiguous
            assert np.array_equal(block, whole)

    @pytest.mark.parametrize("name", ["sqexp", "matern32"])
    def test_diagonal_keeps_nugget(self, pts, name, monkeypatch):
        k = make_kernel(name, pts, nugget=1e-2)
        monkeypatch.setattr(kernels, "_PANEL_ENTRIES", 1000)
        block = k(pts, pts)
        assert np.array_equal(np.diag(block), k.diag(pts))


class TestRuleOfThumb:
    def test_positive(self, pts):
        assert rule_of_thumb_wavenumber(pts) > 0

    def test_more_points_higher_wavenumber(self):
        k1 = rule_of_thumb_wavenumber(cylinder_cloud(500))
        k2 = rule_of_thumb_wavenumber(cylinder_cloud(4000))
        assert k2 > k1

    def test_rejects_bad_ppw(self, pts):
        with pytest.raises(ValueError):
            rule_of_thumb_wavenumber(pts, points_per_wavelength=0)
