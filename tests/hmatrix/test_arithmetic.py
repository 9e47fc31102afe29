"""Unit tests for recursive H-arithmetic (H-GEMM, H-TRSM, H-GETRF)."""

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from repro.geometry import assemble_dense, cylinder_cloud, helmholtz_kernel, laplace_kernel
from repro.hmatrix import (
    AssemblyConfig,
    StrongAdmissibility,
    assemble_hmatrix,
    build_block_cluster_tree,
    build_cluster_tree,
    hgemm,
    hgetrf,
    hlu_solve,
    htrsm,
)
from repro.hmatrix.arithmetic import h_rmatvec, solve_tri_panel

N = 360
EPS = 1e-7


@pytest.fixture(scope="module")
def ctx():
    """Three H-matrices over the same cluster tree (A, B, C operands)."""
    pts = cylinder_cloud(N)
    ct = build_cluster_tree(pts, leaf_size=24)
    bt = build_block_cluster_tree(ct, ct, StrongAdmissibility(eta=2.0))
    kern = laplace_kernel(pts)
    h = assemble_hmatrix(kern, pts, bt, AssemblyConfig(eps=EPS))
    dense = assemble_dense(kern, pts)[np.ix_(ct.perm, ct.perm)]
    return pts, ct, bt, kern, h, dense


def _rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


class TestHRmatvec:
    def test_matches_transpose(self, ctx):
        *_, h, dense = ctx
        x = np.random.default_rng(0).standard_normal((N, 2))
        assert _rel(h_rmatvec(h, x), dense.T @ x) <= 1e-5


class TestHgemm:
    def test_all_h_operands(self, ctx):
        *_, h, dense = ctx
        c = h.copy()
        hgemm(c, h, h, eps=1e-9, alpha=-1.0)
        ref = dense - dense @ dense
        assert _rel(c.to_dense(), ref) <= 1e-4

    def test_alpha_plus_one(self, ctx):
        *_, h, dense = ctx
        c = h.copy()
        hgemm(c, h, h, eps=1e-9, alpha=1.0)
        assert _rel(c.to_dense(), dense + dense @ dense) <= 1e-4

    def test_rk_times_h(self, ctx):
        # C += alpha * A @ B where A is a low-rank leaf: take off-diagonal
        # children of the root.
        *_, h, dense = ctx
        a01 = h.child(0, 1)
        b10 = h.child(1, 0)
        c00 = h.child(0, 0).copy()
        m = c00.shape[0]
        ref = dense[:m, :m] - dense[:m, m:] @ dense[m:, :m]
        hgemm(c00, a01, b10, eps=1e-9, alpha=-1.0)
        assert _rel(c00.to_dense(), ref) <= 1e-4

    def test_shape_validation(self, ctx):
        *_, h, _ = ctx
        # C (half-sized) cannot absorb the product of two full-sized operands.
        with pytest.raises(ValueError):
            hgemm(h.child(0, 0), h, h, eps=1e-6)

    def test_gemm_into_rk_leaf(self, ctx):
        # C is a low-rank leaf while A, B are subdivided: the collect path.
        *_, h, dense = ctx
        c = h.child(0, 1).copy()
        a = h.child(0, 0)
        b = h.child(0, 1)
        m, n = c.shape
        ref = dense[:m, m:] - dense[:m, :m] @ dense[:m, m:]
        hgemm(c, a, b, eps=1e-9, alpha=-1.0)
        assert _rel(c.to_dense(), ref) <= 1e-4

    def test_complex(self):
        pts = cylinder_cloud(200)
        ct = build_cluster_tree(pts, leaf_size=16)
        bt = build_block_cluster_tree(ct, ct, StrongAdmissibility())
        kz = helmholtz_kernel(pts)
        h = assemble_hmatrix(kz, pts, bt, AssemblyConfig(eps=1e-8))
        dense = assemble_dense(kz, pts)[np.ix_(ct.perm, ct.perm)]
        c = h.copy()
        hgemm(c, h, h, eps=1e-10, alpha=-1.0)
        assert _rel(c.to_dense(), dense - dense @ dense) <= 1e-5


class TestPanelSolves:
    @pytest.fixture(scope="class")
    def lu(self, ctx):
        *_, h, dense = ctx
        hl = h.copy()
        hgetrf(hl, eps=1e-9)
        return hl, dense

    @pytest.mark.parametrize(
        "lower, trans", [(True, 0), (False, 0), (False, 1), (True, 1)],
        ids=["lower", "upper", "upper-transpose", "lower-transpose"],
    )
    def test_solve_tri_panel(self, lu, lower, trans):
        hl, _ = lu
        b = np.random.default_rng(1).standard_normal((N, 3))
        y = solve_tri_panel(hl, b, lower=lower, unit=lower, trans=trans)
        ref = solve_triangular(hl.to_dense(), b, lower=lower, unit_diagonal=lower, trans=trans)
        assert _rel(y, ref) <= 1e-6


class TestHtrsm:
    @pytest.fixture(scope="class")
    def factored_root_block(self, ctx):
        *_, h, dense = ctx
        hl = h.child(0, 0).copy()
        hgetrf(hl, eps=1e-10)
        m = hl.shape[0]
        return hl, dense[:m, :m], m

    def test_left_lower_on_h_rhs(self, ctx, factored_root_block):
        *_, h, dense = ctx
        hl, dkk, m = factored_root_block
        b = h.child(0, 1).copy()
        ref_rhs = dense[:m, m:].copy()
        htrsm("left", "lower", hl, b, eps=1e-9, unit_diagonal=True)
        l = np.tril(hl.to_dense(), -1) + np.eye(m)
        assert _rel(l @ b.to_dense(), ref_rhs) <= 1e-5

    def test_right_upper_on_h_rhs(self, ctx, factored_root_block):
        *_, h, dense = ctx
        hl, dkk, m = factored_root_block
        b = h.child(1, 0).copy()
        ref_rhs = dense[m:, :m].copy()
        htrsm("right", "upper", hl, b, eps=1e-9)
        u = np.triu(hl.to_dense())
        assert _rel(b.to_dense() @ u, ref_rhs) <= 1e-5

    def test_unsupported_variant(self, ctx, factored_root_block):
        hl, _, _ = factored_root_block
        b = hl.copy()
        with pytest.raises(ValueError):
            htrsm("left", "upper", hl, b, eps=1e-6)
        with pytest.raises(ValueError):
            htrsm("right", "upper", hl, b, eps=1e-6, unit_diagonal=True)

    def test_dim_validation(self, ctx, factored_root_block):
        *_, h, _ = ctx
        hl, _, m = factored_root_block
        with pytest.raises(ValueError):
            htrsm("left", "lower", hl, h, eps=1e-6, unit_diagonal=True)


class TestHgetrf:
    def test_lu_reconstruction(self, ctx):
        *_, h, dense = ctx
        hl = h.copy()
        hgetrf(hl, eps=1e-9)
        packed = hl.to_dense()
        l = np.tril(packed, -1) + np.eye(N)
        u = np.triu(packed)
        assert _rel(l @ u, dense) <= 1e-5

    def test_solve_accuracy(self, ctx):
        *_, h, dense = ctx
        hl = h.copy()
        hgetrf(hl, eps=1e-9)
        x0 = np.random.default_rng(4).standard_normal(N)
        x = hlu_solve(hl, dense @ x0)
        assert _rel(x, x0) <= 1e-5

    def test_solve_panel(self, ctx):
        *_, h, dense = ctx
        hl = h.copy()
        hgetrf(hl, eps=1e-9)
        x0 = np.random.default_rng(5).standard_normal((N, 4))
        x = hlu_solve(hl, dense @ x0)
        assert _rel(x, x0) <= 1e-5

    def test_eps_controls_accuracy(self, ctx):
        *_, h, dense = ctx
        x0 = np.random.default_rng(6).standard_normal(N)
        errs = []
        for eps in (1e-2, 1e-8):
            hl = h.copy()
            hgetrf(hl, eps=eps)
            x = hlu_solve(hl, dense @ x0)
            errs.append(_rel(x, x0))
        assert errs[1] < errs[0]

    def test_complex_lu(self):
        pts = cylinder_cloud(220)
        ct = build_cluster_tree(pts, leaf_size=20)
        bt = build_block_cluster_tree(ct, ct, StrongAdmissibility())
        kz = helmholtz_kernel(pts)
        h = assemble_hmatrix(kz, pts, bt, AssemblyConfig(eps=1e-8))
        dense = assemble_dense(kz, pts)[np.ix_(ct.perm, ct.perm)]
        hgetrf(h, eps=1e-9)
        rng = np.random.default_rng(7)
        x0 = rng.standard_normal(220) + 1j * rng.standard_normal(220)
        x = hlu_solve(h, dense @ x0)
        assert _rel(x, x0) <= 1e-5

    def test_non_square_rejected(self, ctx):
        *_, h, _ = ctx
        with pytest.raises(ValueError):
            hgetrf(h.child(0, 1), eps=1e-6)

    def test_rhs_dim_validation(self, ctx):
        *_, h, _ = ctx
        hl = h.copy()
        hgetrf(hl, eps=1e-9)
        with pytest.raises(ValueError):
            hlu_solve(hl, np.zeros(N + 1))

