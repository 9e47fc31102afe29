"""Edge-case and error-path tests for the hmatrix substrate."""

import itertools

import numpy as np
import pytest

from repro.geometry import cylinder_cloud, laplace_kernel
from repro.hmatrix import (
    AssemblyConfig,
    BlockClusterTree,
    HMatrix,
    RkMatrix,
    StrongAdmissibility,
    aca_partial,
    assemble_hmatrix,
    build_block_cluster_tree,
    build_cluster_tree,
    hgemm,
    hgemm_transb,
    hgetrf,
    htrsm,
)
from repro.hmatrix.arithmetic import h_rmatvec, solve_tri_panel
from repro.hmatrix.rules import split

from .test_recursion_equivalence import _block, _tree


@pytest.fixture(scope="module")
def small():
    pts = cylinder_cloud(160)
    ct = build_cluster_tree(pts, leaf_size=16)
    bt = build_block_cluster_tree(ct, ct, StrongAdmissibility())
    kern = laplace_kernel(pts)
    h = assemble_hmatrix(kern, pts, bt, AssemblyConfig(eps=1e-8))
    return pts, ct, bt, h


class TestHMatrixConstructorEdges:
    def test_two_payloads_rejected(self, small):
        _, ct, *_ = small
        n = ct.size
        with pytest.raises(ValueError):
            HMatrix(ct, ct, full=np.zeros((n, n)), rk=RkMatrix.zeros(n, n))

    def test_children_grid_mismatch(self, small):
        _, ct, _, h = small
        with pytest.raises(ValueError):
            HMatrix(ct, ct, children=list(h.children), nrow_children=3, ncol_children=3)

    def test_rk_shape_mismatch(self, small):
        _, ct, *_ = small
        with pytest.raises(ValueError):
            HMatrix(ct, ct, rk=RkMatrix.zeros(3, 3))

    def test_leaf_child_access_raises(self, small):
        *_, h = small
        leaf = next(iter(h.leaves()))
        with pytest.raises(IndexError):
            leaf.child(0, 0)


class TestPanelSolveErrorPaths:
    def test_rk_diagonal_rejected(self, small):
        *_, h = small
        # Fabricate an (invalid) rk diagonal node and check the guard fires
        # in every (lower, unit, trans) cell.
        off = h.child(0, 1)
        rk_node = HMatrix(off.rows, off.rows, rk=RkMatrix.zeros(off.shape[0], off.shape[0]))
        for lower, unit, trans in itertools.product((True, False), (True, False), (0, 1)):
            with pytest.raises(ValueError, match="low-rank"):
                solve_tri_panel(rk_node, np.zeros((off.shape[0], 1)),
                                lower=lower, unit=unit, trans=trans)

    def test_h_rmatvec_dim_check(self, small):
        *_, h = small
        with pytest.raises(ValueError):
            h_rmatvec(h, np.zeros(3))


class TestHgetrfEdges:
    def test_rk_diagonal_rejected(self, small):
        *_, h = small
        off = h.child(0, 1)
        rk_node = HMatrix(off.rows, off.rows, rk=RkMatrix.zeros(off.shape[0], off.shape[0]))
        with pytest.raises(ValueError, match="low-rank"):
            hgetrf(rk_node, 1e-6)

    def test_trsm_dimension_mismatch(self, small):
        *_, h = small
        lu = h.child(0, 0).copy()
        hgetrf(lu, 1e-8)
        with pytest.raises(ValueError):
            htrsm("left", "lower", lu, h, 1e-8, unit_diagonal=True)


class TestIncompatibleGrids:
    """Operands from different cluster trees: same shapes, other splits.  One
    test — ``rules.split`` — for all three grid conditions of the product; the
    inner one (``a``'s column split against ``b``'s row split) used to be
    checked by the nested expander only."""

    @staticmethod
    def _subdivided(rows, cols):
        dense = np.ones((rows.size, cols.size))
        block = _block(rows, cols, np.random.default_rng(0), kind="h")
        return HMatrix.from_dense(dense, block, 1e-8)

    @pytest.mark.parametrize("odd", ["a rows", "b cols", "inner"])
    @pytest.mark.parametrize("kernel,variant", [(hgemm, "gemm"), (hgemm_transb, "gemm_tb")])
    def test_product_refuses_every_grid_mismatch(self, kernel, variant, odd):
        two, three = _tree([[3, 3], [3, 3]]), _tree([[2, 2], [2, 2], [2, 2]])
        a_rows = three if odd == "a rows" else two
        b_cols = three if odd == "b cols" else two
        a_cols, b_rows = (three, two) if odd == "inner" else (two, two)
        c = self._subdivided(two, two)
        a = self._subdivided(a_rows, a_cols)
        b = self._subdivided(b_rows, b_cols)
        if variant == "gemm_tb":
            b = b.transpose()
        before = c.to_dense()
        # What the expander branches on: no steps, so one opaque subtask,
        # which raises this at run time.
        assert split(variant, (c, a, b)) is None
        with pytest.raises(ValueError, match="incompatible children grids"):
            kernel(c, a, b, 1e-8)
        assert np.array_equal(c.to_dense(), before)

    def test_compatible_grids_split(self):
        two = _tree([[3, 3], [3, 3]])
        c, a, b = (self._subdivided(two, two) for _ in range(3))
        assert len(split("gemm", (c, a, b))) == 8
        hgemm(c, a, b, 1e-8)


class TestAcaEdges:
    def test_grace_zero_can_stop_early(self):
        rng = np.random.default_rng(0)
        block = rng.standard_normal((30, 4)) @ rng.standard_normal((4, 30))
        rk = aca_partial(
            lambda i: block[i], lambda j: block[:, j], 30, 30, 1e-6, grace=1
        )
        # grace=1 with residual verification still converges on easy blocks.
        assert np.linalg.norm(rk.to_dense() - block) <= 1e-4 * np.linalg.norm(block)

    def test_rank_one_column_block(self):
        # Degenerate shapes: a single column.
        col = np.arange(1.0, 21.0)[:, None]
        rk = aca_partial(lambda i: col[i], lambda j: col[:, j], 20, 1, 1e-10)
        assert rk.rank == 1
        assert np.allclose(rk.to_dense(), col)

    def test_single_row_block(self):
        row = np.arange(1.0, 16.0)[None, :]
        rk = aca_partial(lambda i: row[i], lambda j: row[:, j], 1, 15, 1e-10)
        assert np.allclose(rk.to_dense(), row)


class TestBlockClusterEdges:
    def test_manual_leaf_node(self, small):
        _, ct, *_ = small
        node = BlockClusterTree(rows=ct, cols=ct, admissible=True)
        assert node.is_leaf
        assert node.depth() == 0
        assert list(node.leaves()) == [node]

    def test_depth_positive_for_split(self, small):
        _, _, bt, _ = small
        assert bt.depth() >= 1
        assert len(list(bt.nodes())) >= len(list(bt.leaves()))


class TestRkEdgeCases:
    def test_rank_zero_norm_and_scale(self):
        z = RkMatrix.zeros(4, 5)
        assert z.norm_fro() == 0.0
        assert z.scale(3.0).rank == 0
        assert z.transpose().shape == (5, 4)

    def test_truncate_rank_zero(self):
        z = RkMatrix.zeros(4, 5)
        assert z.truncate(1e-6).rank == 0

    def test_add_promotes_dtype(self):
        a = RkMatrix(np.ones((3, 1)), np.ones((3, 1)))
        b = RkMatrix(1j * np.ones((3, 1), dtype=complex), np.ones((3, 1), dtype=complex))
        out = a.add(b, eps=1e-12)
        assert out.dtype == np.complex128
        assert np.allclose(out.to_dense(), (1 + 1j) * np.ones((3, 3)))

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            RkMatrix(np.zeros(3), np.zeros(3))
