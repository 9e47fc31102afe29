"""Unit tests for the ACA compressors."""

import numpy as np
import pytest

from repro.geometry import cylinder_cloud, helmholtz_kernel, laplace_kernel
from repro.hmatrix import (
    COMPRESSION_METHODS,
    AssemblyConfig,
    aca_full,
    aca_partial,
    assemble_hmatrix,
    build_block_cluster_tree,
    build_cluster_tree,
    compress_kernel_block,
)
from repro.hmatrix.aca import _row_norms


def _oracles(block):
    return (lambda i: block[i], lambda j: block[:, j])


def _smooth_block(m, n, seed=0):
    """A numerically low-rank block from a smooth kernel on separated sets."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(m, 3))
    y = rng.uniform(0, 1, size=(n, 3)) + np.array([5.0, 0, 0])
    d = np.linalg.norm(x[:, None] - y[None, :], axis=2)
    return 1.0 / d


class TestAcaPartial:
    @pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9])
    def test_accuracy(self, eps):
        block = _smooth_block(60, 50)
        rk = aca_partial(*_oracles(block), 60, 50, eps)
        err = np.linalg.norm(rk.to_dense() - block) / np.linalg.norm(block)
        assert err <= 10 * eps

    def test_exact_lowrank_recovery(self):
        rng = np.random.default_rng(3)
        block = rng.standard_normal((40, 5)) @ rng.standard_normal((5, 30))
        rk = aca_partial(*_oracles(block), 40, 30, 1e-12)
        assert rk.rank == 5
        assert np.allclose(rk.to_dense(), block, atol=1e-9)

    def test_zero_block(self):
        block = np.zeros((10, 12))
        rk = aca_partial(*_oracles(block), 10, 12, 1e-6)
        assert rk.rank == 0

    def test_complex_block(self):
        block = _smooth_block(50, 40) * np.exp(1j * _smooth_block(50, 40, seed=1))
        rk = aca_partial(*_oracles(block), 50, 40, 1e-8)
        err = np.linalg.norm(rk.to_dense() - block) / np.linalg.norm(block)
        assert err <= 1e-6
        assert rk.dtype == np.complex128

    def test_max_rank_cap(self):
        block = _smooth_block(40, 40)
        rk = aca_partial(*_oracles(block), 40, 40, 1e-14, max_rank=3)
        assert rk.rank <= 3

    def test_no_recompress_keeps_crosses(self):
        block = _smooth_block(30, 30)
        raw = aca_partial(*_oracles(block), 30, 30, 1e-6, recompress=False)
        rec = aca_partial(*_oracles(block), 30, 30, 1e-6, recompress=True)
        assert rec.rank <= raw.rank

    def test_rank_one_block(self):
        u = np.arange(1.0, 9.0)[:, None]
        v = np.arange(1.0, 6.0)[None, :]
        block = u @ v
        rk = aca_partial(*_oracles(block), 8, 5, 1e-12)
        assert rk.rank == 1
        assert np.allclose(rk.to_dense(), block)

    def test_structured_grid_no_stall(self):
        # The regression this guards: partial pivoting stalling on the
        # cylinder's structured mesh while untouched rows still carry error.
        pts = cylinder_cloud(800)
        kern = laplace_kernel(pts)
        rows, cols = pts[:200], pts[-200:]
        block = kern(rows, cols)
        rk = aca_partial(*_oracles(block), 200, 200, 1e-6)
        err = np.linalg.norm(rk.to_dense() - block) / np.linalg.norm(block)
        assert err <= 1e-5

    def test_validation(self):
        block = np.zeros((3, 3))
        with pytest.raises(ValueError):
            aca_partial(*_oracles(block), 0, 3, 1e-6)
        with pytest.raises(ValueError):
            aca_partial(*_oracles(block), 3, 3, -1.0)
        with pytest.raises(ValueError, match="grace must be >= 1"):
            aca_partial(*_oracles(block), 3, 3, 1e-6, grace=0)
        with pytest.raises(ValueError, match="max_rank must be None or >= 1"):
            aca_partial(*_oracles(block), 3, 3, 1e-6, max_rank=0)


class TestSinglePrecisionPivotsPinned:
    """s and c oracles: raw ACA ranks recorded at the commit before the
    block sampler (seeds 0-3 by eps 1e-2, 1e-3, 1e-4)."""

    RAW_RANKS = {
        np.float32: [4, 7, 11, 6, 7, 10, 4, 8, 9, 5, 7, 9],
        np.complex64: [6, 10, 13, 6, 10, 12, 4, 11, 13, 5, 9, 12],
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.complex64], ids=["s", "c"])
    def test_raw_ranks(self, dtype):
        ranks = []
        for seed in range(4):
            block = _smooth_block(60, 50, seed)
            if np.dtype(dtype).kind == "c":
                block = block * np.exp(1j * _smooth_block(60, 50, seed + 10))
            block = block.astype(dtype)
            for eps in (1e-2, 1e-3, 1e-4):
                rk = aca_partial(*_oracles(block), 60, 50, eps, recompress=False)
                assert rk.dtype == np.dtype(dtype)
                ranks.append(rk.rank)
        assert ranks == self.RAW_RANKS[dtype]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.complex64, np.complex128])
    def test_cross_norm_is_numpys_norm(self, dtype):
        # The stopping test compares these norms; in single precision the
        # dot products and the square root must stay single, as in numpy.
        # Every row of a stack gets its own row's norm, whatever the stack.
        rng = np.random.default_rng(7)
        for n in (1, 3, 48, 192):
            for rows in (1, 2, 5, 37):
                x = rng.standard_normal((rows, n))
                if np.dtype(dtype).kind == "c":
                    x = x + 1j * rng.standard_normal((rows, n))
                x = x.astype(dtype)
                assert _row_norms(x) == [float(np.linalg.norm(row)) for row in x]


class TestAcaFull:
    def test_accuracy(self):
        block = _smooth_block(45, 35)
        rk = aca_full(block, 1e-8)
        assert np.linalg.norm(rk.to_dense() - block) <= 1e-7 * np.linalg.norm(block)

    def test_zero(self):
        assert aca_full(np.zeros((5, 5)), 1e-6).rank == 0

    def test_max_rank(self):
        assert aca_full(_smooth_block(30, 30), 1e-14, max_rank=2).rank <= 2

    def test_agrees_with_partial(self):
        block = _smooth_block(50, 50, seed=7)
        rk_p = aca_partial(*_oracles(block), 50, 50, 1e-8)
        rk_f = aca_full(block, 1e-8)
        assert np.allclose(rk_p.to_dense(), rk_f.to_dense(), atol=1e-6)


class TestCompressKernelBlock:
    @pytest.fixture(scope="class")
    def geom(self):
        pts = cylinder_cloud(600)
        return pts, laplace_kernel(pts), helmholtz_kernel(pts)

    @pytest.mark.parametrize("method", ["aca", "svd", "aca_full"])
    def test_methods_agree(self, geom, method):
        pts, kd, _ = geom
        rows, cols = pts[:100], pts[-100:]
        ref = kd(rows, cols)
        rk = compress_kernel_block(kd, rows, cols, 1e-6, method=method)
        err = np.linalg.norm(rk.to_dense() - ref) / np.linalg.norm(ref)
        assert err <= 1e-5

    def test_complex_kernel(self, geom):
        pts, _, kz = geom
        rows, cols = pts[:80], pts[-120:]
        ref = kz(rows, cols)
        rk = compress_kernel_block(kz, rows, cols, 1e-5)
        assert np.linalg.norm(rk.to_dense() - ref) <= 1e-4 * np.linalg.norm(ref)

    def test_helmholtz_rank_exceeds_laplace(self, geom):
        # The paper's key workload asymmetry: oscillatory kernels carry
        # higher ranks at equal accuracy.
        pts, kd, kz = geom
        rows, cols = pts[:150], pts[-150:]
        rk_d = compress_kernel_block(kd, rows, cols, 1e-6)
        rk_z = compress_kernel_block(kz, rows, cols, 1e-6)
        assert rk_z.rank > rk_d.rank

    def test_unknown_method(self, geom):
        pts, kd, _ = geom
        with pytest.raises(ValueError):
            compress_kernel_block(kd, pts[:5], pts[:5], 1e-4, method="magic")


class TestBareCallableKernel:
    """A kernel with no ``sampler`` is sampled by one-row and one-column calls."""

    @pytest.fixture(scope="class")
    def geom(self):
        pts = cylinder_cloud(600)
        kern = laplace_kernel(pts)
        return pts, kern, lambda x, y: kern(x, y)

    def test_compress_kernel_block_aca(self, geom):
        pts, kern, bare = geom
        rows, cols = pts[:100], pts[-100:]
        rk = compress_kernel_block(bare, rows, cols, 1e-6, method="aca")
        ref = compress_kernel_block(kern, rows, cols, 1e-6)
        assert rk.rank == ref.rank
        assert np.allclose(rk.to_dense(), ref.to_dense(), rtol=0, atol=1e-12)
        block = kern(rows, cols)
        assert np.linalg.norm(rk.to_dense() - block) <= 1e-5 * np.linalg.norm(block)

    def test_aca_assembly(self, geom):
        pts, kern, bare = geom
        root = build_cluster_tree(pts, leaf_size=32)
        bt = build_block_cluster_tree(root, root)
        h = assemble_hmatrix(bare, pts, bt, AssemblyConfig(eps=1e-6))
        ref = assemble_hmatrix(kern, pts, bt, AssemblyConfig(eps=1e-6))
        assert [leaf.kind for leaf in h.leaves()] == [leaf.kind for leaf in ref.leaves()]
        assert h.max_rank() == ref.max_rank()
        assert np.allclose(h.to_dense(), ref.to_dense(), rtol=0, atol=1e-10)


class TestCompressionSettings:
    """Compression settings are checked when they are constructed."""

    def test_methods_come_from_the_compressor_table(self):
        assert COMPRESSION_METHODS == ("aca", "svd", "rsvd", "aca_full")
        for method in COMPRESSION_METHODS:
            assert AssemblyConfig(method=method).method == method

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"method": "bogus"}, "unknown compression method 'bogus'"),
            ({"max_rank": -1}, "max_rank must be None or >= 1"),
            ({"max_rank": 0}, "max_rank must be None or >= 1"),
            ({"method": "bogus", "max_rank": -1}, "unknown compression method"),
        ],
    )
    def test_assembly_config_rejects(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            AssemblyConfig(**kwargs)

    def test_kernel_block_rejects_a_bad_rank_cap(self):
        pts = cylinder_cloud(200)
        with pytest.raises(ValueError, match="max_rank"):
            compress_kernel_block(laplace_kernel(pts), pts[:20], pts[-20:], 1e-4, max_rank=0)


class _CountingKernel:
    """Kernel stand-in whose samplers count the oracle calls ACA makes."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.calls = 0  # row + col + batched-rows evaluations
        self.rounds = 0  # batched-rows evaluations (one per verification)

    def sampler(self, row_points, col_points):
        inner = self.kernel.sampler(row_points, col_points)
        outer = self

        class Counted:
            shape = inner.shape

            def row(self, i):
                outer.calls += 1
                return inner.row(i)

            def col(self, j):
                outer.calls += 1
                return inner.col(j)

            def rows(self, idx):
                outer.calls += 1
                outer.rounds += 1
                return inner.rows(idx)

        return Counted()


class TestAssemblyCallBudget:
    """The smoke problem of ``benchmarks/e2e`` (n=512, nb=128, eps=1e-4)."""

    # Recorded at the commit before the block sampler: the same pivots must
    # be chosen, so every admissible leaf keeps its rank, raw and rounded.
    RANKS = [14, 8, 14, 9, 5, 14, 8, 14, 14, 8, 14, 9, 9, 14, 8, 14,
             14, 8, 14, 7, 9, 14, 8, 14]
    RAW_RANKS = [23, 17, 23, 20, 9, 23, 17, 23, 23, 17, 23, 20, 18, 23, 17, 24,
                 23, 17, 23, 15, 18, 24, 17, 23]
    COMPRESSION_RATIO = 0.49609375

    @pytest.fixture(scope="class")
    def built(self):
        from repro.core import TileHConfig, TileHMatrix
        from repro.hmatrix import HMatrix

        pts = cylinder_cloud(512)
        kern = laplace_kernel(pts)
        a = TileHMatrix.build(kern, pts, TileHConfig(nb=128, eps=1e-4, leaf_size=48))
        leaves = [
            leaf
            for tile in a.desc.super.tiles
            if isinstance(tile.mat, HMatrix)
            for leaf in tile.mat.leaves()
            if leaf.rk is not None
        ]
        return pts, kern, a, leaves

    def test_ranks_and_compression_ratio_pinned(self, built):
        _, _, a, leaves = built
        assert [leaf.rk.rank for leaf in leaves] == self.RANKS
        assert a.compression_ratio() == self.COMPRESSION_RATIO

    def test_kernel_evaluations_per_leaf(self, built):
        pts, kern, _, leaves = built
        for leaf, rank, raw_rank in zip(leaves, self.RANKS, self.RAW_RANKS):
            rp, cp = pts[leaf.rows.indices], pts[leaf.cols.indices]
            counting = _CountingKernel(kern)
            rk = compress_kernel_block(counting, rp, cp, 1e-4)
            assert rk.rank == rank
            assert np.array_equal(rk.u, leaf.rk.u) and np.array_equal(rk.v, leaf.rk.v)
            block = kern.sampler(rp, cp)
            raw = aca_partial(
                block.row, block.col, *block.shape, 1e-4,
                recompress=False, get_rows=block.rows,
            )
            assert raw.rank == raw_rank
            # One row and one column per cross, one batched evaluation per
            # verification round, one spare row for a dropped pivot.
            assert counting.calls <= 2 * raw_rank + counting.rounds + 1
            assert counting.rounds >= 1

    def test_plain_callables_give_the_same_factors(self, built):
        # Without the batched oracle the verification evaluates its sample
        # rows one by one; the crosses, hence the pivots, are the same.
        pts, kern, _, leaves = built
        leaf = leaves[3]
        rp, cp = pts[leaf.rows.indices], pts[leaf.cols.indices]
        calls = []

        def get_row(i):
            calls.append(("row", i))
            return kern(rp[i : i + 1], cp)[0]

        def get_col(j):
            calls.append(("col", j))
            return kern(rp, cp[j : j + 1])[:, 0]

        rk = aca_partial(get_row, get_col, len(rp), len(cp), 1e-4)
        assert rk.rank == leaf.rk.rank
        assert np.allclose(rk.to_dense(), leaf.rk.to_dense(), rtol=0, atol=1e-12)
        assert calls.count(("row", 0)) == 1  # the dtype probe is the first pivot row
