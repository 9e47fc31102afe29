"""Admissible blocks between two leaf clusters: one kernel call and an SVD.

Under ``method="aca"`` assembly compresses an admissible leaf whose row and
column clusters are both cluster-tree leaves from the evaluated block by the
truncated SVD; every larger admissible block stays on sampler ACA, and a
block tree that is a single leaf (a flat BLR tile) does too.  Every
compressed block reaches the probe once, whatever the method.
"""

import numpy as np
import pytest

from repro.core import TileHConfig, TileHMatrix
from repro.geometry import cylinder_cloud, make_kernel
from repro.gp import synthetic_gp_data
from repro.hmatrix import (
    AssemblyConfig,
    HMatrix,
    assemble_hmatrix,
    build_block_cluster_tree,
    build_cluster_tree,
    compress_dense,
)
from repro.obs import Instrumentation

N, NB, LEAF = 400, 100, 24


def _problem(name):
    if name == "sqexp":
        x, _, _, _ = synthetic_gp_data(N, 8, noise=0.05, seed=3)
        return x, make_kernel("sqexp", x, length=0.3, signal=1.0, nugget=0.05**2), 1e-6
    pts = cylinder_cloud(N)
    return pts, make_kernel(name, pts), 1e-4


def _admissible_leaves(a):
    return [
        leaf
        for tile in a.desc.super.tiles
        if isinstance(tile.mat, HMatrix)
        for leaf in tile.mat.leaves()
        if leaf.rk is not None
    ]


def _leaf_leaf(leaf):
    return leaf.rows.is_leaf and leaf.cols.is_leaf


@pytest.fixture(scope="module", params=["laplace", "helmholtz", "sqexp"])
def built(request):
    pts, kern, eps = _problem(request.param)
    cfg = TileHConfig(nb=NB, eps=eps, leaf_size=LEAF)
    return request.param, pts, kern, eps, cfg, TileHMatrix.build(kern, pts, cfg)


class TestLeafLeafBlocks:
    def test_both_kinds_of_admissible_leaf_occur(self, built):
        *_, a = built
        leaves = _admissible_leaves(a)
        assert any(_leaf_leaf(leaf) for leaf in leaves)
        assert any(not _leaf_leaf(leaf) for leaf in leaves)

    def test_leaf_leaf_block_is_the_truncated_svd(self, built):
        _, pts, kern, eps, _, a = built
        for leaf in filter(_leaf_leaf, _admissible_leaves(a)):
            block = kern(pts[leaf.rows.indices], pts[leaf.cols.indices])
            ref = compress_dense(block, eps)
            assert np.array_equal(leaf.rk.u, ref.u) and np.array_equal(leaf.rk.v, ref.v)
            err = np.linalg.norm(leaf.rk.to_dense() - block)
            assert err <= eps * np.linalg.norm(block) * (1 + 1e-10)

    def test_factorisation_stays_eps_class(self, built):
        name, pts, kern, eps, cfg, _ = built
        a = TileHMatrix.build(kern, pts, cfg)  # factorised in place: not the shared one
        dense = kern(pts, pts)
        x = np.random.default_rng(0).standard_normal(N)
        if name == "sqexp":
            a.factorize(method="cholesky")
        else:
            a.factorize()
        sol = a.solve(dense @ x)
        assert np.linalg.norm(sol - x) <= 1e3 * eps * np.linalg.norm(x)


class _LoggingKernel:
    """Kernel stand-in that logs each dense call and each sampler built."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.log = []

    def __call__(self, x, y):
        self.log.append(("call", len(x), len(y)))
        return self.kernel(x, y)

    def sampler(self, row_points, col_points):
        self.log.append(("sampler", len(row_points), len(col_points)))
        return self.kernel.sampler(row_points, col_points)


class TestKernelCalls:
    @pytest.fixture(scope="class")
    def tree(self):
        pts = cylinder_cloud(N)
        root = build_cluster_tree(pts, leaf_size=LEAF)
        return pts, build_block_cluster_tree(root, root)

    def test_one_call_per_leaf_leaf_block_and_sampler_aca_above(self, tree):
        pts, bt = tree
        logging = _LoggingKernel(make_kernel("laplace", pts))
        assemble_hmatrix(logging, pts, bt, AssemblyConfig(eps=1e-4))
        expected = [
            ("sampler" if leaf.admissible and not _leaf_leaf(leaf) else "call", *leaf.shape)
            for leaf in bt.leaves()
        ]
        assert logging.log == expected
        adm = [leaf for leaf in bt.leaves() if leaf.admissible]
        assert any(_leaf_leaf(leaf) for leaf in adm)
        assert any(not _leaf_leaf(leaf) for leaf in adm)

    def test_single_leaf_block_tree_stays_on_aca(self, tree):
        # A flat BLR tile: both clusters are leaves, but it is the root.
        pts, bt = tree
        leaf = next(lf for lf in bt.leaves() if lf.admissible and _leaf_leaf(lf))
        logging = _LoggingKernel(make_kernel("laplace", pts))
        assemble_hmatrix(logging, pts, leaf, AssemblyConfig(eps=1e-4))
        assert logging.log == [("sampler", *leaf.shape)]


class TestProbeCountsEveryMethod:
    @pytest.mark.parametrize("method", ["aca", "svd", "rsvd", "aca_full"])
    def test_one_report_per_admissible_leaf(self, method):
        pts = cylinder_cloud(N)
        kern = make_kernel("laplace", pts)
        cfg = TileHConfig(nb=NB, eps=1e-4, leaf_size=48, method=method)
        with Instrumentation(trace_capacity=0) as probe:
            a = TileHMatrix.build(kern, pts, cfg)
        leaves = _admissible_leaves(a)
        reg = probe.registry
        assert len(leaves) > 0
        assert reg.counter("h.blocks_compressed") == len(leaves)
        assert reg.counter("h.compressed_bytes") == sum(
            (m + n) * leaf.rk.rank * 8 for leaf in leaves for m, n in [leaf.shape]
        )
        assert reg.counter("h.aca.dense_entries") == sum(m * n for m, n in (lf.shape for lf in leaves))
        if method != "aca":
            assert reg.counter("h.aca.kernel_entries") == reg.counter("h.aca.dense_entries")
