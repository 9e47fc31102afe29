"""Exhaustive H-GEMM format-configuration tests (Section II-B).

"In the case of H-GEMM, with 3 matrices involved and 3 possible formats for
each (low rank, full rank or subdivided), 27 different configurations
exist."  This module constructs operands of every format over a shared
cluster tree and checks ``C <- C - A @ B`` against the dense reference for
all 3 x 3 x 3 combinations.
"""

import numpy as np
import pytest

from repro.hmatrix import (
    BlockClusterTree,
    HMatrix,
    UpdateAccumulator,
    build_cluster_tree,
    hgemm,
)

N = 48
EPS = 1e-10
FORMATS = ("rk", "full", "h")


@pytest.fixture(scope="module")
def ct():
    # A 1-D point line gives a deterministic two-level cluster tree.
    pts = np.zeros((N, 3))
    pts[:, 0] = np.arange(N)
    return build_cluster_tree(pts, leaf_size=N // 4)


def _block_tree(ct, fmt: str) -> BlockClusterTree:
    """Single-leaf (rk/full) or one-level-subdivided block tree."""
    if fmt == "rk":
        return BlockClusterTree(rows=ct, cols=ct, admissible=True)
    if fmt == "full":
        return BlockClusterTree(rows=ct, cols=ct, admissible=False)
    node = BlockClusterTree(rows=ct, cols=ct, admissible=False)
    node.nrow_children = len(ct.children)
    node.ncol_children = len(ct.children)
    node.children = [
        BlockClusterTree(rows=r, cols=c, admissible=False)
        for r in ct.children
        for c in ct.children
    ]
    return node


def _lowrank_dense(seed: int) -> np.ndarray:
    """A numerically rank-5 matrix, so "rk" leaves represent it exactly."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((N, 5)) @ rng.standard_normal((5, N))


def _operand(ct, fmt: str, seed: int) -> tuple[HMatrix, np.ndarray]:
    dense = _lowrank_dense(seed)
    h = HMatrix.from_dense(dense, _block_tree(ct, fmt), eps=EPS)
    return h, dense


@pytest.mark.parametrize("fa", FORMATS)
@pytest.mark.parametrize("fb", FORMATS)
@pytest.mark.parametrize("fc", FORMATS)
def test_hgemm_configuration(ct, fa, fb, fc):
    a, da = _operand(ct, fa, seed=1)
    b, db = _operand(ct, fb, seed=2)
    c, dc = _operand(ct, fc, seed=3)
    assert a.kind == fa and b.kind == fb and c.kind == fc

    hgemm(c, a, b, eps=EPS, alpha=-1.0)
    ref = dc - da @ db
    err = np.linalg.norm(c.to_dense() - ref) / np.linalg.norm(ref)
    assert err < 1e-7, f"configuration (A={fa}, B={fb}, C={fc}) failed: {err:.2e}"


@pytest.mark.parametrize("fa", FORMATS)
@pytest.mark.parametrize("fb", FORMATS)
@pytest.mark.parametrize("fc", FORMATS)
def test_hgemm_configuration_accumulated(ct, fa, fb, fc):
    """All 27 configurations again through an UpdateAccumulator.

    Deferred roundings must land within the same eps accuracy class as the
    eager per-update roundings once the accumulator flushes.
    """
    a, da = _operand(ct, fa, seed=1)
    b, db = _operand(ct, fb, seed=2)
    c_eager, dc = _operand(ct, fc, seed=3)
    c_acc, _ = _operand(ct, fc, seed=3)

    hgemm(c_eager, a, b, eps=EPS, alpha=-1.0)
    acc = UpdateAccumulator(EPS)
    hgemm(c_acc, a, b, eps=EPS, alpha=-1.0, acc=acc)
    acc.flush(c_acc)
    assert not acc.has_pending(c_acc)

    ref = dc - da @ db
    scale = np.linalg.norm(ref)
    err_acc = np.linalg.norm(c_acc.to_dense() - ref)
    gap = np.linalg.norm(c_acc.to_dense() - c_eager.to_dense())
    assert err_acc < 1e-7 * scale, f"(A={fa}, B={fb}, C={fc}): {err_acc / scale:.2e}"
    assert gap < 1e-7 * scale, f"(A={fa}, B={fb}, C={fc}): paths diverge {gap / scale:.2e}"


@pytest.mark.parametrize("fa", FORMATS)
@pytest.mark.parametrize("fb", FORMATS)
def test_hgemm_alpha_plus_one(ct, fa, fb):
    """The alpha=+1 path across all A/B formats (C fixed subdivided)."""
    a, da = _operand(ct, fa, seed=4)
    b, db = _operand(ct, fb, seed=5)
    c, dc = _operand(ct, "h", seed=6)
    hgemm(c, a, b, eps=EPS, alpha=1.0)
    ref = dc + da @ db
    assert np.linalg.norm(c.to_dense() - ref) < 1e-7 * np.linalg.norm(ref)


def test_hgemm_complex_mixed(ct):
    """One mixed-format complex configuration."""
    rng = np.random.default_rng(9)
    da = (rng.standard_normal((N, 4)) + 1j * rng.standard_normal((N, 4))) @ (
        rng.standard_normal((4, N)) + 1j * rng.standard_normal((4, N))
    )
    db = da.T.copy()
    dc = da @ db * 0.5
    a = HMatrix.from_dense(da, _block_tree(ct, "rk"), eps=EPS)
    b = HMatrix.from_dense(db, _block_tree(ct, "h"), eps=EPS)
    c = HMatrix.from_dense(dc, _block_tree(ct, "full"), eps=EPS)
    hgemm(c, a, b, eps=EPS, alpha=-1.0)
    ref = dc - da @ db
    assert np.linalg.norm(c.to_dense() - ref) < 1e-7 * np.linalg.norm(dc)
