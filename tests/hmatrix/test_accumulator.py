"""Accumulator-based rounded arithmetic (``RkMatrix.add_many`` and
:class:`~repro.hmatrix.UpdateAccumulator`).

The accumulator's contract has two halves: the single stacked rounding must
meet the same relative-Frobenius bound as a chain of eager pairwise rounded
additions (accuracy), and threading it through H-GEMM/H-LU must reproduce
the eager results within the eps accuracy class while flushing every
pending update by the time the factorisation returns (soundness).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import cylinder_cloud, make_kernel
from repro.hmatrix import (
    AssemblyConfig,
    HMatrix,
    RkMatrix,
    StrongAdmissibility,
    UpdateAccumulator,
    assemble_hmatrix,
    build_block_cluster_tree,
    build_cluster_tree,
    hgetrf,
    hlu_solve,
)
from repro.obs import Instrumentation

EPS = 1e-6


def _random_rk(rng, m, n, k, complex_=False):
    u = rng.standard_normal((m, k))
    v = rng.standard_normal((n, k))
    if complex_:
        u = u + 1j * rng.standard_normal((m, k))
        v = v + 1j * rng.standard_normal((n, k))
    return RkMatrix(u, v)


# ---------------------------------------------------------------------------
# RkMatrix.add_many
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(4, 40),
    n=st.integers(4, 40),
    nterms=st.integers(1, 6),
    eps=st.sampled_from([1e-2, 1e-4, 1e-8]),
    complex_=st.booleans(),
)
def test_add_many_frobenius_bound(seed, m, n, nterms, eps, complex_):
    """One stacked rounding meets the relative eps bound against the dense sum."""
    rng = np.random.default_rng(seed)
    terms = [
        _random_rk(rng, m, n, int(rng.integers(0, min(m, n) + 1)), complex_)
        for _ in range(nterms)
    ]
    out = RkMatrix.add_many(terms, eps)
    dense_sum = sum(t.to_dense() for t in terms)
    scale = np.linalg.norm(dense_sum)
    err = np.linalg.norm(out.to_dense() - dense_sum)
    # truncate_svd drops tail singular values below eps * sigma_max; the
    # Frobenius error of that tail is <= eps * sqrt(rank) * ||sum||.
    bound = eps * np.sqrt(max(out.shape)) * scale + 1e-12
    assert err <= bound, f"err={err:.3e} bound={bound:.3e}"
    assert out.rank <= min(m, n)


def test_add_many_matches_pairwise_chain():
    rng = np.random.default_rng(7)
    terms = [_random_rk(rng, 30, 25, 4) for _ in range(5)]
    stacked = RkMatrix.add_many(terms, EPS)
    chained = terms[0]
    for t in terms[1:]:
        chained = chained.add(t, EPS)
    ref = sum(t.to_dense() for t in terms)
    scale = np.linalg.norm(ref)
    assert np.linalg.norm(stacked.to_dense() - ref) <= 10 * EPS * scale
    assert np.linalg.norm(chained.to_dense() - ref) <= 10 * EPS * scale
    # The stacked rounding must not be lazier about rank than the chain.
    assert stacked.rank <= chained.rank + 1


def test_add_many_single_term_is_exact_copy():
    """One live operand short-circuits untruncated (mirrors RkMatrix.add)."""
    rng = np.random.default_rng(3)
    t = _random_rk(rng, 12, 9, 5)
    out = RkMatrix.add_many([RkMatrix.zeros(12, 9, dtype=np.float64), t], 1e-1)
    assert out.rank == 5
    np.testing.assert_allclose(out.to_dense(), t.to_dense(), atol=1e-14)


def test_add_many_rejects_bad_input():
    with pytest.raises(ValueError):
        RkMatrix.add_many([], EPS)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        RkMatrix.add_many([_random_rk(rng, 4, 4, 1), _random_rk(rng, 5, 4, 1)], EPS)


# ---------------------------------------------------------------------------
# UpdateAccumulator
# ---------------------------------------------------------------------------

def _rk_leaf(m=32, n=24, k=3, seed=0):
    pts_r = np.zeros((m, 3))
    pts_r[:, 0] = np.arange(m)
    pts_c = np.zeros((n, 3))
    pts_c[:, 0] = np.arange(n)
    rows = build_cluster_tree(pts_r, leaf_size=m)
    cols = build_cluster_tree(pts_c, leaf_size=n)
    rng = np.random.default_rng(seed)
    return HMatrix(rows, cols, rk=_random_rk(rng, m, n, k))


def test_deferred_flush_matches_eager():
    rng = np.random.default_rng(11)
    updates = [_random_rk(rng, 32, 24, 3) for _ in range(6)]

    eager = _rk_leaf(seed=1)
    for upd in updates:
        eager.axpy_rk(upd, EPS)

    deferred = _rk_leaf(seed=1)
    acc = UpdateAccumulator(EPS)
    with Instrumentation() as probe:
        for upd in updates:
            deferred.axpy_rk(upd, EPS, acc)
        assert len(deferred.pending.rk_terms) == len(updates)  # buffered on the leaf
        assert acc.flush(deferred) == 1
    assert deferred.pending is None and not acc.has_pending(deferred)
    assert probe.registry.counter("h.accumulator.deferred") == len(updates)
    assert probe.registry.counter("h.accumulator.flushed_blocks") == 1

    ref = eager.to_dense()
    scale = np.linalg.norm(ref)
    assert np.linalg.norm(deferred.to_dense() - ref) <= 10 * EPS * scale


def test_dense_contributions_summed_exactly_before_compression():
    leaf = _rk_leaf(seed=2)
    rng = np.random.default_rng(5)
    blocks = [rng.standard_normal(leaf.shape) for _ in range(3)]
    base = leaf.to_dense()
    acc = UpdateAccumulator(EPS)
    for blk in blocks:
        leaf.axpy_dense(blk, EPS, acc)
    # All three dense updates share one buffer (plain +=).
    assert leaf.pending.rk_terms == []
    assert np.array_equal(leaf.pending.dense, blocks[0] + blocks[1] + blocks[2])
    acc.flush(leaf)
    ref = base + sum(blocks)
    scale = np.linalg.norm(ref)
    assert np.linalg.norm(leaf.to_dense() - ref) <= 10 * EPS * scale


def test_accumulator_rejects_bad_parameters():
    with pytest.raises(ValueError):
        UpdateAccumulator(-1e-4)


# ---------------------------------------------------------------------------
# End-to-end: accumulated H-LU vs eager H-LU
# ---------------------------------------------------------------------------

def _assembled(n=256, eps=1e-6, seed_independent=True):
    pts = cylinder_cloud(n)
    kern = make_kernel("laplace", pts)
    tree = build_cluster_tree(pts, leaf_size=32)
    block = build_block_cluster_tree(tree, tree, StrongAdmissibility(eta=2.0))
    h = assemble_hmatrix(kern, pts, block, AssemblyConfig(eps=eps, method="aca"))
    return h, tree


def test_hgetrf_accumulated_matches_eager():
    eps = 1e-6
    h_eager, tree = _assembled(eps=eps)
    h_acc = h_eager.copy()

    hgetrf(h_eager, eps)
    acc = UpdateAccumulator(eps)
    with Instrumentation() as probe:
        hgetrf(h_acc, eps, acc)
    assert not acc.has_pending(h_acc)  # hgetrf leaves the factor clean
    assert probe.registry.counter("h.accumulator.deferred") > 0  # and it engaged

    rng = np.random.default_rng(0)
    b = rng.standard_normal(h_eager.shape[0])
    x_eager = hlu_solve(h_eager, b)
    x_acc = hlu_solve(h_acc, b)
    denom = np.linalg.norm(x_eager)
    assert np.linalg.norm(x_acc - x_eager) <= 1e-3 * denom


def test_hgetrf_packs_small_diagonal_factors():
    """Factorised diagonal nodes carry the dense packed cache and any
    later mutation of the node invalidates it."""
    eps = 1e-6
    h, _ = _assembled(n=128, eps=eps)
    assert h.packed_lu is None
    hgetrf(h, eps)
    assert h.packed_lu is not None
    packed = h.packed_lu
    np.testing.assert_allclose(packed, h.to_dense(), atol=1e-12)
    # Mutation clears the cache.
    h.axpy_dense(np.zeros(h.shape), eps)
    assert h.packed_lu is None
