"""Truncation kernels at LAPACK cost, and the accuracy contract of each entry point.

* Rk rounding (QR+QR+SVD) asks LAPACK for workspace sizes once per shape:
  after a warm-up call it makes exactly its five factorisation calls, less
  the QR of each factor with no more rows than the stacked rank.
* A dense block is truncated by a column-pivoted QR, then the SVD of the kept
  rows of ``R``: the ε-bound holds exactly and the rank is the SVD-optimal
  one unless the optimal tail lies within 1% of the budget.
* ``eps`` must be finite and non-negative at every truncation entry point.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TileHConfig, TileHMatrix
from repro.dense import householder_q, kernels, qr_pivoted
from repro.geometry import cylinder_cloud, make_kernel
from repro.hmatrix import (
    AssemblyConfig,
    RkMatrix,
    UpdateAccumulator,
    aca_full,
    compress_dense,
    compress_dense_rsvd,
    compress_kernel_block,
    truncate_svd,
)

from .test_leaf_blocks import LEAF, NB, _admissible_leaves, _leaf_leaf, _problem

DTYPES = {"d": np.float64, "z": np.complex128, "s": np.float32, "c": np.complex64}


def _random(shape, dtype, rng):
    a = rng.standard_normal(shape)
    if np.dtype(dtype).kind == "c":
        a = a + 1j * rng.standard_normal(shape)
    return a.astype(dtype)


def _svd_rank(sigma, budget):
    """Smallest r with sum_{i >= r} sigma_i^2 <= budget."""
    tail = np.append(np.cumsum((sigma * sigma)[::-1])[::-1], 0.0)
    return int(np.argmax(tail <= budget))


@pytest.fixture
def lapack_log(monkeypatch):
    """Every LAPACK routine the dense kernels call from now on, with its ``lwork``."""
    calls = []
    real = kernels._lapack

    def logged(name, dtype):
        func = real(name, dtype)

        def call(*args, **kwargs):
            calls.append((name, kwargs.get("lwork")))
            return func(*args, **kwargs)

        return call

    monkeypatch.setattr(kernels, "_lapack", logged)
    return calls


@pytest.mark.parametrize("dtype", ["d", "z", "s", "c"])
def test_rounding_after_warm_up_makes_no_workspace_query(dtype, lapack_log):
    rng = np.random.default_rng(5)
    rk = RkMatrix(_random((48, 12), DTYPES[dtype], rng), _random((40, 12), DTYPES[dtype], rng))
    warm = rk.truncate(1e-4)
    lapack_log.clear()
    again = rk.truncate(1e-4)
    assert [name for name, _ in lapack_log] == ["geqrf", "orgqr", "geqrf", "orgqr", "gesdd"]
    assert all(lwork is not None and lwork > 0 for _, lwork in lapack_log)
    assert np.array_equal(again.u, warm.u) and np.array_equal(again.v, warm.v)


#: (m, n, k) of a stacked sum -> the LAPACK calls of its rounding: a factor
#: with no more rows than the rank ``k`` is never QR-factored (the narrow
#: case, k below both sides, is the test above).
WIDE_CALLS = {
    "u_wide": ((12, 40, 12), ["geqrf", "orgqr", "gesdd"]),
    "v_wide": ((48, 10, 12), ["geqrf", "orgqr", "gesdd"]),
    "both_wide": ((10, 9, 12), ["gesdd"]),
}


@pytest.mark.parametrize("dtype", ["d", "z"])
@pytest.mark.parametrize("case", WIDE_CALLS)
def test_a_wide_side_makes_no_qr(case, dtype, lapack_log):
    (m, n, k), want = WIDE_CALLS[case]
    rng = np.random.default_rng(8)
    rk = RkMatrix(_random((m, k), DTYPES[dtype], rng), _random((n, k), DTYPES[dtype], rng))
    rk.truncate(1e-4)
    lapack_log.clear()
    out = rk.truncate(1e-4)
    assert [name for name, _ in lapack_log] == want
    assert all(lwork is not None and lwork > 0 for _, lwork in lapack_log)
    assert out.shape == (m, n) and out.rank <= min(m, n, k)


@pytest.mark.parametrize("dtype", ["d", "z"])
def test_dense_truncation_after_warm_up_makes_no_workspace_query(dtype, lapack_log):
    a = _random((48, 48), DTYPES[dtype], np.random.default_rng(6))
    truncate_svd(a, 0.5)
    lapack_log.clear()
    truncate_svd(a, 0.5)
    assert [name for name, _ in lapack_log] == ["geqp3", "gesdd", "orgqr"]
    assert all(lwork is not None and lwork > 0 for _, lwork in lapack_log)


@pytest.mark.parametrize("dtype", ["d", "z", "s", "c"])
@pytest.mark.parametrize("shape", [(30, 12), (12, 30), (17, 17), (1, 5), (5, 1)])
def test_pivoted_qr_reconstructs_the_permuted_block(shape, dtype):
    a = _random(shape, DTYPES[dtype], np.random.default_rng(shape[0]))
    a0 = a.copy()
    r, perm, qr, tau = qr_pivoted(a)
    k = min(shape)
    q = householder_q(qr, tau, k)
    tol = 100 * np.finfo(a.dtype).eps * np.linalg.norm(a)
    assert np.array_equal(a, a0)
    assert sorted(perm) == list(range(shape[1]))
    assert np.array_equal(r, np.triu(r)) and r.dtype == a.dtype
    assert np.linalg.norm(q @ r - a[:, perm]) <= tol
    assert np.linalg.norm(q.conj().T @ q - np.eye(k)) <= 100 * np.finfo(a.dtype).eps * k
    diag = np.abs(np.diagonal(r))
    assert np.all(diag[1:] <= diag[:-1] * (1 + 1e-5))


def _spectrum_block(m, n, decay, dtype, seed):
    """A block with singular values decay**i (random singular vectors)."""
    rng = np.random.default_rng(seed)
    k = min(m, n)
    complex_ = np.dtype(dtype).kind == "c"
    full = np.complex128 if complex_ else np.float64
    qu, _ = np.linalg.qr(_random((m, k), full, rng))
    qv, _ = np.linalg.qr(_random((n, k), full, rng))
    return ((qu * decay ** np.arange(k)) @ qv.T).astype(dtype)


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(1, 40),
    n=st.integers(1, 40),
    decay=st.floats(0.05, 0.95),
    eps_exp=st.floats(0.0, 1.0),
    dtype=st.sampled_from(sorted(DTYPES)),
    seed=st.integers(0, 2**16),
)
def test_truncate_svd_meets_eps_at_the_svd_rank(m, n, decay, eps_exp, dtype, seed):
    single = dtype in "sc"
    # eps in [1e-2, 0.3] (single) or [1e-7, 0.3] (double): well above roundoff.
    lo = -2.0 if single else -7.0
    eps = 0.3 * 10.0 ** (lo * eps_exp)
    a = _spectrum_block(m, n, decay, DTYPES[dtype], seed)
    u, v = truncate_svd(a, eps)
    assert u.dtype == v.dtype == a.dtype and u.shape[1] == v.shape[1]
    wide = np.complex128 if dtype in "zc" else np.float64
    a64 = a.astype(wide)
    norm = np.linalg.norm(a64)
    unit = np.finfo(a.dtype).eps
    err = np.linalg.norm(a64 - u.astype(wide) @ v.astype(wide).T)
    assert err <= eps * norm * (1 + 1e-6) + 10 * unit * math.sqrt(m * n) * norm
    # The rank lies between the SVD-optimal ranks for the budget and for 99%
    # of it, each widened by the roundoff of the computed singular values.
    sigma = np.linalg.svd(a64, compute_uv=False)
    budget = (eps * norm) ** 2
    slack = 20 * math.sqrt(min(m, n)) * unit / eps + 1e-9
    assert _svd_rank(sigma, budget * (1 + slack)) <= u.shape[1]
    assert u.shape[1] <= _svd_rank(sigma, 0.99 * budget * (1 - slack))


def test_dropped_rows_of_r_count_against_the_budget():
    # Singular values 1, a, d with a^2 = 0.995 and d^2 = 0.009 of the budget:
    # the pivoted QR drops d's row (within 1%), and the SVD must then keep a,
    # since a^2 + d^2 exceeds the budget although a^2 alone does not.
    eps = 1e-3
    total = 1.0 / (1.0 - 1.004 * eps * eps)
    a, d = math.sqrt(0.995 * eps * eps * total), math.sqrt(0.009 * eps * eps * total)
    block = np.zeros((4, 3))
    block[0, 1], block[2, 2], block[3, 0] = 1.0, a, d
    u, v = truncate_svd(block, eps)
    assert u.shape[1] == 2
    assert np.linalg.norm(block - u @ v.T) == pytest.approx(d, rel=1e-6)
    assert np.linalg.norm(block - u @ v.T) <= eps * np.linalg.norm(block)


def test_truncate_svd_caps_the_rank_and_drops_zero_blocks():
    a = _spectrum_block(30, 20, 0.8, np.float64, 1)
    u, v = truncate_svd(a, 1e-10, max_rank=3)
    assert u.shape == (30, 3) and v.shape == (20, 3)
    sigma = np.linalg.svd(a, compute_uv=False)
    assert np.linalg.norm(a - u @ v.T) <= 1.01 * np.linalg.norm(sigma[3:])
    for eps in (0.0, 1e-4):
        u, v = truncate_svd(np.zeros((6, 4)), eps)
        assert u.shape == (6, 0) and v.shape == (4, 0)
    u, v = truncate_svd(a, 0.0)
    assert u.shape[1] == 20 and np.allclose(u @ v.T, a, atol=1e-13)


@pytest.mark.parametrize("name", ["laplace", "helmholtz", "sqexp"])
def test_leaf_leaf_blocks_get_the_svd_rank(name):
    pts, kern, eps = _problem(name)
    a = TileHMatrix.build(kern, pts, TileHConfig(nb=NB, eps=eps, leaf_size=LEAF))
    leaves = [leaf for leaf in _admissible_leaves(a) if _leaf_leaf(leaf)]
    assert leaves
    for leaf in leaves:
        block = kern(pts[leaf.rows.indices], pts[leaf.cols.indices])
        sigma = np.linalg.svd(block, compute_uv=False)
        assert leaf.rk.rank == _svd_rank(sigma, (eps * np.linalg.norm(sigma)) ** 2)


BAD_EPS = [math.nan, -1e-4, math.inf]


@pytest.mark.parametrize("eps", BAD_EPS)
def test_every_truncation_entry_point_rejects_a_bad_eps(eps):
    rng = np.random.default_rng(0)
    rk = RkMatrix(rng.standard_normal((20, 3)), rng.standard_normal((16, 3)))
    zero = RkMatrix.zeros(20, 16)
    block = rk.to_dense()
    pts = cylinder_cloud(200)
    kern = make_kernel("laplace", pts)
    calls = [
        lambda: rk.truncate(eps),
        lambda: rk.add(zero, eps),
        lambda: zero.add(rk, eps),
        lambda: RkMatrix.add_many([rk, rk], eps),
        lambda: RkMatrix.add_many([rk], eps),
        lambda: truncate_svd(block, eps),
        lambda: compress_dense(block, eps),
        lambda: compress_dense_rsvd(block, eps),
        lambda: compress_dense_rsvd(np.zeros((5, 5)), eps),
        lambda: aca_full(block, eps),
        lambda: compress_kernel_block(kern, pts[:40], pts[120:160], eps),
        lambda: compress_kernel_block(kern, pts[:40], pts[120:160], eps, method="svd"),
        lambda: AssemblyConfig(eps=eps),
        lambda: UpdateAccumulator(eps),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="eps must be finite and non-negative"):
            call()


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_dense_block_raises(bad):
    block = np.ones((12, 9))
    block[4, 7] = bad
    with pytest.raises(np.linalg.LinAlgError):
        truncate_svd(block, 1e-4)
