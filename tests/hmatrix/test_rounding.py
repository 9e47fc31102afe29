"""Rk rounding on direct LAPACK calls against the ``scipy.linalg`` reference.

``_truncate_rk`` calls ``geqrf``/``orgqr``/``gesdd`` itself; the reference
below is the QR+QR+SVD rounding written with ``scipy.linalg.qr`` and ``svd``,
which reach the same routines with the same workspace sizes, so the factors
must agree bit for bit (every fingerprint pinned in this suite rests on it).
A factor with no more rows than the stacked rank is not QR-factored by
either: the ``wide``, ``wide_one_side``, ``row`` and ``column`` cases pin
that path, the others the full QR+QR+SVD.
"""

import numpy as np
import pytest
import scipy.linalg

from repro.dense import qr_economic, svd_economic
from repro.hmatrix import RkMatrix, truncate_svd


def _reference_rank(s, eps):
    total = float(np.sum(s * s))
    if s.size == 0 or total == 0.0:
        return 0
    tail = np.cumsum((s * s)[::-1])[::-1]  # tail[r] = sum_{i >= r} s_i^2
    for r in range(s.size):
        if not tail[r] > (eps * eps) * total:
            return r
    return int(s.size)


def _reference_truncate(u, v, eps, max_rank=None):
    k = u.shape[1]
    # A side with no more rows than k is its own "R" and has no Q to apply.
    qu, ru = scipy.linalg.qr(u, mode="economic") if u.shape[0] > k else (None, u)
    qv, rv = scipy.linalg.qr(v, mode="economic") if v.shape[0] > k else (None, v)
    w, s, zh = scipy.linalg.svd(ru @ rv.T, full_matrices=False)
    r = _reference_rank(s, eps)
    if max_rank is not None:
        r = min(r, max_rank)
    a, b = w[:, :r] * s[:r], zh[:r].T
    return (a if qu is None else qu @ a), (b if qv is None else qv @ b)


def _factors(m, n, k, dtype, seed, decay=10.0):
    """Stacked factors with column scales ``decay**-i`` (numerical rank ~k/2 by default)."""
    rng = np.random.default_rng(seed)
    scale = decay ** -np.arange(k)

    def one(rows):
        f = rng.standard_normal((rows, k))
        if np.dtype(dtype).kind == "c":
            f = f + 1j * rng.standard_normal((rows, k))
        return (f * scale).astype(dtype)

    return one(m), one(n)


CASES = {
    "tall": (96, 64, 20),
    "tile": (192, 192, 31),
    "wide": (12, 9, 30),  # stacked rank above both dimensions
    "wide_one_side": (48, 10, 24),
    "k1": (48, 48, 1),
    "row": (1, 15, 3),
    "column": (20, 1, 2),
}


@pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["d", "z"])
@pytest.mark.parametrize("case", CASES)
class TestTruncateRkMatchesScipy:
    def test_bit_identical(self, case, dtype):
        m, n, k = CASES[case]
        u, v = _factors(m, n, k, dtype, seed=len(case))
        for eps in (1e-4, 1e-10, 0.0):
            got = RkMatrix(u.copy(), v.copy()).truncate(eps)
            ref_u, ref_v = _reference_truncate(u, v, eps)
            assert got.rank == ref_u.shape[1] <= min(m, n, k)
            assert got.dtype == np.dtype(dtype)
            assert np.array_equal(got.u, ref_u)
            assert np.array_equal(got.v, ref_v)

    def test_max_rank(self, case, dtype):
        m, n, k = CASES[case]
        u, v = _factors(m, n, k, dtype, seed=7)
        got = RkMatrix(u, v).truncate(1e-12, max_rank=2)
        ref_u, ref_v = _reference_truncate(u, v, 1e-12, max_rank=2)
        assert got.rank == ref_u.shape[1] <= 2
        assert np.array_equal(got.u, ref_u)
        assert np.array_equal(got.v, ref_v)

    def test_inputs_untouched(self, case, dtype):
        m, n, k = CASES[case]
        u, v = _factors(m, n, k, dtype, seed=3)
        u0, v0 = u.copy(), v.copy()
        RkMatrix(u, v).truncate(1e-6)
        assert np.array_equal(u, u0) and np.array_equal(v, v0)


#: (m, n) of a block against which the stacked rank k runs below, at and
#: above each side.
ACCURACY_SHAPES = [(31, 31), (48, 20), (20, 48)]


@pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["d", "z"])
@pytest.mark.parametrize("shape", ACCURACY_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_rounding_meets_eps_below_at_and_above_each_side(shape, dtype):
    m, n = shape
    lo, hi = min(m, n), max(m, n)
    for k in sorted({lo - 1, lo, lo + 1, hi - 1, hi, hi + 1, 2 * hi + 5}):
        # Column scales 1.5**-i: a slow decay that each eps cuts inside the rank.
        u, v = _factors(m, n, k, dtype, seed=k, decay=1.5)
        dense = u @ v.T
        for eps in (1e-2, 1e-4, 1e-8):
            got = RkMatrix(u.copy(), v.copy()).truncate(eps)
            assert got.shape == (m, n) and got.rank <= min(m, n, k), (k, eps)
            err = np.linalg.norm(dense - got.to_dense())
            assert err <= (eps * (1 + 1e-6) + 1e-13) * np.linalg.norm(dense), (k, eps)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.float32, np.complex64])
@pytest.mark.parametrize("shape", [(96, 24), (24, 96), (48, 48), (5, 1), (1, 5), (300, 280)])
def test_qr_and_svd_kernels_match_scipy(shape, dtype):
    rng = np.random.default_rng(shape[0])
    a = rng.standard_normal(shape)
    if np.dtype(dtype).kind == "c":
        a = a + 1j * rng.standard_normal(shape)
    a = a.astype(dtype)
    for arr in (a, np.asfortranarray(a)):
        q, r = qr_economic(arr)
        q0, r0 = scipy.linalg.qr(arr, mode="economic")
        assert q.dtype == r.dtype == np.dtype(dtype)
        assert np.array_equal(q, q0) and np.array_equal(r, r0)
        u, s, vh = svd_economic(arr)
        u0, s0, vh0 = scipy.linalg.svd(arr, full_matrices=False)
        assert np.array_equal(u, u0) and np.array_equal(s, s0) and np.array_equal(vh, vh0)
        assert np.array_equal(arr, a)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.float32, np.complex64])
@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_qr_and_svd_kernels_on_empty_input_match_scipy(shape, dtype):
    a = np.zeros(shape, dtype=dtype)
    for got, ref in zip(
        qr_economic(a) + svd_economic(a),
        scipy.linalg.qr(a, mode="economic") + scipy.linalg.svd(a, full_matrices=False),
    ):
        assert got.shape == ref.shape and got.dtype == ref.dtype


def test_factors_without_rows_round_to_rank_zero():
    out = RkMatrix(np.zeros((0, 3)), np.ones((7, 3))).truncate(1e-4)
    assert out.rank == 0 and out.shape == (0, 7)
    out = RkMatrix(np.ones((7, 3)), np.zeros((0, 3))).truncate(1e-4)
    assert out.rank == 0 and out.shape == (7, 0)


def test_rank_zero_is_copied_not_factorised():
    rk = RkMatrix.zeros(30, 20, dtype=np.complex128)
    out = rk.truncate(1e-4)
    assert out.rank == 0 and out.shape == (30, 20) and out.dtype == np.complex128
    assert out.u is not rk.u


def test_zero_factors_round_to_rank_zero():
    out = RkMatrix(np.zeros((40, 5)), np.zeros((30, 5))).truncate(1e-4)
    assert out.rank == 0 and out.shape == (40, 30)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["d", "z"])
def test_nan_factor_raises(dtype):
    u, v = _factors(48, 40, 6, dtype, seed=11)
    u[5, 2] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        RkMatrix(u, v).truncate(1e-4)
    with pytest.raises(np.linalg.LinAlgError):
        truncate_svd(u @ v.T, 1e-4)
