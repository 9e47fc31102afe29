"""The leaf-local block sampler against ``KernelFunction.__call__``, and the
stacked sampler of same-shape blocks against each block's own sampler."""

import numpy as np
import pytest

from repro.geometry import BlockSampler, StackedSampler, cylinder_cloud, make_kernel
from repro.geometry.kernels import _FACTORIES

KERNELS = ["laplace", "helmholtz", "gravity", "exponential",
           "sqexp", "matern12", "matern32", "matern52"]

# Row/column samples take the inner products x_i . y_j from a GEMV, the whole
# block from a GEMM.  Where the two round differently, the expanded form
# d^2 = |x|^2 + |y|^2 - 2 x.y amplifies that last bit by |x|^2 / d^2 (a few
# hundred for neighbouring mesh points), so against the *block* the bound is
# a multiple of eps relative to the largest entry, fixed here from the dtype.
BLOCK_RTOL = 1024 * np.finfo(np.float64).eps


@pytest.fixture(scope="module")
def pts():
    return cylinder_cloud(600)


def _close_to_block(got, want, scale):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= BLOCK_RTOL * scale


@pytest.mark.parametrize("name", KERNELS)
class TestSamplerMatchesCall:
    def test_rows_cols_and_batched_rows(self, pts, name):
        kern = make_kernel(name, pts)
        rp, cp = pts[40:77], pts[300:363]
        block = kern(rp, cp)
        scale = np.abs(block).max()
        s = kern.sampler(rp, cp)
        assert s.shape == block.shape
        for i in (0, 5, 36):
            _close_to_block(s.row(i), block[i], scale)
            # The one-row call is what ACA consumed before the sampler
            # existed: same bits, hence the same pivots.
            assert np.array_equal(s.row(i), kern(rp[i : i + 1], cp)[0])
        for j in (0, 17, 62):
            _close_to_block(s.col(j), block[:, j], scale)
            assert np.array_equal(s.col(j), kern(rp, cp[j : j + 1])[:, 0])
        idx = np.array([3, 0, 30, 11])
        _close_to_block(s.rows(idx), block[idx], scale)

    def test_coincident_points_hit_exact_zero_distance(self, pts, name):
        kern = make_kernel(name, pts)
        sub = pts[100:140]
        s = kern.sampler(sub, sub)
        diag = kern.diag(sub)
        for i in (0, 13, 39):
            # d == 0 exactly: the clamp (singular kernels) or the nugget (GP
            # covariances) applies, bit for bit what diag() promises.
            assert s.row(i)[i] == diag[i]
            assert s.col(i)[i] == diag[i]
        assert np.array_equal(np.diagonal(s.rows(np.arange(len(sub)))), diag)

    def test_single_row_and_single_column_blocks(self, pts, name):
        kern = make_kernel(name, pts)
        rp, cp = pts[:25], pts[400:440]
        one_row = kern.sampler(rp[0], cp)  # a bare point, as atleast_2d takes it
        assert one_row.shape == (1, 40)
        assert np.array_equal(one_row.row(0), kern(rp[:1], cp)[0])
        assert one_row.col(7).shape == (1,)
        one_col = kern.sampler(rp, cp[:1])
        assert one_col.shape == (25, 1)
        assert np.array_equal(one_col.col(0), kern(rp, cp[:1])[:, 0])
        assert one_col.row(3).shape == (1,)
        assert one_col.rows(np.array([2, 9])).shape == (2, 1)


def test_nugget_only_on_coincident_pairs(pts):
    kern = make_kernel("sqexp", pts, nugget=0.5)
    sub = pts[:30]
    row = kern.sampler(sub, sub).row(4)
    plain = make_kernel("sqexp", pts, nugget=0.0).sampler(sub, sub).row(4)
    assert row[4] == plain[4] + 0.5
    assert np.array_equal(np.delete(row, 4), np.delete(plain, 4))


def test_d_min_clamps_near_points(pts):
    kern = make_kernel("laplace", pts)
    # A column point closer to the row point than d_min, but not on it.
    near = pts[7] + np.array([0.25 * kern.d_min, 0.0, 0.0])
    s = kern.sampler(pts[5:10], np.vstack([near, pts[50:55]]))
    assert s.row(2)[0] == 1.0 / kern.d_min
    assert s.col(0)[2] == 1.0 / kern.d_min
    assert np.all(s.rows(np.arange(5)) <= 1.0 / kern.d_min)


def test_every_registered_kernel_is_covered():
    assert set(KERNELS) == set(_FACTORIES)


# -- the stacked form: same-shape blocks of one kernel, one request each ------

M, N_COLS = 37, 29
#: Row/column point offsets of the stacked blocks; (100, 100) and (250, 250)
#: are diagonal blocks, where coincident points meet the clamp or the nugget.
OFFSETS = [(0, 300), (100, 100), (40, 350), (250, 250), (500, 20)]


def _stack(kern, pts):
    samplers = [kern.sampler(pts[a : a + M], pts[b : b + N_COLS]) for a, b in OFFSETS]
    return samplers, BlockSampler.stack(samplers)


@pytest.mark.parametrize("name", KERNELS)
class TestStackedSamplerMatchesBlockSamplers:
    def test_rows_cols_and_batched_rows_bit_for_bit(self, pts, name):
        kern = make_kernel(name, pts)
        samplers, stacked = _stack(kern, pts)
        assert isinstance(stacked, StackedSampler)
        assert len(stacked) == len(OFFSETS) and stacked.shape == (M, N_COLS)
        rng = np.random.default_rng(5)
        every = np.arange(len(OFFSETS))
        for blocks in (every, np.array([0, 2, 3]), np.array([4]), np.array([1, 4])):
            idx = rng.integers(0, M, len(blocks))
            got = stacked.row(blocks, idx)
            assert got.shape == (len(blocks), N_COLS) and got.dtype == kern.dtype
            for t, b in enumerate(blocks):
                assert np.array_equal(got[t], samplers[b].row(idx[t]))
            jdx = rng.integers(0, N_COLS, len(blocks))
            got = stacked.col(blocks, jdx)
            assert got.shape == (len(blocks), M)
            for t, b in enumerate(blocks):
                assert np.array_equal(got[t], samplers[b].col(jdx[t]))
        for b in every:
            idx = rng.choice(M, size=8, replace=False)
            assert np.array_equal(stacked.rows(b, idx), samplers[b].rows(idx))

    def test_coincident_points_hit_exact_zero_distance(self, pts, name):
        kern = make_kernel(name, pts)
        _, stacked = _stack(kern, pts)
        # Block 1 couples pts[100:129] with pts[100:129] (its leading square).
        diag = kern.diag(pts[100 : 100 + N_COLS])
        for i in (0, 13, N_COLS - 1):
            rows = stacked.row(np.array([0, 1, 3]), np.array([i, i, i]))
            cols = stacked.col(np.array([1, 2]), np.array([i, i]))
            # d == 0 exactly: the clamp (singular kernels) or the nugget (GP
            # covariances) applies, bit for bit what diag() promises.
            assert rows[1, i] == diag[i]
            assert cols[0, i] == diag[i]
        square = stacked.rows(1, np.arange(N_COLS))
        assert np.array_equal(np.diagonal(square), diag)


def test_stacking_needs_one_kernel_and_one_shape(pts):
    lap, grav = make_kernel("laplace", pts), make_kernel("gravity", pts)
    with pytest.raises(ValueError, match="same-shape samplers of one kernel"):
        BlockSampler.stack([lap.sampler(pts[:10], pts[50:60]), lap.sampler(pts[:11], pts[50:60])])
    with pytest.raises(ValueError, match="same-shape samplers of one kernel"):
        BlockSampler.stack([lap.sampler(pts[:10], pts[50:60]), grav.sampler(pts[:10], pts[50:60])])
