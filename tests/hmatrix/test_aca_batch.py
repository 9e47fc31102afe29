"""A block's ACA factors do not depend on the batch it runs in.

Assembly compresses every admissible block that goes to ACA in lockstep
batches of same-shape blocks of one kernel (``aca_batch``), across tiles.
Each block keeps its own pivots, stopping test and verification samples, so
alone or in any subset or order of a batch it gets the same factors, bit for
bit, from the same number of kernel entries.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TileHConfig, TileHMatrix
from repro.core.clustering import build_tile_h_clustering
from repro.geometry import cylinder_cloud, make_kernel
from repro.gp import synthetic_gp_data
from repro.hmatrix import aca_batch, compress_kernel_block
from repro.obs import Instrumentation

N, NB, LEAF = 400, 100, 24


class _Recorder(Instrumentation):
    """A probe that keeps each ``block_compressed`` report, in order."""

    def __init__(self) -> None:
        super().__init__(trace_capacity=0)
        self.reports = []

    def block_compressed(self, m, n, rank, itemsize, kernel_entries) -> None:
        self.reports.append((m, n, rank, kernel_entries))
        super().block_compressed(m, n, rank, itemsize, kernel_entries)


def _problem(name):
    if name == "sqexp":
        x, _, _, _ = synthetic_gp_data(N, 8, noise=0.05, seed=3)
        return x, make_kernel("sqexp", x, length=0.3, signal=1.0, nugget=0.05**2), 1e-6
    pts = cylinder_cloud(N)
    return pts, make_kernel(name, pts), 1e-4


def _leaf_leaf(leaf):
    return leaf.rows.is_leaf and leaf.cols.is_leaf


def _aca_blocks(pts):
    """Row and column points of every block a build sends to ACA: the
    admissible leaves but those between two leaf clusters below a tile root."""
    cl = build_tile_h_clustering(pts, NB, leaf_size=LEAF)
    blocks = []
    for i in range(cl.nt):
        for j in range(cl.nt):
            root = cl.block_tree(i, j)
            for leaf in root.leaves():
                if leaf.admissible and (leaf is root or not _leaf_leaf(leaf)):
                    blocks.append((pts[leaf.rows.indices], pts[leaf.cols.indices]))
    return blocks


@pytest.fixture(scope="module", params=["laplace", "helmholtz", "sqexp"])
def alone(request):
    """Each ACA block of the build compressed by itself: its factors and its
    kernel entries."""
    pts, kern, eps = _problem(request.param)
    blocks = _aca_blocks(pts)
    out = []
    for rp, cp in blocks:
        with _Recorder() as probe:
            rk = compress_kernel_block(kern, rp, cp, eps)
        (report,) = probe.reports
        out.append((rk, report))
    return pts, kern, eps, blocks, out


def test_every_kernel_has_batches(alone):
    _, _, _, blocks, _ = alone
    shapes = [(len(rp), len(cp)) for rp, cp in blocks]
    assert max(shapes.count(s) for s in shapes) >= 4


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_a_block_gets_the_same_factors_in_any_batch(alone, data):
    _, kern, eps, blocks, ref = alone
    shapes = sorted({(len(rp), len(cp)) for rp, cp in blocks})
    shape = data.draw(st.sampled_from(shapes), label="shape")
    group = [p for p, (rp, cp) in enumerate(blocks) if (len(rp), len(cp)) == shape]
    order = data.draw(st.permutations(group), label="order")
    chosen = order[: data.draw(st.integers(1, len(order)), label="size")]
    with _Recorder() as probe:
        got = aca_batch([kern.sampler(*blocks[p]) for p in chosen], eps)
    assert len(got) == len(chosen) == len(probe.reports)
    for p, rk, report in zip(chosen, got, probe.reports):
        want, want_report = ref[p]
        assert np.array_equal(rk.u, want.u) and np.array_equal(rk.v, want.v)
        assert report == want_report


def test_a_build_batches_across_tiles_and_keeps_every_block(alone):
    pts, kern, eps, blocks, ref = alone
    with _Recorder() as probe:
        a = TileHMatrix.build(kern, pts, TileHConfig(nb=NB, eps=eps, leaf_size=LEAF))
    # Walk the built tiles as _aca_blocks walked the trees: same leaves, same order.
    leaves, dense_entries = [], 0
    for tile in a.desc.super.tiles:
        root = tile.mat
        for leaf in root.leaves():
            if leaf.rk is None:
                continue
            if leaf is root or not _leaf_leaf(leaf):
                leaves.append(leaf)
            else:
                dense_entries += leaf.shape[0] * leaf.shape[1]
    assert len(leaves) == len(ref)
    for leaf, (want, _) in zip(leaves, ref):
        assert np.array_equal(leaf.rk.u, want.u) and np.array_equal(leaf.rk.v, want.v)
    # One report per admissible block, whatever the batch; the ACA blocks
    # asked for the entries they ask for alone.
    assert len(probe.reports) == probe.registry.counter("h.blocks_compressed")
    assert sum(r[3] for r in probe.reports) == dense_entries + sum(r[3] for _, r in ref)


class _Dense:
    """Sampler of an explicit block; same-shape ones stack."""

    kernel = None

    def __init__(self, a):
        self.a, self.shape = a, a.shape

    def row(self, i):
        return self.a[i]

    def col(self, j):
        return self.a[:, j]

    def rows(self, idx):
        return self.a[idx]

    @classmethod
    def stack(cls, samplers):
        return _DenseStack(np.stack([s.a for s in samplers]))


class _DenseStack:
    def __init__(self, a):
        self.a, self.shape = a, a.shape[1:]

    def __len__(self):
        return len(self.a)

    def row(self, blocks, idx):
        return self.a[blocks, idx]

    def col(self, blocks, idx):
        return self.a[blocks, :, idx]

    def rows(self, block, idx):
        return self.a[block, idx]


def _stalling_blocks(dtype):
    """Blocks whose crosses fall out of step: a block-diagonal one, whose
    dominant part has rank 2, so its third pivot row comes up resolved and the
    verification restarts the loop in the other part at the same rank; a zero
    block; an exact rank-1 block; smooth blocks of different ranks."""
    rng = np.random.default_rng(11)
    m, n = 40, 30

    def smooth(shift):
        x = rng.uniform(0, 1, (m, 3))
        y = rng.uniform(0, 1, (n, 3)) + np.array([shift, 0, 0])
        return 1.0 / np.linalg.norm(x[:, None] - y[None], axis=2)

    split = np.zeros((m, n))
    split[:20, :20] = 1e3 * rng.standard_normal((20, 2)) @ rng.standard_normal((2, 20))
    split[20:, 20:] = smooth(2.0)[20:, 20:]
    u, v = rng.standard_normal(m), rng.standard_normal(n)
    if np.dtype(dtype).kind == "c":
        u, v = u * np.exp(1j * rng.uniform(0, 6, m)), v * np.exp(1j * rng.uniform(0, 6, n))
        split = split * np.exp(1j * smooth(3.0))
    blocks = [smooth(2.0), split, np.zeros((m, n)), np.outer(u, v), smooth(5.0), smooth(1.5)]
    return [b.astype(dtype) for b in blocks]


@pytest.mark.parametrize("dtype", [np.float64, np.complex128], ids=["d", "z"])
def test_blocks_out_of_step_keep_their_own_factors(dtype):
    blocks = _stalling_blocks(dtype)
    alone = [aca_batch([_Dense(b)], 1e-8)[0] for b in blocks]
    ranks = [rk.rank for rk in alone]
    assert ranks[2] == 0 and ranks[3] == 1 and len(set(ranks)) >= 4
    for order in (range(len(blocks)), [4, 1, 0, 5, 3, 2], [1, 2]):
        order = list(order)
        batched = aca_batch([_Dense(blocks[p]) for p in order], 1e-8)
        for p, rk in zip(order, batched):
            assert np.array_equal(rk.u, alone[p].u) and np.array_equal(rk.v, alone[p].v)
    for b, rk in zip(blocks, alone):
        assert np.linalg.norm(rk.to_dense() - b) <= 1e-6 * max(np.linalg.norm(b), 1e-300)
