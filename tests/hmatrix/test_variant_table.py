"""The one table of ℌ-kernel variants (``repro.hmatrix.rules.VARIANTS``) is
complete and consistent: every row has its ℌ kernel, ℌ flop model and dense
kernel, a registered task kind, a step rule that stays inside the table, and
``run_kernel(..., flush=True)`` rounds in the operand the row marks written
and no other."""

import numpy as np
import pytest

from repro.baselines import dense_tiled
from repro.hmatrix import BlockClusterTree, BoundingBox, ClusterTree, HMatrix, UpdateAccumulator
from repro.hmatrix import arithmetic
from repro.hmatrix.arithmetic import run_kernel
from repro.hmatrix.rk import RkMatrix
from repro.hmatrix.rules import VARIANTS
from repro.runtime.kinds import KIND_STYLES

EPS = 1e-8
M = 8


def test_every_row_has_its_kernels_and_a_registered_kind():
    assert set(arithmetic._KERNELS) == set(VARIANTS)
    assert set(arithmetic._FLOPS) == set(VARIANTS)
    assert set(dense_tiled._KERNELS) == set(VARIANTS)
    for variant, row in VARIANTS.items():
        assert row.kind in KIND_STYLES, variant
        # A side is what makes a TRSM; only a triangular solve reads ``unit``.
        assert (row.side is not None) == (row.kind == "trsm"), variant
        assert row.side in (None, "left", "right"), variant
        assert not row.unit or row.side is not None, variant
        assert (row.steps is None) == (row.grids is None), variant


def _steps_of(variant):
    row = VARIANTS[variant]
    for dims in np.ndindex(*(3,) * row.steps.__code__.co_argcount):
        yield from row.steps(*(d + 1 for d in dims))


@pytest.mark.parametrize("variant", [v for v, row in VARIANTS.items() if row.steps])
def test_a_step_rule_yields_only_table_variants(variant):
    arity = {}
    for sub, operands in _steps_of(variant):
        assert sub in VARIANTS, (variant, sub)
        arity.setdefault(sub, set()).add(len(operands))
        assert VARIANTS[sub].written < len(operands), (variant, sub)
    # Each sub-variant is always called with one number of operands.
    assert all(len(counts) == 1 for counts in arity.values()), arity


def _leaf(dense, rk):
    rows, cols = (ClusterTree(0, n, BoundingBox.of(np.zeros((1, 3))), np.arange(n),
                              np.zeros((n, 3))) for n in dense.shape)
    return HMatrix.from_dense(dense, BlockClusterTree(rows=rows, cols=cols, admissible=rk), EPS)


def _operands(variant, rng):
    """Leaf operands of ``variant`` in kernel-argument order: a dense
    (factorisable) triangle or diagonal block, Rk leaves elsewhere."""
    g = rng.standard_normal((M, M))
    diagonal = _leaf(g @ g.T + M * np.eye(M), rk=False)

    def low_rank():
        return _leaf(rng.standard_normal((M, 2)) @ rng.standard_normal((2, M)), rk=True)

    kind = VARIANTS[variant].kind
    if kind == "trsm":
        return diagonal, low_rank()
    if kind == "gemm":
        return tuple(low_rank() for _ in range(2 if variant == "syrk" else 3))
    return (diagonal,)


class _Recording(UpdateAccumulator):
    """An accumulator that notes every node it is asked to flush."""

    def __init__(self, eps):
        super().__init__(eps)
        self.flushed = []

    def flush(self, node):
        self.flushed.append(node)
        return super().flush(node)


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_a_flush_rounds_in_exactly_the_written_operand(variant):
    written = VARIANTS[variant].written
    flushed, pending = {}, {}
    for flush in (False, True):
        rng = np.random.default_rng(7)
        nodes = _operands(variant, rng)
        acc = _Recording(EPS)
        for node in nodes:  # each Rk operand has an update pending
            if node.rk is not None:
                node.axpy_rk(RkMatrix(rng.standard_normal((M, 1)), rng.standard_normal((M, 1))),
                             EPS, acc)
                assert node.pending is not None
        acc.flushed.clear()
        run_kernel(variant, nodes, EPS, acc=acc, flush=flush)
        ids = [id(node) for node in nodes]
        flushed[flush] = [ids.index(id(node)) for node in acc.flushed]
        pending[flush] = [node.pending is not None for node in nodes]
    # The flush is one more round-in, of the written operand, before the kernel's own.
    assert flushed[True] == [written] + flushed[False]
    # A read operand keeps its pending update: nothing rounded it in.
    for n, (before, after) in enumerate(zip(pending[False], pending[True])):
        if n != written:
            assert after == before, n
