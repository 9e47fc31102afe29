"""The rule-driven ℌ-kernels against the hand-written recursions, bit for bit.

``tests/hmatrix/reference_arithmetic.py`` holds the seven recursions as the
library ran them before the loop nests moved into :mod:`repro.hmatrix.rules`.
On generated ℌ-matrices — hand-built cluster trees with 2- and 3-way splits
and mixed depths, every block a seeded choice of Rk / dense / subdivided, real
and complex, with and without an :class:`UpdateAccumulator` — each kernel must
leave every leaf payload equal and a ``packed_lu`` on the same nodes.
"""

import numpy as np
import pytest

from repro.hmatrix import (
    BlockClusterTree,
    BoundingBox,
    ClusterTree,
    HMatrix,
    UpdateAccumulator,
    hgemm,
    hgemm_transb,
    hgetrf,
    hpotrf,
    hsyrk,
    htrsm,
)
from repro.hmatrix.arithmetic import run_kernel

from . import reference_arithmetic as ref

EPS = 1e-8

# Cluster trees as nested lists of leaf sizes.
SHAPES = {
    "2x2": [[7, 6], [6, 7]],
    "3-way": [[5, 4], [4, 5], [5, 4]],
    "mixed-depth": [[6, [4, 3]], 9, [[3, 3], 5]],
}


def _cluster(spec, start=0, level=0):
    """A hand-built cluster tree over the line ``0..n`` (identity permutation
    filled in by :func:`_tree`); ``spec`` is a leaf size or a list of specs."""
    if isinstance(spec, int):
        return ClusterTree(start, start + spec, None, None, None, level)
    children, at = [], start
    for sub in spec:
        children.append(_cluster(sub, at, level + 1))
        at = children[-1].stop
    return ClusterTree(start, at, None, None, None, level, children)


def _tree(spec):
    root = _cluster(spec)
    points = np.zeros((root.size, 3))
    points[:, 0] = np.arange(root.size)
    perm = np.arange(root.size)
    for node in root.nodes():
        node.perm, node.points = perm, points
        node.bbox = BoundingBox.of(points[node.start : node.stop])
    return root


def _block(rows, cols, rng, kind=None, diagonal=False):
    """A block tree over ``rows x cols``: every block a seeded choice of
    rk / full / subdivided (``kind`` fixes the root's).  ``diagonal`` blocks
    of a matrix to be factorised subdivide wherever they can and are never
    low-rank, so a panel never meets a dense diagonal above a subdivided
    right-hand side."""
    can_split = bool(rows.children and cols.children)
    if diagonal:
        kind = "h" if can_split else "full"
    elif kind is None or (kind == "h" and not can_split):
        kind = str(rng.choice(["h", "rk", "full"] if can_split else ["rk", "full"]))
    node = BlockClusterTree(rows=rows, cols=cols, admissible=kind == "rk")
    if kind == "h":
        node.nrow_children, node.ncol_children = len(rows.children), len(cols.children)
        node.children = [
            _block(r, c, rng, diagonal=diagonal and r is c)
            for r in rows.children
            for c in cols.children
        ]
    return node


def _dense(rng, m, n, dtype, rank=4):
    u, v = rng.standard_normal((m, rank)), rng.standard_normal((rank, n))
    if dtype == "complex":
        u = u + 1j * rng.standard_normal((m, rank))
        v = v + 1j * rng.standard_normal((rank, n))
    return u @ v


def _pair(dense, block):
    """Two bit-identical H-matrices: one for the library, one for the reference."""
    return HMatrix.from_dense(dense, block, EPS), HMatrix.from_dense(dense, block, EPS)


def _square(shape, dtype, seed, spd=False):
    """A well-conditioned square matrix pair over one cluster tree."""
    rng = np.random.default_rng(seed)
    tree = _tree(SHAPES[shape])
    n = tree.size
    if spd:
        g = _dense(rng, n, n, dtype)
        dense = g @ g.T + n * np.eye(n)
    else:
        dense = _dense(rng, n, n, dtype) + 4 * n * np.eye(n)
    return _pair(dense, _block(tree, tree, rng, diagonal=True)), tree


def _nodes(h, path=()):
    yield path, h
    for idx, child in enumerate(h.children):
        yield from _nodes(child, path + ((idx // h.ncol_children, idx % h.ncol_children),))


def _run(kernel, operands, acc_on):
    """Run ``kernel(*operands, acc)`` and round in what it left pending."""
    acc = UpdateAccumulator(EPS) if acc_on else None
    kernel(*operands, acc)
    if acc is not None:  # round in what a product left pending, as a reader would
        for operand in operands:
            acc.flush(operand)


def _assert_same(new, old):
    """Leaf payloads, leaf kinds and ``packed_lu`` of two H-matrices."""
    a, b = list(_nodes(new)), list(_nodes(old))
    assert [p for p, _ in a] == [p for p, _ in b]
    for (path, x), (_, y) in zip(a, b):
        assert x.kind == y.kind, path
        if x.full is not None:
            assert np.array_equal(x.full, y.full), path
        elif x.rk is not None:
            assert np.array_equal(x.rk.u, y.rk.u) and np.array_equal(x.rk.v, y.rk.v), path
        assert (x.packed_lu is None) == (y.packed_lu is None), path
        if x.packed_lu is not None:
            assert np.array_equal(x.packed_lu, y.packed_lu), path


def _check(new_kernel, old_kernel, new_operands, old_operands, acc_on, written=0):
    _run(new_kernel, new_operands, acc_on)
    _run(old_kernel, old_operands, acc_on)
    _assert_same(new_operands[written], old_operands[written])


ACC = pytest.mark.parametrize("acc_on", [False, True], ids=["eager", "accumulate"])
SEEDS = pytest.mark.parametrize("seed", [0, 1, 2])


@ACC
@SEEDS
@pytest.mark.parametrize("dtype", ["real", "complex"])
@pytest.mark.parametrize("shape", SHAPES)
def test_hgetrf(shape, dtype, seed, acc_on):
    (a, a0), _ = _square(shape, dtype, seed)
    _check(
        lambda a, acc: hgetrf(a, EPS, acc), lambda a, acc: ref.hgetrf(a, EPS, acc),
        (a,), (a0,), acc_on,
    )
    assert a.packed_lu is not None  # small enough to pack: the rule's last step


def _strictly_upper(path) -> bool:
    """Whether child ``path`` of a diagonal node lies strictly above its diagonal."""
    for i, j in path:
        if i != j:
            return i < j
    return False


def _upper_leaves(h) -> dict:
    return {p: x for p, x in _nodes(h) if x.is_leaf and _strictly_upper(p)}


def _assert_same_lower(new, old, inputs):
    """The Cholesky's written triangle equal to the reference's, the rest of
    ``new`` equal to ``inputs`` (copies of its leaves before the kernel):
    lower leaves and ``tril(packed_lu)`` bit for bit, strictly upper leaves
    never written, and nothing left pending anywhere."""
    a, b = list(_nodes(new)), list(_nodes(old))
    assert [p for p, _ in a] == [p for p, _ in b]
    for (path, x), (_, y) in zip(a, b):
        assert x.kind == y.kind, path
        assert x.pending is None, path
        if _strictly_upper(path):
            y = inputs.get(path)
        if x.full is not None:
            assert np.array_equal(x.full, y.full), path
        elif x.rk is not None:
            assert np.array_equal(x.rk.u, y.rk.u) and np.array_equal(x.rk.v, y.rk.v), path
        if not _strictly_upper(path):
            assert (x.packed_lu is None) == (y.packed_lu is None), path
            if x.packed_lu is not None:
                assert np.array_equal(np.tril(x.packed_lu), np.tril(y.packed_lu)), path


def _check_lower(new_kernel, old_kernel, new_operands, old_operands, acc_on):
    """:func:`_check` for a kernel that writes the lower triangle of operand 0
    only: :func:`_assert_same_lower`."""
    inputs = {p: x.copy() for p, x in _upper_leaves(new_operands[0]).items()}
    _run(new_kernel, new_operands, acc_on)
    _run(old_kernel, old_operands, acc_on)
    _assert_same_lower(new_operands[0], old_operands[0], inputs)


@ACC
@SEEDS
@pytest.mark.parametrize("shape", SHAPES)
def test_hpotrf(shape, seed, acc_on):
    (a, a0), _ = _square(shape, "real", seed, spd=True)
    _check_lower(
        lambda a, acc: hpotrf(a, EPS, acc), lambda a, acc: ref.hpotrf(a, EPS, acc),
        (a,), (a0,), acc_on,
    )
    assert a.packed_lu is not None


def _syrk_operands(shape, dtype, fa):
    """``C`` (a diagonal node) and ``A`` over another tree: library and reference copies."""
    rng = np.random.default_rng(11)
    tree, inner = _tree(SHAPES[shape]), _tree(SHAPES["2x2" if shape != "2x2" else "3-way"])
    c = _pair(_dense(rng, tree.size, tree.size, dtype), _block(tree, tree, rng, diagonal=True))
    a = _pair(_dense(rng, tree.size, inner.size, dtype), _block(tree, inner, rng, kind=fa))
    return (c[0], a[0]), (c[1], a[1])


@ACC
@pytest.mark.parametrize("fa", ["h", "rk", "full"])
@pytest.mark.parametrize("dtype", ["real", "complex"])
@pytest.mark.parametrize("shape", SHAPES)
def test_hsyrk(shape, dtype, fa, acc_on):
    """``hsyrk(c, a)`` is the reference's ``hgemm_transb(c, a, a)`` on the
    lower triangle of the diagonal node ``c``, and writes nothing above it:
    no strictly upper leaf of ``c`` changes or holds a pending update."""
    (c, a), _ = _syrk_operands(shape, dtype, fa)
    upper = {p: x.copy() for p, x in _upper_leaves(c).items()}
    acc = UpdateAccumulator(EPS) if acc_on else None
    hsyrk(c, a, EPS, -1.0, acc)
    for path, x in _upper_leaves(c).items():
        assert x.pending is None, path
        y = upper[path]
        assert np.array_equal(x.to_dense(), y.to_dense()) and x.kind == y.kind, path
    new, old = _syrk_operands(shape, dtype, fa)
    _check_lower(
        lambda c, a, acc: hsyrk(c, a, EPS, -1.0, acc),
        lambda c, a, acc: ref.hgemm_transb(c, a, a, EPS, -1.0, acc),
        new, old, acc_on,
    )


def _panel(tree, other, side, root, dtype, rng):
    rows, cols = (tree, other) if side == "left" else (other, tree)
    dense = _dense(rng, rows.size, cols.size, dtype)
    return _pair(dense, _block(rows, cols, rng, kind=root))


@ACC
@SEEDS
@pytest.mark.parametrize("root", ["h", "rk", "full"])
@pytest.mark.parametrize("dtype", ["real", "complex"])
@pytest.mark.parametrize("variant", ["left-unit", "left-nonunit", "right", "right-lower-t"])
@pytest.mark.parametrize("shape", SHAPES)
def test_htrsm(shape, variant, dtype, root, seed, acc_on):
    spd = variant == "right-lower-t"
    if spd and dtype == "complex":
        pytest.skip("hpotrf factorises real SPD matrices")
    (a, _), tree = _square(shape, dtype, seed, spd=spd)
    (hpotrf if spd else hgetrf)(a, EPS)
    rng = np.random.default_rng(100 + seed)
    other = _tree(SHAPES["2x2" if shape != "2x2" else "3-way"])
    side = "left" if variant.startswith("left") else "right"
    b, b0 = _panel(tree, other, side, root, dtype, rng)
    if variant == "right-lower-t":
        new = lambda a, b, acc: run_kernel("trsm_rlt", (a, b), EPS, acc=acc)
        old = lambda a, b, acc: ref._htrsm_right_lower_transpose(a, b, EPS, acc)
    else:
        uplo = "lower" if side == "left" else "upper"
        unit = variant == "left-unit"
        new = lambda a, b, acc: htrsm(side, uplo, a, b, EPS, unit_diagonal=unit, acc=acc)
        old = lambda a, b, acc: ref.htrsm(side, uplo, a, b, EPS, unit_diagonal=unit, acc=acc)
    _check(new, old, (a, b), (a, b0), acc_on, written=1)


def test_htrsm_right_upper_unit_is_refused_alike():
    (a, _), tree = _square("2x2", "real", 0)
    hgetrf(a, EPS)
    b, b0 = _panel(tree, tree, "right", "h", "real", np.random.default_rng(0))
    for solve, rhs in ((htrsm, b), (ref.htrsm, b0)):
        with pytest.raises(ValueError, match="unit diagonal"):
            solve("right", "upper", a, rhs, EPS, unit_diagonal=True)
    _assert_same(b, b0)


def _product(shape, transb, kinds, dtype, seed):
    """``C (R x S)``, ``A (R x K)``, ``B (K x S)`` — or ``B (S x K)`` for the
    transposed product — over three different trees: C's grid is 2x3, 3x2 or
    mixed against a third inner split."""
    rng = np.random.default_rng(seed)
    names = list(SHAPES)
    at = names.index(shape)
    r, k, s = (_tree(SHAPES[names[(at + d) % 3]]) for d in range(3))
    dims = {"c": (r, s), "a": (r, k), "b": (s, k) if transb else (k, s)}
    pairs = [
        _pair(_dense(rng, rows.size, cols.size, dtype), _block(rows, cols, rng, kind=kind))
        for (rows, cols), kind in zip(dims.values(), kinds)
    ]
    return [p[0] for p in pairs], [p[1] for p in pairs]


@ACC
@pytest.mark.parametrize("alpha", [-1.0, 1.0])
@pytest.mark.parametrize("fc", ["h", "rk", "full"])
@pytest.mark.parametrize("fb", ["h", "rk", "full"])
@pytest.mark.parametrize("fa", ["h", "rk", "full"])
@pytest.mark.parametrize("dtype", ["real", "complex"])
@pytest.mark.parametrize("transb", [False, True], ids=["hgemm", "hgemm_transb"])
@pytest.mark.parametrize("shape", SHAPES)
def test_products(shape, transb, dtype, fa, fb, fc, alpha, acc_on):
    new_ops, old_ops = _product(shape, transb, (fc, fa, fb), dtype, seed=7)
    new_fn, old_fn = (hgemm_transb, ref.hgemm_transb) if transb else (hgemm, ref.hgemm)
    _check(
        lambda c, a, b, acc: new_fn(c, a, b, EPS, alpha, acc),
        lambda c, a, b, acc: old_fn(c, a, b, EPS, alpha, acc),
        new_ops, old_ops, acc_on,
    )
