"""Adaptive Cross Approximation (ACA) for admissible kernel blocks.

ACA with partial pivoting builds ``A ~= U V^T`` from O((m + n) k) kernel
evaluations — it never materialises the block, which is what makes H-matrix
*assembly* (not just arithmetic) log-linear.  This is the compression scheme
the paper cites ([20], Rjasanow) as HMAT-OSS's default; an SVD path and a
fully-pivoted ACA are provided for validation.

There is one cross loop, :func:`_aca`, and it runs a *batch* of same-shape
blocks in lockstep: every iteration takes one cross of every live block, with
one stacked evaluation of their pivot rows, one of their pivot columns and
stacked residual updates, while each block keeps its own pivots, stopping
test, verification samples and rank.  Assembly hands it every admissible
block of a build that goes to ACA (:func:`aca_batch`): the samplers of one
kernel and one shape become one batch, across tiles.  Any other oracle — the
callables of :func:`aca_partial`, a sampler that cannot stack, a bare
callable kernel — is a batch of one.  A block's factors do not depend on the
batch it ran in.

Assembly runs ACA only on admissible blocks larger than a dense leaf: a block
between two leaf clusters is evaluated by one kernel call and compressed by
the truncated SVD (:func:`repro.hmatrix.hmatrix.assemble_hmatrix`), which is
cheaper than the cross loop at that size and meets the ε-bound exactly.
Every compressed block, whatever the method, is reported to the probe once.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ..obs.instrument import current as _current_probe
from .rk import RkMatrix, _check_eps, compress_dense, compress_dense_rsvd

__all__ = [
    "aca_partial",
    "aca_batch",
    "aca_full",
    "block_sampler",
    "compress_kernel_block",
    "check_compression",
    "COMPRESSION_METHODS",
]

#: Residual entries below this (relative to the first pivot) are treated as 0.
_PIVOT_DROP = 1e-14
#: Seed of every block's verification samples (``default_rng(0x5EED)``'s).
_SEEDS = np.random.SeedSequence(0x5EED)
#: Consecutive small crosses before a block's convergence check, and whether
#: the crosses are rounded afterwards: :func:`aca_partial`'s defaults and what
#: :func:`aca_batch` always runs.
_GRACE = 3
_RECOMPRESS = True


def _row_norms(x: np.ndarray) -> list[float]:
    """Euclidean norm of every row of a 2-D ``x``, as floats.

    ``vecdot`` (NumPy >= 2) is the BLAS dot product of ``x[t].dot(x[t])``,
    and the square root stays in the precision of ``x`` (single for s/c): the
    values of ``np.linalg.norm`` on each row.
    """
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im)).tolist()
    return np.sqrt(np.vecdot(x, x)).tolist()


def _check_max_rank(max_rank: int | None) -> None:
    if max_rank is not None and max_rank < 1:
        raise ValueError(f"max_rank must be None or >= 1, got {max_rank}")


class _OneBlock:
    """A batch of one block given by row and column callables.

    Every row and column is an array of the first row's dtype.
    """

    def __init__(self, get_row, get_col, shape, get_rows=None) -> None:
        self.shape = shape
        self._get_row, self._get_col, self._get_rows = get_row, get_col, get_rows
        self._dtype = None

    def __len__(self) -> int:
        return 1

    def row(self, blocks, idx) -> np.ndarray:
        r = np.asarray(self._get_row(int(idx[0])), dtype=self._dtype)
        self._dtype = r.dtype
        return r[None]

    def col(self, blocks, idx) -> np.ndarray:
        return np.asarray(self._get_col(int(idx[0])), dtype=self._dtype)[None]

    def rows(self, block, idx) -> np.ndarray:
        if self._get_rows is None:
            return np.stack([self._get_row(int(i)) for i in idx])
        return self._get_rows(idx)


class _CallSampler:
    """Rows and columns of ``kernel(row_points, col_points)`` for a kernel
    with no ``sampler``: one-row and one-column calls."""

    def __init__(self, kernel, row_points: np.ndarray, col_points: np.ndarray) -> None:
        self._kernel, self._rp, self._cp = kernel, row_points, col_points
        self.shape = (len(row_points), len(col_points))

    def row(self, i: int) -> np.ndarray:
        return self._kernel(self._rp[i : i + 1], self._cp)[0]

    def col(self, j: int) -> np.ndarray:
        return self._kernel(self._rp, self._cp[j : j + 1])[:, 0]


def block_sampler(kernel, row_points: np.ndarray, col_points: np.ndarray):
    """The row/column oracle ACA compresses the block ``kernel(row_points,
    col_points)`` from: ``kernel.sampler(...)`` when the kernel has one, else
    one-row/one-column calls of the bare callable."""
    sampler = getattr(kernel, "sampler", None)
    if sampler is None:
        return _CallSampler(kernel, row_points, col_points)
    return sampler(row_points, col_points)


def _rank_groups(ks: list[int], slots: np.ndarray | None = None):
    """``(k, rows, sel)`` for each rank ``k`` in ``ks``: the positions in
    ``ks`` holding ``k`` (``None``: all of them) and the selector of their
    slots in a stacked buffer.  ``slots`` holds the slot of each position;
    ``None`` says position ``t`` is slot ``t`` of every slot, selected as a view."""
    k0 = ks[0]
    if ks.count(k0) == len(ks):
        return [(k0, None, slice(None) if slots is None else slots)]
    ranks = np.array(ks)
    groups = []
    for kk in sorted(set(ks)):
        rows = np.flatnonzero(ranks == kk)
        groups.append((kk, rows, rows if slots is None else slots[rows]))
    return groups


def _residual(x, groups, a, b, flat) -> np.ndarray:
    """``x[t] - a[s][:, :k] @ b[flat[t], :k]`` for row ``t`` of ``x`` in the
    rank group ``(k, rows, sel)`` (:func:`_rank_groups`) that holds it, ``s``
    its slot; ``b`` is a stacked buffer seen as one row per (slot, index) and
    ``flat[t]`` the row of ``t``'s slot and index.  A rank-0 row is left as
    it is.

    A group is one stacked product: per slot the GEMV of a one-block loop
    over the full-width buffer (the same leading dimension, hence the same
    bits in single precision too).
    """
    kk, rows, sel = groups[0]
    if rows is None:
        if not kk:
            return x
        return x - (a[sel][:, :, :kk] @ b.take(flat, axis=0)[:, :kk, None])[:, :, 0]
    upd = np.zeros_like(x)  # x - 0 is x, bit for bit
    for kk, rows, sel in groups:
        if kk:
            upd[rows] = (a[sel][:, :, :kk] @ b.take(flat[rows], axis=0)[:, :kk, None])[:, :, 0]
    return x - upd


def _interact(u, v, groups, uu, vv) -> list[float]:
    """``Re <u v^T, A_k>`` for each new cross ``u[t] v[t]^T`` and the ``k``
    crosses of its slot before it (its rank group, as in :func:`_residual`):
    ``sum((U^H u) * (V^H v))``, 0.0 at rank 0."""
    out = [0.0] * len(u)
    for kk, rows, sel in groups:
        if not kk:
            continue
        ut, vt = (u, v) if rows is None else (u[rows], v[rows])
        cu = ut[:, None, :] @ uu[sel][:, :, :kk].conj()
        cv = vt[:, None, :] @ vv[sel][:, :, :kk].conj()
        vals = (cu * cv).sum(axis=2).real.ravel().tolist()
        if rows is None:
            return vals
        for t, val in zip(rows.tolist(), vals):
            out[t] = val
    return out


def _aca(oracle, eps: float, max_rank: int | None, recompress: bool, grace: int) -> list[RkMatrix]:
    """Partially pivoted ACA of every block of ``oracle``, in lockstep.

    ``oracle`` holds ``len(oracle)`` blocks of shape ``oracle.shape``:
    ``row(blocks, idx)`` / ``col(blocks, idx)`` return row / column
    ``idx[t]`` of block ``blocks[t]`` stacked (``blocks`` ascending and
    distinct), and ``rows(b, idx)`` the rows ``idx`` of block ``b``.  Rows
    and columns have the dtype of the first row; returned arrays are only
    read.  ``max_rank`` is ``None`` or >= 1.

    Each block has its own rank, availability masks, norm estimate, grace
    streak, next pivot row and verification generator; the stacked buffers
    hold one slot per live block and are packed when blocks finish.  Per
    block the arithmetic is that of a loop over this block alone, operation
    for operation, so its factors are the same bits in any batch.  Every
    block is reported to the probe once, in block order.
    """
    m, n = oracle.shape
    if m <= 0 or n <= 0:
        raise ValueError(f"block dimensions must be positive, got {m} x {n}")
    _check_eps(eps)
    nblk = len(oracle)
    limit = min(m, n) if max_rank is None else min(max_rank, m, n)

    # Per-block state, indexed by block.  A block fetches one row per row it
    # uses up and one column per cross, so its kernel entries are counted
    # from ``rows_left`` and ``k`` plus what its checks sampled.
    k = [0] * nblk
    rows_left = [m] * nblk
    norm_sq = [0.0] * nblk  # running estimate of ||A_k||_F^2
    first_pivot = [0.0] * nblk
    streak = [0] * nblk
    sampled = [0] * nblk
    done = [False] * nblk
    rngs: dict[int, np.random.Generator] = {}
    out: list[RkMatrix | None] = [None] * nblk  # a block's result once it leaves

    # Row 0 is every block's first pivot row; it also fixes the dtype.
    live = list(range(nblk))  # the block of each slot, ascending
    ids = slots = np.arange(nblk)
    row_idx = np.zeros(nblk, dtype=np.intp)  # each slot's next pivot row
    r = oracle.row(ids, row_idx)
    dtype = r.dtype

    # Per-slot buffers: stacked factors (columns 0..k of a slot are live),
    # capacity doubling with the batch's largest rank, and availability masks
    # updated as pivots are consumed.  Every buffer stays C-contiguous (made
    # by ``empty``/``ones``, grown by ``concatenate``, packed by fancy
    # indexing), so its ``reshape`` is a view in which entry (slot s, index i)
    # is row ``s * m + i`` (``s * n + i``): one ``take`` or store per step.
    cap = min(limit, 8)
    uu = np.empty((nblk, m, cap), dtype=dtype)
    vv = np.empty((nblk, n, cap), dtype=dtype)
    row_avail = np.ones((nblk, m), dtype=bool)
    col_avail = np.ones((nblk, n), dtype=bool)
    offm, offn = slots * m, slots * n

    def verify(s: int, b: int) -> int | None:
        """Sample unused rows of block ``b`` (slot ``s``); return one with
        significant residual, if any.

        Partial pivoting can stall with whole regions of the block untouched
        (the classic ACA failure on structured meshes); random row checks
        catch this before declaring convergence.
        """
        unused = np.flatnonzero(row_avail[s])
        if unused.size == 0:
            return None
        rng = rngs.get(b)
        if rng is None:
            rng = rngs[b] = np.random.Generator(np.random.PCG64(_SEEDS))
        sample = rng.choice(unused, size=min(8, unused.size), replace=False)
        resid = np.asarray(oracle.rows(b, sample), dtype=dtype)
        sampled[b] += resid.size
        kb = k[b]
        if kb:
            resid = resid - uu[s, sample, :kb] @ vv[s, :, :kb].T
        rnorms = np.linalg.norm(resid, axis=1)
        worst_i, worst = None, eps * math.sqrt(max(norm_sq[b], 0.0))
        for i, rnorm in zip(sample.tolist(), rnorms.tolist()):
            if rnorm > worst:
                worst_i, worst = i, rnorm
        return worst_i

    fetch = shrink = False
    while True:
        if shrink:
            # Blocks that finished leave, rounded right away (their raw
            # factors are not held to the end); the survivors' slots are packed.
            keep = []
            for s, b in enumerate(live):
                if not done[b] and k[b] < limit:
                    keep.append(s)
                elif k[b]:
                    rk = RkMatrix(uu[s, :, : k[b]].copy(), vv[s, :, : k[b]].copy())
                    out[b] = rk.truncate(eps, max_rank) if recompress else rk
            if not keep:
                break
            uu, vv = uu[keep], vv[keep]
            row_avail, col_avail, row_idx = row_avail[keep], col_avail[keep], row_idx[keep]
            live = [live[s] for s in keep]
            ids, slots = np.array(live), np.arange(len(live))
            offm, offn = slots * m, slots * n
            shrink = False
        ks = [k[b] for b in live]
        groups = _rank_groups(ks)

        row_flat = offm + row_idx
        if fetch:
            r = _residual(oracle.row(ids, row_idx), groups, vv, uu.reshape(-1, cap), row_flat)
        fetch = True
        row_avail.reshape(-1)[row_flat] = False

        # A column is free here: each cross consumes one and k < limit <= n.
        piv_j = np.where(col_avail, np.abs(r), -1.0).argmax(axis=1)
        col_flat = offn + piv_j
        pivots = r.take(col_flat)
        go = []  # slots whose pivot is kept
        for s, (b, p) in enumerate(zip(live, map(abs, pivots.tolist()))):
            rows_left[b] -= 1
            if first_pivot[b] == 0.0:
                first_pivot[b] = p
            if p <= _PIVOT_DROP * max(first_pivot[b], 1e-300):
                # This row is already resolved; look for an unresolved one.
                cont = verify(s, b)
                if cont is None:
                    done[b] = shrink = True
                else:
                    row_idx[s] = cont
            else:
                go.append(s)
        if not go:
            continue

        gs, gks, gsel = slots, ks, slice(None)
        if len(go) < len(live):
            gs = gsel = np.array(go)
            gks = [ks[s] for s in go]
            groups = _rank_groups(gks, gs)
            r, pivots, piv_j, col_flat = r[gs], pivots[gs], piv_j[gs], col_flat[gs]
        v_new = r / pivots[:, None]
        u_new = _residual(oracle.col(ids[gsel], piv_j), groups, uu, vv.reshape(-1, cap), col_flat)
        col_avail.reshape(-1)[col_flat] = False

        # Norm bookkeeping: ||A_{k+1}||^2 = ||A_k||^2 + 2 Re<cross, prev> + ||cross||^2.
        u_norm = _row_norms(u_new)
        v_norm = _row_norms(v_new)
        interact = _interact(u_new, v_new, groups, uu, vv)
        if max(gks) == cap:
            grow = min(limit, 2 * cap) - cap
            uu = np.concatenate([uu, np.empty(uu.shape[:2] + (grow,), dtype=dtype)], axis=2)
            vv = np.concatenate([vv, np.empty(vv.shape[:2] + (grow,), dtype=dtype)], axis=2)
            cap += grow
        for kk, rows, sel in groups:
            uu[sel, :, kk] = u_new if rows is None else u_new[rows]
            vv[sel, :, kk] = v_new if rows is None else v_new[rows]
        # Next pivot row: largest remaining entry of the new column.
        row_idx[gsel] = np.where(row_avail[gsel], np.abs(u_new), -1.0).argmax(axis=1)

        for t, s in enumerate(go):
            b = live[s]
            k[b] += 1
            if k[b] == limit:
                shrink = True
            un_vn = u_norm[t] * v_norm[t]
            norm_sq[b] += 2.0 * interact[t] + un_vn**2
            if un_vn <= eps * math.sqrt(max(norm_sq[b], 0.0)):
                streak[b] += 1
                if streak[b] >= grace:
                    cont = verify(s, b)
                    if cont is None:
                        done[b] = shrink = True
                    else:
                        row_idx[s] = cont
                        streak[b] = 0
                    continue
            else:
                streak[b] = 0
            if not rows_left[b]:
                done[b] = shrink = True

    for b in range(nblk):
        if out[b] is None:
            out[b] = RkMatrix.zeros(m, n, dtype=dtype)
        _report(m, n, out[b], n * (m - rows_left[b]) + m * k[b] + sampled[b])
    return out


def aca_partial(
    get_row: Callable[[int], np.ndarray],
    get_col: Callable[[int], np.ndarray],
    m: int,
    n: int,
    eps: float,
    *,
    max_rank: int | None = None,
    recompress: bool = _RECOMPRESS,
    grace: int = _GRACE,
    get_rows: Callable[[np.ndarray], np.ndarray] | None = None,
) -> RkMatrix:
    """Partially pivoted ACA of an ``m x n`` block defined by row/col oracles.

    The cross loop of :func:`aca_batch` on a batch of this one block.

    Parameters
    ----------
    get_row, get_col:
        ``get_row(i)`` returns row ``i`` of the block (length ``n``);
        ``get_col(j)`` returns column ``j`` (length ``m``).  The returned
        arrays are only read, so an oracle may hand out views of its data.
    get_rows:
        Optional batched oracle: ``get_rows(idx)`` returns the rows ``idx``
        (an index array) stacked, shape ``(len(idx), n)``.  Only the
        convergence check uses it; without it the check calls ``get_row``
        once per sampled row.
    eps:
        Stopping tolerance: iteration ends when the new cross satisfies
        ``||u_k|| ||v_k|| <= eps * ||A_k||_F`` (the standard heuristic
        estimate of the relative residual).
    max_rank:
        Hard cap on the rank (defaults to ``min(m, n)``); ``None`` or >= 1.
    recompress:
        Round the ACA factors with QR+SVD to ``eps`` afterwards (ACA ranks
        are typically a few units above optimal).
    grace:
        Number (>= 1) of *consecutive* crosses that must satisfy the stopping
        criterion before iteration ends.  Structured point grids (like the
        cylinder mesh) make single-cross estimates unreliable — the classic
        partial-pivoting failure mode — so a short grace run is required.

    Returns
    -------
    RkMatrix
        The compressed block.  Rank 0 if the block is numerically zero.
    """
    if grace < 1:
        raise ValueError(f"grace must be >= 1, got {grace}")
    _check_max_rank(max_rank)
    oracle = _OneBlock(get_row, get_col, (m, n), get_rows)
    return _aca(oracle, eps, max_rank, recompress, grace)[0]


def aca_batch(samplers, eps: float, *, max_rank: int | None = None) -> list[RkMatrix]:
    """Partially pivoted ACA of many blocks, one :class:`RkMatrix` per sampler.

    A sampler has ``shape``, ``row(i)``, ``col(j)`` and optionally
    ``rows(idx)`` (as :class:`~repro.geometry.kernels.BlockSampler`).  Samplers
    whose type can ``stack`` them and that share a kernel and a shape run as one
    batch of :func:`_aca`; every other sampler is a batch of one, sampled
    through its own ``row``/``col``.  The factors
    are those of :func:`compress_kernel_block` on each block alone, bit for bit.
    """
    _check_max_rank(max_rank)
    batches: dict = {}
    for pos, s in enumerate(samplers):
        key = (type(s), id(s.kernel), s.shape) if hasattr(type(s), "stack") else pos
        batches.setdefault(key, []).append(pos)
    out: list = [None] * len(samplers)
    for members in batches.values():
        first = samplers[members[0]]
        if len(members) == 1:
            oracle = _OneBlock(first.row, first.col, first.shape, getattr(first, "rows", None))
        else:
            oracle = type(first).stack([samplers[p] for p in members])
        for p, rk in zip(members, _aca(oracle, eps, max_rank, _RECOMPRESS, _GRACE)):
            out[p] = rk
    return out


def _report(m: int, n: int, rk: RkMatrix, kernel_entries: int) -> None:
    """Tell the probe one ``m x n`` block was compressed to ``rk`` from
    ``kernel_entries`` kernel evaluations."""
    probe = _current_probe()
    if probe is not None:
        probe.block_compressed(m, n, rk.rank, rk.u.dtype.itemsize, kernel_entries)


def aca_full(block: np.ndarray, eps: float, *, max_rank: int | None = None) -> RkMatrix:
    """Fully pivoted ACA of a materialised block (reference implementation).

    O(m n k): the global residual maximum is the pivot at every step.  Used
    in tests as a slower-but-robust cross check of :func:`aca_partial`.
    """
    _check_eps(eps)
    r = np.array(block, copy=True)
    m, n = r.shape
    limit = min(m, n) if max_rank is None else min(max_rank, m, n)
    ref = float(np.abs(r).max()) if r.size else 0.0
    norm_ref = float(np.linalg.norm(block))
    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    for _ in range(limit):
        flat = int(np.argmax(np.abs(r)))
        i, j = divmod(flat, n)
        pivot = r[i, j]
        if abs(pivot) <= _PIVOT_DROP * max(ref, 1e-300):
            break
        u_new = r[:, j].copy()
        v_new = r[i, :] / pivot
        r -= np.outer(u_new, v_new)
        us.append(u_new)
        vs.append(v_new)
        if np.linalg.norm(r) <= eps * max(norm_ref, 1e-300):
            break
    if not us:
        return RkMatrix.zeros(m, n, dtype=block.dtype)
    return RkMatrix(np.column_stack(us), np.column_stack(vs))


#: The methods of :func:`compress_kernel_block` that evaluate the whole block.
_DENSE_COMPRESSORS = {"svd": compress_dense, "rsvd": compress_dense_rsvd, "aca_full": aca_full}
#: Every method of :func:`compress_kernel_block`: matrix-free ACA, then the table.
COMPRESSION_METHODS = ("aca", *_DENSE_COMPRESSORS)


def check_compression(method: str, max_rank: int | None = None) -> None:
    """Reject a compression method outside :data:`COMPRESSION_METHODS` and a
    rank cap that is not ``None`` or >= 1 (``ValueError``)."""
    if method not in COMPRESSION_METHODS:
        raise ValueError(f"unknown compression method {method!r}; available: {COMPRESSION_METHODS}")
    _check_max_rank(max_rank)


def compress_kernel_block(
    kernel,
    row_points: np.ndarray,
    col_points: np.ndarray,
    eps: float,
    *,
    method: str = "aca",
    max_rank: int | None = None,
) -> RkMatrix:
    """Compress the kernel block over two point sets into an Rk block.

    ``method="aca"`` uses partially pivoted ACA (assembly never forms the
    block), a batch of one of :func:`aca_batch` over :func:`block_sampler`;
    ``method="svd"`` forms the dense block and takes the truncated SVD
    (optimal, for validation); ``method="aca_full"`` forms the block and
    runs fully pivoted ACA; ``method="rsvd"`` uses the randomized SVD
    (the paper cites randomized techniques as [21]).  Every method reports
    the block to the active probe once.

    ``method="aca"`` samples a ``KernelFunction`` (or any kernel with a
    ``sampler``) through its sampler and a bare callable through one-row and
    one-column calls; the other methods call ``kernel(rows, cols)`` once.
    """
    check_compression(method, max_rank)
    if method == "aca":
        # The sampler is built here, per block: it is never pickled.
        return aca_batch([block_sampler(kernel, row_points, col_points)], eps, max_rank=max_rank)[0]
    block = kernel(row_points, col_points)
    rk = _DENSE_COMPRESSORS[method](block, eps, max_rank=max_rank)
    _report(*block.shape, rk, block.size)
    return rk
