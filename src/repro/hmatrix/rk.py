"""Low-rank (``Rk``) blocks and truncated ("rounded") arithmetic.

An admissible block is stored as ``A ~= U @ V.T`` with ``U`` (m x k) and ``V``
(n x k).  Every operation that could grow the rank (addition, products) is
followed by *recompression to the accuracy* ``eps`` via the standard
QR+QR+SVD rounding, which is what keeps H-arithmetic log-linear (Section II-A
of the paper).  A dense block is compressed by a column-pivoted QR that
drops the rows of ``R`` the ε-budget can afford, then an SVD of the kept
rows (:func:`truncate_svd`); both error parts are counted, so the ε-bound
holds exactly, as with a full SVD, at a fraction of its cost on the
low-rank leaf blocks of assembly and arithmetic.  Every entry point rejects
an ``eps`` that is negative or not finite.

Note the transpose (not conjugate-transpose) convention: the BEM test kernels
are complex-symmetric, and carrying plain ``V.T`` keeps real and complex code
paths identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..dense.kernels import householder_q, qr_economic, qr_pivoted, svd_economic
from ..obs.instrument import current as _current_probe

__all__ = ["RkMatrix", "truncate_svd", "compress_dense", "compress_dense_rsvd"]

#: Share of the ε-budget that the rows of the pivoted ``R`` dropped before
#: the SVD in :func:`truncate_svd` may take; the SVD spends the rest.
_QR_SHARE = 0.01


def _check_eps(eps: float) -> None:
    """Reject an accuracy that is negative or not finite (NaN would zero blocks)."""
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"eps must be finite and non-negative, got {eps}")


@dataclass
class RkMatrix:
    """Rank-k representation ``A ~= u @ v.T``.

    ``u`` has shape (m, k), ``v`` shape (n, k); ``k`` may be 0 (exact zero
    block).  Arrays are owned (callers must not mutate them afterwards).
    """

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        if self.u.ndim != 2 or self.v.ndim != 2:
            raise ValueError("u and v must be 2-D")
        if self.u.shape[1] != self.v.shape[1]:
            raise ValueError(
                f"rank mismatch: u has {self.u.shape[1]} columns, v has {self.v.shape[1]}"
            )

    # -- constructors -------------------------------------------------------
    @classmethod
    def zeros(cls, m: int, n: int, dtype=np.float64) -> "RkMatrix":
        """The exact zero block (rank 0)."""
        return cls(np.zeros((m, 0), dtype=dtype), np.zeros((n, 0), dtype=dtype))

    # -- basic queries -------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return (self.u.shape[0], self.v.shape[0])

    @property
    def rank(self) -> int:
        return self.u.shape[1]

    @property
    def dtype(self) -> np.dtype:
        return self.u.dtype

    @property
    def storage(self) -> int:
        """Number of stored scalars (the compression-ratio numerator)."""
        return self.u.size + self.v.size

    def to_dense(self) -> np.ndarray:
        if self.rank == 0:
            return np.zeros(self.shape, dtype=self.dtype)
        return self.u @ self.v.T

    def copy(self) -> "RkMatrix":
        return RkMatrix(self.u.copy(), self.v.copy())

    def norm_fro(self) -> float:
        """Frobenius norm computed in O((m+n) k^2) without densifying."""
        if self.rank == 0:
            return 0.0
        # ||U V^T||_F^2 = trace((U^H U) conj(V^H V)) with Gram matrices.
        gu = self.u.conj().T @ self.u
        gv = self.v.conj().T @ self.v
        val = float(np.einsum("ij,ji->", gu, gv.conj()).real)
        # Tiny negative values are roundoff in the Gram products.
        return float(np.sqrt(max(val, 0.0)))

    # -- linear maps ----------------------------------------------------------
    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` in O((m+n) k) per column of ``x``."""
        if self.rank == 0:
            out_shape = (self.shape[0],) + np.asarray(x).shape[1:]
            return np.zeros(out_shape, dtype=np.promote_types(self.dtype, np.asarray(x).dtype))
        return self.u @ (self.v.T @ x)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """``A.T @ y`` (plain transpose, matching the storage convention)."""
        if self.rank == 0:
            out_shape = (self.shape[1],) + np.asarray(y).shape[1:]
            return np.zeros(out_shape, dtype=np.promote_types(self.dtype, np.asarray(y).dtype))
        return self.v @ (self.u.T @ y)

    def transpose(self) -> "RkMatrix":
        return RkMatrix(self.v.copy(), self.u.copy())

    def scale(self, alpha) -> "RkMatrix":
        """Return ``alpha * A`` (rank unchanged)."""
        if self.rank == 0:
            return self.copy()
        return RkMatrix(alpha * self.u, self.v.copy())

    # -- rank-growing ops (with rounding) --------------------------------------
    def truncate(self, eps: float, max_rank: int | None = None) -> "RkMatrix":
        """Recompress to relative accuracy ``eps`` (QR+QR+SVD rounding)."""
        return _truncate_rk(self, eps, max_rank)

    def add(self, other: "RkMatrix", eps: float, max_rank: int | None = None) -> "RkMatrix":
        """Rounded addition: ``trunc_eps(self + other)``."""
        _check_eps(eps)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        if other.rank == 0:
            return self.truncate(eps, max_rank) if max_rank is not None else self.copy()
        if self.rank == 0:
            return other.truncate(eps, max_rank) if max_rank is not None else other.copy()
        dtype = np.promote_types(self.dtype, other.dtype)
        u = np.concatenate((self.u, other.u), axis=1, dtype=dtype)
        v = np.concatenate((self.v, other.v), axis=1, dtype=dtype)
        return _truncate_rk(RkMatrix(u, v), eps, max_rank)

    @staticmethod
    def add_many(terms, eps: float, max_rank: int | None = None) -> "RkMatrix":
        """Rounded sum of Rk terms with a *single* QR+QR+SVD recompression.

        Equivalent in accuracy class to folding ``add`` over ``terms`` —
        ``||sum - result||_F <= eps ||sum||_F`` — but recompresses once at
        total stacked rank instead of once per term (Börm-Christophersen
        accumulator arithmetic).  A stacked rank above both sides of the
        block makes the rounding one product and one SVD, without QRs: on
        ``gp_chol``'s factorise that cut the rounding time 0.173 -> 0.102 s.
        ``terms`` must be a non-empty sequence of equal-shape :class:`RkMatrix`.
        """
        _check_eps(eps)
        terms = list(terms)
        if not terms:
            raise ValueError("add_many needs at least one term")
        shape = terms[0].shape
        for t in terms[1:]:
            if t.shape != shape:
                raise ValueError(f"shape mismatch in add_many: {t.shape} vs {shape}")
        live = [t for t in terms if t.rank]
        if not live:
            return RkMatrix.zeros(*shape, dtype=terms[0].dtype)
        if len(live) == 1:
            # Match ``add``'s zero-operand short-circuit: a single term is
            # returned untruncated unless a rank cap forces rounding.
            only = live[0]
            return only.truncate(eps, max_rank) if max_rank is not None else only.copy()
        dtype = live[0].dtype
        for t in live[1:]:
            dtype = np.promote_types(dtype, t.dtype)
        u = np.concatenate([t.u for t in live], axis=1, dtype=dtype)
        v = np.concatenate([t.v for t in live], axis=1, dtype=dtype)
        return _truncate_rk(RkMatrix(u, v), eps, max_rank)


def _truncate_rk(rk: RkMatrix, eps: float, max_rank: int | None = None) -> RkMatrix:
    """QR+QR+SVD rounding of an Rk block to relative Frobenius accuracy eps.

    Only a factor with more rows than the rank ``k`` is QR-factored: a QR cannot
    shrink one with no more, which enters the SVD's core ``ru @ rv.T`` as is.
    """
    _check_eps(eps)
    m, n = rk.shape
    k = rk.rank
    if k == 0:
        return rk.copy()
    limit = min(m, n, k)
    qu, ru = qr_economic(rk.u) if m > k else (None, rk.u)
    qv, rv = qr_economic(rk.v) if n > k else (None, rk.v)
    w, s, zh = svd_economic(ru @ rv.T)
    new_rank = _truncation_rank(s, eps)
    if max_rank is not None:
        new_rank = min(new_rank, max_rank)
    new_rank = min(new_rank, limit)
    probe = _current_probe()
    if probe is not None:
        probe.recompression(m, n, k, new_rank)
    # core = W S Zh, so A = (Qu W S) (Zh Qv^T): u = Qu W S, v = Qv Zh^T.
    u, v = w[:, :new_rank] * s[:new_rank], zh[:new_rank].T
    u, v = (u if qu is None else qu @ u), (v if qv is None else qv @ v)
    return RkMatrix(np.ascontiguousarray(u), np.ascontiguousarray(v))


def _truncation_rank(s: np.ndarray, eps: float) -> int:
    """Smallest rank r with ||tail||_F <= eps * ||s||_F (relative Frobenius)."""
    if s.size == 0:
        return 0
    s2 = s * s
    total = float(s2.sum())
    if total == 0.0:
        return 0
    return _tail_rank(s2, (eps * eps) * total)


def _tail_rank(w: np.ndarray, budget: float) -> int:
    """Smallest r with ``sum(w[r:]) <= budget`` for non-negative weights ``w``."""
    # tail[r] = sum_{i >= r} w_i never increases with r, so the ranks whose
    # tail does not fit yet are a prefix: its length is the smallest that does.
    tail = w[::-1].cumsum()[::-1]
    return int(np.count_nonzero(tail > budget))


def truncate_svd(a: np.ndarray, eps: float, max_rank: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Low-rank factors of a dense block to relative accuracy ``eps``.

    Returns ``(u, v)`` with ``a ~= u @ v.T`` and ``||a - u v^T||_F <=
    eps ||a||_F`` (Frobenius-relative, per the paper's accuracy parameter).

    A column-pivoted QR ``a P = Q R`` comes first: the trailing rows of ``R``
    whose squared norm fits in 1% of the budget ``eps^2 ||a||_F^2`` are
    dropped, and the SVD of the kept ``p x n`` rows is truncated to the
    smallest rank whose tail fits in what is left.  The two error parts are
    orthogonal, so the bound is met exactly; the rank is the SVD-optimal one
    unless the optimal tail lies within 1% of the budget.  ``max_rank`` caps
    the rank.  A block with a NaN or infinite entry raises ``LinAlgError``.
    """
    _check_eps(eps)
    m, n = a.shape
    if a.size == 0:
        return np.zeros((m, 0), dtype=a.dtype), np.zeros((n, 0), dtype=a.dtype)
    r, perm, qr, tau = qr_pivoted(a)
    if r.dtype.kind == "c":
        rows = (r.real * r.real + r.imag * r.imag).sum(axis=1)
    else:
        rows = (r * r).sum(axis=1)
    total = float(rows.sum())  # ||a||_F^2
    if not math.isfinite(total):
        raise np.linalg.LinAlgError("truncate_svd: the block has a NaN or infinite entry")
    budget = (eps * eps) * total
    p = _tail_rank(rows, _QR_SHARE * budget)
    if p == 0:
        return np.zeros((m, 0), dtype=r.dtype), np.zeros((n, 0), dtype=r.dtype)
    w, s, zh = svd_economic(r[:p])
    t = _tail_rank(s * s, budget - float(rows[p:].sum()))
    if max_rank is not None:
        t = min(t, max_rank)
    # a P = Q R and R[:p] = W S Zh, so a ~= (Q_p W_t S_t) (Zh_t P^T).
    u = householder_q(qr, tau, p) @ (w[:, :t] * s[:t])
    v = np.empty((n, t), dtype=zh.dtype)
    v[perm] = zh[:t].T
    return np.ascontiguousarray(u), v


def compress_dense(a: np.ndarray, eps: float, max_rank: int | None = None) -> RkMatrix:
    """Compress a dense block into an :class:`RkMatrix` by :func:`truncate_svd`."""
    u, v = truncate_svd(np.asarray(a), eps, max_rank)
    return RkMatrix(u, v)


def compress_dense_rsvd(
    a: np.ndarray,
    eps: float,
    *,
    max_rank: int | None = None,
    oversampling: int = 8,
    n_iter: int = 1,
    seed: int = 0,
) -> RkMatrix:
    """Randomized-SVD compression (Halko/Martinsson/Tropp range finder).

    The randomized alternative the paper cites ([21]) for reducing the cost
    of truncation: sample the range with a Gaussian sketch, orthonormalise
    (with ``n_iter`` power iterations for spectra with slow decay), then run
    the small exact SVD on the projected block.  The achieved rank adapts to
    ``eps``: the sketch width doubles until the residual tolerance is met or
    ``min(m, n)`` is reached.
    """
    _check_eps(eps)
    a = np.asarray(a)
    m, n = a.shape
    if a.size == 0 or not np.any(a):
        return RkMatrix.zeros(m, n, dtype=a.dtype)
    rng = np.random.default_rng(seed)
    norm_a = float(np.linalg.norm(a))
    limit = min(m, n)
    # With a hard rank cap the sketch never needs to be wider than
    # max_rank + oversampling: anything beyond it is discarded by the final
    # truncation anyway.
    hard = limit if max_rank is None else min(limit, max_rank + oversampling)
    width = min(hard, max(8, oversampling))
    while True:
        omega = rng.standard_normal((n, width))
        if np.iscomplexobj(a):
            omega = omega + 1j * rng.standard_normal((n, width))
        y = a @ omega
        q, _ = qr_economic(y)
        for _ in range(n_iter):
            # Subspace iteration with re-orthonormalisation: plain power
            # iterations of (A A^H) lose the small singular directions to
            # roundoff.
            z, _ = qr_economic(a.conj().T @ q)
            q, _ = qr_economic(a @ z)
        b = q.conj().T @ a
        resid = float(np.sqrt(max(norm_a**2 - np.linalg.norm(b) ** 2, 0.0)))
        if resid <= eps * norm_a:
            break
        if width >= hard:
            if max_rank is None:
                # Sketching cannot certify the tolerance: fall back to the
                # exact SVD (the block is dense in hand anyway).
                return compress_dense(a, eps, max_rank)
            # The rank cap bounds the attainable accuracy; accept the sketch.
            break
        width = min(hard, 2 * width)
    u_small, v = truncate_svd(b, eps, max_rank)
    u = q @ u_small
    if max_rank is not None and u.shape[1] > max_rank:
        u, v = u[:, :max_rank], v[:, :max_rank]
    return RkMatrix(np.ascontiguousarray(u), np.ascontiguousarray(v))
