"""Full-rank tiled LU (CHAMELEON-classic) — the dense reference baseline.

The paper's introduction contrasts the H-LU's Theta(n k^2 log^2 n) flops
against the dense Theta((2/3) n^3).  This baseline is that dense side: plain
ndarray tiles, the same Algorithm 1 loop nest, the same STF submission — so
format comparisons isolate the storage format, not the algorithm.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

from ..core.algorithms import declared, tile_steps
from ..core.solver import FactorizationInfo
from ..dense import gemm_update, getrf_nopiv, sequential_blas, trsm
from ..hmatrix.rules import chol_steps, lu_steps
from ..runtime import StfEngine

__all__ = ["DenseTiledLU", "DenseTiledCholesky"]


def _potrf(a):
    a[:] = np.linalg.cholesky(a)


def _trsm_rlt(l, b):
    # X L^T = B  =>  X = (L^{-1} B^T)^T.
    b[:] = solve_triangular(l, b.conj().T, lower=True, check_finite=False).conj().T


def _gemm_tb(c, a, b):
    c -= a @ b.conj().T


#: variant -> dense kernel on ndarray tiles in kernel-argument order, in place.
_KERNELS = {
    "getrf": lambda a: getrf_nopiv(a, overwrite=True),
    "trsm_ll": lambda l, b: trsm("left", "lower", l, b, unit_diagonal=True, overwrite=True),
    "trsm_ru": lambda u, b: trsm("right", "upper", u, b, overwrite=True),
    "gemm": gemm_update,
    "potrf": _potrf,
    "trsm_rlt": _trsm_rlt,
    "gemm_tb": _gemm_tb,
    "syrk": lambda c, a: _gemm_tb(c, a, a),  # a dense diagonal tile keeps the full product
    "pack": lambda a: None,  # a dense tile is its own pack
}


class DenseTiledLU:
    """Dense matrix stored as an ``nt x nt`` grid of ndarray tiles."""

    def __init__(self, a: np.ndarray, nb: int) -> None:
        a = np.array(a, copy=True)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"need a square matrix, got shape {a.shape}")
        if nb < 1:
            raise ValueError(f"nb must be positive, got {nb}")
        self.n = a.shape[0]
        self.nb = nb
        self.nt = -(-self.n // nb)
        self.tiles: dict[tuple[int, int], np.ndarray] = {}
        for i in range(self.nt):
            for j in range(self.nt):
                self.tiles[i, j] = np.ascontiguousarray(
                    a[self._sl(i), self._sl(j)]
                )
        self._factorized = False

    def _sl(self, i: int) -> slice:
        return slice(i * self.nb, min((i + 1) * self.nb, self.n))

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n), dtype=self.tiles[0, 0].dtype)
        for (i, j), t in self.tiles.items():
            out[self._sl(i), self._sl(j)] = t
        return out

    #: The factorisation's step sequence (:mod:`repro.hmatrix.rules`).
    _steps = staticmethod(lu_steps)

    def factorize(self, engine: StfEngine | None = None) -> FactorizationInfo:
        """Tiled right-looking factorisation (Algorithm 1) on dense tiles, via
        STF, with BLAS held to one thread like the ℌ formats' factorisations."""
        if self._factorized:
            raise RuntimeError("factorize() called twice")
        eng = engine or StfEngine(mode="eager")
        t = self.tiles
        rows = [t[k, k].shape[0] for k in range(self.nt)]
        is_c = np.issubdtype(t[0, 0].dtype, np.complexfloating)
        with sequential_blas():
            for variant, kind, pos, label, priority, flops in tile_steps(
                self._steps(self.nt), self.nt, rows, is_c
            ):
                eng.insert_task(
                    kind,
                    (lambda variant=variant, pos=pos: _KERNELS[variant](*(t[p] for p in pos))),
                    declared(variant, [eng.handle(t[i, j], f"A[{i},{j}]") for i, j in pos]),
                    priority=priority,
                    flops=flops,
                    label=label,
                )
            graph = eng.wait_all()
        self._factorized = True
        return FactorizationInfo(graph=graph, nb=self.nb, nt=self.nt)

    #: Whether the forward sweep's triangle has a unit diagonal (LU's L).
    _unit_lower = True

    def _upper(self, k: int, j: int) -> np.ndarray:
        """Block ``(k, j)``, ``j >= k``, of the backward sweep's upper factor."""
        return self.tiles[k, j]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Forward/backward substitution over the factor tiles."""
        if not self._factorized:
            raise RuntimeError("call factorize() before solve()")
        b = np.asarray(b)
        squeeze = b.ndim == 1
        x = np.array(b[:, None] if squeeze else b, copy=True)
        if x.shape[0] != self.n:
            raise ValueError(f"rhs leading dim {x.shape[0]} != {self.n}")
        nt, sl = self.nt, self._sl
        for k in range(nt):
            for j in range(k):
                x[sl(k)] -= self.tiles[k, j] @ x[sl(j)]
            x[sl(k)] = solve_triangular(self.tiles[k, k], x[sl(k)], lower=True,
                                        unit_diagonal=self._unit_lower, check_finite=False)
        for k in reversed(range(nt)):
            for j in range(k + 1, nt):
                x[sl(k)] -= self._upper(k, j) @ x[sl(j)]
            x[sl(k)] = solve_triangular(self._upper(k, k), x[sl(k)], lower=False,
                                        check_finite=False)
        return x[:, 0] if squeeze else x


class DenseTiledCholesky(DenseTiledLU):
    """Dense tiled Cholesky (POTRF/TRSM/SYRK loop nest on ndarray tiles).

    The SPD counterpart of :class:`DenseTiledLU`; shares the tile grid, the
    submission loop and the substitution, and swaps the step sequence for the
    classic tiled right-looking Cholesky (lower tiles only) and the
    substitution's factors (``L`` with its own diagonal, then ``L^H``).
    """

    _steps = staticmethod(chol_steps)
    _unit_lower = False

    def _upper(self, k: int, j: int) -> np.ndarray:
        return self.tiles[j, k].conj().T  # L^H
