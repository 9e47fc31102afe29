"""Analytic flop counts for the dense kernels.

Used by the runtime simulator's deterministic cost model
(``cost_model="flops"``) and by the analysis layer to report arithmetic
savings of the H-formats against the dense ``(2/3) n^3`` reference the paper
quotes in the introduction.  The ℌ flop model built on them, low-rank
operands included, is :func:`repro.hmatrix.arithmetic.kernel_flops`.

Counts follow the usual LAPACK working notes conventions (one flop per real
add/mul); complex arithmetic is accounted with the standard 4x multiplier
applied by :func:`complex_factor`.
"""

from __future__ import annotations

__all__ = [
    "complex_factor",
    "flops_getrf",
    "flops_potrf",
    "flops_trsm",
    "flops_gemm",
]


def complex_factor(is_complex: bool) -> float:
    """Multiplier converting real flop formulas to complex arithmetic (~4x)."""
    return 4.0 if is_complex else 1.0


def flops_getrf(n: int, *, is_complex: bool = False) -> float:
    """Unpivoted LU of an n x n block: (2/3) n^3 + O(n^2)."""
    n = float(n)
    return complex_factor(is_complex) * (2.0 / 3.0 * n**3 - 0.5 * n**2 + 5.0 / 6.0 * n)


def flops_potrf(n: int, *, is_complex: bool = False) -> float:
    """Cholesky of an n x n SPD block: (1/3) n^3 + O(n^2)."""
    n = float(n)
    return complex_factor(is_complex) * (n**3 / 3.0 + 0.5 * n**2 + n / 6.0)


def flops_trsm(m: int, n: int, *, is_complex: bool = False) -> float:
    """Triangular solve with an m x m triangle against an m x n RHS: m^2 n."""
    return complex_factor(is_complex) * float(m) * float(m) * float(n)


def flops_gemm(m: int, n: int, k: int, *, is_complex: bool = False) -> float:
    """C (m x n) += A (m x k) @ B (k x n): 2 m n k."""
    return complex_factor(is_complex) * 2.0 * float(m) * float(n) * float(k)
