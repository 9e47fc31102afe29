"""Dense tile kernels (the LAPACK/BLAS layer under the H-arithmetic).

These are the full-rank leaf kernels that HMAT-OSS delegates to MKL in the
paper: an unpivoted blocked LU (``getrf_nopiv``), the four TRSM variants used
by the tiled algorithms, thin GEMM helpers, and the economic QR / thin SVD
that Rk rounding is made of, and the column-pivoted QR that dense-block
truncation starts from.  The flop-heavy inner work goes to BLAS via ``@``
and to LAPACK routines called directly (``trtrs``, ``geqrf``, ``geqp3``,
``orgqr``/``ungqr``, ``gesdd``) with workspace sizes queried once per
shape: on the small panels H-arithmetic produces, the ``scipy.linalg``
wrappers cost more than the routines themselves.
:func:`sequential_blas` is the package's one BLAS thread control: the cold
path runs its kernels single-threaded inside it (parallelism belongs to the
task runtime).
"""

from .blas import sequential_blas

from .kernels import (
    SingularTileError,
    getrf_nopiv,
    split_lu,
    tri_solve,
    qr_economic,
    qr_pivoted,
    householder_q,
    svd_economic,
    trsm,
    gemm_update,
)
from .flops import (
    flops_getrf,
    flops_potrf,
    flops_trsm,
    flops_gemm,
)

__all__ = [
    "sequential_blas",
    "SingularTileError",
    "getrf_nopiv",
    "split_lu",
    "tri_solve",
    "qr_economic",
    "qr_pivoted",
    "householder_q",
    "svd_economic",
    "trsm",
    "gemm_update",
    "flops_getrf",
    "flops_potrf",
    "flops_trsm",
    "flops_gemm",
]
