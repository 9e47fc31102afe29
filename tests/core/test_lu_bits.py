"""The bits of ``lu_d_seq``'s factor and solve, eager and threaded nested.

With ``accumulate=False`` every rounding of this LU stacks a rank below both
sides of its block, so the Rk rounding QR-factors both factors: these
fingerprints pin that narrow path.  Recorded on the platform named by
``test_cholesky_lower.RECORDED_ON`` and skipped elsewhere.
"""

import hashlib

import numpy as np
import pytest

from repro.core import TileHConfig, TileHMatrix
from repro.geometry import cylinder_cloud, make_kernel

from .test_cholesky_lower import _arrays, _on_recording_platform, sha256

#: benchmarks/e2e's lu_d_seq problem: Laplace, n=2304, nb=192, leaf 48, eps=1e-4.
N = 2304
LU_D_SEQ = {
    "factor": "9e15eee7747ea5c5e832d4a5ce85e8075e4303affc7a737b1071ae2aeb22a32a",
    "solve": "cc4eb99ce786b122bb7283c5db5591b0ca43e610da27580ddee3f8210241a789",
}

EXECUTORS = {
    "eager": {},
    "threaded-nested": dict(exec_mode="threaded", nworkers=2, nested=True, nested_min_leaf=48),
}


def lu_factor_sha256(desc) -> str:
    """SHA-256 of every leaf of every tile of the packed LU, in tile and leaf order."""
    s = hashlib.sha256()
    for i in range(desc.nt):
        for j in range(desc.nt):
            for leaf in desc.super.get_blktile(i, j).mat.leaves():
                for arr in _arrays(leaf):
                    s.update(np.ascontiguousarray(arr).tobytes())
    return s.hexdigest()


@pytest.mark.parametrize("executor", EXECUTORS)
def test_lu_d_seq_factor_and_solve_keep_their_bits(executor):
    _on_recording_platform()
    pts = cylinder_cloud(N)
    cfg = TileHConfig(nb=192, eps=1e-4, leaf_size=48, accumulate=False, **EXECUTORS[executor])
    a, _ = TileHMatrix.build_factorize(make_kernel("laplace", pts), pts, cfg)
    b = np.random.default_rng(0).standard_normal(N)
    assert lu_factor_sha256(a.desc) == LU_D_SEQ["factor"]
    assert sha256(a.solve(b)) == LU_D_SEQ["solve"]
