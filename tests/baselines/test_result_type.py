"""Every format's factorisation returns the one result type."""

import pytest

from repro.baselines import BLRMatrix, DenseTiledCholesky, DenseTiledLU, HMatSolver
from repro.core import FactorizationInfo, TileHConfig, TileHMatrix
from repro.geometry import assemble_dense, cylinder_cloud, exponential_kernel, laplace_kernel

N = 300
PTS = cylinder_cloud(N)

FORMATS = {
    "tile-h": lambda: TileHMatrix.build(laplace_kernel(PTS), PTS, TileHConfig(nb=100, leaf_size=32)),
    "blr": lambda: BLRMatrix.build(laplace_kernel(PTS), PTS, TileHConfig(nb=100)),
    "hmat": lambda: HMatSolver(laplace_kernel(PTS), PTS, leaf_size=32),
    "dense-lu": lambda: DenseTiledLU(assemble_dense(laplace_kernel(PTS), PTS), 100),
    "dense-cholesky": lambda: DenseTiledCholesky(
        assemble_dense(exponential_kernel(PTS, length=0.6), PTS), 100),
}


@pytest.mark.parametrize("fmt", FORMATS)
def test_every_format_returns_a_factorization_info(fmt):
    info = FORMATS[fmt]().factorize()
    assert isinstance(info, FactorizationInfo)
    assert info.n_tasks > 0
    assert info.n_dependencies >= 0
    assert info.sequential_seconds() > 0
    assert info.simulate(4, "lws", cost_attr="flops").makespan > 0
