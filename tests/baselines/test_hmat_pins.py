"""The HMAT baseline's solves, fine-grain graph and simulated makespans, pinned.

The solves' SHA-256 and the flop-model makespans (their flops count the ranks
the BLAS kernels produce) are checked only on the platform named by
``test_cholesky_lower.RECORDED_ON``; the graph's fingerprint, its tasks' kinds
and dependency lists, holds everywhere.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.baselines import HMatSolver
from repro.geometry import cylinder_cloud, helmholtz_kernel, laplace_kernel
from repro.hmatrix import WeakAdmissibility

from ..core.test_cholesky_lower import _on_recording_platform, sha256

SOLVES = {
    "laplace": "de631e069d59f33a1ab93b4d6b361d379533aaa6a2fe8acd629b977de4e2a937",
    "laplace-eager-update": "9add48b69de64296ece2af8f9235c4c25a390ff809c921e4df1d21d455c4f13f",
    "helmholtz": "f960ec7ddff52e759d70840704a69f6c07bf4e20d6f40b027c5ad59cd82620f4",
    "hodlr": "1876b10555fe9d8f33d73066838c82e9c48698ed2f69293df706029bedf5d73a",
}

CASES = {
    "laplace": dict(n=500, leaf_size=32, eps=1e-5),
    "laplace-eager-update": dict(n=500, leaf_size=32, eps=1e-5, accumulate=False),
    "helmholtz": dict(n=300, leaf_size=24, eps=1e-6, kernel=helmholtz_kernel),
    "hodlr": dict(n=500, leaf_size=32, eps=1e-6, admissibility=WeakAdmissibility()),
}


def _solve(n, kernel=laplace_kernel, **kw):
    pts = cylinder_cloud(n)
    rng = np.random.default_rng(n)
    b = rng.standard_normal(n)
    if kernel is helmholtz_kernel:
        b = b + 1j * rng.standard_normal(n)
    return HMatSolver(kernel(pts), pts, **kw).gesv(b)


@pytest.mark.parametrize("case", CASES)
def test_solve_keeps_its_bits(case):
    _on_recording_platform()
    assert sha256(_solve(**CASES[case])) == SOLVES[case]


def graph_fingerprint(graph) -> str:
    """SHA-256 of ``[(kind, sorted(deps))]`` in task order."""
    rows = [(t.kind, sorted(t.deps)) for t in graph.tasks]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


#: Laplace at eps=1e-4, (n, leaf) -> (tasks, edges, fingerprint).
GRAPHS = {
    (1024, 32): (1454, 4973, "cc134829ca154bf21fe4a63d7d8b36aefe306704b8ee7603eae3175a352ffd82"),
    (2304, 48): (9409, 31152, "da98eaeba1c4a57071bd6b9e9eacb881170addf6b8c6e115327e7989dbee0c39"),
}


@pytest.mark.parametrize("n, leaf", GRAPHS)
def test_fine_grain_graph_keeps_its_shape(n, leaf):
    pts = cylinder_cloud(n)
    info = HMatSolver(laplace_kernel(pts), pts, eps=1e-4, leaf_size=leaf).factorize()
    assert (info.n_tasks, info.n_dependencies, graph_fingerprint(info.graph)) == GRAPHS[n, leaf]
    assert set(info.graph.kind_counts()) == {"getrf", "trsm", "gemm"}


#: Laplace at eps=1e-4, n=1024, leaf 32: workers -> flop-model makespan under "lws".
MAKESPANS = {1: 128810496.0053955, 8: 17316736.000682004, 36: 10692928.000257004}


def test_simulated_makespans_keep_their_values():
    _on_recording_platform()
    pts = cylinder_cloud(1024)
    info = HMatSolver(laplace_kernel(pts), pts, eps=1e-4, leaf_size=32).factorize()
    got = {p: info.simulate(p, "lws", cost_attr="flops").makespan for p in MAKESPANS}
    assert got == MAKESPANS
