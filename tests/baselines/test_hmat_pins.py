"""The HMAT baseline's solves, fine-grain graph and simulated makespans, pinned.

The solves' SHA-256 and the flop-model makespans (their flops count the ranks
the BLAS kernels produce) are checked only on the platform named by
``test_cholesky_lower.RECORDED_ON``; the graph's fingerprint, its tasks' kinds
and dependency lists, holds everywhere.

The graph is the one the one-tile run executed, ``pack`` steps included.  Its
kernels alone, re-inferred on a fresh engine (:func:`pack_free`), are the leaf
DAG the baseline reported before it returned its run's graph: ``GRAPHS`` holds
that graph's pins as recorded then, and every ordering of it is one of the
run graph's.
"""

import hashlib
import json
from functools import lru_cache

import numpy as np
import pytest

from repro.baselines import HMatSolver
from repro.geometry import cylinder_cloud, helmholtz_kernel, laplace_kernel
from repro.hmatrix import WeakAdmissibility
from repro.runtime import StfEngine

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


def pack_free(graph):
    """``graph``'s tasks other than ``pack``, with their own accesses,
    re-inferred in order on a fresh deferred engine."""
    engine = StfEngine(mode="deferred")
    for t in graph.tasks:
        if t.kind != "pack":
            engine.insert_task(t.kind, None, t.accesses)
    return engine.wait_all()


@lru_cache(maxsize=None)
def _factorize(n, leaf):
    pts = cylinder_cloud(n)
    return HMatSolver(laplace_kernel(pts), pts, eps=1e-4, leaf_size=leaf).factorize()


#: Laplace at eps=1e-4, (n, leaf) -> (tasks, edges, fingerprint) of the
#: pack-free graph.
GRAPHS = {
    (1024, 32): (1454, 4973, "cc134829ca154bf21fe4a63d7d8b36aefe306704b8ee7603eae3175a352ffd82"),
    (2304, 48): (9409, 31152, "da98eaeba1c4a57071bd6b9e9eacb881170addf6b8c6e115327e7989dbee0c39"),
}

#: The same problems, (n, leaf) -> (tasks, edges, fingerprint) of the run's
#: own graph, and the orderings it adds to the pack-free graph's.
RUN_GRAPHS = {
    (1024, 32): (
        1482, 4973, "3108525cb20d2246d5b72c046447ed0de61f1d8ee62a1623d736bbe1174e2b51", 87141,
    ),
    (2304, 48): (
        9457, 30584, "8833a553a784bbeeac157a351d9ad4ae36efd771f81e5d2c3c4aca5e69ca5c36", 1514208,
    ),
}


@pytest.mark.parametrize("n, leaf", GRAPHS)
def test_fine_grain_graph_keeps_its_shape(n, leaf):
    graph = pack_free(_factorize(n, leaf).graph)
    assert (len(graph), graph.n_edges(), graph_fingerprint(graph)) == GRAPHS[n, leaf]
    assert set(graph.kind_counts()) == {"getrf", "trsm", "gemm"}


@pytest.mark.parametrize("n, leaf", RUN_GRAPHS)
def test_run_graph_keeps_its_shape(n, leaf):
    info = _factorize(n, leaf)
    tasks, n_edges, fingerprint, _ = RUN_GRAPHS[n, leaf]
    assert (info.n_tasks, info.n_dependencies, graph_fingerprint(info.graph)) == (
        tasks, n_edges, fingerprint)
    assert set(info.graph.kind_counts()) == {"getrf", "trsm", "gemm", "pack"}


def ancestors(graph, ids) -> list[int]:
    """Per task, the bit set of the tasks it transitively waits on, task
    ``t`` named ``ids[t]`` (dependencies point to earlier tasks only:
    submission order is topological)."""
    reach = []
    for t in graph.tasks:
        bits = 0
        for d in t.deps:
            bits |= reach[d] | 1 << ids[d]
        reach.append(bits)
    return reach


@pytest.mark.parametrize("n, leaf", RUN_GRAPHS)
def test_run_graph_keeps_every_ordering_of_the_pack_free_graph(n, leaf):
    """Every pair the pack-free graph orders, the run graph orders too; the
    orderings it adds between kernels all pass through a ``pack`` step."""
    run = _factorize(n, leaf).graph
    kernels = [t.id for t in run.tasks if t.kind != "pack"]
    mask = sum(1 << t for t in kernels)
    run_reach = ancestors(run, range(len(run)))
    added = 0
    for t, bits in zip(kernels, ancestors(pack_free(run), kernels)):
        below = run_reach[t] & mask
        assert bits & ~below == 0
        added += (below & ~bits).bit_count()
    assert added == RUN_GRAPHS[n, leaf][3]


#: Laplace at eps=1e-4, n=1024, leaf 32: workers -> flop-model makespan of the
#: run graph under "lws" (flops on the factor's ranks).
MAKESPANS = {1: 129478144.0054514, 8: 18164336.00081852, 36: 11990784.000549005}


def test_simulated_makespans_keep_their_values():
    _on_recording_platform()
    info = _factorize(1024, 32)
    got = {p: info.simulate(p, "lws", cost_attr="flops").makespan for p in MAKESPANS}
    assert got == MAKESPANS
