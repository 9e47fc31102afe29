"""The closure ledger: every task graph keeps the order it had under the
ancestor/descendant handle walk that inferred edges before the leaf rule.

One rule derives every graph's edges (``StfEngine._infer_dependencies``): an
access covers the leaves under its payload, and each leaf keeps its own last
writer and readers.  The rule that came before conflicted a handle with its
whole handle family and added edges that the graph already implied.  Per cell
the ledger pins, as measured under that rule, the task count, the edge count
and the SHA-256 of the sorted transitive-reduction edge list; and, under the
leaf rule, the edge count and the SHA-256 of the sorted edge list.  The
reduction fixes the transitive closure, so an unchanged reduction hash means
every task waits on exactly the tasks it waited on before: same ready sets,
same one-worker pull order, same bits.  Where the edge count did not move
(opaque, coarse, the HMAT leaf DAG, the task solve) the edge-list hash is the
family walk's too: those graphs are unchanged edge for edge.  The HMAT cell
is its run's kernels without their ``pack`` steps, re-inferred: the leaf DAG
the baseline reported then.  All of it is structural, so nothing here
depends on the platform.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.baselines import HMatSolver
from repro.core import TileHConfig, TileHMatrix
from repro.core.algorithms import tiled_getrf_tasks, tiled_solve_tasks
from repro.geometry import cylinder_cloud, laplace_kernel
from repro.runtime import NestedPolicy, StfEngine

from ..baselines.test_hmat_pins import pack_free
from .test_nested_equivalence import NEW, _assembled, _kernel, _points

PROBLEMS = {"lu-d": ("laplace", "lu"), "lu-z": ("helmholtz", "lu"), "chol": ("sqexp", "cholesky")}
POLICIES = {
    "opaque": None,
    "32-fine": NestedPolicy(min_leaf=32),
    "32-coarse": NestedPolicy(min_leaf=32, coarse=True),
    "48-fine": NestedPolicy(min_leaf=48),
    "48-coarse": NestedPolicy(min_leaf=48, coarse=True),
}

#: cell -> (tasks, edges under the family walk, reduction SHA-256,
#:          edges under the leaf rule, edge-list SHA-256 under the leaf rule).
LEDGER = {
    "lu-d/opaque": (
        30, 54, "e90ffd8b52e655e2dd1c156de2fe1b6420cd0e3dba5cabbdcc5ffb814870f528",
        54, "e90ffd8b52e655e2dd1c156de2fe1b6420cd0e3dba5cabbdcc5ffb814870f528",
    ),
    "lu-d/32-fine": (
        353, 1886, "467f101b576bcd5b12313472e018f6289459ebc24966bbc6979d524a66b6834e",
        1040, "be8486ab71f407355ab0cc820d122a0b73d614629c47a48476e16c128dc422a5",
    ),
    "lu-d/32-coarse": (
        353, 635, "9272361f118e02156b46c70d620a71a084cfa6c6d9921394457f61364904aa9b",
        635, "b03ff09f9cf4c8ba656d0d704edb37598e23a0e105a3b0b25f8f16b3072cb067",
    ),
    "lu-d/48-fine": (
        101, 369, "d9480652efca594acc9f7ac6ddd517dfc8edb6a455eaa9078903089a7932f159",
        247, "2d86a5010d6d4667e7d780ccb8c264fd2ea4b9cd01a65ed5ac5e46badc8d0dcb",
    ),
    "lu-d/48-coarse": (
        101, 197, "c99a76c16be5185fa32f51f3d9f83c8843b42b0958c1247481d2d608106c53ca",
        197, "0f56ff15e245943cbb245e3ab5362f60cae1def08b65ecac046a93628085d0f0",
    ),
    "lu-z/opaque": (
        30, 54, "e90ffd8b52e655e2dd1c156de2fe1b6420cd0e3dba5cabbdcc5ffb814870f528",
        54, "e90ffd8b52e655e2dd1c156de2fe1b6420cd0e3dba5cabbdcc5ffb814870f528",
    ),
    "lu-z/32-fine": (
        353, 1886, "467f101b576bcd5b12313472e018f6289459ebc24966bbc6979d524a66b6834e",
        1040, "be8486ab71f407355ab0cc820d122a0b73d614629c47a48476e16c128dc422a5",
    ),
    "lu-z/32-coarse": (
        353, 635, "9272361f118e02156b46c70d620a71a084cfa6c6d9921394457f61364904aa9b",
        635, "b03ff09f9cf4c8ba656d0d704edb37598e23a0e105a3b0b25f8f16b3072cb067",
    ),
    "lu-z/48-fine": (
        101, 369, "d9480652efca594acc9f7ac6ddd517dfc8edb6a455eaa9078903089a7932f159",
        247, "2d86a5010d6d4667e7d780ccb8c264fd2ea4b9cd01a65ed5ac5e46badc8d0dcb",
    ),
    "lu-z/48-coarse": (
        101, 197, "c99a76c16be5185fa32f51f3d9f83c8843b42b0958c1247481d2d608106c53ca",
        197, "0f56ff15e245943cbb245e3ab5362f60cae1def08b65ecac046a93628085d0f0",
    ),
    "chol/opaque": (
        20, 30, "065537ce23f023d42a79770fa5082c1a3a2951f98fbe13fc256bb4bb10de93b4",
        30, "065537ce23f023d42a79770fa5082c1a3a2951f98fbe13fc256bb4bb10de93b4",
    ),
    "chol/32-fine": (
        219, 997, "8be27db0744aa1c6db0e8ad06be605151fe20b508f9b34257288e18af7e2a5e5",
        583, "2011b27bca54cc9edc37e9113f5fd4b95070e30c5e736590d754960675087927",
    ),
    "chol/32-coarse": (
        219, 340, "a1111d0b08f005663699a5b2978ec75c685dddaac9e2ee0b3131f6af2dd53aad",
        340, "bb6d9301972f185c6b9b5a7f61da2b83ea8daa90b4cad3bacf98211339700cb1",
    ),
    "chol/48-fine": (
        66, 200, "9cdefe347520b20bebf58a9b71a94b4d1f063c7d71b85a1c7826ad6c5dfa6484",
        142, "a5a7a65309f1ba72f8ff257b697cc3b3e0ab5c058f5d157ee155af0d7860badd",
    ),
    "chol/48-coarse": (
        66, 106, "9fadf1a5d7451f85bbc6e08bb606cf670667811a21041b8fa671513d77f0a503",
        106, "d33fa8b921f3abfe7c2d0d9f0ebadfc4ac61ce36cb71a04d8611a755874109f6",
    ),
    "lu-d/48-fine/accumulate": (
        101, 369, "d9480652efca594acc9f7ac6ddd517dfc8edb6a455eaa9078903089a7932f159",
        247, "2d86a5010d6d4667e7d780ccb8c264fd2ea4b9cd01a65ed5ac5e46badc8d0dcb",
    ),
    "hmat": (
        248, 810, "d2b53b0bf36f76cf048cf80b557382c0c36afb3b54ae4a3235a85357dd711e4a",
        810, "29d717690db999ec95f77af5693c8a748c5a526ead89aa44ec046229603210ed",
    ),
    "solve": (
        20, 34, "d71a7e1a7b1f41176035740a44b04d2b77fa845d6d2ee54a1cd860e00bec3d21",
        34, "64a9f20f4e611b93c3359168a7a269f019f78dad6427d671d64f45023da86ae0",
    ),
    "lu_d_tasks2": (
        5109, 30111, "15b399ee2434db7ad460d98b205eaff8a646cdf013eb423d9432ea5d8455e8a9",
        17028, "775b4062c80ecb167cb92518a5008d06d24af02c827d4e5caf314fbbceb83742",
    ),
}


def _factor_graph(problem, policy, accumulate=False):
    kernel, method = PROBLEMS[problem]
    engine = StfEngine(mode="deferred", nested=POLICIES[policy])
    return NEW[method](_assembled(kernel).desc, engine, accumulate=accumulate)


def _hmat_graph():
    """The HMAT run's kernels without its ``pack`` steps, re-inferred: the
    leaf DAG the baseline reported under the family walk."""
    pts = cylinder_cloud(512)
    return pack_free(HMatSolver(laplace_kernel(pts), pts, eps=1e-4, leaf_size=32).factorize().graph)


def _solve_graph():
    a = TileHMatrix.build(_kernel("laplace"), _points(), TileHConfig(nb=96, eps=1e-4, leaf_size=24))
    a.factorize()
    b = np.random.default_rng(0).standard_normal(a.desc.n)
    return tiled_solve_tasks(a.desc, b)[1]


def _lu_d_tasks2_graph():
    """The benchmark's nested LU: n=2304, nb=192, leaf 48, ``min_leaf`` 48."""
    pts = cylinder_cloud(2304)
    a = TileHMatrix.build(laplace_kernel(pts), pts, TileHConfig(nb=192, eps=1e-4, leaf_size=48))
    engine = StfEngine(mode="deferred", nested=NestedPolicy(min_leaf=48))
    return tiled_getrf_tasks(a.desc, engine, accumulate=False)


CELLS = {
    **{
        f"{problem}/{policy}": (lambda p=problem, q=policy: _factor_graph(p, q))
        for problem in PROBLEMS
        for policy in POLICIES
    },
    "lu-d/48-fine/accumulate": lambda: _factor_graph("lu-d", "48-fine", accumulate=True),
    "hmat": _hmat_graph,
    "solve": _solve_graph,
    "lu_d_tasks2": _lu_d_tasks2_graph,
}


def _sha(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def edges(graph) -> list:
    return sorted((d, t.id) for t in graph.tasks for d in t.deps)


def reduction(graph) -> list:
    """The sorted edges of the transitive reduction of ``graph``, whose
    dependencies point to earlier ids only (submission order is topological).

    A task's predecessors are visited latest first: one already reached from
    a later one is implied, the others are the reduction's edges.
    """
    reach, out = [], []
    for t in graph.tasks:
        covered = 0
        for d in sorted(t.deps, reverse=True):
            assert d < t.id
            if not covered >> d & 1:
                out.append((d, t.id))
                covered |= reach[d]
        reach.append(covered | 1 << t.id)
    return sorted(out)


def fingerprint(graph) -> tuple:
    """``(tasks, edges, reduction SHA-256, edge-list SHA-256)`` of ``graph``."""
    return len(graph), graph.n_edges(), _sha(reduction(graph)), _sha(edges(graph))


@pytest.mark.parametrize("cell", CELLS)
def test_the_graph_keeps_its_closure(cell):
    tasks, parent_edges, reduction_sha, n_edges, edges_sha = LEDGER[cell]
    assert n_edges <= parent_edges
    assert fingerprint(CELLS[cell]()) == (tasks, n_edges, reduction_sha, edges_sha)


def test_the_ledger_covers_every_cell():
    assert set(LEDGER) == set(CELLS)
