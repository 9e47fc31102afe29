"""Nested task expansion: bit-identity, determinism, racecheck.

The tentpole contract: expanding an H-structured tile kernel into a subtask
DAG must change *scheduling freedom only*.  With ``accumulate=False`` the
expansion recursion is a prefix of the eager recursion tree (subtasks are
submitted in exactly the order the opaque kernel would have visited their
blocks, and per-datum RW chains serialize them), so eager, threaded and
process nested runs must reproduce the opaque results bit for bit — while
the expanded graph's flop-costed critical path drops, which is the whole
point.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import HMatSolver
from repro.core import TileHConfig, TileHMatrix
from repro.core.algorithms import tiled_getrf_tasks
from repro.geometry import cylinder_cloud, make_kernel, streamed_matvec
from repro.obs import Instrumentation, build_run_report, validate_report
from repro.runtime import (
    SCHEDULER_NAMES,
    AccessMode,
    NestedPolicy,
    RaceCheckError,
    RuntimeOverheadModel,
    StfEngine,
    simulate,
    validate_trace,
)
from repro.runtime.racecheck import iter_buffers

N, NB, LEAF = 256, 64, 32
EPS = 1e-4
ZERO = RuntimeOverheadModel.zero()

CASES = [
    ("laplace", "lu"),            # real double
    ("helmholtz", "lu"),          # complex double
    ("exponential", "cholesky"),  # SPD kernel
]


@lru_cache(maxsize=None)
def _problem(kernel_name):
    pts = cylinder_cloud(N)
    kern = make_kernel(kernel_name, pts)
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal(N)
    if kernel_name == "helmholtz":
        x0 = x0 + 1j * rng.standard_normal(N)
    b = streamed_matvec(kern, pts, x0)
    return pts, kern, b


def _cfg(**kw):
    return TileHConfig(nb=NB, eps=EPS, leaf_size=LEAF, accumulate=False, **kw)


def _nested_cfg(**kw):
    return _cfg(nested=True, nested_min_leaf=LEAF, **kw)


@lru_cache(maxsize=None)
def _reference(kernel_name, method):
    """Opaque eager factorization + solution (the bit-identity baseline)."""
    pts, kern, b = _problem(kernel_name)
    a = TileHMatrix.build(kern, pts, _cfg())
    a.factorize(method=method)
    return a.solve(b)


@lru_cache(maxsize=None)
def _deferred_nested_graph(min_leaf=LEAF):
    """Expanded LU graph (never executed) + its expansion stats."""
    pts, kern, _b = _problem("laplace")
    a = TileHMatrix.build(kern, pts, _cfg())
    eng = StfEngine(mode="deferred", nested=NestedPolicy(min_leaf=min_leaf))
    graph = tiled_getrf_tasks(a.desc, eng, accumulate=False)
    return graph, eng.nested_stats


# -- bit-identity across executors -------------------------------------------


@pytest.mark.parametrize("kernel_name,method", CASES)
def test_eager_nested_bit_identical(kernel_name, method):
    pts, kern, b = _problem(kernel_name)
    a = TileHMatrix.build(kern, pts, _nested_cfg())
    info = a.factorize(method=method)
    assert info.nested is not None
    assert info.nested["expanded_tasks"] > 0
    assert info.nested["subtasks"] == len(info.graph)
    assert np.array_equal(a.solve(b), _reference(kernel_name, method))


@pytest.mark.parametrize("nworkers", [1, 2])
def test_threaded_nested_bit_identical(nworkers):
    pts, kern, b = _problem("laplace")
    cfg = _nested_cfg(exec_mode="threaded", nworkers=nworkers, scheduler="lws")
    a, info = TileHMatrix.build_factorize(kern, pts, cfg)
    assert np.array_equal(a.solve(b), _reference("laplace", "lu"))
    assert validate_trace(info.graph, info.trace) == []
    assert info.nested["expanded_tasks"] > 0
    assert not info.nested["coarse"]


@pytest.mark.parametrize("nworkers", [1, 2])
def test_process_nested_bit_identical(nworkers):
    """Process-mode nesting ships coarse tile-level accesses (per-handle
    blob shipping cannot express parent/child overlap) — subtasks serialize
    per tile but results stay bit-identical."""
    pts, kern, b = _problem("laplace")
    cfg = _nested_cfg(exec_mode="process", nworkers=nworkers, scheduler="lws")
    a, info = TileHMatrix.build_factorize(kern, pts, cfg)
    assert np.array_equal(a.solve(b), _reference("laplace", "lu"))
    assert validate_trace(info.graph, info.trace) == []
    assert info.nested["coarse"]


def test_process_nested_cholesky_bit_identical():
    pts, kern, b = _problem("exponential")
    cfg = _nested_cfg(exec_mode="process", nworkers=2, scheduler="lws")
    a, info = TileHMatrix.build_factorize(kern, pts, cfg, method="cholesky")
    assert np.array_equal(a.solve(b), _reference("exponential", "cholesky"))


def test_single_worker_threaded_nested_matches_simulator_order():
    """1-worker nested runs reproduce the virtual-time simulator's pull
    order over the *expanded* graph (costs don't matter at p=1: the order
    is fixed by the scheduler's push/pop sequence alone)."""
    pts, kern, _b = _problem("laplace")
    cfg = _nested_cfg(exec_mode="threaded", nworkers=1, scheduler="lws")
    _a, info = TileHMatrix.build_factorize(kern, pts, cfg)
    run_order = [
        e.task_id for e in sorted(info.trace.events, key=lambda e: e.start)
    ]
    r = simulate(info.graph, 1, "lws", overheads=ZERO)
    sim_order = [e.task_id for e in r.trace.events]
    assert run_order == sim_order


# -- the perf claim, deterministically ----------------------------------------


def test_nested_reduces_critical_path_and_simulated_makespan():
    """The tentpole's deterministic proxy: against the *contracted* graph
    (same flop model, expansions collapsed back to opaque tasks), expansion
    must shorten both the critical path and the p=8 simulated makespan."""
    graph, stats = _deferred_nested_graph()
    contracted = stats.contract(graph)
    cp_before = contracted.critical_path("flops")
    cp_after = graph.critical_path("flops")
    assert cp_after < cp_before
    m_before = simulate(
        contracted, 8, "lws", overheads=ZERO, cost_attr="flops", keep_trace=False
    ).makespan
    m_after = simulate(
        graph, 8, "lws", overheads=ZERO, cost_attr="flops", keep_trace=False
    ).makespan
    assert m_after < m_before
    # The crossover (benchmarks/bench_abl_nested.py): on the same problem the
    # fine-grain HMAT DAG beats opaque Tile-H at p=8, and expansion closes
    # the gap.
    pts, kern, _b = _problem("laplace")
    hmat = HMatSolver(kern, pts, eps=EPS, leaf_size=LEAF, accumulate=False).factorize().graph
    m_hmat = simulate(
        hmat, 8, "lws", overheads=ZERO, cost_attr="flops", keep_trace=False
    ).makespan
    assert m_before > m_hmat
    # Contraction preserves total work: expansion relabels flops, never
    # invents or drops any.
    assert contracted.total_work("flops") == pytest.approx(
        graph.total_work("flops")
    )


def test_below_cutoff_expansion_is_opaque():
    """min_leaf at the tile size ⇒ nothing is expandable: every kernel
    falls back to one opaque subtask (graph isomorphic to non-nested)."""
    graph, stats = _deferred_nested_graph(min_leaf=NB)
    assert stats.subtasks == len(graph)
    assert stats.expanded_tasks == len(graph)  # every record is 1 subtask
    assert all(rec.n_subtasks == 1 for rec in stats.records)


# -- racecheck ----------------------------------------------------------------


def test_racecheck_clean_on_nested_factorize():
    pts, kern, _b = _problem("laplace")
    a = TileHMatrix.build(kern, pts, _nested_cfg(racecheck=True))
    info = a.factorize()
    assert info.racecheck is not None
    assert info.racecheck.n_errors == 0
    assert info.racecheck.n_warnings == 0
    assert info.racecheck.n_checked_tasks == len(info.graph)


def test_racecheck_catches_subblock_mode_misdeclaration():
    """A subtask that writes a sub-block while declaring R on it must be
    flagged — the fingerprints cover the hierarchical handles too."""
    pts, kern, _b = _problem("laplace")
    a = TileHMatrix.build(kern, pts, _cfg())
    tile = a.desc.super.get_blktile(0, 0)
    eng = StfEngine(
        mode="eager", racecheck=True, nested=NestedPolicy(min_leaf=1)
    )
    h = eng.handle(tile, "t00")

    def bad_expander(e):
        node = tile.mat.child(0, 0)
        sub = e.subhandle(h, node, "t00/0,0")

        def kernel():
            buf = next(iter_buffers(node))
            buf += 1.0  # mutation under a declared pure-R access

        e.insert_task("gemm", kernel, [(sub, AccessMode.R)], label="seeded")

    eng.insert_task("getrf", lambda: None, [(h, AccessMode.RW)], expander=bad_expander)
    with pytest.raises(RaceCheckError, match="undeclared-write"):
        eng.wait_all()


def test_racecheck_exempts_related_handles_but_not_unrelated_aliases():
    eng = StfEngine(mode="eager", racecheck=True)
    a = np.zeros(8)
    parent = eng.handle(a, "parent")
    # Hierarchical sub-handle over the same buffer: exempt by construction.
    child = eng.subhandle(parent, a[:4], "parent/0")
    assert child.parent is parent
    # An unrelated second handle over overlapping memory is still an error.
    with pytest.raises(RaceCheckError, match="aliased-handles"):
        eng.handle(a[2:6], "alias")


# -- hypothesis: schedules over expanded graphs -------------------------------


@settings(max_examples=12, deadline=None)
@given(
    policy=st.sampled_from(SCHEDULER_NAMES),
    nworkers=st.integers(min_value=1, max_value=8),
    min_leaf=st.sampled_from([LEAF, 2 * LEAF]),
)
def test_simulated_schedules_of_expanded_graphs_are_linear_extensions(
    policy, nworkers, min_leaf
):
    graph, _stats = _deferred_nested_graph(min_leaf=min_leaf)
    r = simulate(graph, nworkers, policy, overheads=ZERO, cost_attr="flops")
    assert validate_trace(graph, r.trace) == []


# -- observability ------------------------------------------------------------


def test_run_report_nested_section_validates():
    pts, kern, _b = _problem("laplace")
    with Instrumentation() as probe:
        a = TileHMatrix.build(kern, pts, _nested_cfg())
        info = a.factorize()
    report = build_run_report(
        probe=probe, graph=info.graph, nested=info.nested,
        meta={"case": "test_nested"},
    )
    assert validate_report(report) == []
    nested = report["nested"]
    assert nested["expanded_tasks"] > 0
    assert nested["subtasks"] == len(info.graph)
    assert nested["critical_path_after"] < nested["critical_path_before"]


# -- config validation --------------------------------------------------------


class TestConfigValidation:
    def test_nested_config_accepted(self):
        cfg = TileHConfig(nb=64, nested=True, nested_min_leaf=16)
        assert cfg.nested and cfg.nested_min_leaf == 16

    def test_bad_min_leaf_rejected(self):
        with pytest.raises(ValueError):
            TileHConfig(nb=64, nested=True, nested_min_leaf=0)

    def test_bad_policy_min_leaf_rejected(self):
        with pytest.raises(ValueError):
            NestedPolicy(min_leaf=0)
