"""Tests for the runtime access-mode race detector (runtime/racecheck.py)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import (
    AccessMode,
    RaceCheckError,
    RaceChecker,
    StfEngine,
    TaskGraph,
    payload_fingerprint,
    simulate,
    validate_trace,
)
from repro.runtime.racecheck import iter_buffers
from repro.runtime.trace import ExecutionTrace, TraceEvent

R, W, RW = AccessMode.R, AccessMode.W, AccessMode.RW


class TestFingerprint:
    def test_detects_array_change(self):
        a = np.arange(10.0)
        fp0 = payload_fingerprint(a)
        a[3] = 99.0
        assert payload_fingerprint(a) != fp0

    def test_stable_when_unchanged(self):
        a = np.arange(10.0)
        assert payload_fingerprint(a) == payload_fingerprint(a)

    def test_sampling_mode_detects_bulk_change(self):
        a = np.zeros(1 << 18)
        fp0 = payload_fingerprint(a, sample_threshold=1 << 10)
        a[:] = 1.0
        assert payload_fingerprint(a, sample_threshold=1 << 10) != fp0

    def test_sampling_mode_sees_shape(self):
        a = np.zeros((512, 512))
        b = np.zeros((1024, 256))
        thr = 1 << 10
        assert payload_fingerprint(a, sample_threshold=thr) != payload_fingerprint(
            b, sample_threshold=thr
        )

    def test_walks_nested_payloads(self):
        from repro.hmatrix.rk import RkMatrix

        rk = RkMatrix(np.ones((4, 2)), np.ones((5, 2)))
        arrays = list(iter_buffers([rk, np.zeros(3)]))
        assert len(arrays) == 3
        fp0 = payload_fingerprint([rk, np.zeros(3)])
        rk.u[0, 0] = -1.0
        assert payload_fingerprint([rk, np.zeros(3)]) != fp0

    def test_walks_hmatrix_leaves(self):
        from repro.geometry import cylinder_cloud, laplace_kernel
        from repro.hmatrix import (
            AssemblyConfig,
            StrongAdmissibility,
            assemble_hmatrix,
            build_block_cluster_tree,
            build_cluster_tree,
        )

        pts = cylinder_cloud(120)
        ct = build_cluster_tree(pts, leaf_size=16)
        bt = build_block_cluster_tree(ct, ct, StrongAdmissibility())
        h = assemble_hmatrix(laplace_kernel(pts), pts, bt, AssemblyConfig(eps=1e-6))
        fp0 = payload_fingerprint(h)
        assert payload_fingerprint(h) == fp0
        for leaf in h.leaves():
            if leaf.full is not None:
                leaf.full[0, 0] += 1.0
                break
        assert payload_fingerprint(h) != fp0


class TestMisdeclaredAccess:
    def test_undeclared_write_caught(self):
        eng = StfEngine(racecheck=True)
        a = np.zeros(8)
        ha = eng.handle(a, "a")
        eng.insert_task("bad", lambda: a.__setitem__(slice(None), 7.0), [(ha, R)])
        with pytest.raises(RaceCheckError, match="undeclared-write"):
            eng.wait_all()

    def test_undeclared_write_recorded_when_not_strict(self):
        checker = RaceChecker(strict=False)
        eng = StfEngine(racecheck=checker)
        a = np.zeros(8)
        ha = eng.handle(a, "a")
        eng.insert_task("bad", lambda: a.__setitem__(0, 1.0), [(ha, R)])
        eng.wait_all()
        assert checker.n_errors == 1
        assert checker.violations[0].kind == "undeclared-write"
        assert checker.violations[0].handle == "a"

    def test_silent_write_warns(self):
        checker = RaceChecker(strict=False)
        eng = StfEngine(racecheck=checker)
        a = np.zeros(8)
        ha = eng.handle(a, "a")
        eng.insert_task("noop", lambda: None, [(ha, W)])
        eng.wait_all()
        assert checker.n_errors == 0
        assert checker.n_warnings == 1
        assert checker.violations[0].kind == "silent-write"

    def test_rw_unchanged_is_fine(self):
        # A zero-contribution GEMM legitimately leaves its RW tile unchanged.
        checker = RaceChecker(strict=False)
        eng = StfEngine(racecheck=checker)
        a = np.zeros(8)
        ha = eng.handle(a, "a")
        eng.insert_task("gemm", lambda: None, [(ha, RW)])
        eng.wait_all()
        assert checker.violations == []

    def test_correct_declarations_pass(self):
        eng = StfEngine(racecheck=True)
        a, b = np.zeros(8), np.ones(8)
        ha, hb = eng.handle(a, "a"), eng.handle(b, "b")
        eng.insert_task("axpy", lambda: a.__iadd__(b), [(hb, R), (ha, RW)])
        eng.insert_task("read", lambda: float(b.sum()), [(hb, R)])
        eng.wait_all()
        assert eng.racecheck.n_errors == 0
        assert eng.racecheck.n_checked_tasks == 2


class TestAliasing:
    def test_overlapping_views_flagged(self):
        eng = StfEngine(racecheck=True)
        buf = np.zeros(16)
        eng.handle(buf[0:10], "v1")
        with pytest.raises(RaceCheckError, match="aliased-handles"):
            eng.handle(buf[5:15], "v2")

    def test_disjoint_views_pass(self):
        eng = StfEngine(racecheck=True)
        buf = np.zeros(16)
        eng.handle(buf[0:8], "lo")
        eng.handle(buf[8:16], "hi")
        assert eng.racecheck.violations == []

    def test_same_payload_same_handle_passes(self):
        eng = StfEngine(racecheck=True)
        a = np.zeros(4)
        h1 = eng.handle(a)
        h2 = eng.handle(a)
        assert h1 is h2
        assert eng.racecheck.violations == []


class TestStaleAccumulatorRead:
    def _rk_leaf_hmatrix(self):
        from repro.hmatrix import build_cluster_tree
        from repro.hmatrix.hmatrix import HMatrix
        from repro.hmatrix.rk import RkMatrix

        pts = np.random.default_rng(0).standard_normal((8, 3))
        ct = build_cluster_tree(pts, leaf_size=8)
        return HMatrix(ct, ct, rk=RkMatrix.zeros(8, 8))

    def test_pending_read_caught(self):
        from repro.hmatrix import UpdateAccumulator
        from repro.hmatrix.rk import RkMatrix

        h = self._rk_leaf_hmatrix()
        UpdateAccumulator(1e-8).defer_rk(h, RkMatrix(np.ones((8, 1)), np.ones((8, 1))))
        assert h.pending is not None
        checker = RaceChecker(strict=False)
        eng = StfEngine(racecheck=checker)
        hh = eng.handle(h, "leaf")
        eng.insert_task("read", lambda: None, [(hh, R)])
        eng.wait_all()
        assert any(v.kind == "stale-read" for v in checker.violations)

    def test_flushed_read_passes(self):
        from repro.hmatrix import UpdateAccumulator
        from repro.hmatrix.rk import RkMatrix

        h = self._rk_leaf_hmatrix()
        acc = UpdateAccumulator(1e-8)
        acc.defer_rk(h, RkMatrix(np.ones((8, 1)), np.ones((8, 1))))
        acc.flush(h)
        assert h.pending is None
        checker = RaceChecker(strict=False)
        eng = StfEngine(racecheck=checker)
        hh = eng.handle(h, "leaf")
        eng.insert_task("read", lambda: None, [(hh, R)])
        eng.wait_all()
        assert checker.violations == []

    def test_has_pending_subtree(self):
        from repro.hmatrix import UpdateAccumulator
        from repro.hmatrix.rk import RkMatrix

        h = self._rk_leaf_hmatrix()
        acc = UpdateAccumulator(1e-8)
        assert not acc.has_pending(h)
        acc.defer_rk(h, RkMatrix(np.ones((8, 1)), np.ones((8, 1))))
        assert acc.has_pending(h)


@pytest.mark.parametrize("precision", ["d", "z"])
@pytest.mark.parametrize("accumulate", [True, False])
class TestTiledLuClean:
    """The full tiled LU must run clean under the detector (d and z)."""

    def test_lu_racecheck_clean(self, precision, accumulate):
        from repro.core import TileHConfig, TileHMatrix
        from repro.geometry import cylinder_cloud, make_kernel, streamed_matvec

        n, nb = 240, 60
        pts = cylinder_cloud(n)
        kern = make_kernel("laplace" if precision == "d" else "helmholtz", pts)
        cfg = TileHConfig(nb=nb, eps=1e-5, leaf_size=24, accumulate=accumulate,
                          racecheck=True)
        a = TileHMatrix.build(kern, pts, cfg)
        info = a.factorize()
        assert info.racecheck is not None
        assert info.racecheck.n_errors == 0
        assert info.racecheck.n_checked_tasks == len(info.graph)
        # Solve runs through the task layer under racecheck and stays sound.
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal(n)
        if precision == "z":
            x0 = x0 + 1j * rng.standard_normal(n)
        b = streamed_matvec(kern, pts, x0)
        x = a.solve(b)
        assert np.linalg.norm(x - x0) <= 1e-3 * np.linalg.norm(x0)


class TestTiledPotrfClean:
    def test_potrf_racecheck_clean(self):
        from repro.core import tiled_potrf_tasks
        from repro.core.build import build_tile_h
        from repro.geometry import exponential_kernel, plate_cloud

        pts = plate_cloud(300)
        kern = exponential_kernel(pts, length=0.6)
        desc = build_tile_h(kern, pts, 75, eps=1e-8, leaf_size=40)
        eng = StfEngine(racecheck=True)
        graph = tiled_potrf_tasks(desc, eng)
        assert eng.racecheck.n_errors == 0
        assert eng.racecheck.n_checked_tasks == len(graph)

    def test_potrf_racecheck_strict_engine(self):
        from repro.core import tiled_potrf_tasks
        from repro.core.build import build_tile_h
        from repro.geometry import exponential_kernel, plate_cloud

        pts = plate_cloud(200)
        kern = exponential_kernel(pts, length=0.6)
        desc = build_tile_h(kern, pts, 50, eps=1e-8, leaf_size=32)
        tiled_potrf_tasks(desc, StfEngine(racecheck=True))  # strict: raises on violation


class TestTiledSolveClean:
    def test_solve_tasks_racecheck_clean(self):
        from repro.core import tiled_getrf_tasks, tiled_solve_tasks
        from repro.core.build import build_tile_h
        from repro.geometry import cylinder_cloud, laplace_kernel

        pts = cylinder_cloud(240)
        kern = laplace_kernel(pts)
        desc = build_tile_h(kern, pts, 60, eps=1e-7, leaf_size=24)
        tiled_getrf_tasks(desc)
        eng = StfEngine(racecheck=True)
        x, graph = tiled_solve_tasks(desc, np.ones(240), eng)
        assert eng.racecheck.n_errors == 0
        assert eng.racecheck.n_checked_tasks == len(graph)


class TestHmatBaselineRacecheck:
    def test_hmat_solver_clean(self):
        from repro.baselines import HMatSolver
        from repro.geometry import cylinder_cloud, laplace_kernel

        pts = cylinder_cloud(200)
        solver = HMatSolver(laplace_kernel(pts), pts, eps=1e-5, leaf_size=32,
                            racecheck=True)
        info = solver.factorize()
        assert info.racecheck is not None
        assert info.racecheck.n_errors == 0


def _chain_graph(costs):
    g = TaskGraph()
    prev = None
    for c in costs:
        t = g.new_task("k", seconds=float(c))
        if prev is not None:
            g.add_dependency(prev, t)
        prev = t
    return g


def _random_dag(seed, n):
    rng = np.random.default_rng(seed)
    g = TaskGraph()
    ts = [g.new_task("k", seconds=float(rng.uniform(0.01, 1.0))) for _ in range(n)]
    for i in range(1, n):
        k = int(rng.integers(0, min(4, i) + 1))
        for d in rng.choice(i, size=k, replace=False):
            g.add_dependency(ts[int(d)], ts[i])
    return g


class TestValidateTrace:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=1, max_value=40),
        nworkers=st.integers(min_value=1, max_value=8),
        scheduler=st.sampled_from(["prio", "ws", "lws", "eager"]),
    )
    def test_property_simulated_schedule_accepted(self, seed, n, nworkers, scheduler):
        g = _random_dag(seed, n)
        r = simulate(g, nworkers, scheduler)
        assert validate_trace(g, r.trace) == []

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=30),
        nworkers=st.integers(min_value=1, max_value=4),
    )
    def test_property_reversed_chain_rejected(self, n, nworkers):
        g = _chain_graph([1.0] * n)
        r = simulate(g, nworkers, "prio")
        span = r.trace.makespan
        shuffled = ExecutionTrace(nworkers=r.trace.nworkers)
        for e in r.trace.events:
            shuffled.add(TraceEvent(e.task_id, e.kind, e.worker,
                                    span - e.end, span - e.start))
        with pytest.raises(RaceCheckError, match="linear extension"):
            validate_trace(g, shuffled)
        bad = validate_trace(g, shuffled, strict=False)
        assert bad and all(v.kind == "trace-order" for v in bad)

    def test_missing_task_rejected(self):
        g = _chain_graph([1.0, 1.0])
        tr = ExecutionTrace(nworkers=1)
        tr.add(TraceEvent(0, "k", 0, 0.0, 1.0))
        with pytest.raises(RaceCheckError, match="expected once"):
            validate_trace(g, tr)

    def test_duplicate_event_rejected(self):
        g = _chain_graph([1.0])
        tr = ExecutionTrace(nworkers=1)
        tr.add(TraceEvent(0, "k", 0, 0.0, 1.0))
        tr.add(TraceEvent(0, "k", 0, 1.0, 2.0))
        assert validate_trace(g, tr, strict=False)

    def test_unknown_task_rejected(self):
        g = _chain_graph([1.0])
        tr = ExecutionTrace(nworkers=1)
        tr.add(TraceEvent(0, "k", 0, 0.0, 1.0))
        tr.add(TraceEvent(7, "k", 0, 1.0, 2.0))
        assert any(
            "not in the graph" in v.message
            for v in validate_trace(g, tr, strict=False)
        )

    def test_threaded_trace_accepted(self):
        from repro.runtime import ThreadedExecutor

        eng = StfEngine(mode="deferred")
        out = []
        h = eng.handle(out)
        for i in range(6):
            eng.insert_task("k", (lambda i=i: out.append(i)), [(h, RW)])
        g = eng.wait_all()
        ex = ThreadedExecutor(3)
        ex.run(g)
        assert validate_trace(g, ex.trace) == []


class TestZeroCostWhenDisabled:
    def test_engine_default_has_no_checker(self):
        eng = StfEngine()
        assert eng.racecheck is None

    def test_factorization_info_no_checker(self):
        from repro.core import TileHConfig, TileHMatrix
        from repro.geometry import cylinder_cloud, laplace_kernel

        pts = cylinder_cloud(200)
        a = TileHMatrix.build(laplace_kernel(pts), pts,
                              TileHConfig(nb=50, eps=1e-5, leaf_size=24))
        assert a.factorize().racecheck is None
