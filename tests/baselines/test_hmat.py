"""Unit tests for the pure-HMAT fine-grain baseline."""

import time

import numpy as np
import pytest

from repro.baselines import HMatSolver
from repro.core import TileHConfig, TileHMatrix
from repro.geometry import assemble_dense, cylinder_cloud, helmholtz_kernel, laplace_kernel
from repro.hmatrix import UpdateAccumulator
from repro.runtime import RuntimeOverheadModel

N = 500


@pytest.fixture(scope="module")
def geom():
    pts = cylinder_cloud(N)
    kern = laplace_kernel(pts)
    return pts, kern, assemble_dense(kern, pts)


class TestHMatSolver:
    def test_compression(self, geom):
        pts, kern, _ = geom
        hm = HMatSolver(kern, pts, eps=1e-5, leaf_size=32)
        assert 0 < hm.compression_ratio() < 1.0
        assert hm.n == N

    def test_matvec(self, geom):
        pts, kern, dense = geom
        hm = HMatSolver(kern, pts, eps=1e-6, leaf_size=32)
        x = np.random.default_rng(0).standard_normal(N)
        assert np.linalg.norm(hm.matvec(x) - dense @ x) <= 1e-4 * np.linalg.norm(dense @ x)

    def test_solve_accuracy(self, geom):
        pts, kern, dense = geom
        hm = HMatSolver(kern, pts, eps=1e-6, leaf_size=32)
        x0 = np.random.default_rng(1).standard_normal(N)
        x = hm.gesv(dense @ x0)
        assert np.linalg.norm(x - x0) <= 1e-4 * np.linalg.norm(x0)

    def test_complex_solve(self):
        pts = cylinder_cloud(300)
        kern = helmholtz_kernel(pts)
        dense = assemble_dense(kern, pts)
        hm = HMatSolver(kern, pts, eps=1e-6, leaf_size=24)
        rng = np.random.default_rng(2)
        x0 = rng.standard_normal(300) + 1j * rng.standard_normal(300)
        x = hm.gesv(dense @ x0)
        assert np.linalg.norm(x - x0) <= 1e-4 * np.linalg.norm(x0)

    def test_lifecycle_guards(self, geom):
        pts, kern, _ = geom
        hm = HMatSolver(kern, pts, eps=1e-4, leaf_size=32)
        with pytest.raises(RuntimeError):
            hm.solve(np.zeros(N))
        hm.factorize()
        with pytest.raises(RuntimeError):
            hm.factorize()
        with pytest.raises(RuntimeError):
            hm.matvec(np.zeros(N))


class TestFineGrainDag:
    def test_finer_than_tile_h(self, geom):
        """The paper's structural claim: the pure-H DAG has far more tasks
        and dependencies than the Tile-H DAG of the same problem."""
        pts, kern, _ = geom
        hm = HMatSolver(kern, pts, eps=1e-5, leaf_size=32)
        hi = hm.factorize()
        th = TileHMatrix.build(kern, pts, TileHConfig(nb=125, eps=1e-5, leaf_size=32))
        ti = th.factorize()
        assert hi.n_tasks > 3 * ti.n_tasks
        assert hi.n_dependencies > 3 * ti.n_dependencies

    def test_dag_kind_mix(self, geom):
        pts, kern, _ = geom
        hm = HMatSolver(kern, pts, eps=1e-5, leaf_size=32)
        info = hm.factorize()
        counts = info.graph.kind_counts()
        assert set(counts) == {"getrf", "trsm", "gemm", "pack"}

    def test_dag_is_simulatable(self, geom):
        pts, kern, _ = geom
        hm = HMatSolver(kern, pts, eps=1e-5, leaf_size=32)
        info = hm.factorize()
        r1 = info.simulate(1, "lws", overheads=RuntimeOverheadModel.zero())
        r8 = info.simulate(8, "lws", overheads=RuntimeOverheadModel.zero())
        assert r1.makespan == pytest.approx(info.sequential_seconds(), rel=1e-9)
        assert r8.makespan < r1.makespan

    def test_dependency_overhead_hurts_fine_grain_more(self, geom):
        """Per-dependency runtime overhead degrades the fine-grain DAG more
        than the Tile-H DAG — the mechanism behind Fig. 6's real-double
        crossover."""
        pts, kern, _ = geom
        hm = HMatSolver(kern, pts, eps=1e-5, leaf_size=32)
        hi = hm.factorize()
        th = TileHMatrix.build(kern, pts, TileHConfig(nb=125, eps=1e-5, leaf_size=32))
        ti = th.factorize()
        heavy = RuntimeOverheadModel(per_task=5e-5, per_dependency=2e-5)
        zero = RuntimeOverheadModel.zero()
        hm_pen = hi.simulate(8, "lws", overheads=heavy).makespan / hi.simulate(
            8, "lws", overheads=zero
        ).makespan
        th_pen = ti.simulate(8, "lws", overheads=heavy).makespan / ti.simulate(
            8, "lws", overheads=zero
        ).makespan
        assert hm_pen > th_pen


class TestTaskTimes:
    def test_tasks_include_the_accumulator_flushes(self, monkeypatch):
        """A leaf TRSM/GETRF opens by rounding in its operand's pending
        updates: that flush is the task's work, so the tasks' seconds cover
        every flush of the factorisation."""
        flush = UpdateAccumulator.flush
        spent = []

        def timed(self, node):
            t0 = time.perf_counter()
            try:
                return flush(self, node)
            finally:
                spent.append(time.perf_counter() - t0)

        monkeypatch.setattr(UpdateAccumulator, "flush", timed)
        pts = cylinder_cloud(200)
        info = HMatSolver(laplace_kernel(pts), pts, eps=1e-4, leaf_size=32).factorize()
        assert spent
        assert sum(spent) <= info.sequential_seconds()

    def test_tasks_are_announced_once_with_the_flops_they_carry(self, geom):
        """The run announces every task of its graph once, ``pack`` steps
        included; the graph's flops are the model on the factor's ranks, as
        every Tile-H graph's are."""
        from repro.core import factor_program
        from repro.hmatrix.arithmetic import kernel_flops
        from repro.obs import Instrumentation
        from repro.runtime import NestedPolicy

        pts, kern, _ = geom
        hm = HMatSolver(kern, pts, eps=1e-5, leaf_size=32)
        with Instrumentation(trace_capacity=0) as probe:
            info = hm.factorize()
        kinds = info.graph.kind_counts()
        assert set(probe.kinds) == set(kinds) and "pack" in kinds
        for kind, count in kinds.items():
            assert probe.kinds[kind]["submitted"] == count
        desc = hm._tile.desc
        program = factor_program.program_for(desc, "lu", NestedPolicy(min_leaf=32))
        operands = factor_program.task_operands(program, factor_program._walk(desc, "lu")[0])
        for t in info.graph.tasks:
            assert t.flops == kernel_flops(program.variants[t.id], operands[t.id])

    def test_one_factorize_looks_its_program_up_once(self, geom, monkeypatch):
        """A factorisation looks its program up once, and on a known structure
        walks the block tree once."""
        from repro.core import factor_program
        from repro.obs import Instrumentation

        pts, kern, _ = geom
        with Instrumentation(trace_capacity=0) as probe:
            HMatSolver(kern, pts, eps=1e-5, leaf_size=32).factorize()
        reg = probe.registry
        assert reg.counter("nested.program.hits") + reg.counter("nested.program.misses") == 1
        walks = []
        walk = factor_program._walk
        monkeypatch.setattr(factor_program, "_walk", lambda *a: walks.append(a) or walk(*a))
        HMatSolver(kern, pts, eps=1e-5, leaf_size=32).factorize()
        assert len(walks) == 1

    def test_one_factorize_binds_its_flops_once(self, monkeypatch):
        """Under a probe the run binds the flops it announces once: one
        ``kernel_flops`` call per task of the program, ``pack`` steps
        included."""
        from repro.core import factor_program
        from repro.obs import Instrumentation

        calls = []
        kernel_flops = factor_program.kernel_flops
        monkeypatch.setattr(factor_program, "kernel_flops",
                            lambda *a: calls.append(a) or kernel_flops(*a))
        pts = cylinder_cloud(600)
        hm = HMatSolver(laplace_kernel(pts), pts, eps=1e-4, leaf_size=32)
        with Instrumentation(trace_capacity=0) as probe:
            hm.factorize()
        assert len(calls) == sum(k["submitted"] for k in probe.kinds.values())


class TestHodlrVariant:
    def test_weak_admissibility_structure(self, geom):
        """HMatSolver with weak admissibility = the HODLR / BS format: every
        off-diagonal block at every level is a single low-rank leaf."""
        from repro.hmatrix import WeakAdmissibility

        pts, kern, dense = geom
        hodlr = HMatSolver(
            kern, pts, eps=1e-6, leaf_size=32, admissibility=WeakAdmissibility()
        )
        root = hodlr.matrix
        assert root.child(0, 1).kind == "rk"
        assert root.child(1, 0).kind == "rk"

    def test_hodlr_solves(self, geom):
        from repro.hmatrix import WeakAdmissibility

        pts, kern, dense = geom
        hodlr = HMatSolver(
            kern, pts, eps=1e-6, leaf_size=32, admissibility=WeakAdmissibility()
        )
        x0 = np.random.default_rng(9).standard_normal(N)
        x = hodlr.gesv(dense @ x0)
        assert np.linalg.norm(x - x0) <= 1e-3 * np.linalg.norm(x0)

    def test_hodlr_higher_ranks_than_strong(self, geom):
        """The weak condition admits touching blocks, whose ranks are larger
        — the storage/simplicity trade-off of the BS/HODLR discussion."""
        from repro.hmatrix import WeakAdmissibility

        pts, kern, _ = geom
        hodlr = HMatSolver(
            kern, pts, eps=1e-6, leaf_size=32, admissibility=WeakAdmissibility()
        )
        strong = HMatSolver(kern, pts, eps=1e-6, leaf_size=32)
        assert hodlr.matrix.max_rank() > strong.matrix.max_rank()
