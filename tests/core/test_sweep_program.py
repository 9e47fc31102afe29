"""Structure and lifetime of the compiled sweep (:mod:`repro.core.sweep`).

What the program is (tile-ops in sweep order, steps holding views of the
factor), when it exists (compiled by the first solve, kept for the matrix's
lifetime, never saved or pickled), and what a right-hand side must be.
"""

import copy
import gc
import pickle
import sys
import threading
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import repro.core.solver
import repro.core.sweep
from repro.core import (
    SweepProgram,
    TileHConfig,
    TileHMatrix,
    compile_sweep,
    gmres,
    iterative_refinement,
    pcg,
    tiled_chol_solve_tasks,
    tiled_solve,
    tiled_solve_tasks,
)
from repro.core.descriptor import TileDesc, TileHDesc
from repro.geometry import DenseOperator, cylinder_cloud, make_kernel
from repro.hmatrix import HMatrix

from . import reference_sweep as ref

N, NB = 480, 40  # nt = 12: the benchmark's tile grid at a tenth of its size


def _build(kernel="laplace", *, n=N, nb=NB):
    pts = cylinder_cloud(n)
    cfg = TileHConfig(nb=nb, eps=1e-6, leaf_size=16, accumulate=False)
    return TileHMatrix.build(make_kernel(kernel, pts), pts, cfg)


@pytest.fixture(scope="module")
def lu():
    a = _build()
    a.factorize()
    return a


@pytest.fixture(scope="module")
def rhs():
    return np.random.default_rng(2).standard_normal((N, 8))


def _factor_arrays(tile):
    """Every array of a tile's factor payload (leaves + packed triangles)."""
    out = []
    for node in tile.mat.nodes():
        for arr in (node.full, node.packed_lu, *((node.rk.u, node.rk.v) if node.rk else ())):
            if arr is not None:
                out.append(arr)
    return out


def _step_operands(step):
    if step[0] == "tri":
        return [step[3]]
    return [m for a, b, *_ in step[3] for m in (a, b) if m is not None]


class TestStructure:
    def test_tile_ops_in_sweep_order(self, lu):
        nt = lu.nt
        ops = lu.sweep_program().ops
        counts = Counter("trsv" if op.j is None else "gemv" for op in ops)
        assert counts == {"gemv": nt * (nt - 1), "trsv": 2 * nt}
        assert len(ops) == 156
        fwd = [(k, j) for k in range(nt) for j in [*range(k), None]]
        bwd = [(k, j) for k in reversed(range(nt)) for j in [*range(k + 1, nt), None]]
        assert [(op.phase, op.k, op.j) for op in ops] == (
            [("fwd", k, j) for k, j in fwd] + [("bwd", k, j) for k, j in bwd]
        )

    @pytest.mark.parametrize("kernel,method,nb", [
        ("laplace", "lu", NB), ("exponential", "cholesky", NB), ("laplace", "lu", 320),
    ])
    def test_steps_are_views_of_the_factor(self, kernel, method, nb):
        a = _build(kernel, n=640 if nb > 256 else N, nb=nb)
        a.factorize(method=method)
        before = a.storage_bytes()
        program = a.sweep_program()
        assert a.storage_bytes() == before
        n_operands = 0
        for op in program.ops:
            owned = _factor_arrays(op.tile)
            for step in op.steps:
                for m in _step_operands(step):
                    n_operands += 1
                    assert not m.flags.owndata or any(m is arr for arr in owned)
                    assert any(np.shares_memory(m, arr) for arr in owned), op
        assert n_operands > len(program.ops)

    def test_zero_rank_leaves_are_dropped(self, lu):
        for op in lu.sweep_program().ops:
            for step in op.steps:
                if step[0] == "mv":
                    assert all(a.shape[1] for a, b, *_ in step[3] if b is not None)

    def test_task_graph_is_one_task_per_tile_op(self, lu, rhs):
        nt = lu.nt
        _, graph = tiled_solve_tasks(lu.desc, rhs)
        assert graph.kind_counts() == {"gemm": nt * (nt - 1), "trsm": 2 * nt}
        labels = [t.label for t in graph.tasks]
        assert labels[:3] == ["fwd_trsv(0)", "fwd_gemv(1,0)", "fwd_trsv(1)"]
        assert labels[-1] == "bwd_trsv(0)" and "bwd_gemv(0,11)" in labels
        chol = _build("exponential")
        chol.factorize(method="cholesky")
        _, graph = tiled_chol_solve_tasks(chol.desc, rhs[:, 0])
        assert "bwd_gemv_t(0,11)" in [t.label for t in graph.tasks]


class TestLifetime:
    def test_second_solve_rewalks_nothing(self, monkeypatch, rhs):
        a = _build()
        a.factorize()
        calls = Counter()

        def counted(cls, name):
            inner = getattr(cls, name)

            def wrapper(self, *args, **kw):
                calls[name] += 1
                return inner(self, *args, **kw)

            monkeypatch.setattr(cls, name, wrapper)

        counted(HMatrix, "leaf_index")
        counted(TileDesc, "get_blktile")
        counted(TileHDesc, "tile_slice")
        first = a.solve(rhs[:, 0])
        assert calls["leaf_index"] and calls["get_blktile"] and calls["tile_slice"]
        calls.clear()
        assert np.array_equal(a.solve(rhs[:, 0]), first)
        a.solve(rhs)
        assert not calls, dict(calls)

    def test_no_program_before_factorize(self):
        a = _build()
        with pytest.raises(RuntimeError, match="factorize"):
            a.sweep_program()
        assert a._program is None
        a.factorize()
        # Compiled from the factor, not from anything seen before it.
        b = np.ones(N)
        assert np.array_equal(a.solve(b), tiled_solve(a.desc, b))

    def test_program_is_kept_and_not_carried(self, lu, rhs, tmp_path):
        x = lu.solve(rhs)
        program = lu.sweep_program()
        assert lu.sweep_program() is program
        with pytest.raises(TypeError):
            pickle.dumps(program)

        for clone in (pickle.loads(pickle.dumps(lu)), copy.deepcopy(lu)):
            assert clone._program is None
            assert np.array_equal(clone.solve(rhs), x)
            assert clone.sweep_program() is not program
        assert lu.sweep_program() is program

        fresh = _build()
        fresh.factorize()
        cold, warm = fresh.save(tmp_path / "cold.tileh"), lu.save(tmp_path / "warm.tileh")
        assert cold.read_bytes() == warm.read_bytes()

        # A loaded, a mapped and a second mapped ("replicated") factor each
        # compile their own program over their own payloads.
        loaded = [TileHMatrix.load(warm), TileHMatrix.load(warm, mmap=True),
                  TileHMatrix.load(warm, mmap=True)]
        programs = []
        for other in loaded:
            assert other._program is None
            assert np.array_equal(other.solve(rhs), x)
            programs.append(other.sweep_program())
        mine = _step_operands(program.ops[1].steps[0])[0]
        theirs = [_step_operands(p.ops[1].steps[0])[0] for p in programs]
        assert len({id(p) for p in programs}) == 3
        for arr in theirs:
            assert not np.shares_memory(arr, mine)
        assert not np.shares_memory(theirs[1], theirs[2])

    def test_free_function_compiles_per_call(self, lu):
        assert isinstance(compile_sweep(lu.desc, "lu"), SweepProgram)
        assert compile_sweep(lu.desc, "lu") is not compile_sweep(lu.desc, "lu")
        with pytest.raises(ValueError, match="method"):
            compile_sweep(lu.desc, "qr")

    @pytest.mark.parametrize("mode", ["threaded", "racecheck"])
    def test_task_mode_solve_leaves_nothing_to_the_collector(self, lu, rhs, tmp_path, mode):
        """The solve's graph — and a dropped factor its handles point at —
        are freed by reference counting, not by a collector pass that lands
        in some later call (the first solve after a reload, in the benchmark)."""
        cfg = replace(lu.config, racecheck=True) if mode == "racecheck" else replace(
            lu.config, exec_mode="threaded", nworkers=2)
        a = TileHMatrix.load(lu.save(tmp_path / "f.tileh"), cfg)
        gc.collect()
        gc.disable()
        try:
            assert np.array_equal(a.solve(rhs[:, 0]), lu.solve(rhs[:, 0]))
            tile = weakref.ref(a.desc.super.get_blktile(1, 0))
            del a
            assert tile() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("racing_first_solve", [True, False])
    def test_concurrent_solves_return_the_sequential_bits(self, rhs, racing_first_solve):
        a = _build()
        a.factorize()
        expected = [tiled_solve(a.desc, rhs[:, c % 8]) for c in range(16)]
        if not racing_first_solve:
            a.solve(rhs[:, 0])
        start = threading.Barrier(16)
        got = [None] * 16

        def worker(c):
            start.wait(timeout=30)
            for _ in range(5):
                got[c] = a.solve(rhs[:, c % 8])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(c,)) for c in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for c in range(16):
            assert got[c] is not None and np.array_equal(got[c], expected[c]), c


class TestRightHandSides:
    """What the drivers accept — every path validates before it computes."""

    @pytest.fixture(params=["solver", "free", "tasks"])
    def solve(self, request, lu):
        return {
            "solver": lu.solve,
            "free": lambda b: tiled_solve(lu.desc, b),
            "tasks": lambda b: tiled_solve_tasks(lu.desc, b)[0],
        }[request.param]

    def test_object_array_rejected(self, solve):
        with pytest.raises(ValueError, match="dtype object"):
            solve(np.ones(N).astype(object))

    def test_string_array_rejected(self, solve):
        with pytest.raises(ValueError, match="dtype <U3"):
            solve(np.full(N, "1.0"))

    @pytest.mark.parametrize("bad", [
        np.float64(1.0), np.ones((N, 2, 2)), np.ones(N + 1), np.ones((N - 1, 3)), np.ones((0, 2)),
    ])
    def test_bad_shapes_rejected(self, solve, bad):
        with pytest.raises(ValueError, match="ndim|leading dim"):
            solve(bad)

    def test_bool_and_unsigned_are_numbers(self, solve):
        b = np.arange(N) % 3
        x = solve(b.astype(np.float64))
        assert np.array_equal(solve(b.astype(np.uint8)), x)
        assert np.array_equal(solve((b > 0)), solve((b > 0).astype(np.float64)))



class TestPreconditioner:
    """Krylov and refinement loops apply one warm single-column solve per
    iteration: all of them replay the one program on the 1-D path."""

    @pytest.mark.parametrize("driver", ["gmres", "pcg", "refinement"])
    def test_every_application_replays_the_one_program(self, monkeypatch, driver):
        kernel, method = ("exponential", "cholesky") if driver == "pcg" else ("laplace", "lu")
        pts = cylinder_cloud(N)
        kern = make_kernel(kernel, pts)
        a = TileHMatrix.build(kern, pts, TileHConfig(nb=NB, eps=1e-2, leaf_size=16))
        a.factorize(method=method)
        op = DenseOperator(kern, pts)
        b = op.matvec(np.random.default_rng(4).standard_normal(N))

        compiled, work_ndims = [], []
        compile_inner, run_inner = repro.core.solver.compile_sweep, repro.core.sweep.run_steps

        def counting_compile(*args):
            compiled.append(args)
            return compile_inner(*args)

        def recording_run(steps, w):
            work_ndims.append(w.ndim)
            return run_inner(steps, w)

        monkeypatch.setattr(repro.core.solver, "compile_sweep", counting_compile)
        monkeypatch.setattr(repro.core.sweep, "run_steps", recording_run)

        def run(precond):
            if driver == "gmres":
                res = gmres(op.matvec, b, precond=precond, rtol=1e-10)
                return res.x, res.iterations
            if driver == "pcg":
                res = pcg(op.matvec, b, precond=precond, rtol=1e-10)
                return res.x, res.iterations
            x, history = iterative_refinement(precond, op.matvec, b, rtol=1e-10, max_iter=30)
            return x, len(history)

        x, iterations = run(a.solve)
        assert iterations > 2
        assert len(compiled) == 1
        assert set(work_ndims) == {1} and len(work_ndims) >= iterations * len(a.sweep_program().ops)
        # Same bits per application as the old walk, hence the same iterates.
        old = ref.tiled_chol_solve if method == "cholesky" else ref.tiled_solve
        x_old, iterations_old = run(lambda r: old(a.desc, r))
        assert iterations == iterations_old and np.array_equal(x, x_old)
