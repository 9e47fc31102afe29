"""Executor knobs on the solve service: process cold builds + mmap stores.

The service's ``exec_mode``/``exec_workers`` apply only to cold-start
factorizations; warm panel solves always run eagerly, and the solver cached
or persisted after a process build carries an eager config (archives must
not embed build-machine detail).  ``FactorizationStore(mmap=True)`` reloads
its archives as read-only mapped solvers that answer with the saved bits.
"""

import numpy as np
import pytest

from repro.runtime import orphaned_segments
from repro.service import (
    FactorizationStore,
    ProblemSpec,
    SolveService,
    build_solver,
    spec_fingerprint,
)
from repro.service.problems import rhs_dtype

SPEC = ProblemSpec(kernel="laplace", n=192, nb=64, eps=1e-6, leaf_size=48)


def _rhs(spec=SPEC):
    rng = np.random.default_rng(1)
    return rng.standard_normal(spec.n).astype(rhs_dtype(spec))


class TestBuildSolverExecMode:
    def test_process_build_matches_eager(self):
        """Process and eager cold builds agree to accumulator rounding (the
        rounding accumulator is eager-only, so strict bit-identity would
        need accumulate=False on both sides)."""
        before = set(orphaned_segments())
        eager = build_solver(SPEC)
        proc = build_solver(SPEC, exec_mode="process", nworkers=2)
        b = _rhs()
        np.testing.assert_allclose(proc.solve(b), eager.solve(b),
                                   rtol=1e-6, atol=1e-8)
        assert sorted(set(orphaned_segments()) - before) == []

    def test_process_built_solver_config_is_eager(self):
        proc = build_solver(SPEC, exec_mode="process", nworkers=2)
        assert proc.factorized
        assert proc.config.exec_mode == "eager"
        assert proc.config.nworkers == 1


class TestServiceKnobs:
    def test_stats_report_executor(self):
        with SolveService(workers=1, exec_mode="process", exec_workers=2) as svc:
            stats = svc.stats()
        assert stats["executor"] == {"mode": "process", "nworkers": 2}

    def test_default_eager_executor(self):
        with SolveService(workers=1) as svc:
            stats = svc.stats()
        assert stats["executor"] == {"mode": "eager", "nworkers": 1}

    def test_bad_exec_mode_rejected(self):
        with pytest.raises(ValueError, match="exec_mode"):
            SolveService(exec_mode="gpu")

    def test_bad_exec_workers_rejected(self):
        with pytest.raises(ValueError, match="exec_workers"):
            SolveService(exec_mode="process", exec_workers=0)

    def test_cold_solve_through_process_executor(self):
        before = set(orphaned_segments())
        with SolveService(workers=1, exec_mode="process", exec_workers=2) as svc:
            x = svc.solve(SPEC, _rhs())
        eager = build_solver(SPEC)
        np.testing.assert_allclose(x, eager.solve(_rhs()), rtol=1e-6, atol=1e-8)
        assert sorted(set(orphaned_segments()) - before) == []


class TestStoreMmap:
    def test_mmap_store_round_trip(self, tmp_path):
        store = FactorizationStore(tmp_path, mmap=True)
        key = spec_fingerprint(SPEC)
        solver = build_solver(SPEC)
        b = _rhs()
        xe = solver.solve(b)
        store.put(key, solver)
        store.clear_memory()  # force the disk tier
        loaded = store.get(key)
        assert loaded is not None and loaded is not solver
        assert np.array_equal(loaded.solve(b), xe)

    def test_default_store_reads_and_ignores_compress(self, tmp_path):
        """``mmap`` is off by default; ``compress=`` is accepted (callers pass
        it) and selects nothing — both stores write the same bytes."""
        assert FactorizationStore(tmp_path).mmap is False
        key, solver = spec_fingerprint(SPEC), build_solver(SPEC)
        blobs = []
        for compress in (True, False):
            store = FactorizationStore(tmp_path / str(compress), compress=compress)
            store.put(key, solver)
            blobs.append(store.path_for(key).read_bytes())
        assert blobs[0] == blobs[1]
