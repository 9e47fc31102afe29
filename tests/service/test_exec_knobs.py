"""Memory-mapped factorization stores.

``FactorizationStore(mmap=True)`` reloads its archives as read-only mapped
solvers that answer with the saved bits; the default store neither maps nor
compresses.
"""

import numpy as np

from repro.service import FactorizationStore, ProblemSpec, build_solver, spec_fingerprint
from repro.service.problems import rhs_dtype

SPEC = ProblemSpec(kernel="laplace", n=192, nb=64, eps=1e-6, leaf_size=48)


def _rhs(spec=SPEC):
    rng = np.random.default_rng(1)
    return rng.standard_normal(spec.n).astype(rhs_dtype(spec))


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

    def test_default_store_reads_and_writes_the_saved_archive(self, tmp_path):
        """``mmap`` is off by default, and a store writes the bytes
        ``TileHMatrix.save`` writes: one uncompressed, mappable archive."""
        store = FactorizationStore(tmp_path / "store")
        assert store.mmap is False
        key, solver = spec_fingerprint(SPEC), build_solver(SPEC)
        store.put(key, solver)
        solver.save(tmp_path / "saved.tileh")
        assert store.path_for(key).read_bytes() == (tmp_path / "saved.tileh").read_bytes()
