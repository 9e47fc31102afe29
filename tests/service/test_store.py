"""FactorizationStore: two-tier caching, budget eviction, build deduplication."""

import gc
import os
import sys
import threading

import numpy as np
import pytest

from repro.obs import Instrumentation
from repro.service import FactorizationStore, build_solver, spec_fingerprint


class TestTiers:
    def test_memory_roundtrip(self, solver, key):
        store = FactorizationStore()
        store.put(key, solver)
        assert key in store
        assert store.get(key) is solver
        assert store.stats()["hits"] == 1

    def test_miss_recorded(self, key):
        store = FactorizationStore()
        assert store.get(key) is None
        assert store.stats()["misses"] == 1

    def test_disk_survives_memory_eviction(self, solver, key, rhs, tmp_path):
        store = FactorizationStore(tmp_path)
        store.put(key, solver)
        ref = solver.solve(rhs)
        store.clear_memory()
        assert store.stats()["entries"] == 0
        assert key in store  # still on disk
        reloaded = store.get(key)
        assert reloaded is not None and reloaded is not solver
        assert np.array_equal(reloaded.solve(rhs), ref)

    def test_fresh_store_reads_disk(self, solver, key, rhs, tmp_path):
        FactorizationStore(tmp_path).put(key, solver)
        store2 = FactorizationStore(tmp_path)
        got = store2.get(key)
        assert got is not None
        assert np.array_equal(got.solve(rhs), solver.solve(rhs))
        assert store2.stats()["hits"] == 1 and store2.stats()["misses"] == 0

    def test_keys_unions_tiers(self, solver, key, tmp_path):
        store = FactorizationStore(tmp_path)
        store.put(key, solver)
        store.put("other", solver, persist=False)
        store.evict(key)  # memory only; disk copy remains
        assert sorted(store.keys()) == sorted([key, "other"])

    def test_no_disk_tier(self, key):
        store = FactorizationStore()
        with pytest.raises(ValueError):
            store.path_for(key)


class TestBudget:
    def test_lru_eviction(self, solver, key):
        nbytes = solver.storage_bytes()
        store = FactorizationStore(budget_bytes=int(1.5 * nbytes))
        store.put("a", solver, persist=False)
        store.put("b", solver, persist=False)
        st = store.stats()
        assert st["entries"] == 1 and st["evictions"] == 1
        assert store.get("a") is None  # the cold one went
        assert store.get("b") is solver

    def test_lru_order_respects_access(self, solver):
        nbytes = solver.storage_bytes()
        store = FactorizationStore(budget_bytes=int(2.5 * nbytes))
        store.put("a", solver, persist=False)
        store.put("b", solver, persist=False)
        store.get("a")  # refresh a; b is now coldest
        store.put("c", solver, persist=False)
        assert store.get("b") is None
        assert store.get("a") is solver and store.get("c") is solver

    def test_single_oversized_entry_stays(self, solver):
        store = FactorizationStore(budget_bytes=1)  # smaller than any factorization
        store.put("big", solver, persist=False)
        assert store.get("big") is solver  # never evict the only entry

    def test_resident_bytes_accounting(self, solver):
        store = FactorizationStore()
        store.put("a", solver, persist=False)
        assert store.resident_bytes == solver.storage_bytes()
        store.evict("a")
        assert store.resident_bytes == 0


class TestGetOrBuild:
    def test_builds_once_across_threads(self, solver, key):
        store = FactorizationStore()
        calls = []
        gate = threading.Event()

        def builder():
            calls.append(1)
            gate.wait(5)
            return solver

        results = []
        threads = [
            threading.Thread(target=lambda: results.append(store.get_or_build(key, builder)))
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        gate.set()
        for t in threads:
            t.join(10)
        assert len(calls) == 1
        assert all(r is solver for r in results)

    def test_rejects_unfactorized(self, spec, key):
        from repro.service import ProblemSpec
        from repro.core import TileHConfig, TileHMatrix
        from repro.geometry import cylinder_cloud, laplace_kernel

        pts = cylinder_cloud(spec.n)
        raw = TileHMatrix.build(
            laplace_kernel(pts), pts, TileHConfig(nb=100, eps=1e-7, leaf_size=32)
        )
        store = FactorizationStore()
        with pytest.raises(ValueError, match="factorized"):
            store.get_or_build(key, lambda: raw)


class TestObsIntegration:
    def test_lookup_counters(self, solver, key):
        with Instrumentation() as probe:
            store = FactorizationStore()
            store.get(key)
            store.put(key, solver, persist=False)
            store.get(key)
        st = store.stats()
        assert (st["misses"], st["hits"]) == (1, 1)
        # The store's record is the only one: the probe mirrors none of it.
        assert not any("store" in name for name in probe.registry.as_dict()["counters"])

    def test_bytes_and_eviction_counters(self, solver):
        nbytes = solver.storage_bytes()
        with Instrumentation() as probe:
            store = FactorizationStore(budget_bytes=int(1.5 * nbytes))
            store.put("a", solver, persist=False)
            store.put("b", solver, persist=False)
        st = store.stats()
        assert st["evictions"] == 1
        assert st["bytes"] == nbytes and st["entries"] == 1
        # A put is not an assembly: the probe's h.bytes stays untouched.
        assert probe.registry.gauge("h.bytes") == 0.0


class TestArchiveNaming:
    def test_new_archives_are_tileh(self, solver, key, tmp_path):
        store = FactorizationStore(tmp_path)
        store.put(key, solver)
        assert [p.name for p in tmp_path.iterdir()] == [f"{key}.tileh"]
        assert store.path_for(key) == tmp_path / f"{key}.tileh"

    def test_built_solver_is_served_not_reloaded(self, solver, key, tmp_path):
        """Mapped, read and in-memory factors answer with the same bits, so a
        cold build serves the instance it built (no load of its own write)."""
        store = FactorizationStore(tmp_path, mmap=True)
        assert store.get_or_build(key, lambda: solver) is solver
        assert store.get(key) is solver and store.path_for(key).exists()


class TestAtomicPublish:
    def test_reader_never_sees_a_partial_archive(self, solver, key, rhs, tmp_path):
        """One store re-``put``s a key 20 times while another (a second shard
        over the same root) keeps taking disk hits, mapped: no load fails and
        every answer has the same bits — including from a solver whose file
        was replaced under its mapping."""
        writer = FactorizationStore(tmp_path)
        writer.put(key, solver)
        reader = FactorizationStore(tmp_path, mmap=True)
        reference = solver.solve(rhs)
        first = reader.get(key)
        done, errors, loads = threading.Event(), [], [0]

        def read():
            try:
                while not done.is_set():
                    reader.clear_memory()
                    if not np.array_equal(reader.get(key).solve(rhs), reference):
                        errors.append("bits differ")
                    loads[0] += 1
            except BaseException as exc:  # reported on the test's thread
                errors.append(repr(exc))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        t = threading.Thread(target=read)
        t.start()
        try:
            for _ in range(20):
                writer.put(key, solver)
        finally:
            done.set()
            t.join(timeout=60)
            sys.setswitchinterval(old)
        assert not t.is_alive() and not errors, errors[:3]
        assert loads[0] > 0
        assert np.array_equal(first.solve(rhs), reference)
        assert [p.name for p in tmp_path.iterdir()] == [f"{key}.tileh"]


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
class TestDescriptorLifetime:
    """A mapped factor holds one descriptor, released with the factor — by
    reference count, not by a garbage-collector pass."""

    K = 3

    @pytest.fixture()
    def root(self, solver, tmp_path):
        store = FactorizationStore(tmp_path)
        for k in range(self.K):
            store.put(f"key{k}", solver)
        return tmp_path

    def test_mapped_keys_hold_one_descriptor_each(self, root, rhs):
        gc.disable()  # the release below must not be a collector's doing
        try:
            before = _open_fds()
            store = FactorizationStore(root, mmap=True)
            solvers = [store.get(f"key{k}") for k in range(self.K)]
            assert all(s is not None for s in solvers)
            assert 1 <= _open_fds() - before <= self.K
            solvers[0].solve(rhs)
            store.clear_memory()
            assert _open_fds() - before >= 1  # the solvers still hold them
            del solvers
            assert _open_fds() == before
        finally:
            gc.enable()

    def test_read_load_holds_none(self, root):
        before = _open_fds()
        store = FactorizationStore(root)
        solvers = [store.get(f"key{k}") for k in range(self.K)]
        assert all(s is not None for s in solvers)
        assert _open_fds() == before
