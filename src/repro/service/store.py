"""FactorizationStore: content-addressed persistence + LRU cache of factors.

The store maps a **fingerprint** (see
:func:`~repro.service.problems.spec_fingerprint`) to a *factorized*
:class:`~repro.core.TileHMatrix`.  Entries live in two tiers:

* **disk** — one ``<fingerprint>.tileh`` per factorization under the store
  directory (the one-blob archive of :mod:`repro.hmatrix.io`: factor payloads
  + method + config, published atomically), so factors survive restarts and
  can be shipped between replicas;
* **memory** — an LRU cache of loaded solvers under a configurable byte
  budget (``storage_bytes`` of each factorization), so hot fingerprints
  solve without touching disk and cold ones do not accumulate without bound.

:meth:`FactorizationStore.stats` is the one record of hits, misses,
evictions and resident bytes; the obs probe counts none of them.

A ``get`` that finds the fingerprint in either tier is a **hit** (the
expensive factorization is skipped); only a fingerprint absent from both is
a **miss**, and :meth:`FactorizationStore.get_or_build` then runs the
supplied builder exactly once — concurrent requests for the same missing
fingerprint wait on the first builder instead of factorizing redundantly.
A disk archive that does not load (cut, corrupt, or of a format version
before v4) makes ``get`` raise the loader's ``ValueError``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from pathlib import Path

import time

from ..core import TileHMatrix
from ..obs.tracing import current_trace

__all__ = ["FactorizationStore"]


class _Entry:
    __slots__ = ("solver", "nbytes")

    def __init__(self, solver: TileHMatrix, nbytes: int) -> None:
        self.solver = solver
        self.nbytes = nbytes


class FactorizationStore:
    """Two-tier (memory LRU over disk) store of factorized Tile-H matrices.

    Parameters
    ----------
    root:
        Directory for the archives (created on demand).  ``None`` disables
        the disk tier — useful for pure in-memory serving/tests.
    budget_bytes:
        Byte budget of the in-memory tier.  Inserting past the budget evicts
        least-recently-used entries (disk copies are kept, so an evicted
        fingerprint is still a hit — just a slower one).  ``None`` means
        unbounded.
    mmap:
        Load disk-tier archives with ``mmap=True`` (one read-only mapping
        and one descriptor per resident key, lazily paged, page cache shared
        across serving processes).  Mapped, read and freshly built factors
        answer with the same bits.  Archives are never compressed: every
        one the store writes is mappable.
    """

    def __init__(
        self,
        root=None,
        *,
        budget_bytes: int | None = None,
        mmap: bool = False,
    ) -> None:
        self.root = Path(root) if root is not None else None
        self.budget_bytes = budget_bytes
        self.mmap = mmap
        self._lock = threading.RLock()
        self._cache: OrderedDict[str, _Entry] = OrderedDict()
        self._bytes = 0
        # Per-key build locks: concurrent get_or_build on one missing key
        # runs the builder once, not once per caller.
        self._building: dict[str, threading.Lock] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- paths ---------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        """Where a new archive for ``key`` is written."""
        if self.root is None:
            raise ValueError("store has no disk tier (root=None)")
        return self.root / f"{key}.tileh"

    def _disk_path(self, key: str) -> Path | None:
        """The archive holding ``key``, if any."""
        if self.root is not None and (path := self.path_for(key)).exists():
            return path
        return None

    # -- inspection ----------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._cache:
                return True
        return self._disk_path(key) is not None

    def keys(self) -> list[str]:
        """Every fingerprint available in either tier (sorted)."""
        with self._lock:
            out = set(self._cache)
        if self.root is not None and self.root.is_dir():
            out.update(p.stem for p in self.root.glob("*.tileh"))
        return sorted(out)

    @property
    def resident_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def stats(self) -> dict:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._cache),
                "bytes": float(self._bytes),
                "budget_bytes": (
                    float(self.budget_bytes) if self.budget_bytes is not None else None
                ),
            }

    # -- core operations -------------------------------------------------------
    def put(self, key: str, solver: TileHMatrix, *, persist: bool = True) -> None:
        """Insert a factorized solver under ``key`` (memory, and disk when
        ``persist`` and the store has a disk tier)."""
        if persist and self.root is not None:
            solver.save(self.path_for(key))
        self._insert(key, solver)

    def get(self, key: str) -> TileHMatrix | None:
        """The solver for ``key``, or ``None`` (a recorded miss) when absent.

        Memory hits are O(1); disk hits load the archive and re-insert it
        into the memory tier (possibly evicting colder entries).
        """
        ctx = current_trace()
        t0 = time.perf_counter()
        with self._lock:
            entry = self._cache.get(key)
            if entry is not None:
                self._cache.move_to_end(key)
                self.hits += 1
                if ctx is not None:
                    ctx.add_span("store-hit", t0, time.perf_counter(), tier="memory")
                return entry.solver
        path = self._disk_path(key)
        if path is not None:
            solver = TileHMatrix.load(path, mmap=self.mmap)
            with self._lock:
                self.hits += 1
            self._insert(key, solver)
            if ctx is not None:
                ctx.add_span("store-load", t0, time.perf_counter(), tier="disk")
            return solver
        with self._lock:
            self.misses += 1
        if ctx is not None:
            ctx.add_span("store-miss", t0, time.perf_counter())
        return None

    def get_or_build(self, key: str, builder) -> TileHMatrix:
        """``get(key)``, running ``builder()`` on a miss and storing its result.

        Concurrent callers of one missing ``key`` serialize on a per-key
        build lock: the first runs ``builder``, the rest hit its result.
        """
        solver = self.get(key)
        if solver is not None:
            return solver
        with self._lock:
            build_lock = self._building.setdefault(key, threading.Lock())
        with build_lock:
            # Double-check: another thread may have built while we waited.
            with self._lock:
                entry = self._cache.get(key)
                if entry is not None:
                    self._cache.move_to_end(key)
                    return entry.solver
            ctx = current_trace()
            t0 = time.perf_counter()
            solver = builder()
            if ctx is not None:
                ctx.add_span("build", t0, time.perf_counter())
            if not solver.factorized:
                raise ValueError("builder must return a *factorized* solver")
            self.put(key, solver)
        with self._lock:
            self._building.pop(key, None)
        return solver

    def evict(self, key: str) -> bool:
        """Drop ``key`` from the memory tier (the disk copy, if any, stays)."""
        with self._lock:
            entry = self._cache.pop(key, None)
            if entry is None:
                return False
            self._bytes -= entry.nbytes
            self.evictions += 1
        return True

    def clear_memory(self) -> None:
        """Empty the memory tier (disk archives are untouched)."""
        with self._lock:
            keys = list(self._cache)
        for k in keys:
            self.evict(k)

    # -- internals -------------------------------------------------------------
    def _insert(self, key: str, solver: TileHMatrix) -> None:
        nbytes = int(solver.storage_bytes())
        with self._lock:
            old = self._cache.pop(key, None)
            if old is not None:
                self._bytes -= old.nbytes
            self._cache[key] = _Entry(solver, nbytes)
            self._bytes += nbytes
            if self.budget_bytes is not None:
                # Evict cold entries, never the one just inserted: a single
                # over-budget factorization must still be servable.
                while self._bytes > self.budget_bytes and len(self._cache) > 1:
                    _, e = self._cache.popitem(last=False)
                    self._bytes -= e.nbytes
                    self.evictions += 1
