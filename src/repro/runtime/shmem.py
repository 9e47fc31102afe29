"""SharedTileArena: numpy payloads in ``multiprocessing.shared_memory``.

The process executor ships tile payloads (dense tiles, Rk factors, packed
Fortran-order LU triangles) between the parent and worker processes.  Pickling
whole H-matrix trees per task would copy megabytes across pipes; instead, this
module places every numpy array into named shared-memory segments exactly once
and pickles only an :class:`ArenaRef` (segment name + offset + dtype/shape/
order).  The receiving side reattaches the segment and rebuilds a zero-copy
``np.ndarray`` view, so worker LAPACK/BLAS calls operate directly on shared
pages — no serialization on the hot path.

Pieces:

* :class:`SharedTileArena` — bump allocator over named segments with 64-byte
  alignment (cache-line / SIMD friendly) and per-array dedup by identity.
* :class:`ArenaRef` — the picklable pointer (segment, offset, shape, dtype,
  order).  Fortran order is preserved so packed LU triangles stay LAPACK-ready.
* ``dumps``/``loads`` — pickle with ``persistent_id`` hooks that swap ndarrays
  for refs on the way out and views on the way in; ``loads_private`` instead
  materialises *private copies* (the parent uses it to harvest results into
  ordinary process-local arrays at the end of a run).
* ``unlink_segment`` / ``orphaned_segments`` — cleanup and leak auditing.

Ownership protocol: the *parent* unlinks every segment (its own and the ones
workers announce).  Workers attach with ``untrack=True`` so the per-process
``resource_tracker`` does not double-manage (Python registers shared memory on
attach as well as create); the parent keeps tracker registration as a crash
safety net.
"""

from __future__ import annotations

import io
import itertools
import os
import pickle
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

__all__ = [
    "SEGMENT_PREFIX",
    "ArenaRef",
    "SharedTileArena",
    "unlink_segment",
    "orphaned_segments",
]

SEGMENT_PREFIX = "reproshm"

_ALIGN = 64

_arena_counter = itertools.count()


@dataclass(frozen=True)
class ArenaRef:
    """Picklable pointer to one array stored in a shared-memory segment."""

    segment: str
    offset: int
    shape: tuple
    dtype: str
    order: str


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Remove ``shm`` from this process's resource tracker.

    CPython registers shared memory with the tracker on *attach* as well as
    on create; a worker that attached must not unlink-at-exit segments the
    parent still owns.
    """
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker may be absent/odd platform
        pass


def unlink_segment(name: str) -> bool:
    """Unlink the named segment; ``False`` when it does not exist."""
    try:
        shm = shared_memory.SharedMemory(name=name, create=False)
    except FileNotFoundError:
        return False
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - raced with another unlink
        pass
    try:
        shm.close()
    except BufferError:  # pragma: no cover - exported views keep the mapping
        pass
    return True


def orphaned_segments(prefix: str = SEGMENT_PREFIX) -> list[str]:
    """Names of live ``/dev/shm`` segments with ``prefix`` (leak audit)."""
    root = "/dev/shm"
    if not os.path.isdir(root):  # pragma: no cover - non-POSIX fallback
        return []
    return sorted(n for n in os.listdir(root) if n.startswith(prefix))


class _Segment:
    __slots__ = ("shm", "used")

    def __init__(self, shm: shared_memory.SharedMemory) -> None:
        self.shm = shm
        self.used = 0


class SharedTileArena:
    """Bump allocator placing numpy arrays in named shared-memory segments.

    Parameters
    ----------
    tag:
        Segment name prefix (must start with :data:`SEGMENT_PREFIX` for the
        leak sweeper to find crashed-run leftovers).  Auto-generated when
        omitted.
    segment_bytes:
        Granularity of pooled segments; arrays at least this large get a
        dedicated segment.
    untrack:
        Unregister every created/attached segment from this process's
        resource tracker (worker-side mode: the parent owns unlinking).
    """

    def __init__(
        self,
        tag: str | None = None,
        *,
        segment_bytes: int = 4 << 20,
        untrack: bool = False,
    ) -> None:
        if tag is None:
            tag = f"{SEGMENT_PREFIX}{os.getpid():x}a{next(_arena_counter):x}"
        self.tag = tag
        self.segment_bytes = int(segment_bytes)
        self._untrack = untrack
        self._counter = itertools.count()
        self._segments: dict[str, _Segment] = {}
        self._current: _Segment | None = None
        self._attached: dict[str, shared_memory.SharedMemory] = {}
        # id(array) -> ArenaRef for arrays already placed; strong refs keep
        # the ids stable for the arena's lifetime.
        self._placed: dict[int, ArenaRef] = {}
        self._keepalive: list[np.ndarray] = []
        self._views: dict[ArenaRef, np.ndarray] = {}
        self._new_segments: list[str] = []
        self._copied_bytes = 0

    # -- allocation ----------------------------------------------------------
    def _new_segment(self, size: int) -> _Segment:
        name = f"{self.tag}s{next(self._counter)}"
        shm = shared_memory.SharedMemory(name=name, create=True, size=max(size, 1))
        if self._untrack:
            _untrack(shm)
        seg = _Segment(shm)
        self._segments[name] = seg
        self._new_segments.append(name)
        return seg

    def _alloc(self, nbytes: int) -> tuple[shared_memory.SharedMemory, int]:
        """A ``(segment, offset)`` slot of at least ``nbytes`` bytes."""
        if nbytes >= self.segment_bytes:
            seg = self._new_segment(nbytes)
            seg.used = nbytes
            return seg.shm, 0
        seg = self._current
        if seg is not None:
            off = -(-seg.used // _ALIGN) * _ALIGN
            if off + nbytes <= seg.shm.size:
                seg.used = off + nbytes
                return seg.shm, off
        seg = self._new_segment(self.segment_bytes)
        seg.used = nbytes
        self._current = seg
        return seg.shm, 0

    def place(self, arr: np.ndarray) -> ArenaRef:
        """Copy ``arr`` into shared memory (once per array identity).

        A dedup hit *re-syncs* the shared slot from ``arr`` unless ``arr``
        is the shared view itself: a worker that assembled a tile on its own
        heap, shipped it, then mutated it in place (GETRF/TRSM on the same
        tile) must overwrite the stale shared copy on the next shipment.
        """
        ref = self._placed.get(id(arr))
        if ref is not None:
            view = self._views.get(ref)
            if view is not None and arr is not view:
                if view.shape == arr.shape and view.dtype == arr.dtype:
                    view[...] = arr
                    self._copied_bytes += int(arr.nbytes)
                else:
                    # Resized in place (ndarray.resize): the old slot no
                    # longer fits — fall through and place afresh.
                    ref = None
            if ref is not None:
                return ref
        if arr.dtype == object:
            raise TypeError("object-dtype arrays cannot live in shared memory")
        order = "F" if (arr.flags.f_contiguous and not arr.flags.c_contiguous) else "C"
        shm, off = self._alloc(int(arr.nbytes))
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf, offset=off, order=order)
        view[...] = arr
        ref = ArenaRef(shm.name, off, tuple(arr.shape), arr.dtype.str, order)
        # Register both the original and the shared view so re-pickling the
        # view (e.g. a worker reshipping a skeleton) finds the same slot.
        self._placed[id(arr)] = ref
        self._placed[id(view)] = ref
        self._keepalive.append(arr)
        self._keepalive.append(view)
        self._views[ref] = view
        self._copied_bytes += int(arr.nbytes)
        return ref

    def resolve(self, ref: ArenaRef) -> np.ndarray:
        """Zero-copy view of the array ``ref`` points to."""
        view = self._views.get(ref)
        if view is not None:
            return view
        shm = self._segments.get(ref.segment)
        if shm is not None:
            shm = shm.shm
        else:
            shm = self._attached.get(ref.segment)
            if shm is None:
                shm = shared_memory.SharedMemory(name=ref.segment, create=False)
                if self._untrack:
                    _untrack(shm)
                self._attached[ref.segment] = shm
        view = np.ndarray(
            ref.shape, dtype=np.dtype(ref.dtype), buffer=shm.buf,
            offset=ref.offset, order=ref.order,
        )
        self._placed[id(view)] = ref
        self._keepalive.append(view)
        self._views[ref] = view
        return view

    # -- pickling ------------------------------------------------------------
    def dumps(self, obj) -> bytes:
        """Pickle ``obj`` with every ndarray swapped for an :class:`ArenaRef`."""
        buf = io.BytesIO()
        _ArenaPickler(buf, self).dump(obj)
        return buf.getvalue()

    def loads(self, blob: bytes):
        """Unpickle, resolving refs to zero-copy shared views."""
        return _ArenaUnpickler(io.BytesIO(blob), self).load()

    def loads_private(self, blob: bytes, cache: dict | None = None):
        """Unpickle, materialising refs as *private copies*.

        ``cache`` maps :class:`ArenaRef` -> private array across calls, so
        payloads that share an array in shared memory also share the private
        copy (e.g. cluster permutations referenced by several tiles).
        """
        return _PrivatizingUnpickler(io.BytesIO(blob), self, cache).load()

    # -- accounting ----------------------------------------------------------
    def take_new_segments(self) -> list[str]:
        """Segment names created since the last call (for ownership handoff)."""
        out, self._new_segments = self._new_segments, []
        return out

    def take_copied_bytes(self) -> int:
        """Bytes copied into shared memory since the last call."""
        out, self._copied_bytes = self._copied_bytes, 0
        return out

    def segment_names(self) -> list[str]:
        """Every segment this arena created (attached ones excluded)."""
        return list(self._segments)

    # -- teardown ------------------------------------------------------------
    def close(self) -> None:
        """Drop views and close mappings.  Does NOT unlink (owner's job)."""
        self._views.clear()
        self._placed.clear()
        self._keepalive.clear()
        self._current = None
        for seg in self._segments.values():
            try:
                seg.shm.close()
            except BufferError:  # pragma: no cover - caller kept a view alive
                pass
        for shm in self._attached.values():
            try:
                shm.close()
            except BufferError:  # pragma: no cover
                pass
        self._segments.clear()
        self._attached.clear()


class _ArenaPickler(pickle.Pickler):
    def __init__(self, file, arena: SharedTileArena) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.arena = arena

    def persistent_id(self, obj):
        # Plain ndarrays and subclasses (views of a mapped archive included:
        # the payload gets *copied* into shared memory, which is what workers
        # need).
        if isinstance(obj, np.ndarray):
            return self.arena.place(np.asarray(obj))
        return None


class _ArenaUnpickler(pickle.Unpickler):
    def __init__(self, file, arena: SharedTileArena) -> None:
        super().__init__(file)
        self.arena = arena

    def persistent_load(self, pid):
        if isinstance(pid, ArenaRef):
            return self.arena.resolve(pid)
        raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")


class _PrivatizingUnpickler(pickle.Unpickler):
    def __init__(self, file, arena: SharedTileArena, cache: dict | None) -> None:
        super().__init__(file)
        self.arena = arena
        self.cache = cache if cache is not None else {}

    def persistent_load(self, pid):
        if isinstance(pid, ArenaRef):
            arr = self.cache.get(pid)
            if arr is None:
                arr = np.array(self.arena.resolve(pid), order=pid.order, copy=True)
                self.cache[pid] = arr
            return arr
        raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")
