"""Sequential BLAS under the runtime: the package's one BLAS thread control.

The paper's stack is sequential kernels scheduled by a task runtime:
parallelism belongs to the runtime, never to the BLAS under a tile kernel.
Here it is also a matter of cost.  NumPy and SciPy each load their own
OpenBLAS with its own thread pool, and H-arithmetic alternates between them
call by call (``@`` from one, ``trtrs``/``geqrf``/``gesdd`` from the other).
Once the operands are large enough for OpenBLAS to thread a call (complex
from 48 rows, real from ~100), each switch of library waits milliseconds for
a pool worker to get a core on a small host instead of running for
10-100 us, and a factorisation issues such calls by the hundred
(docs/parallelism.md, "Sequential kernels").  :func:`sequential_blas` holds
every OpenBLAS loaded in the process to one thread for the duration of a
scope and puts back what it found afterwards; the cold path (assembly,
factorisation) runs inside it, warm solves do not (their GEMVs are below the
threshold).
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager

__all__ = ["sequential_blas"]

# NumPy and SciPy wheels each vendor their own OpenBLAS, with differently
# decorated symbol names (``scipy_openblas_set_num_threads64_`` in one,
# ``scipy_openblas_set_num_threads`` in the other).
_PREFIXES = ("scipy_", "")
_SUFFIXES = ("64_", "_64", "")


def _thread_controls(lib) -> tuple | None:
    """The ``(get_num_threads, set_num_threads)`` pair ``lib`` exports, if any."""
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


# path -> thread controls (None: exports none) of the one ``CDLL`` handle a
# mapped path ever gets.  A ``CDLL`` and its function pointers refer to each
# other, so re-creating them per scope left a cycle per entry to the collector.
_loaded: dict[str, tuple | None] = {}


def _find_openblas() -> list[tuple]:
    """Thread controls of every OpenBLAS mapped into this process (the maps
    are read on every call, so a library loaded later is still found)."""
    try:
        with open("/proc/self/maps") as f:
            paths = sorted(
                {ln.split()[-1] for ln in f if "openblas" in ln and ".so" in ln}
            )
    except OSError:
        return []
    for path in paths:
        if path not in _loaded:
            try:
                lib = ctypes.CDLL(path)  # already mapped: a handle, not a second copy
            except OSError:
                continue
            _loaded[path] = _thread_controls(lib)
    return [_loaded[p] for p in paths if _loaded.get(p) is not None]


class _SequentialScope:
    """Reference-counted process-wide hold; only the outermost entry and the
    last exit touch the libraries, both under the lock, so a racing second
    entry can never record 1 as the count to restore."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._restore: list[tuple] = []

    def enter(self) -> None:
        with self._lock:
            if self._depth == 0:
                for get, put in _find_openblas():
                    n = get()
                    if n > 1:
                        put(1)
                        self._restore.append((put, n))
            self._depth += 1

    def exit(self) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                restore, self._restore = self._restore, []
                for put, n in restore:
                    put(n)


# The BLAS thread count is process state, so the hold on it is too.
_scope = _SequentialScope()


@contextmanager
def sequential_blas():
    """Hold every loaded OpenBLAS to one thread while the scope is open.

    Re-entrant and thread-safe: scopes nest and overlap across threads, the
    libraries stay at one thread until the *last* one closes — normally or
    by exception — and then read exactly what the first one found (so a
    count chosen by the user through ``OPENBLAS_NUM_THREADS`` or
    ``threadpoolctl`` is what comes back).  A library already at one thread
    is left alone; where no OpenBLAS is found the scope does nothing.
    Usable as a decorator: ``@sequential_blas()``.
    """
    _scope.enter()
    try:
        yield
    finally:
        _scope.exit()
