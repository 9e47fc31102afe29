"""Runtime access-mode race detector for the STF engine.

The whole reproduction rests on the STF engine inferring the task DAG
correctly from the ``(handle, mode)`` accesses declared at submission: a
misdeclared access produces a silently-wrong DAG whose replayed schedules are
not linear extensions of the true data dependencies.  This module checks the
declarations against reality instead of trusting them:

* **Payload fingerprints** — around the kernel of every task of a run given
  to :meth:`~RaceChecker.watch` (an eager engine's section, a race-checked
  factorisation's program), the checker hashes the NumPy buffers reachable
  from each accessed handle (content hashes; large arrays are strided-sampled).
  A changed fingerprint on an R-declared handle is an *undeclared write*
  (error); an unchanged one on a pure-W handle is a *silent write* (warning).
* **Stale accumulator reads** — a task that declares a pure R access on a
  handle whose leaves still carry ``pending`` updates (buffered there by an
  :class:`~repro.hmatrix.accumulator.UpdateAccumulator`) would read data the
  flush-before-read discipline says must already be rounded in (error).
* **Handle aliasing** — two :class:`~repro.runtime.task.DataHandle`\\ s whose
  payloads share memory (``np.shares_memory``) break the ``id(payload)``
  registry's assumption that distinct handles mean disjoint data; the STF
  inference would then miss dependencies between them (error).
* **Trace validation** — :func:`validate_trace` checks post-hoc that any
  :class:`~repro.runtime.trace.ExecutionTrace` (simulated or threaded) is a
  linear extension of the task graph: every event starts only after all of
  its task's dependencies have finished.

The checker is opt-in and zero-cost when disabled: ``StfEngine`` holds
``racecheck=None`` by default and tests it once per handle and per section.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dag import TaskGraph
from .ready import Lowered
from .task import AccessMode, DataHandle, Task
from .trace import ExecutionTrace

__all__ = [
    "RaceCheckError",
    "RaceViolation",
    "RaceChecker",
    "payload_fingerprint",
    "iter_buffers",
    "validate_trace",
]


class RaceCheckError(RuntimeError):
    """An access-mode violation detected at registration or run time."""


@dataclass(frozen=True)
class RaceViolation:
    """One detected mismatch between declared and actual memory effects.

    Attributes
    ----------
    kind:
        "undeclared-write" (R handle mutated), "silent-write" (W handle
        untouched), "stale-read" (R handle with pending accumulator
        updates), "aliased-handles" (two handles over shared memory), or
        "trace-order" (trace event before its dependencies finished).
    severity:
        "error" or "warning".
    """

    kind: str
    severity: str
    task_id: int | None
    task_kind: str
    task_label: str
    handle: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        if self.task_id is None:
            where = "handle registration"
        else:
            where = f"task #{self.task_id} {self.task_kind}"
            if self.task_label:
                where += f" [{self.task_label}]"
        return f"{self.kind} ({self.severity}) at {where}, handle {self.handle}: {self.message}"


def iter_buffers(payload):
    """Yield the NumPy arrays making up ``payload``'s semantic content.

    Understands the repo's payload shapes without importing upper layers
    (duck-typed to avoid a runtime -> hmatrix/core dependency cycle): raw
    ``ndarray``\\ s, lists/tuples of payloads, ``Tile`` (``.mat``),
    ``RkMatrix`` (``.u``/``.v``) and ``HMatrix`` nodes (dense / Rk leaf
    content).  Caches like ``packed_lu`` are deliberately excluded — they
    are redundant derived state whose population during a read must not
    count as a write.
    """
    seen: set[int] = set()
    stack = [payload]
    while stack:
        obj = stack.pop()
        if obj is None or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif hasattr(obj, "mat"):  # core.descriptor.Tile
            stack.append(obj.mat)
        elif hasattr(obj, "u") and hasattr(obj, "v"):  # hmatrix.rk.RkMatrix
            stack.extend((obj.u, obj.v))
        elif hasattr(obj, "leaves"):  # hmatrix.hmatrix.HMatrix
            for leaf in obj.leaves():
                if leaf.full is not None:
                    stack.append(leaf.full)
                elif leaf.rk is not None:
                    stack.extend((leaf.rk.u, leaf.rk.v))


def payload_fingerprint(payload, *, sample_threshold: int = 1 << 16) -> bytes:
    """Cheap content hash of every buffer reachable from ``payload``.

    Arrays at or below ``sample_threshold`` elements are hashed in full;
    larger arrays are hashed through a deterministic ~4096-element stride
    sample plus their shape/dtype, keeping the per-task cost bounded for
    big tiles while still catching essentially any kernel-sized mutation.
    """
    h = hashlib.blake2b(digest_size=16)
    for arr in iter_buffers(payload):
        h.update(str(arr.shape).encode())
        h.update(arr.dtype.str.encode())
        if arr.size <= sample_threshold:
            h.update(np.ascontiguousarray(arr).tobytes())
        else:
            flat = arr.reshape(-1) if arr.flags.c_contiguous else arr.ravel()
            step = max(1, arr.size // 4096)
            h.update(np.ascontiguousarray(flat[::step]).tobytes())
    return h.digest()


def _has_pending(payload) -> bool:
    """True if an H-matrix leaf reachable from ``payload`` holds pending
    accumulator updates."""
    stack = [payload]
    while stack:
        obj = stack.pop()
        if obj is None:
            continue
        if isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif hasattr(obj, "mat"):
            stack.append(obj.mat)
        elif hasattr(obj, "leaves") and not isinstance(obj, np.ndarray):
            if any(leaf.pending is not None for leaf in obj.leaves()):
                return True
    return False


def _related(a: DataHandle, b: DataHandle) -> bool:
    """True when ``a`` and ``b`` are ancestor/descendant in a handle hierarchy."""
    p = a.parent
    while p is not None:
        if p is b:
            return True
        p = p.parent
    p = b.parent
    while p is not None:
        if p is a:
            return True
        p = p.parent
    return False


class RaceChecker:
    """Verifies declared access modes against actual memory effects.

    Parameters
    ----------
    strict:
        Raise :class:`RaceCheckError` on the first error-severity violation
        (warnings are always only recorded).
    sample_threshold:
        Arrays larger than this many elements are fingerprinted by stride
        sampling instead of in full (see :func:`payload_fingerprint`).
    """

    def __init__(self, *, strict: bool = True, sample_threshold: int = 1 << 16) -> None:
        self.strict = strict
        self.sample_threshold = sample_threshold
        self.violations: list[RaceViolation] = []
        self.n_checked_tasks = 0
        # Aliasing registry: id(base buffer) -> [(array, handle), ...].
        self._buffers: dict[int, list[tuple[np.ndarray, DataHandle]]] = {}
        self._registered: set[int] = set()  # handle ids

    # -- reporting -----------------------------------------------------------
    @property
    def n_errors(self) -> int:
        return sum(1 for v in self.violations if v.severity == "error")

    @property
    def n_warnings(self) -> int:
        return sum(1 for v in self.violations if v.severity == "warning")

    def summary(self) -> str:
        return (
            f"racecheck: {self.n_checked_tasks} tasks checked, "
            f"{self.n_errors} errors, {self.n_warnings} warnings"
        )

    def _report(self, violation: RaceViolation) -> None:
        self.violations.append(violation)
        if self.strict and violation.severity == "error":
            raise RaceCheckError(str(violation))

    def _flag(self, kind: str, severity: str, task: Task, handle: DataHandle,
              message: str) -> None:
        self._report(RaceViolation(kind, severity, task.id, task.kind, task.label,
                                   handle.name, message))

    # -- handle aliasing --------------------------------------------------------
    def register_handle(self, handle: DataHandle) -> None:
        """Record ``handle``'s buffers, once; flag overlap with earlier handles.

        Two views of one buffer registered as separate handles defeat the
        engine's ``id(payload)`` registry: the STF inference would treat
        them as independent data and drop real dependencies.  Sub-block
        handles (``StfEngine.subhandle``) overlap their ancestors *by
        construction*, and the STF inference orders both on the H-matrix
        leaves they share, so related handles are exempt; only overlap
        between unrelated handles is an error.
        """
        if handle.id in self._registered:
            return
        self._registered.add(handle.id)
        for arr in iter_buffers(handle.payload):
            base = arr.base if arr.base is not None else arr
            bucket = self._buffers.setdefault(id(base), [])
            for other_arr, other_handle in bucket:
                if other_handle is handle or _related(handle, other_handle):
                    continue
                if np.shares_memory(arr, other_arr):
                    self._report(
                        RaceViolation(
                            kind="aliased-handles",
                            severity="error",
                            task_id=None,
                            task_kind="<register>",
                            task_label="",
                            handle=handle.name,
                            message=(
                                f"payload shares memory with handle "
                                f"{other_handle.name!r}; STF dependency "
                                "inference keys on payload identity and "
                                "would miss dependencies between them"
                            ),
                        )
                    )
                    break
            bucket.append((arr, handle))

    # -- per-task fingerprinting ---------------------------------------------
    def watch(self, low: Lowered, tasks) -> None:
        """Check every task of the one-worker run of ``low`` as it executes
        (one snapshot at a time).  ``tasks[t]`` declares task ``t``'s accesses:
        an engine section's own tasks, or the graph a factor program
        describes.  Their handles are registered now and ``low.execute`` is
        bracketed, so the run's task seconds include the fingerprints."""
        for handle in dict.fromkeys(h for task in tasks for h, _ in task.accesses):
            self.register_handle(handle)
        execute, ident = low.execute, low.ident

        def checked(item) -> None:
            self._checked(tasks[ident(item)], partial(execute, item))

        low.execute = checked

    def _checked(self, task: Task, func) -> None:
        """Run ``task``'s kernel ``func`` between two fingerprints of its handles."""
        fingerprint = partial(payload_fingerprint, sample_threshold=self.sample_threshold)
        before = {}
        for handle, mode in task.accesses:
            if mode is AccessMode.R and _has_pending(handle.payload):
                self._flag("stale-read", "error", task, handle,
                           "pure-R access to a handle with pending unflushed "
                           "accumulator updates (flush-before-read violated)")
            before[handle.id] = fingerprint(handle.payload)
        func()
        self.n_checked_tasks += 1
        for handle, mode in task.accesses:
            changed = fingerprint(handle.payload) != before[handle.id]
            if changed and not mode.writes:
                self._flag("undeclared-write", "error", task, handle,
                           "payload changed under an R-declared access")
            elif not changed and mode is AccessMode.W:
                self._flag("silent-write", "warning", task, handle,
                           "payload unchanged under a W-declared access")


def validate_trace(
    graph: TaskGraph,
    trace: ExecutionTrace,
    *,
    tol: float = 1e-12,
    strict: bool = True,
) -> list[RaceViolation]:
    """Check that ``trace`` is a linear extension of ``graph``.

    Every task must appear exactly once, and no event may start before all
    of its task's dependencies have finished (within ``tol`` seconds, for
    measured threaded traces).  Works on simulated and threaded traces
    alike.  Returns the violations; raises :class:`RaceCheckError` on the
    first one when ``strict``.
    """
    violations: list[RaceViolation] = []

    def report(v: RaceViolation) -> None:
        violations.append(v)
        if strict:
            raise RaceCheckError(str(v))

    events_by_task: dict[int, list] = {}
    for e in trace.events:
        events_by_task.setdefault(e.task_id, []).append(e)
    for task in graph.tasks:
        evs = events_by_task.get(task.id, [])
        if len(evs) != 1:
            report(
                RaceViolation(
                    kind="trace-order",
                    severity="error",
                    task_id=task.id,
                    task_kind=task.kind,
                    task_label=task.label,
                    handle="",
                    message=f"task appears {len(evs)} times in the trace (expected once)",
                )
            )
    known = {t.id for t in graph.tasks}
    for tid in events_by_task:
        if tid not in known:
            report(
                RaceViolation(
                    kind="trace-order",
                    severity="error",
                    task_id=tid,
                    task_kind="<unknown>",
                    task_label="",
                    handle="",
                    message="trace event references a task not in the graph",
                )
            )
    for task in graph.tasks:
        evs = events_by_task.get(task.id)
        if not evs or len(evs) != 1:
            continue
        start = evs[0].start
        for dep in task.deps:
            dep_evs = events_by_task.get(dep)
            if not dep_evs or len(dep_evs) != 1:
                continue
            if dep_evs[0].end > start + tol:
                report(
                    RaceViolation(
                        kind="trace-order",
                        severity="error",
                        task_id=task.id,
                        task_kind=task.kind,
                        task_label=task.label,
                        handle="",
                        message=(
                            f"starts at {start:.6g}s before dependency "
                            f"#{dep} finishes at {dep_evs[0].end:.6g}s — the "
                            "trace is not a linear extension of the DAG"
                        ),
                    )
                )
    return violations
