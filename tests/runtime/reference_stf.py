"""The inline-executing STF engine, verbatim, for tests only.

Until an STF engine only recorded, an eager :class:`~repro.runtime.StfEngine`
ran each kernel inside ``insert_task`` — timed there, and bracketed there by
the race checker's ``before_task``/``after_task`` — and ``wait_all`` only
closed the section.  The library no longer contains that path: an eager
section is now one run of ``ThreadedExecutor(1, interpreter_bound=True)`` at
``wait_all``.  This module is the only copy (``insert_task`` and ``wait_all``
of ``src/repro/runtime/stf.py`` and ``before_task``/``after_task`` of
``src/repro/runtime/racecheck.py`` before that change), kept unchanged as the
reference the recording engine is held to (``test_stf_reference.py``).  Do
not "fix" or modernise any of it: its value is that it is what the library
used to run.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.runtime import RaceChecker, StfEngine
from repro.runtime.dag import TaskGraph
from repro.runtime.racecheck import _has_pending, payload_fingerprint
from repro.runtime.task import AccessMode, DataHandle, Task


class ReferenceRaceChecker(RaceChecker):
    """The checker with its per-task bracket as two public halves."""

    def __init__(self, **kw) -> None:
        super().__init__(**kw)
        self._snapshots: dict[int, bytes] = {}

    def before_task(self, task: Task) -> None:
        """Snapshot accessed payloads; check the flush-before-read rule."""
        self._snapshots.clear()
        for handle, mode in task.accesses:
            if mode is AccessMode.R and _has_pending(handle.payload):
                self._flag("stale-read", "error", task, handle,
                           "pure-R access to a handle with pending unflushed "
                           "accumulator updates (flush-before-read violated)")
            self._snapshots[handle.id] = payload_fingerprint(
                handle.payload, sample_threshold=self.sample_threshold
            )

    def after_task(self, task: Task) -> None:
        """Compare post-run fingerprints against the declared modes."""
        self.n_checked_tasks += 1
        for handle, mode in task.accesses:
            before = self._snapshots.get(handle.id)
            if before is None:
                continue
            after = payload_fingerprint(
                handle.payload, sample_threshold=self.sample_threshold
            )
            changed = after != before
            if changed and not mode.writes:
                self._flag("undeclared-write", "error", task, handle,
                           "payload changed under an R-declared access")
            elif not changed and mode is AccessMode.W:
                self._flag("silent-write", "warning", task, handle,
                           "payload unchanged under a W-declared access")
        self._snapshots.clear()


class ReferenceStfEngine(StfEngine):
    """An STF engine whose eager mode runs each kernel as it is submitted."""

    def __init__(self, mode: str = "eager", *, racecheck=False, nested=None) -> None:
        super().__init__(mode, nested=nested)
        self.racecheck = ReferenceRaceChecker() if racecheck is True else racecheck or None

    # -- submission -----------------------------------------------------------
    def insert_task(
        self,
        kind: str,
        func: Callable[[], Any] | None,
        accesses: list[tuple[DataHandle, AccessMode]],
        *,
        priority: int = 0,
        seconds: float | None = None,
        flops: float = 0.0,
        label: str = "",
        spec=None,
        expander: Callable[["StfEngine"], Any] | None = None,
    ) -> Task | None:
        """Submit one task; returns the created graph node.

        In eager mode ``func`` runs now and its measured time becomes the
        task cost unless an explicit ``seconds`` is given (pre-traced tasks
        pass ``func=None`` with explicit costs).  ``spec`` optionally attaches
        a declarative, picklable kernel description for process executors.

        ``expander`` marks the task as *expandable*: when the engine was
        built with a nested policy, the expander is called instead of the
        opaque submission and replaces this task with a subgraph of
        finer-grain subtasks (each submitted through ``insert_task`` without
        an expander).  The subtasks inherit ``priority``; the expansion is
        recorded in :attr:`nested_stats` and ``None`` is returned (there is
        no single graph node to hand back).  Without a nested policy the
        expander is ignored and the task submits opaquely.
        """
        if expander is not None and self.nested is not None:
            start = len(self.graph.tasks)
            expander(self)
            stop = len(self.graph.tasks)
            for sub in self.graph.tasks[start:stop]:
                sub.priority = priority
            self.nested_stats.record(kind, label, start, stop)
            return None
        task = self.graph.new_task(
            kind,
            accesses=tuple(accesses),
            priority=priority,
            flops=flops,
            label=label,
        )
        task.spec = spec
        self._infer_dependencies(task)
        self._announce(task)
        if self.mode == "eager":
            if func is not None:
                checker = self.racecheck
                if checker is not None:
                    # Fingerprints run outside the timed window so measured
                    # task costs stay kernel-only.
                    checker.before_task(task)
                t0 = time.perf_counter()
                func()
                elapsed = time.perf_counter() - t0
                if checker is not None:
                    checker.after_task(task)
                task.seconds = elapsed if seconds is None else seconds
            else:
                task.seconds = 0.0 if seconds is None else seconds
        else:
            task.func = func
            if seconds is not None:
                task.seconds = seconds
        return task

    def wait_all(self) -> TaskGraph:
        """Finish the STF section and return the (validated) DAG.

        The handles forget their last writer and readers: that state serves
        only the inference of the section just finished, and kept, it closes
        a reference cycle through every task (task -> accesses -> handle ->
        last writer -> task).  A dropped graph would then wait — with what
        its closures hold: work arrays, a discarded factor — for the cyclic
        collector, whose full pass lands in whichever later call trips it;
        acyclic, it is freed by reference counting the moment it is dropped.
        Tasks submitted afterwards start a new section and take no edge from
        this one.
        """
        self.graph.validate()
        return self.graph
