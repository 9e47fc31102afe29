"""The scheduling core: how a graph's ready set advances (package-private).

Three rules, written once, so that what the simulator predicts is what
:class:`~repro.runtime.threaded.ThreadedExecutor` and
:class:`~repro.runtime.process.ProcessExecutor` do (one worker: the same pull
order, by construction) — ``docs/parallelism.md``, "Scheduling core":

1. source tasks are pushed in submission order with no worker hint;
2. a retired task's successors are released in sorted id order;
3. a freed successor is pushed with the worker that retired it as hint
   (push-to-releasing-worker: ``ws``/``lws`` locality).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.instrument import current as _current_probe
from .dag import TaskGraph
from .schedulers import Scheduler, make_scheduler
from .task import Task
from .trace import ExecutionTrace, TraceEvent

__all__ = ["ReadyFront", "drive", "GraphExecutor"]


class ReadyFront:
    """Ready set of one run of ``graph`` under ``scheduler``; not thread-safe.

    Construction resets the scheduler (``setup``), attaches the scheduler
    counters of ``probe`` (default: the ambient one) and seeds the sources — so
    whatever ``push`` needs must exist first.  ``push(task, hint)`` receives
    every task the moment its last dependency retires (default: the
    scheduler's own ``push``; the simulator puts its submission delay there).
    Leaving the ``with`` block, by any way out, detaches the counters: a
    finished probe never counts a later run.
    """

    def __init__(self, graph: TaskGraph, scheduler: Scheduler, nworkers: int,
                 probe=None, trace: ExecutionTrace | None = None, push=None) -> None:
        self.graph = graph
        self.scheduler = scheduler
        self.probe = probe = probe if probe is not None else _current_probe()
        self.trace = trace
        self.remaining = len(graph.tasks)
        scheduler.setup(nworkers)
        scheduler.attach_stats(probe.sched if probe is not None else None)
        self.pop = scheduler.pop  # pop(w): what idle worker w runs next, or None
        self._push = push if push is not None else scheduler.push
        self._indegree = [len(t.deps) for t in graph.tasks]
        for t in graph.tasks:
            if not t.deps:
                self._push(t, None)

    def __enter__(self) -> "ReadyFront":
        return self

    def __exit__(self, *exc) -> None:
        self.scheduler.attach_stats(None)

    def release(self, task: Task, w: int) -> None:
        """Push the successors ``task`` was the last dependency of, hint ``w``.

        :meth:`retire` does this; a backend that knows ``task`` finishes before
        the next pop may call it early, and ``retire`` will not release twice.
        """
        indegree = self._indegree
        indegree[task.id] = -1  # a running task sits at 0; -1 marks "released"
        for s in sorted(task.successors):
            indegree[s] -= 1
            if indegree[s] == 0:
                self._push(self.graph.tasks[s], w)

    def retire(self, task: Task, w: int) -> None:
        """``task`` finished on worker ``w``."""
        self.remaining -= 1
        if self._indegree[task.id] == 0:
            self.release(task, w)

    def record(self, task: Task, w: int, start: float, end: float, now: float) -> None:
        """Trace event and task span of ``task`` on ``w``, plus a queue-depth
        sample stamped ``now`` (the caller's clock at the time of recording)."""
        if self.trace is not None:
            self.trace.add(TraceEvent(task.id, task.kind, w, start, end))
        if self.probe is not None:
            self.probe.task_span(task.kind, w, start, end)
            self.probe.sample("queue_depth", self.scheduler.pending(), t=now)


def drive(front: ReadyFront, nworkers: int, dispatch, wait) -> None:
    """Run ``front`` to completion on a backend that only knows two things.

    ``dispatch(w)`` starts whatever it pops from the front on idle worker
    ``w`` and says whether it started anything; ``wait()`` blocks until
    something happens, retires what finished and returns the workers that
    fell idle (possibly none) — or ``None`` when nothing is in flight.  Idle
    workers are served in ascending index, which with one worker is the
    simulator's pull order.
    """
    idle = set(range(nworkers))
    while front.remaining:
        for w in sorted(idle):
            if dispatch(w):
                idle.discard(w)
        freed = wait()
        if freed is None:
            raise RuntimeError(
                "deadlock: nothing running or waiting but "
                f"{front.remaining} tasks unfinished (cyclic graph?)"
            )
        idle.update(freed)


@dataclass
class GraphExecutor:
    """What every real executor declares, and checks before a run."""

    nworkers: int
    scheduler: Scheduler | str = "lws"
    trace: ExecutionTrace | None = None
    instrument: object | None = None

    def __post_init__(self) -> None:
        if self.nworkers < 1:
            raise ValueError(f"nworkers must be >= 1, got {self.nworkers}")
        if isinstance(self.scheduler, str):
            self.scheduler = make_scheduler(self.scheduler)

    def run(self, graph: TaskGraph) -> float:
        """Run all tasks respecting dependencies; returns elapsed seconds.

        Raises the first task exception (after draining the pool).  A
        caller-supplied :class:`ExecutionTrace` is appended to (it must cover
        at least ``nworkers`` lanes); otherwise a fresh trace is created.
        Each executed task's measured wall time is written back to
        ``task.seconds`` so a deferred graph can be replayed in the simulator
        with real costs; pre-traced tasks (``func=None``) keep theirs.
        """
        if not graph.tasks:
            return 0.0
        graph.validate()
        if self.trace is None:
            self.trace = ExecutionTrace(nworkers=self.nworkers)
        elif self.trace.nworkers < self.nworkers:
            raise ValueError(
                f"supplied trace covers {self.trace.nworkers} workers, "
                f"executor has {self.nworkers}"
            )
        with ReadyFront(
            graph, self.scheduler, self.nworkers, self.instrument, self.trace
        ) as front:
            return self._run(front)  # the subclass's backend
