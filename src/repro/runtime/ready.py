"""The scheduling core: how a graph's ready set advances (package-private).

Three rules, written once, so that what the simulator predicts is what
:class:`~repro.runtime.threaded.ThreadedExecutor` and
:class:`~repro.runtime.process.ProcessExecutor` do (one worker: the same pull
order, by construction) — ``docs/parallelism.md``, "Scheduling core":

1. source tasks are pushed in submission order with no worker hint;
2. a retired task's successors are released in sorted id order;
3. a freed successor is pushed with the worker that retired it as hint
   (push-to-releasing-worker: ``ws``/``lws`` locality).

The front runs one representation, :class:`Lowered`: per task id an indegree,
an ascending successor slice of one flat list and a kind.  A
:class:`~repro.runtime.dag.TaskGraph` is lowered to it when the front is made;
a bound factor program (:mod:`repro.core.factor_program`) comes in it, with
bare ids as its tasks.  Every task run has a kernel — a task's ``func``, or
the program's ``execute`` — and :meth:`RaceChecker.watch
<repro.runtime.racecheck.RaceChecker.watch>` checks a one-worker run by
bracketing ``Lowered.execute``, whichever form it came in.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from ..obs.instrument import current as _current_probe
from .dag import TaskGraph
from .schedulers import Scheduler, make_scheduler
from .trace import ExecutionTrace, TraceEvent

__all__ = ["Lowered", "ReadyFront", "drive", "GraphExecutor"]


class Lowered:
    """A graph as the ready front runs it, indexed by task id.

    ``items[t]`` is what the scheduler is handed, the executor runs
    (``execute(item)``) and the front is told about for task ``t`` — the
    :class:`~repro.runtime.task.Task` itself, or ``t``; ``ident`` maps an item
    back to ``t``.  ``priorities`` is ``None`` when the items are tasks, which
    carry their own (``task.priority``) and take their measured seconds,
    else the table the scheduler reads by id.  Task
    ``t``'s successors are ``suc[suc_ptr[t]:suc_ptr[t + 1]]``, ascending.
    Read-only: a front copies ``indegree`` before counting it down.
    """

    __slots__ = ("items", "ident", "execute", "kinds", "priorities",
                 "indegree", "suc_ptr", "suc")

    def __len__(self) -> int:
        return len(self.indegree)


def _execute_task(task) -> None:
    task.func()


def _lower(graph: TaskGraph, start: int = 0) -> Lowered:
    """``graph`` as a :class:`Lowered` whose items are its tasks — those from
    id ``start`` on, a section no edge enters from an earlier task (what an
    STF section that followed a ``wait_all`` submitted), as ids from 0."""
    tasks = graph.tasks[start:]
    low = Lowered()
    low.items, low.execute = tasks, _execute_task
    low.ident = (lambda task: task.id - start) if start else attrgetter("id")
    low.kinds = [t.kind for t in tasks]
    low.priorities = None
    low.indegree = [len(t.deps) for t in tasks]
    low.suc_ptr = ptr = [0]
    low.suc = suc = []
    for t in tasks:
        suc += sorted(s - start for s in t.successors)
        ptr.append(len(suc))
    return low


class ReadyFront:
    """Ready set of one run of ``graph`` under ``scheduler``; not thread-safe.

    ``graph`` is a :class:`TaskGraph` or a :class:`Lowered`.  Construction
    resets the scheduler (``setup``), hands it the priority table, attaches
    the scheduler counters of ``probe`` (default: the ambient one) and seeds
    the sources — so whatever ``push`` needs must exist first.
    ``push(item, hint)`` receives every task the moment its last dependency
    retires (default: the scheduler's own ``push``; the simulator puts its
    submission delay there).  :meth:`record` logs ``(item, worker, start,
    end)`` into ``log``; leaving the ``with`` block, by any way out, turns the
    log into ``trace`` events and detaches the counters: a finished probe
    never counts a later run.
    """

    def __init__(self, graph, scheduler: Scheduler, nworkers: int,
                 probe=None, trace: ExecutionTrace | None = None, push=None) -> None:
        low = _lower(graph) if isinstance(graph, TaskGraph) else graph
        self.items, self.kinds, self.execute = low.items, low.kinds, low.execute
        self.ident, self._suc_ptr, self._suc = low.ident, low.suc_ptr, low.suc
        self._indegree = list(low.indegree)
        self.scheduler = scheduler
        self.probe = probe = probe if probe is not None else _current_probe()
        self.trace = trace
        self.log: list[tuple] = []
        self.remaining = len(self._indegree)
        scheduler.setup(nworkers)
        scheduler.priorities = low.priorities
        scheduler.attach_stats(probe.sched if probe is not None else None)
        self.pop = scheduler.pop  # pop(w): what idle worker w runs next, or None
        self._push = push if push is not None else scheduler.push
        items = self.items
        for t, n in enumerate(self._indegree):
            if not n:
                self._push(items[t], None)

    def __enter__(self) -> "ReadyFront":
        return self

    def __exit__(self, *exc) -> None:
        self.scheduler.attach_stats(None)
        self.scheduler.priorities = None
        if self.trace is not None:
            ident, kinds, events = self.ident, self.kinds, self.trace.events
            for task, w, start, end in self.log:
                t = ident(task)
                events.append(TraceEvent(t, kinds[t], w, start, end))

    def release(self, task, w: int) -> None:
        """Push the successors ``task`` was the last dependency of, hint ``w``.

        :meth:`retire` does this; a backend that knows ``task`` finishes before
        the next pop may call it early, and ``retire`` will not release twice.
        """
        t = self.ident(task)
        indegree, items, push = self._indegree, self.items, self._push
        indegree[t] = -1  # a running task sits at 0; -1 marks "released"
        for s in self._suc[self._suc_ptr[t]:self._suc_ptr[t + 1]]:
            indegree[s] -= 1
            if indegree[s] == 0:
                push(items[s], w)

    def retire(self, task, w: int) -> None:
        """``task`` finished on worker ``w``."""
        self.remaining -= 1
        if self._indegree[self.ident(task)] == 0:
            self.release(task, w)

    def record(self, task, w: int, start: float, end: float, now: float) -> None:
        """Log ``task`` on ``w``; with a probe, also its task span and a
        queue-depth sample stamped ``now`` (the caller's clock at the time of
        recording)."""
        self.log.append((task, w, start, end))
        if self.probe is not None:
            self.probe.task_span(self.kinds[self.ident(task)], start, end)
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

    def run(self, graph) -> float:
        """Run all tasks respecting dependencies; returns elapsed seconds.

        Raises the first task exception (after draining the pool).  A
        caller-supplied :class:`ExecutionTrace` is appended to (it must cover
        at least ``nworkers`` lanes); otherwise a fresh trace is created.
        Each executed task's measured wall time is written back to
        ``task.seconds`` (of a :class:`TaskGraph`, or of a lowered section
        whose items are its tasks) so a deferred graph can be replayed in the
        simulator with real costs.  A :class:`TaskGraph` is validated first;
        a :class:`Lowered` program was validated when it was recorded, and
        its measured seconds are its trace events.
        """
        if not len(graph):
            return 0.0
        if isinstance(graph, TaskGraph):
            graph.validate()
            graph = _lower(graph)
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
            try:
                return self._run(front)  # the subclass's backend
            finally:
                if graph.priorities is None:  # the items are tasks
                    for task, _w, start, end in front.log:
                        task.seconds = end - start
