"""Scheduling policies (Section V-C of the paper).

Three StarPU strategies are modelled with the exact semantics the paper
describes, plus a plain FIFO baseline:

* ``ws`` — *work stealing*: one queue per worker; a ready task is queued on
  the worker that released it; an idle worker steals from the most loaded
  worker.
* ``lws`` — *locality work stealing*: like ``ws`` but queues are sorted by
  task priority and stealing proceeds over neighbouring workers.
* ``prio`` — a single central queue sorted by decreasing priority; all
  workers pull from it.  (Its global queue is why the paper sees contention
  on small problems.)
* ``eager`` — central FIFO, no priorities (ablation baseline).

Schedulers are driven in *virtual time* by the simulator: ``push(task, w)``
when a task becomes ready (``w`` = the worker that released it, or ``None``
for source tasks), ``pop(w)`` when worker ``w`` is idle.  All policies are
deterministic: ties break on submission order.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque

from .task import Task

__all__ = [
    "Scheduler",
    "EagerScheduler",
    "PrioScheduler",
    "WorkStealingScheduler",
    "LocalityWorkStealingScheduler",
    "make_scheduler",
    "SCHEDULER_NAMES",
]


class Scheduler:
    """Virtual-time scheduler interface used by the simulator.

    When a :class:`~repro.obs.SchedulerStats` object is attached (the
    executor/simulator does this while an observability probe is active),
    every policy counts pushes, local pops, steal attempts/successes, and
    samples the ready-queue depth on each push.  Detached (the default) the
    accounting costs one ``None`` test per call.
    """

    name = "abstract"
    stats = None

    def attach_stats(self, stats) -> None:
        """Install (or with ``None`` remove) a stats sink for this run."""
        self.stats = stats

    def _note_push(self) -> None:
        st = self.stats
        if st is not None:
            st.pushes += 1
            st.sample_depth(self.pending())

    def _note_pop(self, task: Task | None, *, stolen: bool | None = None) -> None:
        """Count a pop outcome: ``stolen=None`` = served from the caller's own
        (or the central) queue; otherwise a steal attempt that found a victim
        (``True``) or came up empty (``False``)."""
        st = self.stats
        if st is None:
            return
        if stolen is None:
            if task is not None:
                st.pops_local += 1
        else:
            st.steal_attempts += 1
            if stolen:
                st.steals += 1

    def setup(self, nworkers: int) -> None:
        """Reset internal state for a run on ``nworkers`` workers."""
        raise NotImplementedError

    def push(self, task: Task, worker: int | None) -> None:
        """A task became ready; ``worker`` released it (None for sources)."""
        raise NotImplementedError

    def pop(self, worker: int) -> Task | None:
        """Idle ``worker`` requests work; None if nothing is available."""
        raise NotImplementedError

    def pending(self) -> int:
        """Number of queued (ready, unassigned) tasks."""
        raise NotImplementedError


class EagerScheduler(Scheduler):
    """Central FIFO queue, no priorities (StarPU's ``eager``)."""

    name = "eager"

    def setup(self, nworkers: int) -> None:
        self._queue: deque[Task] = deque()

    def push(self, task: Task, worker: int | None) -> None:
        self._queue.append(task)
        self._note_push()

    def pop(self, worker: int) -> Task | None:
        task = self._queue.popleft() if self._queue else None
        self._note_pop(task)
        return task

    def pending(self) -> int:
        return len(self._queue)


class PrioScheduler(Scheduler):
    """Single central queue sorted by decreasing priority (``prio``)."""

    name = "prio"

    def setup(self, nworkers: int) -> None:
        self._heap: list[tuple[int, int, Task]] = []
        self._seq = itertools.count()

    def push(self, task: Task, worker: int | None) -> None:
        heapq.heappush(self._heap, (-task.priority, next(self._seq), task))
        self._note_push()

    def pop(self, worker: int) -> Task | None:
        if not self._heap:
            self._note_pop(None)
            return None
        task = heapq.heappop(self._heap)[2]
        self._note_pop(task)
        return task

    def pending(self) -> int:
        return len(self._heap)


class WorkStealingScheduler(Scheduler):
    """Per-worker FIFO queues with steal-from-most-loaded (``ws``)."""

    name = "ws"

    def setup(self, nworkers: int) -> None:
        if nworkers < 1:
            raise ValueError("need at least one worker")
        self.nworkers = nworkers
        self._queues: list[deque[Task]] = [deque() for _ in range(nworkers)]
        self._rr = itertools.count()  # round-robin for source tasks

    def push(self, task: Task, worker: int | None) -> None:
        w = worker if worker is not None else next(self._rr) % self.nworkers
        self._queues[w].append(task)
        self._note_push()

    def pop(self, worker: int) -> Task | None:
        own = self._queues[worker]
        if own:
            task = own.popleft()
            self._note_pop(task)
            return task
        # Steal from the most loaded *other* worker.  The idle caller's own
        # (empty) queue is excluded outright so it can never win a length
        # tie, and only workers with queued work are candidates; ties break
        # on the lowest worker index (deterministic).
        victim = None
        best = 0
        for w in range(self.nworkers):
            if w == worker:
                continue
            load = len(self._queues[w])
            if load > best:
                best = load
                victim = w
        if victim is None:
            self._note_pop(None, stolen=False)
            return None
        # Steal from the opposite end to preserve the victim's locality.
        task = self._queues[victim].pop()
        self._note_pop(task, stolen=True)
        return task

    def pending(self) -> int:
        return sum(len(q) for q in self._queues)


class LocalityWorkStealingScheduler(Scheduler):
    """Per-worker priority queues with neighbour stealing (``lws``)."""

    name = "lws"

    def setup(self, nworkers: int) -> None:
        if nworkers < 1:
            raise ValueError("need at least one worker")
        self.nworkers = nworkers
        self._heaps: list[list[tuple[int, int, Task]]] = [[] for _ in range(nworkers)]
        self._seq = itertools.count()
        self._rr = itertools.count()

    def push(self, task: Task, worker: int | None) -> None:
        w = worker if worker is not None else next(self._rr) % self.nworkers
        heapq.heappush(self._heaps[w], (-task.priority, next(self._seq), task))
        self._note_push()

    def pop(self, worker: int) -> Task | None:
        if self._heaps[worker]:
            task = heapq.heappop(self._heaps[worker])[2]
            self._note_pop(task)
            return task
        # Visit neighbours in ring distance order: w+1, w-1, w+2, ...
        for dist in range(1, self.nworkers):
            for cand in ((worker + dist) % self.nworkers, (worker - dist) % self.nworkers):
                if self._heaps[cand]:
                    task = heapq.heappop(self._heaps[cand])[2]
                    self._note_pop(task, stolen=True)
                    return task
        self._note_pop(None, stolen=False)
        return None

    def pending(self) -> int:
        return sum(len(h) for h in self._heaps)


_REGISTRY = {
    "eager": EagerScheduler,
    "prio": PrioScheduler,
    "ws": WorkStealingScheduler,
    "lws": LocalityWorkStealingScheduler,
}

#: Names accepted by :func:`make_scheduler`, in the paper's order (the
#: paper's three strategies first, then the FIFO baseline).
SCHEDULER_NAMES = ("ws", "lws", "prio", "eager")


def make_scheduler(name: str) -> Scheduler:
    """Instantiate a scheduler by its StarPU policy name."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise ValueError(f"unknown scheduler {name!r}; available: {sorted(_REGISTRY)}") from None
