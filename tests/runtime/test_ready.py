"""The scheduling core, tested at the seam it exists to offer.

``repro.runtime.ready`` owns the three rules every backend shares (sources
seeded in submission order with no hint; successors released in sorted id
order; the retiring worker as hint).  A recording fake scheduler sees exactly
what a policy would, with no executor in the way.
"""

import pytest
from hypothesis import given, settings

from repro.runtime import TaskGraph
from repro.runtime.ready import ReadyFront, drive

from .graphs import costed_graph, seeds, sizes


class RecordingScheduler:
    """FIFO that logs every ``push(task, hint)`` it is handed."""

    name = "recording"

    def setup(self, nworkers):
        self.pushed = []
        self.queue = []

    def attach_stats(self, stats):
        self.stats = stats

    def push(self, task, worker):
        self.pushed.append((task.id, worker))
        self.queue.append(task)

    def pop(self, worker):
        return self.queue.pop(0) if self.queue else None

    def pending(self):
        return len(self.queue)


def _diamond():
    """0 and 1 are sources; 4, 3, 2 (added in that order) hang off 0; 5 joins."""
    g = TaskGraph()
    ts = [g.new_task("k", seconds=1.0) for _ in range(6)]
    for s in (4, 3, 2):
        g.add_dependency(ts[0], ts[s])
    for d in (1, 2, 3, 4):
        g.add_dependency(ts[d], ts[5])
    return g


def test_sources_are_seeded_in_submission_order_without_hint():
    sched = RecordingScheduler()
    ReadyFront(_diamond(), sched, 2)
    assert sched.pushed == [(0, None), (1, None)]


def test_successors_are_released_in_sorted_order_onto_the_retiring_worker():
    g, sched = _diamond(), RecordingScheduler()
    front = ReadyFront(g, sched, 2)
    front.retire(g.tasks[0], 1)
    assert sched.pushed[2:] == [(2, 1), (3, 1), (4, 1)]
    for i in (1, 2, 3):
        front.retire(g.tasks[i], 0)
    assert len(sched.pushed) == 5  # task 5 still waits for 4
    front.retire(g.tasks[4], 1)
    assert sched.pushed[5:] == [(5, 1)]


def test_an_optimistic_release_is_not_repeated_by_retire():
    g, sched = _diamond(), RecordingScheduler()
    front = ReadyFront(g, sched, 1)
    front.release(g.tasks[0], 0)
    front.retire(g.tasks[0], 0)
    assert [t for t, _ in sched.pushed] == [0, 1, 2, 3, 4]
    assert front.remaining == 5


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=sizes)
def test_every_task_is_pushed_exactly_once_and_the_front_drains(seed, n):
    g, sched = costed_graph(seed, n), RecordingScheduler()
    front = ReadyFront(g, sched, 1)
    started = []

    def dispatch(w):
        task = front.pop(w)
        if task is not None:
            started.append(task)
        return task is not None

    def wait():
        front.retire(started[-1], 0)
        return [0]

    drive(front, 1, dispatch, wait)
    assert front.remaining == 0
    assert sorted(t for t, _ in sched.pushed) == list(range(n))
    position = {t.id: i for i, t in enumerate(started)}
    assert all(position[d] < position[t.id] for t in g.tasks for d in t.deps)


def test_a_push_hook_sees_every_ready_task_and_the_scheduler_none():
    g, sched = _diamond(), RecordingScheduler()
    seen = []
    front = ReadyFront(g, sched, 2, push=lambda task, hint: seen.append((task.id, hint)))
    front.retire(g.tasks[0], 1)
    assert seen == [(0, None), (1, None), (2, 1), (3, 1), (4, 1)]
    assert sched.pushed == []


def test_drive_raises_when_nothing_is_in_flight_and_tasks_remain():
    g = _diamond()
    front = ReadyFront(g, RecordingScheduler(), 1)
    with pytest.raises(RuntimeError, match="deadlock.*6 tasks unfinished"):
        drive(front, 1, lambda w: False, lambda: None)
