"""Unit tests for the scheduling policies."""

import pytest

from repro.runtime import (
    SCHEDULER_NAMES,
    EagerScheduler,
    LocalityWorkStealingScheduler,
    PrioScheduler,
    WorkStealingScheduler,
    make_scheduler,
)
from repro.runtime.task import Task


def _task(tid, prio=0):
    return Task(id=tid, kind="k", priority=prio)


class TestMakeScheduler:
    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_registry(self, name):
        assert make_scheduler(name).name == name

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_scheduler("dmda")


class TestEager:
    def test_fifo_order(self):
        s = EagerScheduler()
        s.setup(2)
        s.push(_task(0), None)
        s.push(_task(1), None)
        assert s.pop(0).id == 0
        assert s.pop(1).id == 1
        assert s.pop(0) is None

    def test_pending(self):
        s = EagerScheduler()
        s.setup(1)
        assert s.pending() == 0
        s.push(_task(0), None)
        assert s.pending() == 1


class TestPrio:
    def test_priority_order(self):
        s = PrioScheduler()
        s.setup(2)
        s.push(_task(0, prio=1), None)
        s.push(_task(1, prio=9), None)
        s.push(_task(2, prio=5), None)
        assert [s.pop(0).id for _ in range(3)] == [1, 2, 0]

    def test_fifo_among_equal_priorities(self):
        s = PrioScheduler()
        s.setup(1)
        for i in range(4):
            s.push(_task(i, prio=7), None)
        assert [s.pop(0).id for _ in range(4)] == [0, 1, 2, 3]

    def test_central_queue_shared(self):
        s = PrioScheduler()
        s.setup(4)
        s.push(_task(0), 3)  # worker hint is ignored
        assert s.pop(1).id == 0


class TestWorkStealing:
    def test_local_first(self):
        s = WorkStealingScheduler()
        s.setup(2)
        s.push(_task(0), 0)
        s.push(_task(1), 1)
        assert s.pop(1).id == 1  # own queue before stealing

    def test_steals_from_most_loaded(self):
        s = WorkStealingScheduler()
        s.setup(3)
        for i in range(3):
            s.push(_task(i), 0)
        s.push(_task(3), 1)
        # Worker 2 is empty; worker 0 has 3 tasks -> steal from 0.
        stolen = s.pop(2)
        assert stolen.id in (0, 1, 2)

    def test_steal_takes_opposite_end(self):
        s = WorkStealingScheduler()
        s.setup(2)
        for i in range(3):
            s.push(_task(i), 0)
        # Victim would pop 0 next; the thief takes the tail (2).
        assert s.pop(1).id == 2
        assert s.pop(0).id == 0

    def test_source_tasks_round_robin(self):
        s = WorkStealingScheduler()
        s.setup(2)
        s.push(_task(0), None)
        s.push(_task(1), None)
        # Each worker received one source task.
        assert s.pop(0) is not None
        assert s.pop(1) is not None

    def test_empty_pop(self):
        s = WorkStealingScheduler()
        s.setup(2)
        assert s.pop(0) is None

    def test_setup_validation(self):
        with pytest.raises(ValueError):
            WorkStealingScheduler().setup(0)


class TestLocalityWorkStealing:
    def test_local_priority_order(self):
        s = LocalityWorkStealingScheduler()
        s.setup(2)
        s.push(_task(0, prio=1), 0)
        s.push(_task(1, prio=9), 0)
        assert s.pop(0).id == 1

    def test_neighbour_steal_order(self):
        s = LocalityWorkStealingScheduler()
        s.setup(4)
        s.push(_task(0), 2)  # distance 1 from worker 1
        s.push(_task(1), 3)  # distance 2 from worker 1
        assert s.pop(1).id == 0  # nearest neighbour first

    def test_steal_respects_priority(self):
        s = LocalityWorkStealingScheduler()
        s.setup(2)
        s.push(_task(0, prio=1), 1)
        s.push(_task(1, prio=9), 1)
        assert s.pop(0).id == 1

    def test_pending(self):
        s = LocalityWorkStealingScheduler()
        s.setup(3)
        s.push(_task(0), 0)
        s.push(_task(1), 2)
        assert s.pending() == 2

    def test_setup_validation(self):
        with pytest.raises(ValueError):
            LocalityWorkStealingScheduler().setup(0)

