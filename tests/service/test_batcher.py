"""MicroBatcher: size/age dispatch rules, keyed coalescing, drain semantics."""

import threading

import pytest

from repro.service import MicroBatcher


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


@pytest.fixture()
def clock():
    return FakeClock()


class TestDispatchRules:
    def test_full_bucket_dispatches_immediately(self, clock):
        b = MicroBatcher(max_batch=3, max_delay=10.0, clock=clock)
        for i in range(3):
            b.add("k", i)
        assert b.take(timeout=0) == ("k", [0, 1, 2])
        assert len(b) == 0

    def test_underfull_bucket_held_until_max_delay(self, clock):
        b = MicroBatcher(max_batch=8, max_delay=1.0, clock=clock)
        b.add("k", "x")
        assert b.take(timeout=0) is None  # immature
        clock.t = 1.0
        assert b.take(timeout=0) == ("k", ["x"])

    def test_zero_delay_means_singleton_batches(self, clock):
        b = MicroBatcher(max_batch=8, max_delay=0.0, clock=clock)
        b.add("k", 1)
        b.add("k", 2)
        assert b.take(timeout=0) == ("k", [1, 2])

    def test_oversized_bucket_splits(self, clock):
        b = MicroBatcher(max_batch=2, max_delay=0.0, clock=clock)
        for i in range(5):
            b.add("k", i)
        sizes = []
        while True:
            got = b.take(timeout=0)
            if got is None:
                break
            sizes.append(len(got[1]))
        assert sizes == [2, 2, 1]

    def test_split_remainder_keeps_its_oldest_time(self, clock):
        """``max_delay`` bounds every item's wait: the rest of a bucket cut at
        ``max_batch`` matures when the bucket it came from would have."""
        b = MicroBatcher(max_batch=2, max_delay=1.0, clock=clock)
        for i in range(3):
            b.add("k", i)
        clock.t = 0.9
        assert b.take(timeout=0) == ("k", [0, 1])
        clock.t = 1.0
        assert b.take(timeout=0) == ("k", [2])

    def test_keys_do_not_mix(self, clock):
        b = MicroBatcher(max_batch=4, max_delay=0.0, clock=clock)
        b.add("a", 1)
        b.add("b", 2)
        b.add("a", 3)
        batches = {b.take(timeout=0)[0]: None for _ in range(2)}
        assert set(batches) == {"a", "b"}

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            MicroBatcher(max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(max_delay=-1)


class TestSheddingAtFormation:
    """Expired items are dropped while the batch is cut, not after."""

    @staticmethod
    def _expired_before(cutoff):
        return lambda item, now: item < cutoff

    def test_shed_requires_on_shed(self):
        with pytest.raises(ValueError):
            MicroBatcher(shed=lambda item, now: False)

    def test_expired_items_never_reach_a_batch(self, clock):
        shed = []
        b = MicroBatcher(max_batch=8, max_delay=0.0, clock=clock,
                         shed=self._expired_before(10),
                         on_shed=lambda key, item: shed.append((key, item)))
        for item in (1, 20, 2, 30):
            b.add("k", item)
        assert b.take(timeout=0) == ("k", [20, 30])
        assert shed == [("k", 1), ("k", 2)]
        assert len(b) == 0

    def test_dead_items_do_not_occupy_panel_slots(self, clock):
        # With max_batch=2 and a dead item at the head, both live items must
        # still ride the same sweep - the dead one must not push a straggler
        # into the next batch.
        b = MicroBatcher(max_batch=2, max_delay=0.0, clock=clock,
                         shed=self._expired_before(10),
                         on_shed=lambda key, item: None)
        for item in (1, 20, 30):
            b.add("k", item)
        assert b.take(timeout=0) == ("k", [20, 30])
        assert b.take(timeout=0) is None

    def test_all_dead_bucket_is_discarded_and_scan_continues(self, clock):
        shed = []
        b = MicroBatcher(max_batch=8, max_delay=0.0, clock=clock,
                         shed=self._expired_before(10),
                         on_shed=lambda key, item: shed.append(item))
        b.add("dead", 1)
        b.add("dead", 2)
        b.add("live", 40)
        assert b.take(timeout=0) == ("live", [40])
        assert shed == [1, 2]
        assert b.take(timeout=0) is None
        assert len(b) == 0

    def test_shed_uses_formation_time_not_add_time(self, clock):
        # Items healthy at add() but past deadline by formation time are shed:
        # the predicate sees the clock at batch-cut, which is the whole point.
        shed = []
        b = MicroBatcher(max_batch=8, max_delay=5.0, clock=clock,
                         shed=lambda item, now: item < now,
                         on_shed=lambda key, item: shed.append(item))
        b.add("k", 3.0)   # deadline t=3
        b.add("k", 100.0)  # deadline t=100
        assert b.take(timeout=0) is None  # immature, nothing shed yet
        assert shed == []
        clock.t = 5.0  # bucket matures past its deadline for item 3.0
        assert b.take(timeout=0) == ("k", [100.0])
        assert shed == [3.0]


class TestBlockingTake:
    def test_take_wakes_on_full_batch(self):
        b = MicroBatcher(max_batch=2, max_delay=30.0)
        out = []
        t = threading.Thread(target=lambda: out.append(b.take(timeout=5)))
        t.start()
        b.add("k", 1)
        b.add("k", 2)
        t.join(5)
        assert out == [("k", [1, 2])]

    def test_take_times_out_empty(self):
        b = MicroBatcher(max_batch=2, max_delay=30.0)
        assert b.take(timeout=0.05) is None


class TestDrain:
    def test_drain_flushes_underfull_buckets(self, clock):
        b = MicroBatcher(max_batch=8, max_delay=100.0, clock=clock)
        b.add("k", 1)
        assert b.take(timeout=0) is None
        b.drain()
        assert b.take(timeout=0) == ("k", [1])
        assert b.take(timeout=0) is None  # drained + empty -> immediate None

    def test_drain_unblocks_waiting_consumer(self):
        b = MicroBatcher(max_batch=8, max_delay=100.0)
        out = []
        t = threading.Thread(target=lambda: out.append(b.take(timeout=10)))
        t.start()
        b.drain()
        t.join(5)
        assert out == [None]
