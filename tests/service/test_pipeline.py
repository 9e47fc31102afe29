"""SolveService: batching correctness, backpressure, deadlines, retries, drain."""

import contextlib
import threading
import time
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from repro.obs import Instrumentation
from repro.obs.report import build_run_report, validate_report
from repro.service import (
    BadRequestError,
    DeadlineExceededError,
    DeadlineUnmeetableError,
    FactorizationStore,
    LaneConfig,
    MicroBatcher,
    QueueFullError,
    ServeFleet,
    ServiceClosedError,
    SolveService,
    TransientSolveError,
)


@contextlib.contextmanager
def _warm(solver):
    """A service whose provider returns the prebuilt solver instantly."""
    svc = SolveService(
        FactorizationStore(), workers=2, max_batch=8, max_delay=0.005,
        solver_provider=lambda k, s: solver,
    )
    try:
        yield svc
    finally:
        svc.close()


@pytest.fixture()
def warm_service(solver, key):
    with _warm(solver) as svc:
        yield svc


class TestBatchedCorrectness:
    def test_concurrent_requests_bit_identical(self, warm_service, solver, spec):
        rng = np.random.default_rng(1)
        rhs = [rng.standard_normal(spec.n) for _ in range(10)]
        refs = [solver.solve(b) for b in rhs]
        tickets = [warm_service.submit(spec, b) for b in rhs]
        for t, r in zip(tickets, refs):
            assert np.array_equal(t.result(timeout=30), r)
        st = warm_service.stats()
        assert st["requests"]["completed"] == 10
        assert st["batch_size"]["count"] >= 1

    def test_sync_solve(self, warm_service, solver, spec, rhs):
        assert np.array_equal(warm_service.solve(spec, rhs), solver.solve(rhs))

    def test_bad_rhs_rejected_synchronously(self, warm_service, spec):
        with pytest.raises(BadRequestError):
            warm_service.submit(spec, np.ones(spec.n + 1))
        with pytest.raises(BadRequestError):
            warm_service.submit(spec, np.ones((spec.n, 2)))
        with pytest.raises(BadRequestError):
            warm_service.submit(spec, np.full(spec.n, np.nan))
        assert warm_service.stats()["requests"]["admitted"] == 0

    def test_noncontiguous_complex_rhs(self, zspec, zsolver, zpanel):
        # A column of a C-ordered complex panel used to die in check_rhs with
        # numpy's "last axis must be contiguous" ValueError.
        col = zpanel[:, 1]
        assert not col.flags.c_contiguous
        with _warm(zsolver) as svc:
            x = svc.solve(zspec, col)
            assert np.array_equal(x, zsolver.solve(np.ascontiguousarray(col)))
            for bad in (np.nan, 1j * np.inf):
                zpanel[5, 1] = bad
                with pytest.raises(BadRequestError, match="non-finite"):
                    svc.submit(zspec, col)

    def test_bad_spec_rejected(self, warm_service, rhs):
        with pytest.raises(BadRequestError):
            warm_service.submit({"kernel": "nope", "n": 300}, rhs)


class TestBackpressure:
    def test_queue_full_rejects_not_blocks(self, solver, spec, rhs):
        gate = threading.Event()

        def blocked_provider(k, s):
            gate.wait(30)
            return solver

        svc = SolveService(
            FactorizationStore(), workers=1, max_queue=2, max_batch=1,
            max_delay=0.0, solver_provider=blocked_provider,
        )
        try:
            t1 = svc.submit(spec, rhs)
            t2 = svc.submit(spec, rhs)
            t0 = time.monotonic()
            with pytest.raises(QueueFullError):
                svc.submit(spec, rhs)
            # the rejection is immediate backpressure, not a timeout
            assert time.monotonic() - t0 < 0.5
            st = svc.stats()
            assert st["requests"]["rejected"] == 1
            gate.set()
            assert t1.result(timeout=30) is not None
            assert t2.result(timeout=30) is not None
        finally:
            gate.set()
            svc.close()
        # admitted work was never dropped
        final = svc.stats()
        assert final["requests"]["completed"] == 2
        assert final["queue"]["capacity"] == 2

    def test_capacity_frees_after_completion(self, warm_service, spec, rhs):
        small = SolveService(
            FactorizationStore(), workers=1, max_queue=1, max_batch=1,
            max_delay=0.0, solver_provider=warm_service._provider,
        )
        try:
            small.submit(spec, rhs).result(timeout=30)
            small.submit(spec, rhs).result(timeout=30)  # slot was released
        finally:
            small.close()


class FrozenClock:
    """A service clock that never advances: ``max_delay`` cannot mature."""

    t = 0.0

    def __call__(self):
        return self.t


class TestHoldRule:
    """A bucket waits only while something outstanding could still join it.

    Every service here runs on a frozen clock with ``max_delay=10.0``: under
    the age rule alone nothing below would ever be dispatched.
    """

    @staticmethod
    def _service(provider, *, workers=1):
        return SolveService(
            FactorizationStore(), workers=workers, max_batch=8, max_delay=10.0,
            solver_provider=provider, clock=FrozenClock(),
        )

    def test_lone_request_never_waits(self, solver, spec, rhs):
        svc = self._service(lambda k, s: solver)
        try:
            x = svc.submit(spec, rhs).result(timeout=10)
            assert np.array_equal(x, solver.solve(rhs))
        finally:
            svc.close()

    def test_burst_behind_a_busy_worker_rides_one_sweep(self, solver, spec, rhs):
        gate, entered = threading.Event(), threading.Event()

        def blocked_provider(k, s):
            entered.set()
            gate.wait(30)
            return solver

        svc = self._service(blocked_provider)
        rng = np.random.default_rng(3)
        later_rhs = [rng.standard_normal(spec.n) for _ in range(5)]
        try:
            first = svc.submit(spec, rhs)
            assert entered.wait(10)  # went out alone; the only worker is now busy
            later = [svc.submit(spec, b) for b in later_rhs]
            gate.set()
            assert first.result(timeout=10) is not None
            for t, b in zip(later, later_rhs):
                assert np.array_equal(t.result(timeout=10), solver.solve(b))
        finally:
            gate.set()
            svc.close()
        st = svc.stats()
        widths = st["batch_size"]
        assert (widths["count"], widths["sum"], widths["max"]) == (2, 6, 5)
        req = st["requests"]
        assert req["admitted"] == req["completed"] + req["failed"] == 6

    def test_held_request_goes_out_when_the_in_flight_one_resolves(self, solver, spec, rhs):
        gate, entered = threading.Event(), threading.Event()

        def first_call_blocks(k, s):
            if not entered.is_set():
                entered.set()
                gate.wait(30)
            return solver

        # Two workers: the second one is idle and looking at the batcher the
        # whole time, so only the hold rule keeps it off the other key.
        svc = self._service(first_call_blocks, workers=2)
        order = []
        try:
            first = svc.submit(spec, rhs)
            assert entered.wait(10)
            second = svc.submit(replace(spec, eps=2 * spec.eps), rhs)
            first.add_done_callback(lambda t: order.append("first"))
            second.add_done_callback(lambda t: order.append("second"))
            gate.set()
            assert second.result(timeout=10) is not None
        finally:
            gate.set()
            svc.close()
        assert order == ["first", "second"]
        assert svc.stats()["batch_size"]["count"] == 2

    def test_burst_of_one_key_rides_one_sweep_at_the_default_width(self, solver, spec, rhs):
        """``max_batch`` defaults to ``max_queue``: 40 requests queued behind
        a busy worker leave in one sweep of 40, each answer the bits of a
        standalone solve."""
        gate, entered = threading.Event(), threading.Event()

        def blocked_provider(k, s):
            entered.set()
            gate.wait(30)
            return solver

        svc = SolveService(FactorizationStore(), solver_provider=blocked_provider,
                           clock=FrozenClock())
        rng = np.random.default_rng(4)
        burst = [rng.standard_normal(spec.n) for _ in range(40)]
        try:
            first = svc.submit(spec, rhs)
            assert entered.wait(10)  # went out alone; its worker is now busy
            tickets = [svc.submit(spec, b) for b in burst]
            gate.set()
            assert np.array_equal(first.result(timeout=30), solver.solve(rhs))
            for t, b in zip(tickets, burst):
                assert np.array_equal(t.result(timeout=30), solver.solve(b))
        finally:
            gate.set()
            svc.close()
        widths = svc.stats()["batch_size"]
        assert (widths["count"], widths["max"]) == (2, 40)

    def test_lone_traced_request_has_no_batch_wait_span(self, solver, spec, rhs):
        with Instrumentation(trace_capacity=4) as probe:
            svc = SolveService(
                FactorizationStore(), workers=1, max_delay=0.05,
                solver_provider=lambda k, s: solver,
            )
            svc.solve(spec, rhs)
            svc.close()
        (trace,) = probe.tracer.traces()
        names = [s["name"] for s in trace["spans"]]
        assert "queue-wait" in names and "solve" in names
        assert "batch-wait" not in names

    def test_batcher_hook(self):
        clock, waits = FrozenClock(), []
        outstanding = [2]
        b = MicroBatcher(
            max_batch=8, max_delay=10.0, clock=clock,
            outstanding=lambda: outstanding[0],
            on_batch=lambda key, items, waited: waits.append(waited),
        )
        b.add("k", "x")
        assert b.take(timeout=0) is None  # one of the two could still join
        clock.t = 3.0
        outstanding[0] = 1
        assert b.take(timeout=0) == ("k", ["x"])
        b.add("k", "y")
        assert b.take(timeout=0) == ("k", ["y"])
        assert waits == [3.0, 0.0]  # held for 3 s; never held

    def test_shed_during_the_scan_is_seen_by_the_same_take(self):
        # "b" fills up with dead items; shedding them leaves "a" holding
        # everything outstanding, and the take that shed them hands it out.
        outstanding = [3]

        def on_shed(key, item):
            outstanding[0] -= 1

        b = MicroBatcher(
            max_batch=2, max_delay=10.0, clock=FrozenClock(),
            shed=lambda item, now: item < 0, on_shed=on_shed,
            outstanding=lambda: outstanding[0],
        )
        b.add("a", 1)
        b.add("b", -1)
        b.add("b", -2)
        assert b.take(timeout=0) == ("a", [1])


class TestDeadlines:
    def test_expired_request_gets_typed_error(self, solver, spec, rhs):
        gate = threading.Event()
        first_taken = threading.Event()

        def slow_provider(k, s):
            first_taken.set()
            gate.wait(30)
            return solver

        svc = SolveService(
            FactorizationStore(), workers=1, max_batch=1, max_delay=0.0,
            solver_provider=slow_provider,
        )
        try:
            t1 = svc.submit(spec, rhs)  # occupies the only worker
            assert first_taken.wait(10)
            t2 = svc.submit(spec, rhs, timeout=0.01)  # will expire in the queue
            time.sleep(0.1)
            gate.set()
            assert t1.result(timeout=30) is not None
            with pytest.raises(DeadlineExceededError):
                t2.result(timeout=30)
            st = svc.stats()
            assert st["requests"]["expired"] == 1
            assert st["requests"]["failed"] == 1
        finally:
            gate.set()
            svc.close()


class TestRetries:
    def test_transient_failures_retried(self, solver, spec, rhs):
        attempts = []

        def flaky(k, s):
            attempts.append(1)
            if len(attempts) <= 2:
                raise TransientSolveError("simulated store race")
            return solver

        svc = SolveService(
            FactorizationStore(), workers=1, max_retries=2, max_batch=1,
            max_delay=0.0, solver_provider=flaky,
        )
        try:
            x = svc.submit(spec, rhs).result(timeout=30)
            assert np.array_equal(x, solver.solve(rhs))
            st = svc.stats()
            assert st["requests"]["retries"] == 2
            assert st["requests"]["completed"] == 1
            assert st["requests"]["failed"] == 0
        finally:
            svc.close()

    def test_retries_exhausted_fails_typed(self, spec, rhs):
        def always_transient(k, s):
            raise TransientSolveError("never recovers")

        svc = SolveService(
            FactorizationStore(), workers=1, max_retries=1, max_batch=1,
            max_delay=0.0, solver_provider=always_transient,
        )
        try:
            with pytest.raises(TransientSolveError):
                svc.submit(spec, rhs).result(timeout=30)
            st = svc.stats()
            assert st["requests"]["retries"] == 1
            assert st["requests"]["failed"] == 1
        finally:
            svc.close()

    def test_nontransient_fails_without_retry(self, spec, rhs):
        calls = []

        def broken(k, s):
            calls.append(1)
            raise RuntimeError("permanent")

        svc = SolveService(
            FactorizationStore(), workers=1, max_retries=3, max_batch=1,
            max_delay=0.0, solver_provider=broken,
        )
        try:
            with pytest.raises(RuntimeError):
                svc.submit(spec, rhs).result(timeout=30)
            assert len(calls) == 1
            assert svc.stats()["requests"]["retries"] == 0
        finally:
            svc.close()


class TestDrain:
    def test_close_completes_all_admitted(self, solver, spec):
        svc = SolveService(
            FactorizationStore(), workers=2, max_batch=4, max_delay=0.05,
            solver_provider=lambda k, s: solver,
        )
        rng = np.random.default_rng(2)
        tickets = [svc.submit(spec, rng.standard_normal(spec.n)) for _ in range(9)]
        svc.close()  # graceful drain: every admitted request resolves
        assert all(t.done() for t in tickets)
        assert all(t.result() is not None for t in tickets)
        assert svc.stats()["requests"]["completed"] == 9

    def test_closed_service_rejects(self, warm_service, spec, rhs):
        warm_service.close()
        with pytest.raises(ServiceClosedError):
            warm_service.submit(spec, rhs)

    def test_close_idempotent(self, warm_service):
        warm_service.close()
        warm_service.close()

    def test_context_manager(self, solver, spec, rhs):
        with SolveService(
            FactorizationStore(), workers=1, solver_provider=lambda k, s: solver
        ) as svc:
            t = svc.submit(spec, rhs)
        assert t.done()


class TestWarmStoreSkipsFactorization:
    def test_store_hit_skips_build(self, solver, spec, key, rhs, tmp_path):
        # Prime the disk store, then serve from a cold process-equivalent:
        # the request must be a store *hit* with zero misses -> the expensive
        # factorization never ran.
        FactorizationStore(tmp_path).put(key, solver)
        svc = SolveService(FactorizationStore(tmp_path), workers=1)
        x = svc.solve(spec, rhs)
        svc.close()
        assert np.array_equal(x, solver.solve(rhs))
        assert svc.stats()["store"]["hits"] == 1
        assert svc.stats()["store"]["misses"] == 0

    def test_cold_start_is_a_miss(self, spec, rhs, tmp_path):
        svc = SolveService(FactorizationStore(tmp_path), workers=1)
        svc.solve(spec, rhs)
        svc.close()
        assert svc.stats()["store"]["misses"] == 1


class TestStatsAndReport:
    def test_stats_shape(self, warm_service, spec, rhs):
        warm_service.solve(spec, rhs)
        st = warm_service.stats()
        assert st["workers"] == 2
        assert st["latency_seconds"]["count"] == 1
        assert "p50" in st["latency_seconds"] and "p95" in st["latency_seconds"]
        assert st["queue"]["depth_peak"] >= 1

    def test_report_integration(self, solver, spec, rhs):
        with Instrumentation() as probe:
            svc = SolveService(
                FactorizationStore(), workers=1, solver_provider=lambda k, s: solver
            )
            svc.solve(spec, rhs)
            svc.close()
        report = build_run_report(probe=probe, meta={"t": "svc"}, service=svc.stats())
        assert validate_report(report) == []
        assert report["service"]["requests"]["completed"] == 1


@pytest.mark.parametrize("lane", [None, "interactive", "batch"])
def test_counts_reconcile_from_the_one_record(lane, solver, spec, rhs):
    """``stats()`` alone reconciles, for a service (``lane=None``) and for
    every lane of a fleet: after ``close()`` nothing is in flight, admitted =
    completed + failed, expired <= failed, and every submit that raised is
    counted as rejected or shed.  Driven through one transient retry, a
    queue-full rejection, an expired deadline, an admission shed (fleet
    lanes) and a rejection after close."""
    clock = FrozenClock()
    entered, gate = threading.Event(), threading.Event()
    calls = []

    def provider(k, s):
        calls.append(k)
        if len(calls) == 1:
            raise TransientSolveError("transient store fault")
        entered.set()
        gate.wait(30)
        return solver

    if lane is None:
        target = SolveService(
            FactorizationStore(), workers=1, max_queue=2, max_delay=0.0,
            max_retries=1, solver_provider=provider, clock=clock,
        )
        submit = target.submit
    else:
        target = ServeFleet(
            2, lanes=(LaneConfig("interactive", max_inflight=2),
                      LaneConfig("batch", max_inflight=2)),
            max_delay=0.0, max_retries=1, solver_provider=provider, clock=clock,
        )
        submit = partial(target.submit, lane=lane)
    raised = 0
    try:
        first = submit(spec, rhs)  # retried once, then held at the gate
        assert entered.wait(10)
        late = submit(spec, rhs, timeout=1.0)  # queued behind it
        with pytest.raises(QueueFullError):
            submit(spec, rhs)
        raised += 1
        clock.t += 5.0  # the queued request's deadline passes
        gate.set()
        assert np.array_equal(first.result(timeout=10), solver.solve(rhs))
        with pytest.raises(DeadlineExceededError):
            late.result(timeout=10)
        if lane is not None:
            # The lane now serves in ~5 s: a 1 s deadline is shed at admission.
            with pytest.raises(DeadlineUnmeetableError):
                submit(spec, rhs, timeout=1.0)
            raised += 1
    finally:
        gate.set()
        target.close()
    with pytest.raises(ServiceClosedError):
        submit(spec, rhs)
    raised += 1

    if lane is None:
        stats = target.stats()
        records = {None: dict(stats["requests"], inflight=target.queue_depth(),
                              recorded=stats["latency_seconds"]["count"])}
        retries = stats["requests"]["retries"]
    else:
        records = {name: dict(rec, recorded=target._lanes[name].latency.summary()["count"])
                   for name, rec in target.stats()["lanes"].items()}
        retries = sum(st["requests"]["retries"] for st in target.worker_stats())
    for name, rec in records.items():
        assert rec["inflight"] == 0
        assert rec["admitted"] == rec["completed"] + rec["failed"]
        assert rec["expired"] <= rec["failed"]
        assert rec["recorded"] == rec["completed"]
    rec = records[lane]
    assert (rec["admitted"], rec["completed"], rec["failed"], rec["expired"]) == (2, 1, 1, 1)
    assert rec["rejected"] + rec.get("shed", 0) == raised
    assert retries == 1
    assert target.queue_depth() == 0


@pytest.mark.parametrize("n", [1, 2, 3, 7, 100])
def test_stats_and_lane_windows_rank_the_same_latencies_alike(n, solver, spec, rhs):
    """The same ``n`` latencies, served by a service and by a fleet lane:
    ``stats()`` (the run report's p50/p95/p99 and the lane's ``p*_ms``) and
    ``lane_windows()`` (the ``/metrics`` window) report the same values."""
    # Multiples of 2**-10 s: every clock reading and difference is exact.
    latencies = (np.random.default_rng(n).permutation(n) + 1) / 1024
    clock = FrozenClock()
    it = iter([])

    def provider(k, s):
        clock.t += next(it)  # the solve "takes" the next latency
        return solver

    svc = SolveService(FactorizationStore(), workers=1, max_delay=0.0,
                       solver_provider=provider, clock=clock)
    fleet = ServeFleet(1, max_delay=0.0, solver_provider=provider, clock=clock)
    try:
        for target in (svc, fleet):
            clock.t, it = 0.0, iter(latencies)
            for _ in range(n):
                target.solve(spec, rhs)
        stats, window = svc.stats()["latency_seconds"], svc.lane_windows()["default"]
        lane = fleet.stats()["lanes"]["interactive"]
        lane_window = fleet.lane_windows()["interactive"]
        ranked = np.sort(latencies)
        for q in ("p50", "p95", "p99"):
            assert stats[q] == window[q] == lane_window[q]
            assert lane[f"{q}_ms"] == lane_window[q] * 1e3
            assert stats[q] in ranked
        assert stats["count"] == window["count"] == lane_window["count"] == n
    finally:
        svc.close()
        fleet.close()


class TestDoneCallbacks:
    def test_a_raising_callback_is_reported_and_the_worker_lives_on(
        self, solver, spec, rhs, capsys
    ):
        gate = threading.Event()

        def provider(k, s):
            gate.wait(30)
            return solver

        svc = SolveService(
            FactorizationStore(), workers=1, max_delay=0.0, solver_provider=provider
        )
        after = []
        try:
            first = svc.submit(spec, rhs)
            first.add_done_callback(lambda t: 1 / 0)
            first.add_done_callback(after.append)
            gate.set()
            first.result(5)
            # The one worker survived its callback: the next request is answered.
            assert np.array_equal(svc.submit(spec, rhs).result(5), solver.solve(rhs))
            # Already resolved: the callback runs on this thread, guarded alike.
            first.add_done_callback(lambda t: 1 / 0)
        finally:
            gate.set()
            svc.close()
        assert after == [first]
        err = capsys.readouterr().err
        assert err.count("ZeroDivisionError") == 2 and "exception calling callback" in err
