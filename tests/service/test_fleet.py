"""ServeFleet: routing determinism/balance/stability, SLO admission, crash
re-routing, and the fleet-vs-single bit-identity guarantee.

The fleet's contract has four legs, each pinned here:

* the consistent-hash router is deterministic and balanced, and a resize
  moves only the removed node's keys;
* admission lanes have private budgets (a saturated batch lane cannot starve
  interactive traffic) and shed unmeetable deadlines with the typed
  :class:`DeadlineUnmeetableError` *at submit time*;
* a crashed worker's queued requests re-route to the survivors without
  losing a single admitted request, and late results from the corpse are
  discarded;
* a fleet solve is bit-identical to a single-service solve against the same
  store — routing and replication never change bits — and a served cold
  build is the library build of the spec's default config (one key, one
  factor).
"""

import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro.core import TileHConfig, TileHMatrix
from repro.geometry import GEOMETRIES, make_kernel
from repro.service import (
    BadRequestError,
    DeadlineExceededError,
    DeadlineUnmeetableError,
    FactorizationStore,
    LaneConfig,
    ProblemSpec,
    QueueFullError,
    ServeFleet,
    ServiceClosedError,
    SolveService,
    spec_fingerprint,
)
from repro.service.fleet import ConsistentHashRouter
from repro.service.problems import rhs_dtype


# -- router -------------------------------------------------------------------


def test_router_deterministic_and_balanced():
    """1k fingerprint-like keys over 4 nodes: same answer on every call and
    every ring instance, with max/min keys per node <= 2 (the acceptance
    criterion for routing balance)."""
    nodes = [f"w{i}" for i in range(4)]
    r1 = ConsistentHashRouter(nodes)
    r2 = ConsistentHashRouter(nodes)
    keys = [spec_fingerprint.__module__ + f":key-{i:04d}" for i in range(1000)]
    owners = [r1.route(k) for k in keys]
    assert owners == [r2.route(k) for k in keys]
    assert owners == [r1.route(k) for k in keys]
    counts = Counter(owners)
    assert set(counts) == set(nodes)
    assert max(counts.values()) / min(counts.values()) <= 2.0, counts


def test_router_resize_moves_only_removed_nodes_keys():
    """Removing one node re-homes exactly that node's keys (~K/N); adding a
    node steals ~K/(N+1) and never reshuffles unrelated keys."""
    nodes = [f"w{i}" for i in range(4)]
    r = ConsistentHashRouter(nodes)
    keys = [f"key-{i}" for i in range(1000)]
    before = {k: r.route(k) for k in keys}
    owned_w2 = [k for k in keys if before[k] == "w2"]

    r.remove("w2")
    after = {k: r.route(k) for k in keys}
    moved = [k for k in keys if before[k] != after[k]]
    assert sorted(moved) == sorted(owned_w2)  # only w2's keys moved
    assert all(after[k] != "w2" for k in keys)

    r.add("w2")
    assert {k: r.route(k) for k in keys} == before  # add is the exact inverse

    r5 = ConsistentHashRouter(nodes + ["w4"])
    stolen = [k for k in keys if r5.route(k) != before[k]]
    assert all(r5.route(k) == "w4" for k in stolen)  # new node only steals
    assert len(stolen) < len(keys) / 2  # ~K/5 in expectation


def test_router_preference_distinct_and_primary_first():
    r = ConsistentHashRouter([f"w{i}" for i in range(4)])
    pref = r.preference("some-key", 3)
    assert len(pref) == len(set(pref)) == 3
    assert pref[0] == r.route("some-key")


def test_router_rejects_bad_ops():
    r = ConsistentHashRouter(["a"])
    with pytest.raises(ValueError):
        r.add("a")
    with pytest.raises(ValueError):
        r.remove("b")
    empty = ConsistentHashRouter()
    with pytest.raises(ValueError):
        empty.route("k")


# -- admission lanes ----------------------------------------------------------


def _gated_provider(solver):
    """A provider that blocks until released (requests stay in flight)."""
    gate = threading.Event()

    def provider(key, spec):
        assert gate.wait(10.0), "test gate never released"
        return solver

    return provider, gate


def test_batch_lane_cannot_starve_interactive(spec, solver, rhs):
    """Saturating the batch lane to its budget raises QueueFullError *for
    batch only* — the interactive lane still admits and completes."""
    provider, gate = _gated_provider(solver)
    fleet = ServeFleet(
        2,
        lanes=(LaneConfig("interactive", max_inflight=4),
               LaneConfig("batch", max_inflight=2)),
        solver_provider=provider,
        max_delay=0.0,
        replicate_hot_after=None,
    )
    try:
        batch = [fleet.submit(spec, rhs, lane="batch") for _ in range(2)]
        with pytest.raises(QueueFullError):
            fleet.submit(spec, rhs, lane="batch")
        interactive = fleet.submit(spec, rhs, lane="interactive")
        gate.set()
        for t in batch + [interactive]:
            assert t.result(timeout=30.0) is not None
        stats = fleet.stats()
        assert stats["lanes"]["batch"]["rejected"] == 1
        assert stats["lanes"]["interactive"]["rejected"] == 0
        assert stats["lanes"]["interactive"]["completed"] == 1
    finally:
        gate.set()
        fleet.close()


def test_unknown_lane_is_bad_request(spec, solver, rhs):
    fleet = ServeFleet(1, solver_provider=lambda k, s: solver,
                       replicate_hot_after=None)
    try:
        with pytest.raises(BadRequestError):
            fleet.submit(spec, rhs, lane="bulk")
    finally:
        fleet.close()


def test_deadline_shedding_is_typed_and_synchronous(spec, solver, rhs):
    """Once the lane has an observed service time, a request whose deadline
    is closer than the estimate is rejected at submit() with
    DeadlineUnmeetableError — a DeadlineExceededError subclass with its own
    wire code, mapped to 429 (retryable) rather than 504 (expired)."""
    fleet = ServeFleet(1, solver_provider=lambda k, s: solver, max_delay=0.0,
                       replicate_hot_after=None)
    try:
        for _ in range(3):  # establish the lane's EWMA service time
            fleet.solve(spec, rhs, lane="interactive")
        assert fleet.stats()["lanes"]["interactive"]["est_service_seconds"] > 0
        with pytest.raises(DeadlineUnmeetableError) as ei:
            fleet.submit(spec, rhs, lane="interactive", timeout=1e-9)
        assert isinstance(ei.value, DeadlineExceededError)
        assert ei.value.code == "deadline_unmeetable"
        assert ei.value.http_status == 429
        stats = fleet.stats()["lanes"]["interactive"]
        assert stats["shed"] == 1
        assert stats["inflight"] == 0  # shed request released its slot
    finally:
        fleet.close()


def test_closed_fleet_rejects(spec, solver, rhs):
    """A request refused after close() counts as a rejection of its lane, as
    a closed SolveService counts it in ``requests.rejected``."""
    fleet = ServeFleet(1, solver_provider=lambda k, s: solver,
                       replicate_hot_after=None)
    fleet.close()
    with pytest.raises(ServiceClosedError):
        fleet.submit(spec, rhs, lane="batch")
    lanes = fleet.stats()["lanes"]
    assert lanes["batch"]["rejected"] == 1
    assert lanes["batch"]["admitted"] == 0
    assert lanes["interactive"]["rejected"] == 0


def test_fleet_admits_a_request_once(spec, solver, rhs, monkeypatch):
    """The fleet checks a request's rhs and computes its key once; the shard
    enqueues what the fleet admitted.  Typed rejections are unchanged."""
    from repro.service import fleet as fleet_module
    from repro.service import pipeline as pipeline_module

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (fleet_module, pipeline_module):
        for name in ("check_rhs", "spec_fingerprint"):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    provider, gate = _gated_provider(solver)
    fleet = ServeFleet(1, solver_provider=provider, max_queue=1,
                       replicate_hot_after=None)
    try:
        ticket = fleet.submit(spec, rhs)
        assert calls == {"check_rhs": 1, "spec_fingerprint": 1}
        with pytest.raises(QueueFullError):  # the shard's admission is full
            fleet.submit(spec, rhs)
        with pytest.raises(BadRequestError):
            fleet.submit(spec, rhs[:-1])
        gate.set()
        np.testing.assert_array_equal(ticket.result(timeout=30.0), solver.solve(rhs))
        assert fleet.stats()["lanes"]["interactive"]["rejected"] == 1
    finally:
        gate.set()
        fleet.close()


# -- crash re-routing ---------------------------------------------------------


def test_crashed_worker_requests_reroute_without_loss(spec, solver, rhs):
    """Kill the worker that owns the fingerprint while its requests are in
    flight: every admitted ticket still resolves, bit-identical to a healthy
    solve, and new requests for the key route to a survivor."""
    key = spec_fingerprint(spec)
    fleet = ServeFleet(2, solver_provider=lambda k, s: solver, max_delay=0.0,
                       replicate_hot_after=None)
    try:
        victim = fleet.worker_for(key)
        gate = threading.Event()

        def blocking_provider(k, s):
            assert gate.wait(10.0)
            return solver

        # Only the victim blocks; the survivor serves normally.
        fleet._workers[victim].service._provider = blocking_provider

        tickets = [fleet.submit(spec, rhs) for _ in range(4)]
        deadline = time.monotonic() + 5.0
        while fleet._workers[victim].service.queue_depth() < 4:
            assert time.monotonic() < deadline, "requests never reached victim"
            time.sleep(0.005)

        fleet.fail_worker(victim)
        reference = solver.solve(rhs)
        results = [t.result(timeout=30.0) for t in tickets]
        gate.set()  # release the corpse *after* the survivors answered
        for x in results:
            np.testing.assert_array_equal(x, reference)

        stats = fleet.stats()
        assert stats["healthy_workers"] == 1
        assert stats["failed_workers"] == 1
        assert stats["requeues"] >= 4
        lanes = stats["lanes"]["interactive"]
        assert lanes["completed"] == 4 and lanes["failed"] == 0

        assert fleet.worker_for(key) != victim
        np.testing.assert_array_equal(fleet.solve(spec, rhs), reference)
        assert fleet.fail_worker(victim) is None  # idempotent
    finally:
        gate.set()
        fleet.close()


def test_stale_resolution_from_corpse_is_discarded(spec, solver, rhs):
    """Release the dead worker's gate while the re-homed copies are still
    blocked: the corpse resolves first, but its answers must be discarded
    and the tickets must wait for the authoritative re-dispatch."""
    key = spec_fingerprint(spec)
    fleet = ServeFleet(2, solver_provider=lambda k, s: solver, max_delay=0.0,
                       replicate_hot_after=None)
    try:
        victim = fleet.worker_for(key)
        survivor = 1 - victim
        victim_gate = threading.Event()
        survivor_gate = threading.Event()

        def make_provider(gate):
            def provider(k, s):
                assert gate.wait(10.0)
                return solver
            return provider

        fleet._workers[victim].service._provider = make_provider(victim_gate)
        fleet._workers[survivor].service._provider = make_provider(survivor_gate)

        ticket = fleet.submit(spec, rhs)
        deadline = time.monotonic() + 5.0
        while fleet._workers[victim].service.queue_depth() < 1:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        fleet.fail_worker(victim)
        victim_gate.set()  # corpse finishes first...
        time.sleep(0.05)
        assert not ticket.done()  # ...but its resolution must not count
        survivor_gate.set()
        np.testing.assert_array_equal(ticket.result(timeout=30.0), solver.solve(rhs))
    finally:
        victim_gate.set()
        survivor_gate.set()
        fleet.close()


# -- bit-identity and shared store -------------------------------------------


def test_fleet_solve_bit_identical_to_single_service(spec, rhs, tmp_path):
    """Fleet and single service over the same on-disk store answer with the
    same bits — whichever side pays the cold build."""
    fleet = ServeFleet(3, store_root=tmp_path, max_delay=0.0,
                       replicate_hot_after=None)
    try:
        x_fleet = fleet.solve(spec, rhs)  # cold: fleet builds + persists
        single = SolveService(FactorizationStore(tmp_path, mmap=True),
                              max_delay=0.0)
        try:
            x_single = single.solve(spec, rhs)
        finally:
            single.close()
        np.testing.assert_array_equal(x_fleet, x_single)
        np.testing.assert_array_equal(fleet.solve(spec, rhs), x_fleet)
    finally:
        fleet.close()
    assert spec_fingerprint(spec) in fleet.keys()


def test_burst_of_one_key_rides_one_sweep_per_shard(spec, solver, rhs):
    """A default fleet's shards batch up to their admission capacity: 40
    requests of one key queued behind its busy shard ride one sweep of 40,
    each answer the bits of a standalone solve."""
    gate, entered = threading.Event(), threading.Event()

    def provider(k, s):
        entered.set()
        assert gate.wait(10.0)
        return solver

    fleet = ServeFleet(2, solver_provider=provider, clock=lambda: 0.0)
    rng = np.random.default_rng(5)
    burst = [rng.standard_normal(spec.n) for _ in range(40)]
    try:
        first = fleet.submit(spec, rhs)
        assert entered.wait(10.0)  # went out alone; the key's shard is busy
        tickets = [fleet.submit(spec, b) for b in burst]
        gate.set()
        np.testing.assert_array_equal(first.result(timeout=30.0), solver.solve(rhs))
        for t, b in zip(tickets, burst):
            np.testing.assert_array_equal(t.result(timeout=30.0), solver.solve(b))
        shard = fleet.worker_stats()[fleet.worker_for(spec_fingerprint(spec))]
    finally:
        gate.set()
        fleet.close()
    assert (shard["batch_size"]["count"], shard["batch_size"]["max"]) == (2, 40)


ONE_KEY_SPECS = [
    ProblemSpec(kernel="laplace", n=300, nb=100, eps=1e-6, leaf_size=48),
    ProblemSpec(kernel="helmholtz", n=128, nb=64, eps=1e-4, leaf_size=32),
    ProblemSpec(kernel="sqexp", n=200, nb=100, eps=1e-6, leaf_size=48, kind="gp",
                length=0.3, signal=1.0, noise=0.05),
]


@pytest.mark.parametrize("spec", ONE_KEY_SPECS, ids=lambda s: f"{s.kernel}-{s.method}")
def test_one_key_gives_one_factor(spec):
    """A served cold build is the library build of the spec's default
    TileHConfig: a single service and a 2-shard fleet, each building the key
    itself, answer with the bits of ``TileHMatrix.build_factorize``."""
    points = GEOMETRIES[spec.geometry](spec.n)
    if spec.kind == "gp":
        kernel = make_kernel(spec.kernel, points, length=spec.length,
                             signal=spec.signal, nugget=spec.noise**2)
    else:
        kernel = make_kernel(spec.kernel, points)
    config = TileHConfig(nb=spec.effective_nb, eps=spec.eps, leaf_size=spec.leaf_size)
    reference, _ = TileHMatrix.build_factorize(kernel, points, config, method=spec.method)
    rng = np.random.default_rng(5)
    b = rng.standard_normal(spec.n)
    if rhs_dtype(spec).kind == "c":
        b = b + 1j * rng.standard_normal(spec.n)
    expected = reference.solve(b)

    with SolveService(workers=1, max_delay=0.0) as single:
        np.testing.assert_array_equal(single.solve(spec, b), expected)
    fleet = ServeFleet(2, max_delay=0.0, replicate_hot_after=None)
    try:
        np.testing.assert_array_equal(fleet.solve(spec, b), expected)
    finally:
        fleet.close()


def test_restart_answers_equal_cold_answers_exactly(tmp_path):
    """The benchmark's ``serve_mix`` reload phase, with its frozen 1e-8
    tolerance replaced by equality: a fleet builds a real, a complex and a GP
    key (serving each from the factor it built), and a fresh fleet over the
    same root answers its first request per key — a mapped disk hit — with
    exactly the same bits."""
    specs = [
        ProblemSpec(kernel="laplace", n=300, nb=100, eps=1e-6),
        ProblemSpec(kernel="helmholtz", n=128, nb=64, eps=1e-4),
        ProblemSpec(kernel="sqexp", n=200, nb=100, eps=1e-6, kind="gp",
                    length=0.3, signal=1.0, noise=0.05),
    ]
    rng = np.random.default_rng(11)
    rhss = []
    for s in specs:
        b = rng.standard_normal(s.n)
        rhss.append(b + 1j * rng.standard_normal(s.n) if rhs_dtype(s).kind == "c" else b)

    def answers():
        fleet = ServeFleet(2, store_root=tmp_path, max_delay=0.0, replicate_hot_after=None)
        try:
            xs = [fleet.solve(s, b) for s, b in zip(specs, rhss)]
            return xs, [w.store.stats() for w in fleet._workers]
        finally:
            fleet.close()

    cold, cold_stats = answers()
    assert sum(st["misses"] for st in cold_stats) == len(specs)
    assert sorted(p.suffix for p in tmp_path.iterdir()) == [".tileh"] * len(specs)
    warm, warm_stats = answers()
    assert sum(st["misses"] for st in warm_stats) == 0, "a restart must not rebuild"
    assert sum(st["hits"] for st in warm_stats) == len(specs)
    for x_cold, x_warm in zip(cold, warm):
        np.testing.assert_array_equal(x_warm, x_cold)


def test_hot_key_replication_keeps_bits(spec, rhs, tmp_path):
    """Once a fingerprint goes hot it is served by several workers; every
    replica answers bit-identically to the primary."""
    fleet = ServeFleet(2, store_root=tmp_path, max_delay=0.0,
                       replicate_hot_after=3, replicas=2)
    try:
        reference = fleet.solve(spec, rhs)
        for _ in range(2):
            fleet.solve(spec, rhs)  # crosses the hot threshold
        deadline = time.monotonic() + 10.0
        while fleet.stats()["replication"]["hot_keys"] < 1:
            assert time.monotonic() < deadline, "replication never happened"
            time.sleep(0.01)
        for _ in range(8):  # these spread over the replicas
            np.testing.assert_array_equal(fleet.solve(spec, rhs), reference)
        assert fleet.stats()["replication"]["replicated_loads"] >= 2
    finally:
        fleet.close()


def test_fleet_stats_fit_report_schema(spec, solver, rhs):
    """fleet.stats() must drop into build_run_report(fleet=...) unchanged."""
    from repro.obs import build_run_report, validate_report

    fleet = ServeFleet(2, solver_provider=lambda k, s: solver,
                       replicate_hot_after=None)
    try:
        fleet.solve(spec, rhs, lane="interactive")
        fleet.solve(spec, rhs, lane="batch")
        report = build_run_report(meta={"mode": "test"}, fleet=fleet.stats())
        assert validate_report(report) == []
        assert report["fleet"]["lanes"]["interactive"]["completed"] == 1
    finally:
        fleet.close()
