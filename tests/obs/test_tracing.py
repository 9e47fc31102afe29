"""Request-tracing tests: span collection, ring buffer, ambient propagation,
chrome-trace export, and the cross-shard fleet x process acceptance path."""

import json
import time

import numpy as np
import pytest

from repro.obs import (
    Instrumentation,
    RequestTracer,
    TraceContext,
    current_trace,
    export_request_chrome_trace,
)
from repro.service.fleet import LaneConfig, ServeFleet
from repro.service.pipeline import SolveService
from repro.service.problems import ProblemSpec, spec_fingerprint
from repro.service.store import FactorizationStore


class TestTraceContext:
    def test_spans_record_relative_to_start(self):
        ctx = TraceContext("key1", "interactive")
        t0 = time.perf_counter()
        ctx.add_span("solve", t0, t0 + 0.25, worker="w0", batch=3)
        d = ctx.to_dict()
        assert d["key"] == "key1" and d["lane"] == "interactive"
        assert d["outcome"] == "pending"
        (s,) = d["spans"]
        assert s["name"] == "solve" and s["worker"] == "w0"
        assert s["t1"] - s["t0"] == pytest.approx(0.25)
        assert s["meta"] == {"batch": 3}

    def test_span_cap_counts_drops(self):
        ctx = TraceContext()
        for i in range(520):
            ctx.add_span(f"s{i}", 0.0, 1.0)
        assert len(ctx.spans) == 512
        assert ctx.dropped_spans == 8
        assert ctx.to_dict()["dropped_spans"] == 8

    def test_activate_restores_previous(self):
        outer, inner = TraceContext(), TraceContext()
        assert current_trace() is None
        with outer.activate():
            assert current_trace() is outer
            with inner.activate():
                assert current_trace() is inner
            assert current_trace() is outer
        assert current_trace() is None

    def test_finish_is_idempotent(self):
        tracer = RequestTracer(capacity=4)
        ctx = tracer.start("k")
        ctx.finish("ok")
        ctx.finish("late")  # second finish must not double-complete
        assert tracer.completed == 1
        assert tracer.traces()[0]["outcome"] == "ok"


class TestRequestTracer:
    def test_disabled_returns_none(self):
        tracer = RequestTracer(capacity=0)
        assert not tracer.enabled
        assert tracer.start("k") is None

    def test_ring_evicts_oldest(self):
        tracer = RequestTracer(capacity=2)
        ids = []
        for i in range(3):
            ctx = tracer.start(f"k{i}")
            ids.append(ctx.trace_id)
            ctx.finish()
        assert tracer.completed == 3 and tracer.evicted == 1
        kept = [t["trace_id"] for t in tracer.traces()]
        assert kept == ids[1:]
        assert tracer.get(ids[0]) is None
        assert tracer.get(ids[2])["trace_id"] == ids[2]

    def test_phase_totals_and_slowest(self):
        tracer = RequestTracer(capacity=8)
        fast = tracer.start("fast", lane="interactive")
        fast.add_span("solve", fast.start, fast.start + 0.01)
        fast.finish()
        slow = tracer.start("slow", lane="interactive")
        slow.add_span("solve", slow.start, slow.start + 0.02)
        slow.add_span("build", slow.start, slow.start + 0.5)
        time.sleep(0.002)
        slow.finish()
        phases = tracer.phase_totals()
        assert phases["solve"]["count"] == 2
        assert phases["solve"]["seconds"] == pytest.approx(0.03, rel=0.05)
        assert tracer.slowest_per_lane()["interactive"]["key"] == "slow"
        rep = tracer.report()
        assert rep["capacity"] == 8 and rep["completed"] == 2
        assert len(rep["recent"]) == 2


class TestChromeExport:
    def test_empty_raises(self, tmp_path):
        with pytest.raises(ValueError):
            export_request_chrome_trace([], tmp_path / "t.json")

    def test_lanes_and_counters(self, tmp_path):
        tracer = RequestTracer(capacity=4)
        ctx = tracer.start("k", lane="batch")
        ctx.add_span("queue-wait", ctx.start, ctx.start + 0.001)
        ctx.add_span("solve", ctx.start + 0.001, ctx.start + 0.01, worker="w0")
        ctx.finish()
        path = export_request_chrome_trace(
            tracer.traces(),
            tmp_path / "t.json",
            counters={"service_queue_depth[w0]": [(0.0, 1.0), (0.01, 0.0)]},
            counters_origin=ctx.start,
            metadata={"scenario": "unit"},
        )
        doc = json.loads(path.read_text())
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {"request", "w0"}  # no-worker spans get their own lane
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in xs} == {"queue-wait", "solve"}
        assert all(e["args"]["trace_id"] == ctx.trace_id for e in xs)
        cs = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert len(cs) == 2 and cs[0]["ts"] == pytest.approx(0.0, abs=1e-3)
        assert doc["metadata"]["n_traces"] == 1
        assert doc["metadata"]["scenario"] == "unit"


class TestServiceTracing:
    def test_single_service_trace_lifecycle(self):
        with Instrumentation(trace_capacity=8) as probe:
            svc = SolveService(FactorizationStore(), workers=1, max_batch=2)
            spec = {"kernel": "laplace", "n": 120, "nb": 60, "eps": 1e-6,
                    "leaf_size": 32}
            svc.submit(spec, np.ones(120)).result(timeout=60)
            svc.close()
        (trace,) = probe.tracer.traces()
        names = [s["name"] for s in trace["spans"]]
        assert trace["outcome"] == "ok"
        assert "queue-wait" in names and "solve" in names
        # Cold start: miss -> build (wrapping the factorize phase).
        assert "store-miss" in names and "build" in names and "factorize" in names
        # Span times are relative to the trace and inside its duration.
        for s in trace["spans"]:
            assert s["t0"] >= -1e-6
            assert s["t1"] <= trace["duration_seconds"] + 1e-6

    def test_disabled_tracer_records_nothing(self):
        with Instrumentation(trace_capacity=0) as probe:
            svc = SolveService(FactorizationStore(), workers=1)
            spec = {"kernel": "laplace", "n": 100, "eps": 1e-6, "leaf_size": 32}
            svc.submit(spec, np.ones(100)).result(timeout=60)
            svc.close()
        assert probe.tracer.completed == 0
        assert probe.tracer.traces() == []


def _specs_on_distinct_shards(fleet, n0=120, tries=40):
    """Two small specs whose fingerprints route to different fleet shards."""
    base = ProblemSpec(kernel="laplace", n=n0, nb=60, eps=1e-6, leaf_size=32)
    first_shard = fleet.worker_for(spec_fingerprint(base))
    for n in range(n0 + 2, n0 + 2 * tries, 2):
        cand = ProblemSpec(kernel="laplace", n=n, nb=n // 2, eps=1e-6,
                           leaf_size=32)
        if fleet.worker_for(spec_fingerprint(cand)) != first_shard:
            return base, cand
    pytest.skip("no spec pair landed on distinct shards")


class TestFleetProcessAcceptance:
    """A fleet solve's trace reconstructs the full request lifecycle across
    >= 2 shards, cold build included, exported as one valid chrome trace."""

    @pytest.fixture(scope="class")
    def fleet_run(self):
        with Instrumentation(trace_capacity=16) as probe:
            fleet = ServeFleet(
                2,
                lanes=(LaneConfig("interactive", max_inflight=8,
                                  slo_seconds=30.0),
                       LaneConfig("batch", max_inflight=8)),
                service_threads=1,
                max_batch=2,
                max_delay=0.001,
            )
            try:
                spec_a, spec_b = _specs_on_distinct_shards(fleet)
                shard_a = fleet.worker_for(spec_fingerprint(spec_a))
                shard_b = fleet.worker_for(spec_fingerprint(spec_b))
                ta = fleet.submit(spec_a, np.ones(spec_a.n), lane="interactive")
                tb = fleet.submit(spec_b, np.ones(spec_b.n), lane="batch")
                ta.result(timeout=300)
                tb.result(timeout=300)
            finally:
                fleet.close()
        traces = {t["key"]: t for t in probe.tracer.traces()}
        return probe, traces, (spec_a, shard_a), (spec_b, shard_b), fleet

    def test_both_traces_complete_across_shards(self, fleet_run):
        probe, traces, (spec_a, shard_a), (spec_b, shard_b), _ = fleet_run
        assert shard_a != shard_b
        assert len(traces) == 2
        for spec, shard in ((spec_a, shard_a), (spec_b, shard_b)):
            trace = traces[spec_fingerprint(spec)]
            assert trace["outcome"] == "ok"
            names = [s["name"] for s in trace["spans"]]
            assert "route" in names
            assert "queue-wait" in names
            assert "solve" in names
            # Cold start went through the store and the factorize build.
            assert "store-miss" in names and "factorize" in names
            route = next(s for s in trace["spans"] if s["name"] == "route")
            assert route["meta"]["shard"] == f"w{shard}"
            # Pipeline-side spans carry the owning shard's worker label.
            solve = next(s for s in trace["spans"] if s["name"] == "solve")
            assert solve["worker"] == f"w{shard}"

    def test_lanes_and_slo_recorded(self, fleet_run):
        _, traces, (spec_a, _), (spec_b, _), fleet = fleet_run
        assert traces[spec_fingerprint(spec_a)]["lane"] == "interactive"
        assert traces[spec_fingerprint(spec_b)]["lane"] == "batch"
        assert fleet.stats()["lanes"]["interactive"]["slo"]["attainment"] == 1.0

    def test_single_chrome_trace_round_trips(self, fleet_run, tmp_path):
        probe, traces, _, _, _ = fleet_run
        path = export_request_chrome_trace(
            list(traces.values()),
            tmp_path / "fleet.trace.json",
            counters=probe.series,
            counters_origin=probe.origin,
            metadata={"scenario": "fleet"},
        )
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert doc["metadata"]["n_traces"] == 2
        assert sorted(doc["metadata"]["trace_ids"]) == sorted(
            t["trace_id"] for t in traces.values()
        )
        # Thread-name metadata is present and covers every span lane.
        named = {e["args"]["name"]: e["tid"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        span_lanes = {s.get("worker") or "request"
                      for t in traces.values() for s in t["spans"]}
        assert span_lanes <= set(named)
        # Every span became a well-formed X event on its lane's tid.
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == sum(len(t["spans"]) for t in traces.values())
        for e in xs:
            assert e["dur"] >= 0.0 and e["ts"] >= 0.0
            assert e["tid"] in named.values()
            assert e["args"]["trace_id"] in doc["metadata"]["trace_ids"]
        # Counter tracks (per-worker queue depth samples) came along.
        cs = [e for e in events if e["ph"] == "C"]
        assert any("service_queue_depth" in e["name"] for e in cs)
