"""Exposition tests: sliding windows, Prometheus rendering/parsing, the
/metrics document and the /tracez payload."""

import numpy as np
import pytest

from repro.obs import (
    Instrumentation,
    MetricsRegistry,
    RequestTracer,
    SlidingWindow,
    metrics_text,
    parse_prometheus,
    prometheus_text,
    tracez_payload,
)
from repro.obs.exposition import WINDOW_SECONDS
from repro.service.pipeline import SolveService
from repro.service.store import FactorizationStore


class _FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


class TestSlidingWindow:
    def test_empty_snapshot_is_zeros(self):
        w = SlidingWindow()
        snap = w.snapshot()
        assert snap["count"] == 0 and snap["p99"] == 0.0
        assert snap["window_seconds"] == WINDOW_SECONDS == 60.0
        summary = w.summary()
        assert summary["count"] == 0 and summary["min"] == summary["p99"] == 0.0

    def test_observations_age_out(self):
        """The snapshot is the last 60 s; the summary keeps every value."""
        clock = _FakeClock()
        w = SlidingWindow(clock=clock)
        w.observe(1.0)
        clock.t = 30.0
        w.observe(2.0)
        snap = w.snapshot()
        assert snap["count"] == 2 and snap["max"] == 2.0
        assert snap["mean"] == pytest.approx(1.5)
        clock.t = 61.0  # the first observation is now older than the window
        snap = w.snapshot()
        assert snap["count"] == 1 and snap["sum"] == 2.0
        summary = w.summary()
        assert (summary["count"], summary["min"], summary["max"]) == (2, 1.0, 2.0)

    def test_quantiles_ordered(self):
        clock = _FakeClock()
        w = SlidingWindow(clock=clock)
        for i in range(100):
            w.observe(i / 100.0)
        snap = w.snapshot()
        assert snap["p50"] == pytest.approx(0.50, abs=0.02)
        assert snap["p95"] == pytest.approx(0.95, abs=0.02)
        assert snap["p50"] <= snap["p95"] <= snap["p99"] <= snap["max"]

    def test_maxlen_bounds_memory(self):
        """4 096 values are kept; the lifetime count, sum and min see all."""
        w = SlidingWindow()
        for i in range(4100):
            w.observe(float(i), t=0.0)
        assert w.snapshot(now=0.0)["count"] == 4096
        summary = w.summary()
        assert summary["count"] == 4100 and summary["sum"] == sum(range(4100))
        assert summary["min"] == 0.0 and summary["p50"] >= 4.0


class TestPrometheusText:
    def test_counters_gauges_round_trip(self):
        reg = MetricsRegistry()
        reg.inc("service.requests.completed", 5)
        reg.set_gauge('service.queue_depth{worker="w0"}', 3)
        reg.set_gauge('fleet.slo_attainment{lane="interactive"}', 0.875)
        text = prometheus_text(reg.as_dict())
        parsed = parse_prometheus(text)
        assert parsed["repro_service_requests_completed"] == [({}, 5.0)]
        assert parsed["repro_service_queue_depth"] == [({"worker": "w0"}, 3.0)]
        assert parsed["repro_fleet_slo_attainment"] == [
            ({"lane": "interactive"}, 0.875)
        ]
        # Dots become underscores; TYPE lines are emitted once per family.
        assert text.count("# TYPE repro_service_queue_depth gauge") == 1

    def test_histograms_render_as_summaries(self):
        reg = MetricsRegistry()
        for v in (0.001, 0.002, 0.004, 0.2):
            reg.observe("service.latency", v)
        parsed = parse_prometheus(prometheus_text(reg.as_dict()))
        by_q = {
            labels["quantile"]: v
            for labels, v in parsed["repro_service_latency"]
        }
        assert set(by_q) == {"0.5", "0.95", "0.99"}
        assert by_q["0.5"] <= by_q["0.95"] <= by_q["0.99"]
        assert parsed["repro_service_latency_count"] == [({}, 4.0)]
        assert parsed["repro_service_latency_sum"][0][1] == pytest.approx(0.207)

    def test_parser_rejects_malformed_lines(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_prometheus("repro_ok 1\nthis is { not exposition\n")


class TestMetricsText:
    def test_service_document_parses_and_has_lane_windows(self):
        with Instrumentation(trace_capacity=4) as probe:
            svc = SolveService(FactorizationStore(), workers=1, max_batch=2)
            spec = {"kernel": "laplace", "n": 100, "eps": 1e-6, "leaf_size": 32}
            svc.submit(spec, np.ones(100)).result(timeout=60)
            text = metrics_text(service=svc, probe=probe)
            svc.close()
        parsed = parse_prometheus(text)
        assert parsed["repro_traces_completed"] == [({}, 1.0)]
        # The stats() tree is flattened under the service_ prefix...
        assert parsed["repro_service_requests_completed"][0][1] == 1.0
        # ...and the single service exposes its window as the default lane.
        lanes = {
            labels["lane"] for labels, _ in parsed["repro_lane_latency_seconds"]
        }
        assert lanes == {"default"}
        assert parsed["repro_lane_latency_seconds_count"][0][1] == 1.0

    def test_no_probe_no_service_is_empty(self):
        assert metrics_text(service=None, probe=None) == ""


class TestTracezPayload:
    def test_disabled(self):
        assert tracez_payload(None) == {"enabled": False, "traces": []}

        class _NoTrace:
            tracer = RequestTracer(capacity=0)

        assert tracez_payload(_NoTrace())["enabled"] is False

    def test_listing_and_lookup(self):
        tracer = RequestTracer(capacity=8)
        ctx = tracer.start("k1", lane="interactive")
        ctx.add_span("solve", ctx.start, ctx.start + 0.01)
        ctx.finish()

        class _Probe:
            pass

        probe = _Probe()
        probe.tracer = tracer
        payload = tracez_payload(probe)
        assert payload["enabled"] and payload["completed"] == 1
        assert payload["traces"][0]["trace_id"] == ctx.trace_id
        assert payload["slowest_per_lane"]["interactive"]["key"] == "k1"
        found = tracez_payload(probe, trace_id=ctx.trace_id)
        assert found["found"] and found["trace"]["key"] == "k1"
        missing = tracez_payload(probe, trace_id="deadbeef")
        assert missing["found"] is False and missing["trace"] is None


class TestFineHistogramExposition:
    def test_sub_ms_quantiles_survive_exposition(self):
        # End-to-end satellite check: a latency mix that decade buckets
        # collapse must still expose a sub-millisecond p50.
        reg = MetricsRegistry()
        for _ in range(95):
            reg.observe("service.latency", 3e-4)
        for _ in range(5):
            reg.observe("service.latency", 2e-2)
        parsed = parse_prometheus(prometheus_text(reg.as_dict()))
        by_q = {
            labels["quantile"]: v
            for labels, v in parsed["repro_service_latency"]
        }
        assert 1e-4 < by_q["0.5"] < 1e-3
