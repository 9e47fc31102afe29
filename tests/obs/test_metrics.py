"""Unit tests for the metric primitives and the instrumentation probe."""

import threading

import pytest

from repro.obs import (
    Histogram, Instrumentation, MetricsRegistry, SchedulerStats, build_run_report, current,
)
from repro.runtime import ExecutionTrace, TraceEvent


class TestHistogram:
    def test_empty_snapshot(self):
        snap = Histogram().snapshot()
        assert snap == {
            "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
            "buckets": {}, "fine": {}, "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }

    def test_fine_buckets_subdivide_decades(self):
        h = Histogram()
        for v in (1.1e-4, 2.5e-4, 4.9e-4, 6e-4, 1.5e-3):
            h.observe(v)
        # Decade view is unchanged (backward compat)...
        assert h.buckets == {"1e-4": 4, "1e-3": 1}
        # ...while the fine view splits each decade at the 1/2/5 mantissas.
        assert h.fine == {"1e-4": 1, "2e-4": 2, "5e-4": 1, "1e-3": 1}

    def test_quantiles_resolve_sub_ms(self):
        h = Histogram()
        for _ in range(90):
            h.observe(3e-4)
        for _ in range(10):
            h.observe(8e-3)
        snap = h.snapshot()
        # Under decade-only buckets both values would land in one of two huge
        # bins; the fine buckets must place p50 in the sub-ms range.
        assert 2e-4 <= snap["p50"] < 1e-3
        assert snap["p99"] >= 5e-3
        assert snap["min"] <= snap["p50"] <= snap["p95"] <= snap["p99"] <= snap["max"]

    def test_observe_stats(self):
        h = Histogram()
        for v in (1.0, 3.0, 5.0):
            h.observe(v)
        assert h.count == 3
        assert h.total == 9.0
        assert h.min == 1.0 and h.max == 5.0
        assert h.mean == pytest.approx(3.0)

    def test_decade_buckets(self):
        h = Histogram()
        h.observe(2e-6)   # 1e-6 decade
        h.observe(5e-3)   # 1e-3 decade
        h.observe(5e-3)
        h.observe(0.0)    # <=0 bucket
        snap = h.snapshot()
        assert snap["buckets"]["1e-6"] == 1
        assert snap["buckets"]["1e-3"] == 2
        assert snap["buckets"]["<=0"] == 1

    def test_extreme_decades_clamped(self):
        h = Histogram()
        h.observe(1e-30)
        h.observe(1e30)
        assert h.buckets == {"1e-9": 1, "1e9": 1}


class TestMetricsRegistry:
    def test_counter_semantics(self):
        reg = MetricsRegistry()
        assert reg.counter("x") == 0.0
        reg.inc("x")
        reg.inc("x", 2.5)
        assert reg.counter("x") == 3.5

    def test_gauge_semantics(self):
        reg = MetricsRegistry()
        assert reg.gauge("g") == 0.0
        reg.set_gauge("g", 4.0)
        assert reg.add_gauge("g", -1.0) == 3.0
        reg.max_gauge("peak", 3.0)
        reg.max_gauge("peak", 1.0)  # lower value must not win
        assert reg.gauge("peak") == 3.0

    def test_histogram_access(self):
        reg = MetricsRegistry()
        assert reg.histogram("h")["count"] == 0
        reg.observe("h", 2.0)
        reg.observe("h", 4.0)
        snap = reg.histogram("h")
        assert snap["count"] == 2 and snap["mean"] == pytest.approx(3.0)

    def test_as_dict_is_json_shaped(self):
        import json

        reg = MetricsRegistry()
        reg.inc("c")
        reg.set_gauge("g", 1.0)
        reg.observe("h", 0.5)
        d = reg.as_dict()
        assert set(d) == {"counters", "gauges", "histograms"}
        json.dumps(d)  # must be serialisable as-is

    def test_thread_safety(self):
        reg = MetricsRegistry()

        def work():
            for _ in range(1000):
                reg.inc("n")
                reg.add_gauge("g", 1.0)
                reg.observe("h", 1.0)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("n") == 4000
        assert reg.gauge("g") == 4000
        assert reg.histogram("h")["count"] == 4000


class TestSchedulerStats:
    def test_depth_sampling(self):
        st = SchedulerStats()
        for d in (1, 5, 3):
            st.sample_depth(d)
        snap = st.snapshot()
        assert snap["queue_depth_samples"] == 3
        assert snap["queue_depth_max"] == 5
        assert snap["queue_depth_mean"] == pytest.approx(3.0)

    def test_empty_snapshot(self):
        snap = SchedulerStats().snapshot()
        assert snap["pushes"] == 0 and snap["queue_depth_mean"] == 0.0


class TestInstrumentation:
    def test_inactive_by_default(self):
        assert current() is None

    def test_activation_scope(self):
        with Instrumentation() as probe:
            assert current() is probe
        assert current() is None

    def test_double_activation_rejected(self):
        with Instrumentation():
            with pytest.raises(RuntimeError, match="already active"):
                Instrumentation().__enter__()
        assert current() is None

    def test_task_span_aggregates(self):
        # The probe keeps each kind's duration histogram; per-kind and
        # per-worker counts and busy time are the trace's, folded by the report.
        probe = Instrumentation()
        trace = ExecutionTrace(nworkers=2)
        for tid, (kind, w, start, end) in enumerate(
            [("gemm", 0, 0.0, 1.0), ("gemm", 1, 1.0, 1.5), ("trsm", 0, 1.0, 2.0)]
        ):
            probe.task_span(kind, start, end)
            trace.add(TraceEvent(tid, kind, w, start, end))
        gemm = probe.registry.histogram("tasks.seconds.gemm")
        assert gemm["count"] == 2 and gemm["sum"] == pytest.approx(1.5)
        report = build_run_report(probe=probe, trace=trace)
        assert report["kinds"]["gemm"]["count"] == 2
        assert report["kinds"]["gemm"]["seconds"] == pytest.approx(1.5)
        assert report["workers"][0]["busy_seconds"] == pytest.approx(2.0)
        assert report["workers"][1]["tasks"] == 1

    def test_h_bytes_peak_and_series(self):
        probe = Instrumentation()
        probe.h_bytes_delta(100.0, t=0.0)
        probe.h_bytes_delta(50.0, t=1.0)
        probe.h_bytes_delta(-80.0, t=2.0)
        assert probe.registry.gauge("h.bytes") == 70.0
        assert probe.registry.gauge("h.peak_bytes") == 150.0
        assert [v for _, v in probe.series["h_bytes"]] == [100.0, 150.0, 70.0]

    def test_block_compressed_byte_accounting(self):
        probe = Instrumentation()
        probe.block_compressed(100, 50, 4, 8, 1350)
        assert probe.registry.counter("h.compressed_bytes") == (100 + 50) * 4 * 8
        assert probe.registry.counter("h.dense_bytes") == 100 * 50 * 8

    def test_block_compressed_counts_sampled_entries(self):
        probe = Instrumentation()
        probe.block_compressed(100, 50, 4, 8, 1350)
        probe.block_compressed(10, 20, 2, 16, 90)
        assert probe.registry.counter("h.aca.kernel_entries") == 1350 + 90
        assert probe.registry.counter("h.aca.dense_entries") == 100 * 50 + 10 * 20

