"""Each serving count is kept once, by the object that counts it.

``SolveService.stats()``, ``ServeFleet.stats()`` and
``FactorizationStore.stats()`` are the only record of what they count; an
active probe adds spans and time series, never a second count.  These tests
pin the two ways a second record showed: series repeated in one
``/metrics`` scrape, and a served cold build charged twice to ``h.bytes``.
"""

import numpy as np
import pytest

from repro.obs import Instrumentation, metrics_text, parse_prometheus
from repro.obs.report import build_run_report, validate_report
from repro.service import (
    FactorizationStore,
    LaneConfig,
    ServeFleet,
    SolveService,
    build_solver,
)


def _series(text: str) -> list[str]:
    """``name{labels}`` of every sample line of an exposition document."""
    return [
        line.rsplit(" ", 1)[0]
        for line in text.splitlines()
        if line and not line.startswith("#")
    ]


@pytest.mark.parametrize("shards", [None, 2])
def test_metrics_name_each_series_once(shards, solver, spec):
    with Instrumentation(trace_capacity=8) as probe:
        if shards is None:
            target = SolveService(
                FactorizationStore(), workers=1, solver_provider=lambda k, s: solver
            )
        else:
            target = ServeFleet(
                shards,
                lanes=(LaneConfig("interactive", slo_seconds=60.0), LaneConfig("batch")),
                solver_provider=lambda k, s: solver,
            )
        try:
            for _ in range(3):
                target.solve(spec, np.ones(spec.n))
            text = metrics_text(service=target, probe=probe)
        finally:
            target.close()
    series = _series(text)
    assert sorted({s for s in series if series.count(s) > 1}) == []

    parsed = parse_prometheus(text)
    assert parsed["repro_traces_completed"] == [({}, 3.0)]
    completed = parsed["repro_service_requests_completed"]
    assert sum(v for _, v in completed) == 3.0
    if shards is None:
        assert completed == [({}, 3.0)]
        assert parsed["repro_service_queue_depth"] == [({}, 0.0)]
        assert {l["lane"] for l, _ in parsed["repro_lane_latency_seconds_count"]} == {"default"}
        assert "service_queue_depth" in probe.series
    else:
        workers = [f"w{i}" for i in range(shards)]
        assert [l["worker"] for l, _ in completed] == workers
        assert parsed["repro_service_queue_depth"] == [({"worker": w}, 0.0) for w in workers]
        assert parsed["repro_lane_slo_attainment"] == [({"lane": "interactive"}, 1.0)]
        assert parsed["repro_fleet_lanes_interactive_completed"] == [({}, 3.0)]
        assert "repro_fleet_slo_attainment" not in parsed
        assert any(name.startswith("service_queue_depth[w") for name in probe.series)


def test_served_cold_build_counts_h_bytes_once(spec, rhs):
    with Instrumentation() as built:
        build_solver(spec)
    assembled = built.registry.gauge("h.bytes")
    assert assembled > 0

    with Instrumentation() as served:
        svc = SolveService(FactorizationStore(), workers=1)
        svc.solve(spec, rhs)
        svc.close()
    assert svc.stats()["store"]["misses"] == 1
    assert served.registry.gauge("h.bytes") == assembled


def test_fleet_report_has_no_service_section(solver, spec):
    with Instrumentation() as probe:
        fleet = ServeFleet(2, solver_provider=lambda k, s: solver)
        try:
            fleet.solve(spec, np.ones(spec.n))
        finally:
            fleet.close()
    report = build_run_report(probe=probe, meta={"mode": "fleet"}, fleet=fleet.stats())
    assert validate_report(report) == []
    assert "service" not in report
    assert report["fleet"]["lanes"]["interactive"]["completed"] == 1
    assert sum(s["requests"]["completed"] for s in fleet.worker_stats()) == 1
