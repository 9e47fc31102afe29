"""Live telemetry surface: Prometheus-style text exposition + rolling windows.

:func:`metrics_text` renders everything observable about a running serve
process — the active probe's :class:`~repro.obs.metrics.MetricsRegistry`
(counters, gauges, histogram summaries with p50/p95/p99 quantiles), the
service/fleet ``stats()`` tree flattened to gauges, and the per-lane
rolling-window latency summaries — in the Prometheus text format
(``text/plain; version=0.0.4``) for ``GET /metrics``.

Every serving count comes from its owner's ``stats()``, never from the
probe, so each series appears once.  A fleet's shards come out as the
``repro_service_*`` families with a ``worker`` label
(``repro_service_queue_depth{worker="w0"}``), and lanes as ``lane``-labelled
``repro_lane_*`` families.  Registry names may carry embedded labels
(``'a.b{worker="w0"}'``); the brace part is passed through as the
Prometheus label set.

:class:`SlidingWindow` is the one latency record of a pipeline or a fleet
lane: lifetime count/sum/min/max plus the newest :data:`_KEEP` ``(t, value)``
pairs.  Its :meth:`~SlidingWindow.summary` is what ``stats()`` reports; its
:meth:`~SlidingWindow.snapshot` is the last :data:`WINDOW_SECONDS` of it, so
``/metrics`` reports *recent* latency rather than the lifetime mix.  Both
rank by one rule (:func:`_summary`).
"""

from __future__ import annotations

import math
import re
import threading
import time
from collections import deque

__all__ = [
    "SlidingWindow",
    "prometheus_text",
    "metrics_text",
    "parse_prometheus",
    "tracez_payload",
]

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")
_LINE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})?\s+(-?(?:[0-9.]+(?:[eE][+-]?[0-9]+)?|[Ii]nf|NaN))$"
)
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="([^"]*)"')


#: Newest observations a record keeps for its percentiles.
_KEEP = 4096
#: Span of the rolling window ``/metrics`` reports, in seconds.
WINDOW_SECONDS = 60.0


def _summary(count: int, total: float, values: list, **extra) -> dict:
    """``extra`` + count/sum/mean, and p50/p95/p99 of the sorted ``values``
    by rank ``int(q * (n - 1))``: an observed value, never an interpolation."""
    out = {**extra, "count": count, "sum": total, "mean": total / count if count else 0.0}
    for key, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
        out[key] = values[int(q * (len(values) - 1))] if values else 0.0
    return out


class SlidingWindow:
    """One latency record: lifetime count/sum/min/max and the newest
    :data:`_KEEP` ``(t, value)`` observations, seen through two views
    (:meth:`summary` and :meth:`snapshot`).  ``clock`` stamps observations
    made without a time."""

    def __init__(self, *, clock=time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._obs: deque[tuple[float, float]] = deque(maxlen=_KEEP)
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float, t: float | None = None) -> None:
        if t is None:
            t = self._clock()
        value = float(value)
        with self._lock:
            self._obs.append((t, value))
            self._count += 1
            self._total += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)

    def summary(self) -> dict:
        """Lifetime count/sum/min/max/mean; p50/p95/p99 over the kept values."""
        with self._lock:
            values = sorted(v for _, v in self._obs)
            count, total = self._count, self._total
            lo, hi = (self._min, self._max) if count else (0.0, 0.0)
        return _summary(count, total, values, min=lo, max=hi)

    def snapshot(self, now: float | None = None) -> dict:
        """count/sum/mean/max/p50/p95/p99 over the kept values observed in
        the last :data:`WINDOW_SECONDS` before ``now`` (filtered on read:
        :meth:`summary` still sees every kept value)."""
        if now is None:
            now = self._clock()
        horizon = now - WINDOW_SECONDS
        with self._lock:
            values = sorted(v for t, v in self._obs if t >= horizon)
        return _summary(len(values), sum(values), values,
                        window_seconds=WINDOW_SECONDS, max=values[-1] if values else 0.0)


# -- rendering ---------------------------------------------------------------


def _fmt(v) -> str:
    f = float(v)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return format(f, ".10g")


def _split_labels(name: str) -> tuple[str, str]:
    """``'a.b{worker="w0"}'`` -> (``"a_b"``, ``'{worker="w0"}'``)."""
    labels = ""
    if "{" in name:
        name, _, rest = name.partition("{")
        labels = "{" + rest
    return _NAME_OK.sub("_", name), labels


def _merge_labels(labels: str, extra: str) -> str:
    if not labels:
        return "{" + extra + "}"
    return labels[:-1] + "," + extra + "}"


def prometheus_text(registry_snapshot: dict) -> str:
    """Render a ``MetricsRegistry.as_dict()`` snapshot as Prometheus text.

    Counters and gauges map 1:1; histograms come out as summaries
    (``{quantile="0.5|0.95|0.99"}`` + ``_sum`` + ``_count``)."""
    lines: list[str] = []
    typed: set[str] = set()

    def emit(name: str, labels: str, value, kind: str | None = None) -> None:
        full = "repro_" + name
        if kind and full not in typed:
            typed.add(full)
            lines.append(f"# TYPE {full} {kind}")
        lines.append(f"{full}{labels} {_fmt(value)}")

    for name, value in registry_snapshot.get("counters", {}).items():
        base, labels = _split_labels(name)
        emit(base, labels, value, "counter")
    for name, value in registry_snapshot.get("gauges", {}).items():
        base, labels = _split_labels(name)
        emit(base, labels, value, "gauge")
    for name, snap in registry_snapshot.get("histograms", {}).items():
        base, labels = _split_labels(name)
        full = "repro_" + base
        if full not in typed:
            typed.add(full)
            lines.append(f"# TYPE {full} summary")
        for q, key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
            qlab = _merge_labels(labels, 'quantile="%s"' % q)
            lines.append(f"{full}{qlab} {_fmt(snap.get(key, 0.0))}")
        lines.append(f"{full}_sum{labels} {_fmt(snap.get('sum', 0.0))}")
        lines.append(f"{full}_count{labels} {_fmt(snap.get('count', 0))}")
    return "\n".join(lines) + ("\n" if lines else "")


def _flatten_stats(stats, path: str, out: list[tuple[str, float]]) -> None:
    """Numeric leaves of a ``stats()`` tree as ``(a_b_c, value)`` pairs."""
    if isinstance(stats, dict):
        for k, v in sorted(stats.items()):
            key = f"{path}_{k}" if path else str(k)
            _flatten_stats(v, key, out)
    elif isinstance(stats, bool):
        out.append((path, 1.0 if stats else 0.0))
    elif isinstance(stats, (int, float)):
        out.append((path, float(stats)))
    # strings / lists are identity, not telemetry — skipped


def _lane_window_lines(windows: dict) -> list[str]:
    lines = [f"# TYPE repro_lane_latency_seconds summary"]
    for lane, snap in sorted(windows.items()):
        lab = f'lane="{lane}"'
        for q, key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
            lines.append(
                f'repro_lane_latency_seconds{{{lab},quantile="{q}"}} {_fmt(snap.get(key, 0.0))}'
            )
        lines.append(f"repro_lane_latency_seconds_sum{{{lab}}} {_fmt(snap.get('sum', 0.0))}")
        lines.append(f"repro_lane_latency_seconds_count{{{lab}}} {_fmt(snap.get('count', 0))}")
        for g in ("window_seconds", "inflight"):
            if g in snap:
                lines.append(f"repro_lane_{g}{{{lab}}} {_fmt(snap[g])}")
        slo = snap.get("slo")
        if slo:
            for g in ("target_seconds", "attainment", "burn_rate", "violations"):
                if g in slo:
                    lines.append(f"repro_lane_slo_{g}{{{lab}}} {_fmt(slo[g])}")
    return lines


def _stats_lines(stats: dict, section: str, labels: str = "") -> list[str]:
    flat: list[tuple[str, float]] = []
    _flatten_stats(stats, section, flat)
    return [f"repro_{_NAME_OK.sub('_', name)}{labels} {_fmt(v)}" for name, v in flat]


def metrics_text(service=None, probe=None) -> str:
    """The full ``GET /metrics`` document for a serve process.

    ``service`` is a :class:`~repro.service.pipeline.SolveService` or a
    :class:`~repro.service.fleet.ServeFleet` (whose ``shards()`` each add
    their ``stats()`` and queue depth under a ``worker`` label;
    ``lane_windows()`` adds the rolling per-lane latency summaries);
    ``probe`` defaults to the ambient active probe."""
    if probe is None:
        from .instrument import current as _current

        probe = _current()
    parts: list[str] = []
    if probe is not None:
        parts.append(prometheus_text(probe.registry.as_dict()))
        tracer = getattr(probe, "tracer", None)
        if tracer is not None:
            parts.append(
                "# TYPE repro_traces_completed counter\n"
                f"repro_traces_completed {tracer.completed}\n"
                "# TYPE repro_traces_active gauge\n"
                f"repro_traces_active {tracer.active_count()}\n"
            )
    if service is not None:
        lines = ["# service/fleet stats() snapshot, flattened"]
        shards = getattr(service, "shards", None)
        if callable(shards):
            lines += _stats_lines(service.stats(), "fleet")
            pipelines = [(s, f'{{worker="{s.name}"}}') for s in shards()]
        else:
            pipelines = [(service, "")]
        for svc, labels in pipelines:
            lines += _stats_lines(svc.stats(), "service", labels)
            lines.append(f"repro_service_queue_depth{labels} {svc.queue_depth()}")
        parts.append("\n".join(lines) + "\n")
        windows = getattr(service, "lane_windows", None)
        if callable(windows):
            parts.append("\n".join(_lane_window_lines(windows())) + "\n")
    return "".join(parts)


def parse_prometheus(text: str) -> dict:
    """Strict parser for the exposition format produced above (used by tests
    and the CI smoke scrape): returns ``{name: [(labels_dict, value), ...]}``
    and raises ``ValueError`` on any malformed non-comment line."""
    out: dict[str, list] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        m = _LINE.match(line)
        if m is None:
            raise ValueError(f"malformed exposition line {lineno}: {line!r}")
        name, labels, value = m.group(1), m.group(2) or "", m.group(3)
        out.setdefault(name, []).append((dict(_LABEL.findall(labels)), float(value)))
    return out


def tracez_payload(probe, service=None, *, trace_id: str | None = None, limit: int = 20) -> dict:
    """The ``GET /tracez`` JSON document: recent completed traces (or one
    trace by id) + slowest-per-lane index."""
    tracer = getattr(probe, "tracer", None) if probe is not None else None
    if tracer is None or not tracer.enabled:
        return {"enabled": False, "traces": []}
    if trace_id is not None:
        trace = tracer.get(trace_id)
        return {"enabled": True, "trace": trace, "found": trace is not None}
    return {
        "enabled": True,
        "capacity": tracer.capacity,
        "started": tracer.started,
        "completed": tracer.completed,
        "active": tracer.active_count(),
        "evicted": tracer.evicted,
        "slowest_per_lane": tracer.slowest_per_lane(),
        "traces": tracer.traces(limit),
    }
