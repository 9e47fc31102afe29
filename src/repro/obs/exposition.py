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

:class:`SlidingWindow` is the rolling-latency reservoir behind the per-lane
quantiles: a time-bounded deque of ``(t, value)`` pairs, pruned on read, so
``/metrics`` reports *recent* latency rather than the lifetime mix the
registry histograms accumulate.
"""

from __future__ import annotations

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


class SlidingWindow:
    """Time-bounded latency reservoir: keeps ``(t, value)`` observations
    newer than ``window_seconds`` (and at most ``maxlen`` of them) and
    reports count/mean/max/p50/p95/p99 over that window."""

    def __init__(self, window_seconds: float = 60.0, *, maxlen: int = 4096, clock=time.monotonic) -> None:
        self.window_seconds = float(window_seconds)
        self._clock = clock
        self._lock = threading.Lock()
        self._obs: deque[tuple[float, float]] = deque(maxlen=maxlen)

    def observe(self, value: float, t: float | None = None) -> None:
        if t is None:
            t = self._clock()
        with self._lock:
            self._obs.append((t, float(value)))

    def _prune_locked(self, now: float) -> None:
        horizon = now - self.window_seconds
        while self._obs and self._obs[0][0] < horizon:
            self._obs.popleft()

    def snapshot(self, now: float | None = None) -> dict:
        if now is None:
            now = self._clock()
        with self._lock:
            self._prune_locked(now)
            values = sorted(v for _, v in self._obs)
        n = len(values)
        if n == 0:
            return {
                "window_seconds": self.window_seconds,
                "count": 0,
                "sum": 0.0,
                "mean": 0.0,
                "max": 0.0,
                "p50": 0.0,
                "p95": 0.0,
                "p99": 0.0,
            }

        def pct(q: float) -> float:
            return values[min(n - 1, int(q * n))]

        total = sum(values)
        return {
            "window_seconds": self.window_seconds,
            "count": n,
            "sum": total,
            "mean": total / n,
            "max": values[-1],
            "p50": pct(0.50),
            "p95": pct(0.95),
            "p99": pct(0.99),
        }


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


def prometheus_text(registry_snapshot: dict, *, prefix: str = "repro_") -> str:
    """Render a ``MetricsRegistry.as_dict()`` snapshot as Prometheus text.

    Counters and gauges map 1:1; histograms come out as summaries
    (``{quantile="0.5|0.95|0.99"}`` + ``_sum`` + ``_count``)."""
    lines: list[str] = []
    typed: set[str] = set()

    def emit(name: str, labels: str, value, kind: str | None = None) -> None:
        full = prefix + name
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
        full = prefix + base
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


def _lane_window_lines(windows: dict, *, prefix: str = "repro_") -> list[str]:
    lines = [f"# TYPE {prefix}lane_latency_seconds summary"]
    for lane, snap in sorted(windows.items()):
        lab = f'lane="{lane}"'
        for q, key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
            lines.append(
                f'{prefix}lane_latency_seconds{{{lab},quantile="{q}"}} {_fmt(snap.get(key, 0.0))}'
            )
        lines.append(f"{prefix}lane_latency_seconds_sum{{{lab}}} {_fmt(snap.get('sum', 0.0))}")
        lines.append(f"{prefix}lane_latency_seconds_count{{{lab}}} {_fmt(snap.get('count', 0))}")
        for g in ("window_seconds", "inflight"):
            if g in snap:
                lines.append(f"{prefix}lane_{g}{{{lab}}} {_fmt(snap[g])}")
        slo = snap.get("slo")
        if slo:
            for g in ("target_seconds", "attainment", "burn_rate", "violations"):
                if g in slo:
                    lines.append(f"{prefix}lane_slo_{g}{{{lab}}} {_fmt(slo[g])}")
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
