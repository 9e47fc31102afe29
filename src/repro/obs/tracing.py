"""Per-request distributed tracing for the serve fleet.

A :class:`TraceContext` is created at admission (one per request), travels
with the request object through routing, batching and the solve pipeline,
and collects named *spans* — ``queue-wait``, ``batch-wait``,
``route``/``rehome``, ``store-hit``/``store-load``/``store-miss``,
``build``, ``factorize`` and ``solve``.  Completed traces land in the :class:`RequestTracer` ring
buffer, from which they are served live (``GET /tracez``), folded into the
run report (``tracing`` section) and exported as a cross-shard Chrome trace
(:func:`export_request_chrome_trace`, ``repro trace``).

Propagation is ambient within a thread: :meth:`TraceContext.activate`
installs the context in a ``threading.local`` slot and :func:`current_trace`
reads it back, so deep layers (the factorization store, ``build_solver``)
attach spans without any API churn.  A served cold build runs on the eager
executor in the thread that holds the trace, so no span crosses into an
executor's worker threads or processes.

All span timestamps are absolute ``time.perf_counter()`` values (one
monotonic clock per machine — comparable across threads and, on Linux,
across processes); ``TraceContext.to_dict`` normalises them relative to the
trace start so exported traces are small, portable numbers.
"""

from __future__ import annotations

import secrets
import threading
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path

__all__ = [
    "Span",
    "TraceContext",
    "RequestTracer",
    "current_trace",
    "export_request_chrome_trace",
]

_tls = threading.local()

#: Spans one trace keeps; later ones only count in ``dropped_spans``.
_MAX_SPANS = 512
#: Newest completed traces a run report's ``tracing`` section lists.
_REPORT_RECENT = 32


def current_trace() -> "TraceContext | None":
    """The trace context activated on this thread (or None)."""
    return getattr(_tls, "ctx", None)


class Span:
    """One timed phase of a request: ``[start, end]`` on ``worker``."""

    __slots__ = ("name", "start", "end", "worker", "meta")

    def __init__(self, name: str, start: float, end: float, worker: str | None = None, meta: dict | None = None) -> None:
        self.name = name
        self.start = float(start)
        self.end = float(end)
        self.worker = worker
        self.meta = meta

    def to_dict(self, origin: float = 0.0) -> dict:
        d = {"name": self.name, "t0": self.start - origin, "t1": self.end - origin}
        if self.worker is not None:
            d["worker"] = self.worker
        if self.meta:
            d["meta"] = dict(self.meta)
        return d


class TraceContext:
    """Span collector for one request (bounded; thread-safe).

    ``start`` is the absolute ``perf_counter`` at creation.  ``add_span``
    takes absolute timestamps in the same clock; once :data:`_MAX_SPANS` have
    been recorded further spans are counted in ``dropped_spans`` instead of
    stored (runaway protection — a single request should never hold more
    than a few hundred phases).
    """

    __slots__ = (
        "trace_id",
        "key",
        "lane",
        "start",
        "spans",
        "dropped_spans",
        "outcome",
        "end",
        "tracer",
        "_lock",
    )

    def __init__(
        self,
        key: str = "",
        lane: str | None = None,
        *,
        trace_id: str | None = None,
        tracer: "RequestTracer | None" = None,
    ) -> None:
        self.trace_id = trace_id if trace_id is not None else secrets.token_hex(8)
        self.key = key
        self.lane = lane
        self.start = time.perf_counter()
        self.spans: list[Span] = []
        self.dropped_spans = 0
        self.outcome: str | None = None
        self.end: float | None = None
        self.tracer = tracer
        self._lock = threading.Lock()

    # -- recording ----------------------------------------------------------
    def add_span(self, name: str, start: float, end: float, *, worker: str | None = None, **meta) -> None:
        """Record one completed phase (absolute ``perf_counter`` stamps)."""
        with self._lock:
            if len(self.spans) >= _MAX_SPANS:
                self.dropped_spans += 1
                return
            self.spans.append(Span(name, start, end, worker, meta or None))

    @contextmanager
    def span(self, name: str, *, worker: str | None = None, **meta):
        """Context manager timing one phase with ``perf_counter``."""
        t0 = time.perf_counter()
        try:
            yield self
        finally:
            self.add_span(name, t0, time.perf_counter(), worker=worker, **meta)

    # -- ambient propagation ------------------------------------------------
    @contextmanager
    def activate(self):
        """Install this context as the thread's ambient trace (see
        :func:`current_trace`); restores the previous one on exit."""
        prev = getattr(_tls, "ctx", None)
        _tls.ctx = self
        try:
            yield self
        finally:
            _tls.ctx = prev

    # -- completion ---------------------------------------------------------
    def finish(self, outcome: str = "ok") -> None:
        """Seal the trace and hand it to the owning tracer's ring buffer."""
        with self._lock:
            if self.end is not None:  # already finished
                return
            self.end = time.perf_counter()
            self.outcome = outcome
        if self.tracer is not None:
            self.tracer._complete(self)

    @property
    def duration(self) -> float:
        end = self.end if self.end is not None else time.perf_counter()
        return end - self.start

    def to_dict(self) -> dict:
        """JSON-serialisable snapshot; span times relative to trace start.

        ``start`` stays absolute (``perf_counter`` epoch) so multiple traces
        from one process can be merged on a common timeline.
        """
        with self._lock:
            spans = [s.to_dict(self.start) for s in self.spans]
            return {
                "trace_id": self.trace_id,
                "key": self.key,
                "lane": self.lane,
                "start": self.start,
                "duration_seconds": self.duration,
                "outcome": self.outcome if self.outcome is not None else "pending",
                "spans": spans,
                "dropped_spans": self.dropped_spans,
            }


class RequestTracer:
    """Bounded ring buffer of completed request traces.

    ``capacity`` is the number of *completed* traces retained (oldest
    evicted first); ``capacity == 0`` disables tracing — :meth:`start`
    returns ``None`` and every propagation site's ``ctx is not None`` test
    short-circuits, preserving the disabled-overhead bound.
    """

    def __init__(self, capacity: int = 64) -> None:
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._recent: deque[dict] = deque(maxlen=max(1, self.capacity))
        self._active: dict[str, TraceContext] = {}
        self.started = 0
        self.completed = 0
        self.evicted = 0
        self.dropped_spans = 0
        self._phases: dict[str, list] = {}  # name -> [count, seconds]
        self._slowest: dict[str, dict] = {}  # lane -> trace summary

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    # -- lifecycle ----------------------------------------------------------
    def start(self, key: str = "", lane: str | None = None) -> TraceContext | None:
        """Open a trace for one admitted request (None when disabled)."""
        if self.capacity <= 0:
            return None
        ctx = TraceContext(key, lane, tracer=self)
        with self._lock:
            self.started += 1
            self._active[ctx.trace_id] = ctx
        return ctx

    def _complete(self, ctx: TraceContext) -> None:
        d = ctx.to_dict()
        lane = d["lane"] or "default"
        with self._lock:
            self._active.pop(ctx.trace_id, None)
            self.completed += 1
            self.dropped_spans += d["dropped_spans"]
            if len(self._recent) == self._recent.maxlen:
                self.evicted += 1
            self._recent.append(d)
            for s in d["spans"]:
                agg = self._phases.setdefault(s["name"], [0, 0.0])
                agg[0] += 1
                agg[1] += s["t1"] - s["t0"]
            worst = self._slowest.get(lane)
            if worst is None or d["duration_seconds"] > worst["duration_seconds"]:
                self._slowest[lane] = {
                    "trace_id": d["trace_id"],
                    "key": d["key"],
                    "duration_seconds": d["duration_seconds"],
                }

    # -- queries ------------------------------------------------------------
    def get(self, trace_id: str) -> dict | None:
        """A completed trace by id (most-recent-first search)."""
        with self._lock:
            for d in reversed(self._recent):
                if d["trace_id"] == trace_id:
                    return d
        return None

    def traces(self, limit: int | None = None) -> list[dict]:
        """Completed traces, most recent last."""
        with self._lock:
            out = list(self._recent)
        if limit is not None and limit >= 0:
            out = out[-limit:]
        return out

    def active_count(self) -> int:
        with self._lock:
            return len(self._active)

    def slowest_per_lane(self) -> dict:
        with self._lock:
            return {k: dict(v) for k, v in sorted(self._slowest.items())}

    def phase_totals(self) -> dict:
        with self._lock:
            return {
                name: {"count": c, "seconds": s}
                for name, (c, s) in sorted(self._phases.items())
            }

    def report(self) -> dict:
        """The ``tracing`` section of a run report."""
        return {
            "capacity": self.capacity,
            "started": self.started,
            "completed": self.completed,
            "evicted": self.evicted,
            "dropped_spans": self.dropped_spans,
            "phases": self.phase_totals(),
            "slowest_per_lane": self.slowest_per_lane(),
            "recent": self.traces(_REPORT_RECENT),
        }


def export_request_chrome_trace(
    traces,
    path,
    *,
    counters: dict | None = None,
    counters_origin: float = 0.0,
    metadata: dict | None = None,
) -> Path:
    """Write one or many request traces as a Chrome ``chrome://tracing`` /
    Perfetto JSON file on a common timeline.

    Each distinct span ``worker`` label (shard pipelines, thread/process
    workers; spans without one land on ``"request"``) becomes a named thread
    lane via ``"M"`` thread-name metadata; spans become ``"X"`` duration
    events carrying trace id / key / lane in ``args``.  ``counters`` maps
    track names to ``[(t, value), ...]`` series (e.g. per-worker queue
    depth); their timestamps are offset by ``counters_origin`` — pass the
    probe's :attr:`~repro.obs.instrument.Instrumentation.origin` so counter
    samples line up with span timestamps on the shared clock.
    """
    from ..runtime.trace import write_chrome_trace

    if isinstance(traces, dict):
        traces = [traces]
    traces = list(traces)
    if not traces:
        raise ValueError("no traces to export")
    t_min = min(t["start"] for t in traces)

    lanes = sorted({s.get("worker") or "request" for t in traces for s in t["spans"]})
    tid_of = {w: i for i, w in enumerate(lanes)}
    spans: list[dict] = []
    for t in traces:
        base = t["start"] - t_min
        for s in t["spans"]:
            args = {"trace_id": t["trace_id"], "key": t["key"]}
            if t.get("lane"):
                args["lane"] = t["lane"]
            if s.get("meta"):
                args.update(s["meta"])
            spans.append(
                {
                    "name": s["name"],
                    "cat": s["name"].split(":", 1)[0],
                    "ph": "X",
                    "ts": (base + s["t0"]) * 1e6,
                    "dur": max(0.0, s["t1"] - s["t0"]) * 1e6,
                    "pid": 0,
                    "tid": tid_of[s.get("worker") or "request"],
                    "args": args,
                }
            )
    metadata = {
        "n_traces": len(traces),
        "trace_ids": [t["trace_id"] for t in traces],
        **(metadata or {}),
    }
    return write_chrome_trace(
        path, lanes, spans, counters, metadata, origin=counters_origin, t0=t_min
    )
