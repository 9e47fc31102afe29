"""Execution traces: per-worker timelines, gantt rendering, trace export."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from .kinds import kind_letter

__all__ = ["TraceEvent", "ExecutionTrace", "render_gantt", "export_chrome_trace"]


class TraceEvent(NamedTuple):
    """One task execution on one (virtual or real) worker.  A named tuple:
    a run makes one per task, so it costs what a tuple costs."""

    task_id: int
    kind: str
    worker: int
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class ExecutionTrace:
    """Ordered set of :class:`TraceEvent`; provides utilization summaries."""

    nworkers: int
    events: list[TraceEvent] = field(default_factory=list)

    def add(self, event: TraceEvent) -> None:
        if not (0 <= event.worker < self.nworkers):
            raise ValueError(f"worker {event.worker} out of range [0, {self.nworkers})")
        if event.end < event.start:
            raise ValueError("event ends before it starts")
        self.events.append(event)

    @property
    def makespan(self) -> float:
        return max((e.end for e in self.events), default=0.0)

    def task_seconds(self, ntasks: int) -> list[float]:
        """Each task's measured seconds by task id (0.0 where it has no event)."""
        seconds = [0.0] * ntasks
        for e in self.events:
            seconds[e.task_id] = e.duration
        return seconds

    def busy_time(self, worker: int) -> float:
        return sum(e.duration for e in self.events if e.worker == worker)

    def utilization(self) -> float:
        """Fraction of worker-time spent executing tasks (1.0 = perfect)."""
        span = self.makespan
        if span == 0.0:
            return 0.0
        busy = sum(e.duration for e in self.events)
        return busy / (span * self.nworkers)

    def worker_timelines(self) -> list[list[TraceEvent]]:
        lanes: list[list[TraceEvent]] = [[] for _ in range(self.nworkers)]
        for e in self.events:
            lanes[e.worker].append(e)
        for lane in lanes:
            lane.sort(key=lambda e: e.start)
        return lanes


def render_gantt(trace: ExecutionTrace, width: int = 80) -> str:
    """Text gantt chart: one row per worker, one char per time bucket.

    Kernel kinds map to the letters of the shared
    :mod:`kind registry <repro.runtime.kinds>` (``?`` for unregistered
    kinds); idle time prints as ``.``.  Useful to eyeball pipeline stalls
    that the paper attributes to bulk-synchronous or contention effects.
    """
    span = trace.makespan
    if span == 0.0 or not trace.events:
        return "(empty trace)"
    rows = []
    for w, lane in enumerate(trace.worker_timelines()):
        row = ["."] * width
        for e in lane:
            c0 = int(e.start / span * width)
            c1 = max(c0 + 1, int(e.end / span * width))
            ch = kind_letter(e.kind)
            for c in range(c0, min(c1, width)):
                row[c] = ch
        rows.append(f"w{w:02d} |" + "".join(row) + "|")
    return "\n".join(rows)


def export_chrome_trace(trace: ExecutionTrace, path, *, counters=None, metadata=None) -> "Path":
    """Write the trace in Chrome tracing JSON (``chrome://tracing`` /
    Perfetto), the de-facto replacement for StarPU's Paje traces.

    Workers map to thread ids and are named via ``"ph": "M"`` metadata
    events, so Perfetto lanes read "worker 0..n-1" in execution order
    instead of bare tids.  ``counters`` adds counter tracks (``"ph": "C"``):
    a mapping of series name to ``[(t_seconds, value), ...]`` samples, e.g.
    the scheduler queue depth and H-matrix memory series collected by an
    :class:`~repro.obs.Instrumentation` probe.  ``metadata`` entries are
    merged into the metadata block next to ``nworkers`` / ``makespan`` /
    ``utilization``.  Times are exported in microseconds.
    """
    spans = [
        {
            "name": f"{e.kind}#{e.task_id}",
            "cat": e.kind,
            "ph": "X",
            "ts": e.start * 1e6,
            "dur": e.duration * 1e6,
            "pid": 0,
            "tid": e.worker,
        }
        for e in trace.events
    ]
    meta = {
        "nworkers": trace.nworkers,
        "makespan": trace.makespan,
        "utilization": trace.utilization(),
    }
    meta.update(metadata or {})
    lanes = [f"worker {w}" for w in range(trace.nworkers)]
    return write_chrome_trace(path, lanes, spans, counters, meta)


def write_chrome_trace(path, lanes, spans, counters, metadata, *, origin=0.0, t0=0.0) -> Path:
    """Write one Chrome tracing JSON document (the one writer behind
    :func:`export_chrome_trace` and
    :func:`~repro.obs.tracing.export_request_chrome_trace`).

    ``lanes[tid]`` names thread ``tid`` (a ``thread_name`` and a
    ``thread_sort_index`` ``"M"`` event each); ``spans`` are the ``"X"``
    events, written as given; each ``counters`` sample ``(t, value)`` of a
    series becomes a ``"C"`` event at ``origin + t - t0`` seconds.  Times
    are in microseconds, displayed in milliseconds.
    """
    events = []
    for tid, name in enumerate(lanes):
        events.append(
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": tid, "args": {"name": name}}
        )
        events.append(
            {"name": "thread_sort_index", "ph": "M", "pid": 0, "tid": tid,
             "args": {"sort_index": tid}}
        )
    events.extend(spans)
    for name, samples in (counters or {}).items():
        for t, value in samples:
            events.append(
                {
                    "name": name,
                    "ph": "C",
                    "ts": (origin + t - t0) * 1e6,
                    "pid": 0,
                    "args": {name: value},
                }
            )
    payload = {"traceEvents": events, "displayTimeUnit": "ms", "metadata": metadata}
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json.dumps(payload), encoding="utf-8")
    return p
