"""Metric primitives: counters, gauges, and timing/value histograms.

The :class:`MetricsRegistry` is the flat name -> value store behind the
:class:`~repro.obs.instrument.Instrumentation` probe.  Names are dotted
strings ("h.recompressions", "tasks.submitted"); the registry is
thread-safe (the threaded executor's workers and the GIL-releasing H-kernels
update it concurrently) and its snapshot is plain JSON-serialisable data.
"""

from __future__ import annotations

import math
import threading

__all__ = ["Histogram", "MetricsRegistry", "SchedulerStats"]


class Histogram:
    """Streaming summary of observed values: count/sum/min/max + log10 buckets.

    Buckets are decades of the observed value (``bucket = floor(log10 v)``,
    clamped to [-9, 9]; zero and negatives land in the ``"<=0"`` bucket), so a
    per-kind *timing* histogram separates microsecond scheduling noise from
    millisecond kernels without configuration.

    Decade buckets alone put every value of one decade in one bucket, so each
    value is *also* recorded in a finer 1-2-5-per-decade bucket (``"2e-4"``
    covers ``[2e-4, 5e-4)``); :meth:`quantile` interpolates within those fine
    buckets, and ``snapshot()`` reports ``fine`` and ``p50``/``p95``/``p99``
    beside the decade ``buckets``.  A served request's latency is not a
    histogram: its exact percentiles come from
    :class:`~repro.obs.exposition.SlidingWindow`.
    """

    __slots__ = ("count", "total", "min", "max", "buckets", "fine")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: dict[str, int] = {}
        self.fine: dict[str, int] = {}

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= 0.0:
            key = fine_key = "<=0"
        else:
            d = max(-9, min(9, math.floor(math.log10(value))))
            key = f"1e{d}"
            m = value / 10.0**d
            sub = 5 if m >= 5.0 else (2 if m >= 2.0 else 1)
            fine_key = f"{sub}e{d}"
        self.buckets[key] = self.buckets.get(key, 0) + 1
        self.fine[fine_key] = self.fine.get(fine_key, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @staticmethod
    def _bounds(fine_key: str) -> tuple[float, float]:
        """[lower, upper) value range of one fine bucket."""
        if fine_key == "<=0":
            return (0.0, 0.0)
        mant, exp = fine_key.split("e", 1)
        lo = int(mant) * 10.0 ** int(exp)
        nxt = {1: 2.0, 2: 2.5, 5: 2.0}[int(mant)]
        return (lo, lo * nxt)

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0..1) by linear interpolation inside
        the fine 1-2-5 buckets, clamped to the observed min/max."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        items = sorted(self.fine.items(), key=lambda kv: self._bounds(kv[0])[0])
        seen = 0
        for fine_key, n in items:
            if seen + n >= target:
                lo, hi = self._bounds(fine_key)
                frac = (target - seen) / n if n else 0.0
                est = lo + (hi - lo) * frac
                return max(self.min, min(self.max, est))
            seen += n
        return self.max

    def snapshot(self) -> dict:
        if self.count == 0:
            return {
                "count": 0,
                "sum": 0.0,
                "min": 0.0,
                "max": 0.0,
                "mean": 0.0,
                "buckets": {},
                "fine": {},
                "p50": 0.0,
                "p95": 0.0,
                "p99": 0.0,
            }
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": dict(sorted(self.buckets.items())),
            "fine": dict(sorted(self.fine.items())),
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Thread-safe counters / gauges / histograms keyed by dotted names."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._hists: dict[str, Histogram] = {}

    # -- counters ----------------------------------------------------------
    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to the named monotonic counter."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + value

    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0.0)

    # -- gauges --------------------------------------------------------------
    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = float(value)

    def add_gauge(self, name: str, delta: float) -> float:
        """Adjust a gauge by ``delta`` and return the new value (running level)."""
        with self._lock:
            v = self._gauges.get(name, 0.0) + delta
            self._gauges[name] = v
            return v

    def max_gauge(self, name: str, value: float) -> None:
        """Raise the gauge to ``value`` if larger (peak tracking)."""
        with self._lock:
            if value > self._gauges.get(name, -math.inf):
                self._gauges[name] = float(value)

    def gauge(self, name: str) -> float:
        with self._lock:
            return self._gauges.get(name, 0.0)

    # -- histograms -------------------------------------------------------------
    def observe(self, name: str, value: float) -> None:
        with self._lock:
            h = self._hists.get(name)
            if h is None:
                h = self._hists[name] = Histogram()
            h.observe(value)

    def histogram(self, name: str) -> dict:
        """Snapshot of the named histogram (zeros if never observed)."""
        with self._lock:
            h = self._hists.get(name)
            return h.snapshot() if h is not None else Histogram().snapshot()

    # -- export -------------------------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-serialisable snapshot of every metric."""
        with self._lock:
            return {
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "histograms": {k: h.snapshot() for k, h in sorted(self._hists.items())},
            }


class SchedulerStats:
    """Push/pop/steal counters one :class:`~repro.runtime.schedulers.Scheduler`
    reports into while attached (see ``Scheduler.attach_stats``).

    All updates happen under the executor's condition variable (threaded) or
    in the single simulator thread, so plain integer fields suffice.  A
    *steal attempt* is any ``pop`` that finds the caller's own queue empty on
    a per-worker policy (``ws``/``lws``); it is a *steal* when a victim task
    is actually taken.  Central-queue policies only count local pops.
    """

    __slots__ = (
        "pushes",
        "pops_local",
        "steal_attempts",
        "steals",
        "depth_samples",
        "depth_sum",
        "depth_max",
    )

    def __init__(self) -> None:
        self.pushes = 0
        self.pops_local = 0
        self.steal_attempts = 0
        self.steals = 0
        self.depth_samples = 0
        self.depth_sum = 0
        self.depth_max = 0

    def sample_depth(self, depth: int) -> None:
        self.depth_samples += 1
        self.depth_sum += depth
        if depth > self.depth_max:
            self.depth_max = depth

    def snapshot(self) -> dict:
        return {
            "pushes": self.pushes,
            "pops_local": self.pops_local,
            "steal_attempts": self.steal_attempts,
            "steals": self.steals,
            "queue_depth_samples": self.depth_samples,
            "queue_depth_max": self.depth_max,
            "queue_depth_mean": (
                self.depth_sum / self.depth_samples if self.depth_samples else 0.0
            ),
        }
