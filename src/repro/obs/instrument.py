"""The span/counter probe every runtime and H-arithmetic layer reports into.

One :class:`Instrumentation` object observes one profiled run.  Components
receive it two ways:

* explicitly — ``ThreadedExecutor(..., instrument=...)``,
  ``ProcessExecutor(..., instrument=...)``, ``simulate(..., instrument=...)``;
* ambiently — ``with Instrumentation() as probe:`` installs the probe as the
  process-wide *active* probe that the H-kernels (ACA, Rk rounding, the
  update accumulator, tile assembly) consult through :func:`current`, so the
  numerical layers need no API churn to be observable.

Disabled cost is one ``is None`` test per event: when no probe is active,
:func:`current` returns ``None`` and every call site skips its hook.  Only
one profiled run can be active at a time (the active slot is a module
global, deliberately shared across worker threads).

The probe holds what only it can: spans, time series, and the runtime and
ℌ-arithmetic counters.  A count that has an owner — a serving request's
admission, batch or retry, a store lookup, a lane's SLO — lives once, in
its owner's ``stats()`` (``SolveService``, ``ServeFleet``,
``FactorizationStore``); ``/metrics`` and run reports read it there.  On the
serving path the probe sees request spans (``tracer.start``) and the
admission-queue depth series behind the Chrome counter tracks (``sample``).
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

from .metrics import MetricsRegistry, SchedulerStats
from .tracing import RequestTracer

__all__ = ["Instrumentation", "current"]

_active: "Instrumentation | None" = None
_active_lock = threading.Lock()


def current() -> "Instrumentation | None":
    """The active probe installed by ``Instrumentation.__enter__`` (or None)."""
    return _active


def _kind_zero() -> dict:
    return {"submitted": 0, "flops": 0.0, "operand_bytes": 0}


def _worker_zero() -> dict:
    return {"wait_seconds": 0.0, "lease_handoffs": 0}


class Instrumentation:
    """Per-run observability hub: registry + per-kind submission tallies +
    per-worker wait tallies + scheduler counters + time series for Chrome
    counter tracks.

    ``clock`` defaults to ``time.perf_counter``; series timestamps are
    relative to construction time (virtual-time callers pass explicit ``t``).

    ``trace_capacity`` sizes the :class:`~repro.obs.tracing.RequestTracer`
    ring buffer of completed request traces (serve path); 0 disables
    request tracing while keeping the other hooks live.
    """

    def __init__(self, clock=time.perf_counter, *, trace_capacity: int = 64) -> None:
        self.registry = MetricsRegistry()
        self.sched = SchedulerStats()
        self.kinds: dict[str, dict] = defaultdict(_kind_zero)
        self.workers: dict[int, dict] = defaultdict(_worker_zero)
        self.series: dict[str, list[tuple[float, float]]] = {}
        self.tracer = RequestTracer(trace_capacity)
        self._clock = clock
        self._t0 = clock()
        self._lock = threading.Lock()

    # -- activation ------------------------------------------------------------
    def __enter__(self) -> "Instrumentation":
        global _active
        with _active_lock:
            if _active is not None:
                raise RuntimeError("another Instrumentation probe is already active")
            _active = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _active
        with _active_lock:
            if _active is self:
                _active = None

    # -- clocks --------------------------------------------------------------
    def now(self) -> float:
        """Seconds since the probe was created (real-time series timestamps)."""
        return self._clock() - self._t0

    @property
    def origin(self) -> float:
        """Absolute clock value at probe creation — the epoch of every
        series timestamp (aligns counter tracks with request-trace spans)."""
        return self._t0

    # -- runtime hooks -----------------------------------------------------------
    def task_submitted(
        self, kind: str, flops: float, operand_bytes: int, operand_max_rank: int
    ) -> None:
        """One task of ``kind`` entered a graph (tagged with flops + operand stats)."""
        with self._lock:
            k = self.kinds[kind]
            k["submitted"] += 1
            k["flops"] += flops
            k["operand_bytes"] += operand_bytes
        self.registry.inc("tasks.submitted")
        if operand_max_rank:
            self.registry.observe("tasks.operand_max_rank", operand_max_rank)

    def task_span(self, kind: str, start: float, end: float) -> None:
        """One task of ``kind`` executed over ``[start, end]``: its duration
        joins the kind's histogram.  Per-kind and per-worker counts and busy
        time are the trace's (``build_run_report`` reads them there)."""
        self.registry.observe(f"tasks.seconds.{kind}", end - start)

    def worker_wait(self, worker: int, seconds: float) -> None:
        """Measured time ``worker`` spent parked waiting for ready work or,
        in a leased run, for the interpreter lease."""
        with self._lock:
            self.workers[worker]["wait_seconds"] += seconds

    def lease_handoffs(self, worker: int, count: int) -> None:
        """``worker`` took the interpreter lease from another worker
        ``count`` times (leased :class:`ThreadedExecutor` runs only)."""
        with self._lock:
            self.workers[worker]["lease_handoffs"] += count
        self.registry.inc("executor.lease_handoffs", count)

    def sample(self, name: str, value: float, t: float | None = None) -> None:
        """Append a (t, value) point to the named counter-track series."""
        if t is None:
            t = self.now()
        with self._lock:
            self.series.setdefault(name, []).append((t, float(value)))

    # -- H-arithmetic hooks ---------------------------------------------------------
    def recompression(self, m: int, n: int, rank_in: int, rank_out: int) -> None:
        """One QR+QR+SVD rounding of an (m x n) Rk block."""
        reg = self.registry
        reg.inc("h.recompressions")
        reg.observe("h.rank_in", rank_in)
        reg.observe("h.rank_out", rank_out)
        reg.observe("h.rank_drop", rank_in - rank_out)

    def block_compressed(
        self, m: int, n: int, rank: int, itemsize: int, kernel_entries: int
    ) -> None:
        """One admissible block compressed during assembly, by any method,
        from ``kernel_entries`` evaluations of the block's ``m * n`` entries
        (all of them when the block was evaluated densely)."""
        reg = self.registry
        reg.inc("h.blocks_compressed")
        reg.inc("h.compressed_bytes", float((m + n) * rank * itemsize))
        reg.inc("h.dense_bytes", float(m * n * itemsize))
        reg.inc("h.aca.kernel_entries", kernel_entries)
        reg.inc("h.aca.dense_entries", m * n)
        reg.observe("h.block_rank", rank)

    def h_bytes_delta(self, delta: float, t: float | None = None) -> None:
        """H-matrix storage grew/shrank by ``delta`` bytes (peak is tracked,
        and the running level feeds the Chrome ``h_bytes`` counter track)."""
        level = self.registry.add_gauge("h.bytes", float(delta))
        self.registry.max_gauge("h.peak_bytes", level)
        self.sample("h_bytes", level, t)

    def accumulator_deferred(self) -> None:
        self.registry.inc("h.accumulator.deferred")

    def accumulator_flush(self, nblocks: int) -> None:
        self.registry.inc("h.accumulator.flushed_blocks", nblocks)

    def factor_program_lookup(self, hit: bool) -> None:
        """One threaded or process factorisation, opaque or nested, asked for
        its recorded graph (:func:`repro.core.factor_program.program_for`): a
        hit replays a program already in the table, a miss records one first."""
        self.registry.inc("nested.program.hits" if hit else "nested.program.misses")

    # -- Krylov hooks ----------------------------------------------------------
    def krylov_solve(
        self, method: str, iterations: int, converged: bool, final_residual: float
    ) -> None:
        """One Krylov solve (pcg/gmres) finished — the preconditioner-quality
        signal: few iterations + converged means the loose H-factorisation is
        doing its job."""
        reg = self.registry
        reg.inc("krylov.solves")
        reg.inc(f"krylov.solves.{method}")
        reg.inc("krylov.iters", iterations)
        reg.inc("krylov.converged" if converged else "krylov.unconverged")
        reg.observe("krylov.iterations", iterations)
        reg.observe("krylov.final_residual", final_residual)

    # -- process-executor hooks -----------------------------------------------
    def process_workers(self, count: int) -> None:
        """A process executor started ``count`` worker processes."""
        self.registry.max_gauge("process.workers", count)

    def process_dispatch(self, nbytes: int) -> None:
        """One task shipped to a worker (``nbytes`` of skeleton pickles)."""
        self.registry.inc("process.dispatches")
        if nbytes:
            self.registry.inc("process.ipc_bytes", float(nbytes))

    def process_dispatch_batch(self, size: int) -> None:
        """One pipe write carried ``size`` task entries to a worker."""
        self.registry.inc("process.dispatch_batches")
        self.registry.observe("process.batch_size", size)

    def process_result_bytes(self, nbytes: int) -> None:
        """Result skeletons reshipped from a worker."""
        self.registry.inc("process.ipc_bytes", float(nbytes))

    def process_shm_bytes(self, nbytes: int) -> None:
        """Bytes copied into shared-memory segments over the run."""
        if nbytes:
            self.registry.inc("process.shm_bytes", float(nbytes))

    def process_segments(self, count: int) -> None:
        """Shared-memory segments created (and unlinked) by the run."""
        self.registry.max_gauge("process.segments", count)
