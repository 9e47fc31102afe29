"""SolveService: the backpressured request pipeline.

Request lifecycle::

    submit ──admission──▶ micro-batcher ──take──▶ worker ──▶ store ──▶ panel solve
       │        │                                   │
       │   QueueFullError                      retry (transient)
       │   ServiceClosedError                  DeadlineExceededError
       ▼
    SolveTicket ◀─────────── result / typed error ──┘

Design rules, in order of priority:

* **Reject, never deadlock.**  Admission is a bounded counter checked
  synchronously in :meth:`SolveService.submit`; an overloaded service raises
  :class:`~repro.service.errors.QueueFullError` immediately instead of
  blocking the caller or growing an unbounded queue.
* **Admitted work finishes.**  :meth:`SolveService.close` stops admission,
  flushes the batcher, and joins the workers — every ticket handed out
  resolves (with a result or a typed error) before ``close`` returns.
* **Deadlines are checked where time is spent.**  A request carries an
  absolute deadline; a worker drops it with
  :class:`~repro.service.errors.DeadlineExceededError` when the deadline
  passed while it waited in the batcher (the solve itself is never
  interrupted mid-flight — tiles are shared state).
* **Hold a request only when something can join it.**  The batcher keeps an
  under-full bucket back for up to ``max_delay`` so that stragglers share
  its sweep — but only while some admitted request is *not* in that bucket
  (being solved, queued under another key, or between admission and the
  batcher).  A bucket that holds every unresolved request of this pipeline
  goes out at once: a lone request never waits, a burst still coalesces
  behind a busy worker, into one sweep up to ``max_queue`` wide.  Requests
  resolve on the worker threads, which come straight back to ``take``, so
  the rule is looked at again each time one does.
* **Transient failures retry, others don't.**
  :class:`~repro.service.errors.TransientSolveError` from the solver
  provider or the solve is retried up to ``max_retries`` times for the whole
  batch; any other exception fails the batch's requests at once.

Every count lives once, in :meth:`SolveService.stats` (the run report's
``service`` section and the ``repro_service_*`` families of ``/metrics``).
A completed request's latency is recorded once, in one
:class:`~repro.obs.exposition.SlidingWindow`: ``stats()`` reports its
summary (exact p50/p95/p99 over the newest 4 096 latencies) and
``lane_windows()`` its last 60 s, ranked alike.  An active
:class:`~repro.obs.Instrumentation` probe sees request spans and the
admission-queue depth series behind the Chrome counter tracks.
"""

from __future__ import annotations

import sys
import threading
import time
import traceback
from contextlib import nullcontext as _null_ctx

import numpy as np

from ..obs import current as obs_current
from ..obs.exposition import SlidingWindow
from ..obs.metrics import Histogram
from ..obs.tracing import current_trace
from .batcher import MicroBatcher
from .errors import (
    DeadlineExceededError,
    QueueFullError,
    ServiceClosedError,
    TransientSolveError,
)
from .problems import ProblemSpec, build_solver, check_rhs, spec_fingerprint
from .store import FactorizationStore

__all__ = ["SolveTicket", "SolveService"]


class SolveTicket:
    """Handle to one admitted request; resolves to a solution or a typed error."""

    __slots__ = (
        "key", "submitted_at", "finished_at", "_event", "_result", "_error",
        "_cb_lock", "_callbacks",
    )

    def __init__(self, key: str, submitted_at: float) -> None:
        self.key = key
        self.submitted_at = submitted_at
        self.finished_at: float | None = None
        self._event = threading.Event()
        self._result: np.ndarray | None = None
        self._error: BaseException | None = None
        self._cb_lock = threading.Lock()
        self._callbacks: list = []

    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        return self._event.wait(timeout)

    def exception(self, timeout: float | None = None) -> BaseException | None:
        if not self._event.wait(timeout):
            raise TimeoutError("ticket not resolved within timeout")
        return self._error

    def result(self, timeout: float | None = None) -> np.ndarray:
        """Block for the solution; re-raises the request's typed error."""
        if not self._event.wait(timeout):
            raise TimeoutError("ticket not resolved within timeout")
        if self._error is not None:
            raise self._error
        return self._result

    def add_done_callback(self, fn) -> None:
        """Run ``fn(ticket)`` once the ticket resolves (immediately if it
        already has).  Callbacks run on the resolving thread — keep them
        short and never block in one.  The fleet's re-routing rides this."""
        with self._cb_lock:
            if not self._event.is_set():
                self._callbacks.append(fn)
                return
        self._call(fn)

    def _call(self, fn) -> None:
        # A callback that raises is reported and skipped, as
        # concurrent.futures.Future does: it must not end the resolving
        # worker thread or starve the callbacks after it.
        try:
            fn(self)
        except Exception:
            print(f"exception calling callback for {self!r}", file=sys.stderr)
            traceback.print_exc()

    def _resolve(self, result=None, error=None, *, t: float) -> None:
        self._result = result
        self._error = error
        self.finished_at = t
        self._event.set()
        with self._cb_lock:
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            self._call(fn)


class _Request:
    __slots__ = ("spec", "rhs", "deadline", "ticket", "trace", "owns_trace",
                 "t_submit", "batch_waited")

    def __init__(self, spec, rhs, deadline, ticket) -> None:
        self.spec = spec
        self.rhs = rhs
        self.deadline = deadline
        self.ticket = ticket
        # Tracing state: ``trace`` is the request's TraceContext (or None);
        # ``owns_trace`` marks traces this service started itself (the fleet
        # finishes the ones it owns).  Span timestamps live in the
        # perf_counter domain, never the service clock.
        self.trace = None
        self.owns_trace = False
        self.t_submit = 0.0
        self.batch_waited = 0.0


class SolveService:
    """Bounded-admission, micro-batched, multi-worker solve pipeline.

    Parameters
    ----------
    store:
        The :class:`~repro.service.store.FactorizationStore` backing solves
        (a fresh in-memory store when omitted).
    workers:
        Worker threads consuming batches.  Batches for distinct fingerprints
        execute concurrently; one fingerprint's panel solve is single-sweep.
    max_queue:
        Admission capacity: requests admitted but not yet resolved.  Hitting
        it raises :class:`QueueFullError` at submit time — the backpressure
        contract.
    max_batch / max_delay:
        Micro-batching knobs (see :class:`~repro.service.batcher.MicroBatcher`).
        ``max_batch`` (default ``max_queue``) is the widest panel of a sweep;
        ``max_delay`` is the upper bound on the coalescing wait, paid only
        while another admitted request could still join the bucket.
    max_retries:
        Re-executions of a batch after a
        :class:`~repro.service.errors.TransientSolveError` before its
        requests fail.
    solver_provider:
        ``(key, spec) -> TileHMatrix`` seam; defaults to
        ``store.get_or_build(key, lambda: build_solver(spec))``.  Tests
        inject failures here.
    name:
        Label for this pipeline in traces, in its queue-depth series
        (``service_queue_depth[name]``) and in ``/metrics`` (fleet shards pass
        their worker name; ``None`` keeps the unlabelled single-service forms).
    """

    def __init__(
        self,
        store: FactorizationStore | None = None,
        *,
        workers: int = 2,
        max_queue: int = 64,
        max_batch: int | None = None,
        max_delay: float = 0.002,
        max_retries: int = 2,
        solver_provider=None,
        clock=time.monotonic,
        name: str | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.store = store if store is not None else FactorizationStore()
        self.max_queue = max_queue
        self.max_retries = max_retries
        self.name = name
        self._depth_series = "service_queue_depth" + (f"[{name}]" if name else "")
        self._provider = solver_provider or self._default_provider
        self._clock = clock
        # Expired requests are shed while a batch forms, not when the worker
        # dequeues it: a dead request must never occupy one of the max_batch
        # panel slots that a live straggler could have ridden.
        self._batcher = MicroBatcher(
            max_batch=max_queue if max_batch is None else max_batch,
            max_delay=max_delay, clock=clock,
            shed=lambda r, now: r.deadline is not None and now > r.deadline,
            on_shed=self._shed_expired,
            on_batch=self._on_batch_formed,
            outstanding=self.queue_depth,
        )

        self._lock = threading.Lock()
        self._inflight = 0
        self._depth_peak = 0
        self._closed = False
        self._admitted = 0
        self._rejected = 0
        self._completed = 0
        self._failed = 0
        self._expired = 0
        self._retries = 0
        self._latency = SlidingWindow(clock=clock)
        self._batch_hist = Histogram()

        self._threads = [
            threading.Thread(target=self._worker_loop, name=f"solve-worker-{i}", daemon=True)
            for i in range(workers)
        ]
        for t in self._threads:
            t.start()

    # -- admission ------------------------------------------------------------
    def submit(self, spec, rhs, *, timeout: float | None = None) -> SolveTicket:
        """Admit one solve request; returns a :class:`SolveTicket`.

        Raises :class:`ServiceClosedError` after :meth:`close`,
        :class:`QueueFullError` at capacity, and :class:`BadRequestError` for
        malformed specs or right-hand sides — all synchronously, so rejected
        work never occupies a queue slot.
        """
        if not isinstance(spec, ProblemSpec):
            spec = ProblemSpec.from_dict(spec)
        rhs = check_rhs(spec, rhs)
        deadline = None if timeout is None else self._clock() + timeout
        return self._enqueue(spec, rhs, spec_fingerprint(spec), deadline)

    def _enqueue(self, spec: ProblemSpec, rhs: np.ndarray, key: str,
                 deadline: float | None) -> SolveTicket:
        """Admit a request whose rhs is checked and key computed (submit, fleet)."""
        now = self._clock()
        probe = obs_current()
        with self._lock:
            if self._closed:
                self._rejected += 1
                raise ServiceClosedError("service is shutting down; request rejected")
            if self._inflight >= self.max_queue:
                self._rejected += 1
                raise QueueFullError(
                    f"admission queue full ({self._inflight}/{self.max_queue}); retry later"
                )
            self._inflight += 1
            self._admitted += 1
            depth = self._inflight
            if depth > self._depth_peak:
                self._depth_peak = depth
        if probe is not None:
            probe.sample(self._depth_series, depth)
        ticket = SolveTicket(key, now)
        r = _Request(spec, rhs, deadline, ticket)
        # Adopt the caller's ambient trace (the fleet activates its context
        # around dispatch) or open one of our own for direct submissions.
        ctx = current_trace()
        if ctx is None and probe is not None:
            ctx = probe.tracer.start(key)
            r.owns_trace = ctx is not None
        r.trace = ctx
        r.t_submit = time.perf_counter()
        self._batcher.add(key, r)
        return ticket

    def solve(self, spec, rhs, *, timeout: float | None = None) -> np.ndarray:
        """Synchronous convenience: :meth:`submit` and wait for the result."""
        return self.submit(spec, rhs, timeout=timeout).result()

    def keys(self) -> list[str]:
        """Fingerprints available in the backing store (either tier)."""
        return self.store.keys()

    # -- execution ------------------------------------------------------------
    def _default_provider(self, key: str, spec: ProblemSpec):
        return self.store.get_or_build(key, lambda: build_solver(spec))

    def _worker_loop(self) -> None:
        while True:
            batch = self._batcher.take(timeout=0.1)
            if batch is not None:
                self._run_batch(*batch)
                continue
            if self._batcher._draining:
                # A timeout-None can race drain(): drain the batcher dry
                # before exiting so no admitted request is stranded.
                while True:
                    batch = self._batcher.take(timeout=0)
                    if batch is None:
                        return
                    self._run_batch(*batch)

    def _on_batch_formed(self, key: str, items: list, waited: float) -> None:
        """Formation observer (under the batcher lock): remember how long
        the batcher held the batch back so the worker can emit batch-wait
        spans."""
        for r in items:
            r.batch_waited = waited

    def _shed_expired(self, key: str, r: "_Request") -> None:
        """Batch-formation shed (from the batcher): typed error, no slot used."""
        now = self._clock()
        self._finish(
            r,
            error=DeadlineExceededError(
                f"deadline passed {now - r.deadline:.3f}s while waiting to batch"
            ),
            expired=True,
        )

    def _run_batch(self, key: str, requests: list) -> None:
        # Formation-time shedding already filtered expired requests; this
        # re-check only catches a deadline that passed between the batcher's
        # pop and this worker picking the batch up.
        now = self._clock()
        live = []
        for r in requests:
            if r.deadline is not None and now > r.deadline:
                self._finish(
                    r,
                    error=DeadlineExceededError(
                        f"deadline passed {now - r.deadline:.3f}s before the solve started"
                    ),
                    expired=True,
                )
            else:
                live.append(r)
        if not live:
            return

        with self._lock:
            self._batch_hist.observe(len(live))

        # Queue-wait / batch-wait spans: the time from submit to this worker
        # picking the batch up, and the slice of it the batcher deliberately
        # held the bucket open for coalescing (none for a lone request).
        label = self.name or "svc"
        t_take = time.perf_counter()
        for r in live:
            ctx = r.trace
            if ctx is not None:
                ctx.add_span("queue-wait", r.t_submit, t_take, worker=label)
                if r.batch_waited > 0.0:
                    ctx.add_span(
                        "batch-wait", t_take - r.batch_waited, t_take,
                        worker=label, batch=len(live),
                    )

        # One multi-RHS panel sweep for the whole batch.  Batch composition
        # cannot change any request's bits: the panel solve is column-stable.
        panel = np.stack([r.rhs for r in live], axis=1)
        error: BaseException | None = None
        x = None
        # The lead request's trace rides ambiently through the provider
        # (store lookup / cold build / factorize) and the panel solve, so a
        # cold build's store and factorize spans attach to the request that
        # triggered it.
        lead = live[0].trace
        ambient = lead.activate() if lead is not None else _null_ctx()
        with ambient:
            for attempt in range(self.max_retries + 1):
                try:
                    solver = self._provider(key, live[0].spec)
                    t_s0 = time.perf_counter()
                    x = solver.solve(panel)
                    t_s1 = time.perf_counter()
                    for r in live:
                        if r.trace is not None:
                            r.trace.add_span(
                                "solve", t_s0, t_s1, worker=label, batch=len(live)
                            )
                    error = None
                    break
                except TransientSolveError as exc:
                    error = exc
                    if attempt < self.max_retries:
                        with self._lock:
                            self._retries += 1
                except Exception as exc:  # non-retryable: fail the batch at once
                    error = exc
                    break

        if error is not None:
            for r in live:
                self._finish(r, error=error)
            return
        for j, r in enumerate(live):
            self._finish(r, result=np.ascontiguousarray(x[:, j]))

    def _finish(self, r: _Request, *, result=None, error=None, expired=False) -> None:
        now = self._clock()
        probe = obs_current()
        with self._lock:
            self._inflight -= 1
            depth = self._inflight
            if error is None:
                self._completed += 1
                self._latency.observe(now - r.ticket.submitted_at, now)
            else:
                self._failed += 1
                if expired:
                    self._expired += 1
        if probe is not None:
            probe.sample(self._depth_series, depth)
        if r.trace is not None and r.owns_trace:
            # Fleet-owned traces are finished by the fleet's finalizer (it
            # appends routing outcome first); ours end here.
            r.trace.finish("ok" if error is None else getattr(error, "code", type(error).__name__))
        r.ticket._resolve(result=result, error=error, t=now)

    # -- shutdown -------------------------------------------------------------
    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def close(self, timeout: float | None = None) -> None:
        """Graceful drain: stop admission, finish every admitted request,
        stop the workers.  Idempotent."""
        with self._lock:
            self._closed = True
        self._batcher.drain()
        deadline = None if timeout is None else time.monotonic() + timeout
        for t in self._threads:
            t.join(None if deadline is None else max(0.0, deadline - time.monotonic()))

    def __enter__(self) -> "SolveService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- reporting ------------------------------------------------------------
    def queue_depth(self) -> int:
        with self._lock:
            return self._inflight

    def lane_windows(self) -> dict:
        """Rolling-window latency summary for ``GET /metrics`` (a single
        ``default`` lane — the fleet overrides this with per-lane windows)."""
        snap = self._latency.snapshot(self._clock())
        with self._lock:
            snap["inflight"] = self._inflight
        return {"default": snap}

    def stats(self) -> dict:
        """The ``service`` section of a ``repro-run-report/v1`` (schema-valid)."""
        with self._lock:
            latency = self._latency.summary()
            counts = {
                "admitted": self._admitted,
                "rejected": self._rejected,
                "completed": self._completed,
                "failed": self._failed,
                "expired": self._expired,
                "retries": self._retries,
            }
            batch = self._batch_hist.snapshot()
            depth_peak = self._depth_peak
        return {
            "requests": counts,
            "latency_seconds": latency,
            "batch_size": batch,
            "queue": {"depth_peak": depth_peak, "capacity": self.max_queue},
            "store": self.store.stats(),
            "workers": len(self._threads),
        }
