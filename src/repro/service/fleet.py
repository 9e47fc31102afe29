"""ServeFleet: sharded serving behind consistent-hash routing + SLO admission.

One :class:`~repro.service.pipeline.SolveService` is a single pipeline: one
admission counter, one batcher, one in-memory factor cache.  The fleet is the
next order of magnitude — the data-distribution discipline of
*Distributed-memory H-matrix Algebra I* (arXiv:2008.12441) applied to
serving: **partition by key, replicate hot state**.

Topology::

                            ┌────────────────────────────┐
     submit(spec, rhs,      │  admission (per-lane SLO)  │  QueueFullError /
            lane, timeout)──▶  interactive │ batch       │─ DeadlineUnmeetableError
                            └──────┬─────────────────────┘
                                   │ fingerprint
                            ┌──────▼─────────┐
                            │ consistent-hash│   hot keys: least-loaded
                            │     router     │   replica instead of primary
                            └──┬────┬────┬───┘
                          ┌────▼┐ ┌─▼──┐ ┌▼───┐
                          │ w0  │ │ w1 │ │ w2 │   one SolveService each
                          │ LRU │ │ LRU│ │ LRU│   (own batcher + memory tier)
                          └──┬──┘ └─┬──┘ └─┬──┘
                             └──────┼──────┘
                             shared on-disk FactorizationStore tier

* **Routing** is a consistent-hash ring over the problem *fingerprint* with
  128 virtual nodes per worker: deterministic, balanced (max/min keys per
  worker stays within ~2x at 4 workers over 1k keys), and stable under
  resize — removing a worker only re-homes that worker's keys.
* **Storage** is two-tier per worker: every worker shares one on-disk
  archive directory (``store_root``) but owns a private LRU memory tier, so
  a fingerprint is factorized once fleet-wide (first worker persists it;
  any other worker's cold request is a disk hit, zero-copy: every worker's
  store maps its archives).
* **Warm replication**: once a fingerprint has been requested
  ``replicate_hot_after`` times, its archive is mmap-loaded into the memory
  tiers of the next workers on the ring and subsequent requests for it go to
  the least-loaded replica — hot keys stop serializing on one worker.
* **SLO-aware admission** replaces the single bounded queue: each *lane*
  (``interactive``/``batch`` by default) has its own in-flight budget — a
  saturated batch lane can never starve interactive traffic — and
  deadline-based shedding: a request whose deadline is closer than the
  lane's observed (EWMA) service time is rejected up front with
  :class:`~repro.service.errors.DeadlineUnmeetableError` instead of burning
  a solve on an answer the caller will never use.
* **Crash recovery**: a failed worker is removed from the ring and its
  queued requests are re-dispatched to the surviving workers (at-least-once
  execution; solves are pure, so replays are safe).  Only after
  :data:`_MAX_REQUEUES` re-dispatches does a caller see
  :class:`~repro.service.errors.WorkerCrashedError`.
* **Latency** of a completed request is recorded once in its shard's
  pipeline and once in its lane, each a
  :class:`~repro.obs.exposition.SlidingWindow` (``stats()`` reads its
  summary, ``lane_windows()`` its last 60 s).

The fleet never changes bits: every worker builds or loads the same
content-addressed factorization, and panel solves are column-stable, so a
fleet solve is bit-identical to a single-service solve of the same request.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
import time
from contextlib import nullcontext as _null_ctx
from dataclasses import dataclass

import numpy as np

from ..obs import current as obs_current
from ..obs.exposition import SlidingWindow
from .errors import (
    BadRequestError,
    DeadlineExceededError,
    DeadlineUnmeetableError,
    QueueFullError,
    ServiceClosedError,
    ServiceError,
    WorkerCrashedError,
)
from .pipeline import SolveService, SolveTicket
from .problems import ProblemSpec, check_rhs, spec_fingerprint
from .store import FactorizationStore

__all__ = ["ConsistentHashRouter", "LaneConfig", "ServeFleet"]

#: Ring points per node of a :class:`ConsistentHashRouter`.
_VNODES = 128
#: Re-dispatches of a request orphaned by worker crashes before it fails.
_MAX_REQUEUES = 2


def _ring_point(label: str) -> int:
    """Position of ``label`` on the 64-bit hash ring (sha256-derived)."""
    return int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "big")


class ConsistentHashRouter:
    """Consistent-hash ring: stable, balanced key -> node assignment.

    Each node owns :data:`_VNODES` points on a 64-bit ring; a key routes to the
    first node point at or after the key's own hash (wrapping).  Properties
    the fleet leans on:

    * deterministic — same nodes, same key, same answer, in any process;
    * balanced — with enough virtual nodes the arc lengths even out
      (128 of them keep max/min keys per node near 1.5x at 4 nodes);
    * minimal disruption — adding a node steals ~K/(N+1) keys from the
      others; removing one re-homes only *its* keys.  Everything else
      stays put, which is what keeps worker memory tiers warm across
      fleet resizes.
    """

    def __init__(self, nodes=()) -> None:
        self._points: list[int] = []
        self._owners: list[str] = []
        self._nodes: set[str] = set()
        for node in nodes:
            self.add(node)

    def __len__(self) -> int:
        return len(self._nodes)

    def nodes(self) -> list[str]:
        return sorted(self._nodes)

    def add(self, node: str) -> None:
        if node in self._nodes:
            raise ValueError(f"node {node!r} already on the ring")
        self._nodes.add(node)
        for v in range(_VNODES):
            point = _ring_point(f"{node}#{v}")
            i = bisect.bisect(self._points, point)
            self._points.insert(i, point)
            self._owners.insert(i, node)

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            raise ValueError(f"node {node!r} not on the ring")
        self._nodes.discard(node)
        keep = [(p, o) for p, o in zip(self._points, self._owners) if o != node]
        self._points = [p for p, _ in keep]
        self._owners = [o for _, o in keep]

    def route(self, key: str) -> str:
        """The node owning ``key`` (first ring point clockwise of its hash)."""
        if not self._points:
            raise ValueError("ring is empty")
        i = bisect.bisect(self._points, _ring_point(key)) % len(self._points)
        return self._owners[i]

    def preference(self, key: str, count: int) -> list[str]:
        """The first ``count`` *distinct* nodes clockwise of ``key`` — the
        replica placement order (primary first)."""
        if not self._points:
            raise ValueError("ring is empty")
        out: list[str] = []
        start = bisect.bisect(self._points, _ring_point(key))
        for d in range(len(self._points)):
            owner = self._owners[(start + d) % len(self._points)]
            if owner not in out:
                out.append(owner)
                if len(out) >= count:
                    break
        return out


@dataclass(frozen=True)
class LaneConfig:
    """One admission lane of the fleet.

    ``max_inflight`` is the lane's private budget — lanes never contend for
    slots, which is the starvation guarantee.  A request with a deadline is
    shed at admission when ``now + estimate > deadline`` (``estimate`` is
    the lane's EWMA service time).  ``slo_seconds`` is the lane's latency
    objective: completions are scored against it (attainment + EWMA
    burn-rate gauge — sheds and rejections burn budget too, so admission
    control is visible in the same signal), ``None`` disables SLO tracking.
    """

    name: str
    max_inflight: int = 64
    slo_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {self.max_inflight}")
        if self.slo_seconds is not None and self.slo_seconds <= 0:
            raise ValueError(f"slo_seconds must be > 0, got {self.slo_seconds}")


DEFAULT_LANES = (
    LaneConfig("interactive", max_inflight=64),
    LaneConfig("batch", max_inflight=256),
)

#: EWMA weight of the newest service-time sample.
_EWMA_ALPHA = 0.2


class _LaneState:
    """Counters + service-time estimator of one lane (fleet lock guards it)."""

    __slots__ = (
        "config", "inflight", "inflight_peak", "admitted", "completed",
        "failed", "expired", "shed", "rejected", "estimate", "latency",
        "slo_good", "slo_violations", "burn_rate",
    )

    def __init__(self, config: LaneConfig, clock=time.monotonic) -> None:
        self.config = config
        self.inflight = 0
        self.inflight_peak = 0
        self.admitted = 0
        self.completed = 0
        self.failed = 0
        self.expired = 0
        self.shed = 0
        self.rejected = 0
        self.estimate: float | None = None  # EWMA of observed service time
        self.latency = SlidingWindow(clock=clock)
        # SLO scoreboard: every terminal outcome is either within the
        # objective ("good") or burns error budget; the burn rate is an EWMA
        # of the violation indicator, so 0.0 = healthy, 1.0 = every recent
        # outcome violating.
        self.slo_good = 0
        self.slo_violations = 0
        self.burn_rate = 0.0

    def _score_slo(self, violated: bool) -> None:
        if self.config.slo_seconds is None:
            return
        if violated:
            self.slo_violations += 1
        else:
            self.slo_good += 1
        self.burn_rate += _EWMA_ALPHA * ((1.0 if violated else 0.0) - self.burn_rate)

    def observe(self, latency: float, now: float | None = None) -> None:
        self.latency.observe(latency, now)
        if self.estimate is None:
            self.estimate = latency
        else:
            self.estimate += _EWMA_ALPHA * (latency - self.estimate)
        self._score_slo(
            self.config.slo_seconds is not None and latency > self.config.slo_seconds
        )

    def note_denied(self) -> None:
        """A shed/rejection burns SLO budget — denied callers got no answer."""
        self._score_slo(True)

    def slo_stats(self) -> dict | None:
        if self.config.slo_seconds is None:
            return None
        scored = self.slo_good + self.slo_violations
        return {
            "target_seconds": self.config.slo_seconds,
            "good": self.slo_good,
            "violations": self.slo_violations,
            "attainment": self.slo_good / scored if scored else 1.0,
            "burn_rate": self.burn_rate,
        }

    def stats(self) -> dict:
        out = {
            "admitted": self.admitted,
            "completed": self.completed,
            "failed": self.failed,
            "expired": self.expired,
            "shed": self.shed,
            "rejected": self.rejected,
            "inflight": self.inflight,
            "inflight_peak": self.inflight_peak,
            "max_inflight": self.config.max_inflight,
            "est_service_seconds": self.estimate if self.estimate is not None else 0.0,
        }
        latency = self.latency.summary()
        if latency["count"]:
            for q in ("p50", "p95", "p99"):
                out[f"{q}_ms"] = latency[q] * 1e3
        slo = self.slo_stats()
        if slo is not None:
            out["slo"] = slo
        return out


class _FleetRequest:
    __slots__ = ("spec", "rhs", "deadline", "lane", "ticket", "attempts", "trace")

    def __init__(self, spec, rhs, deadline, lane, ticket) -> None:
        self.spec = spec
        self.rhs = rhs
        self.deadline = deadline
        self.lane = lane
        self.ticket = ticket
        self.attempts = 0
        self.trace = None  # TraceContext opened at admission (or None)


class _FleetWorker:
    __slots__ = ("index", "name", "store", "service", "pending", "healthy")

    def __init__(self, index: int, name: str, store, service) -> None:
        self.index = index
        self.name = name
        self.store = store
        self.service = service
        #: In-flight fleet requests currently homed on this worker (dict as
        #: an ordered set; fleet lock guards it).
        self.pending: dict[_FleetRequest, None] = {}
        self.healthy = True


class ServeFleet:
    """N sharded :class:`SolveService` workers behind one admission front.

    Parameters
    ----------
    workers:
        Fleet width: each worker is a full :class:`SolveService` (own
        micro-batcher, own worker threads, own LRU memory tier).
    store_root:
        Shared on-disk archive directory (the fleet-wide persistence tier).
        ``None`` serves purely in-memory — replication is then off, since
        there is no archive to warm a replica from.
    budget_bytes:
        Per-worker memory-tier budget (each worker gets the full amount).
        Every worker's store maps its archives (one read-only mapping per
        resident key); the page cache is shared across workers, which is
        what makes warm replication cheap.
    lanes:
        Iterable of :class:`LaneConfig`; defaults to an ``interactive`` and
        a ``batch`` lane.
    replicate_hot_after:
        Requests to one fingerprint before its archive is warm-loaded into
        ``replicas``-many workers (``None`` disables).
    replicas:
        Total copies of a hot fingerprint (primary included).
    service_threads / max_queue / max_batch / max_delay / max_retries /
    solver_provider:
        Forwarded to each worker's :class:`SolveService` (``max_batch``
        defaults to its ``max_queue``).
    """

    def __init__(
        self,
        workers: int = 2,
        *,
        store_root=None,
        budget_bytes: int | None = None,
        lanes=DEFAULT_LANES,
        replicate_hot_after: int | None = 16,
        replicas: int = 2,
        service_threads: int = 1,
        max_queue: int = 64,
        max_batch: int | None = None,
        max_delay: float = 0.002,
        max_retries: int = 2,
        solver_provider=None,
        clock=time.monotonic,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        if replicate_hot_after is not None and replicate_hot_after < 1:
            raise ValueError(
                f"replicate_hot_after must be >= 1, got {replicate_hot_after}"
            )
        lane_list = list(lanes)
        if not lane_list:
            raise ValueError("fleet needs at least one lane")
        self._clock = clock
        self._lock = threading.Lock()
        self._closed = False
        self._lanes = {cfg.name: _LaneState(cfg, clock) for cfg in lane_list}
        if len(self._lanes) != len(lane_list):
            raise ValueError("duplicate lane names")
        self.store_root = store_root
        self.replicate_hot_after = replicate_hot_after if store_root is not None else None
        self.replicas = replicas
        self._router = ConsistentHashRouter()
        self._workers: list[_FleetWorker] = []
        self._by_name: dict[str, _FleetWorker] = {}
        for i in range(workers):
            store = FactorizationStore(
                store_root, budget_bytes=budget_bytes, mmap=True
            ) if store_root is not None else FactorizationStore(budget_bytes=budget_bytes)
            service = SolveService(
                store,
                workers=service_threads,
                max_queue=max_queue,
                max_batch=max_batch,
                max_delay=max_delay,
                max_retries=max_retries,
                solver_provider=solver_provider,
                clock=clock,
                name=f"w{i}",
            )
            w = _FleetWorker(i, f"w{i}", store, service)
            self._workers.append(w)
            self._by_name[w.name] = w
            self._router.add(w.name)
        # Fingerprint -> request count (hot tracking) and replica homes.
        self._key_counts: dict[str, int] = {}
        self._replica_homes: dict[str, list[str]] = {}
        self._replicated_loads = 0
        self._requeues = 0
        self._failed_workers = 0

    # -- introspection ---------------------------------------------------------
    @property
    def lanes(self) -> dict[str, LaneConfig]:
        return {name: st.config for name, st in self._lanes.items()}

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def healthy_workers(self) -> list[int]:
        with self._lock:
            return [w.index for w in self._workers if w.healthy]

    def worker_for(self, key: str) -> int:
        """Index of the worker a (non-replicated) key routes to."""
        with self._lock:
            return self._by_name[self._router.route(key)].index

    def keys(self) -> list[str]:
        """Every fingerprint available anywhere in the fleet (sorted union)."""
        out: set[str] = set()
        for w in self._workers:
            out.update(w.store.keys())
        return sorted(out)

    def queue_depth(self) -> int:
        return sum(w.service.queue_depth() for w in self._workers)

    # -- admission -------------------------------------------------------------
    def submit(self, spec, rhs, *, lane: str = "interactive",
               timeout: float | None = None) -> SolveTicket:
        """Admit one request into ``lane``; returns a :class:`SolveTicket`.

        Synchronous typed rejections, in the order they are checked:
        :class:`BadRequestError` (malformed spec/rhs/lane),
        :class:`ServiceClosedError` (fleet closed), :class:`QueueFullError`
        (lane budget exhausted), :class:`DeadlineUnmeetableError` (the
        lane's observed service time says the deadline cannot be met).
        """
        if not isinstance(spec, ProblemSpec):
            spec = ProblemSpec.from_dict(spec)
        rhs = check_rhs(spec, rhs)
        state = self._lanes.get(lane)
        if state is None:
            raise BadRequestError(
                f"unknown lane {lane!r}; choose from {sorted(self._lanes)}"
            )
        key = spec_fingerprint(spec)
        now = self._clock()
        deadline = None if timeout is None else now + timeout
        with self._lock:
            if self._closed:
                state.rejected += 1
                raise ServiceClosedError("fleet is shutting down; request rejected")
            if state.inflight >= state.config.max_inflight:
                state.rejected += 1
                state.note_denied()
                raise QueueFullError(
                    f"lane {lane!r} at capacity "
                    f"({state.inflight}/{state.config.max_inflight}); retry later"
                )
            if (
                deadline is not None
                and state.estimate is not None
                and now + state.estimate > deadline
            ):
                state.shed += 1
                state.note_denied()
                raise DeadlineUnmeetableError(
                    f"deadline in {deadline - now:.3f}s but lane {lane!r} "
                    f"currently serves in ~{state.estimate:.3f}s; shed at admission"
                )
            state.inflight += 1
            state.admitted += 1
            if state.inflight > state.inflight_peak:
                state.inflight_peak = state.inflight
            count = self._key_counts.get(key, 0) + 1
            self._key_counts[key] = count
        ticket = SolveTicket(key, now)
        request = _FleetRequest(spec, rhs, deadline, lane, ticket)
        probe = obs_current()
        if probe is not None:
            request.trace = probe.tracer.start(key, lane=lane)
        try:
            self._dispatch(request)
        except ServiceError as exc:
            with self._lock:
                state.inflight -= 1
                state.admitted -= 1
                state.rejected += 1
                state.note_denied()
            if request.trace is not None:
                request.trace.finish(getattr(exc, "code", type(exc).__name__))
            raise exc
        if (
            self.replicate_hot_after is not None
            and count == self.replicate_hot_after
            and self.replicas > 1
        ):
            threading.Thread(
                target=self._replicate, args=(key,), daemon=True,
                name=f"fleet-replicate-{key[:8]}",
            ).start()
        return ticket

    def solve(self, spec, rhs, *, lane: str = "interactive",
              timeout: float | None = None) -> np.ndarray:
        """Synchronous convenience: :meth:`submit` and wait for the result."""
        return self.submit(spec, rhs, lane=lane, timeout=timeout).result()

    # -- routing + dispatch ----------------------------------------------------
    def _choose_worker(self, key: str) -> _FleetWorker:
        """Primary by ring position; hot keys go to the least-loaded healthy
        replica (the primary competes too)."""
        with self._lock:
            homes = self._replica_homes.get(key)
            if homes:
                candidates = [
                    self._by_name[name]
                    for name in homes
                    if name in self._by_name and self._by_name[name].healthy
                ]
                if candidates:
                    return min(candidates, key=lambda w: w.service.queue_depth())
            if not len(self._router):
                raise WorkerCrashedError("no healthy fleet workers remain")
            return self._by_name[self._router.route(key)]

    def _dispatch(self, request: _FleetRequest) -> None:
        ctx = request.trace
        t_r0 = time.perf_counter()
        w = self._choose_worker(request.ticket.key)
        if ctx is not None:
            # First placement is a "route"; any re-placement after a crash
            # or mid-dispatch drain is a "rehome".
            ctx.add_span(
                "rehome" if request.attempts else "route",
                t_r0, time.perf_counter(),
                shard=w.name, attempt=request.attempts,
            )
        with self._lock:
            w.pending[request] = None
        try:
            # Activate the trace so the shard's pipeline adopts it (the
            # queue-wait/batch-wait/solve spans land on this request).  The
            # rhs was checked and the key computed once, at fleet admission.
            with ctx.activate() if ctx is not None else _null_ctx():
                inner = w.service._enqueue(request.spec, request.rhs,
                                           request.ticket.key, request.deadline)
        except ServiceClosedError:
            # The worker drained underneath us: treat as a crash, re-home
            # its keys, and retry this request on the survivors.
            with self._lock:
                w.pending.pop(request, None)
            self.fail_worker(w.index)
            if request.attempts < _MAX_REQUEUES:
                request.attempts += 1
                with self._lock:
                    self._requeues += 1
                self._dispatch(request)
                return
            raise WorkerCrashedError(
                f"worker {w.name} closed mid-dispatch and requeues are exhausted"
            ) from None
        except ServiceError:
            with self._lock:
                w.pending.pop(request, None)
            raise
        inner.add_done_callback(
            lambda t, request=request, w=w: self._inner_done(request, w, t)
        )

    def _inner_done(self, request: _FleetRequest, w: _FleetWorker, inner) -> None:
        with self._lock:
            if request not in w.pending:
                # Stale resolution: fail_worker() already re-homed this
                # request off ``w``; the re-dispatched copy is authoritative.
                return
            del w.pending[request]
        self._finalize(request, result=inner._result, error=inner._error)

    def _finalize(self, request: _FleetRequest, *, result=None, error=None) -> None:
        now = self._clock()
        state = self._lanes[request.lane]
        with self._lock:
            if request.ticket.done():
                return
            state.inflight -= 1
            if error is None:
                state.completed += 1
                state.observe(now - request.ticket.submitted_at, now)
            else:
                state.failed += 1
                if isinstance(error, DeadlineExceededError):
                    state.expired += 1
                state._score_slo(True)
        if request.trace is not None:
            request.trace.finish(
                "ok" if error is None else getattr(error, "code", type(error).__name__)
            )
        request.ticket._resolve(result=result, error=error, t=now)

    # -- failure handling ------------------------------------------------------
    def fail_worker(self, index: int) -> None:
        """Remove a (crashed) worker from the ring and re-home its queued
        requests onto the survivors — no admitted request is lost.

        Idempotent.  The dead worker's service is drained in the background;
        any results it still produces are discarded (the re-homed copy is
        authoritative).  Solves are pure functions of (fingerprint, rhs), so
        the at-least-once replay cannot change any bits.
        """
        with self._lock:
            w = self._workers[index]
            if not w.healthy:
                return
            w.healthy = False
            self._failed_workers += 1
            self._router.remove(w.name)
            self._by_name.pop(w.name, None)
            # Hot-key homes pointing at the dead worker are stale; drop them
            # (the ring reroutes, and replication can re-trigger later).
            for key, homes in list(self._replica_homes.items()):
                if w.name in homes:
                    homes.remove(w.name)
                    if not homes:
                        del self._replica_homes[key]
            orphans = [r for r in w.pending if not r.ticket.done()]
            w.pending.clear()
        threading.Thread(
            target=w.service.close, daemon=True, name=f"fleet-drain-{w.name}"
        ).start()
        for r in orphans:
            r.attempts += 1
            if r.attempts > _MAX_REQUEUES:
                self._finalize(r, error=WorkerCrashedError(
                    f"worker {w.name} crashed and requeues are exhausted"
                ))
                continue
            with self._lock:
                self._requeues += 1
            try:
                self._dispatch(r)
            except ServiceError as exc:
                self._finalize(r, error=exc)

    # -- replication -----------------------------------------------------------
    def _replicate(self, key: str) -> None:
        """Warm-load a hot fingerprint's archive into the next workers on the
        ring (mmap: the copies share page-cache pages with the primary)."""
        with self._lock:
            if self._closed or not len(self._router):
                return
            names = self._router.preference(key, min(self.replicas, len(self._router)))
        homes: list[str] = []
        loaded = 0
        for name in names:
            w = self._by_name.get(name)
            if w is None or not w.healthy:
                continue
            try:
                if w.store.get(key) is not None:
                    homes.append(name)
                    loaded += 1
            except Exception:
                continue  # a racing eviction/unlink; replication is best-effort
        if len(homes) > 1:
            with self._lock:
                self._replica_homes[key] = homes
                self._replicated_loads += loaded

    # -- shutdown --------------------------------------------------------------
    def close(self, timeout: float | None = None) -> None:
        """Graceful drain of every worker.  Idempotent."""
        with self._lock:
            self._closed = True
            workers = [w for w in self._workers if w.healthy]
        deadline = None if timeout is None else time.monotonic() + timeout
        for w in workers:
            w.service.close(
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )

    def __enter__(self) -> "ServeFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- reporting -------------------------------------------------------------
    def stats(self) -> dict:
        """The ``fleet`` section of a run report (schema-valid): lane
        counters + latency percentiles, routing balance, replication."""
        with self._lock:
            lanes = {name: st.stats() for name, st in self._lanes.items()}
            per_worker = {w.name: 0 for w in self._workers if w.healthy}
            for key in self._key_counts:
                try:
                    per_worker[self._router.route(key)] += 1
                except (ValueError, KeyError):
                    pass
            replication = {
                "hot_keys": len(self._replica_homes),
                "replicated_loads": self._replicated_loads,
                "hot_after": (
                    self.replicate_hot_after
                    if self.replicate_hot_after is not None
                    else 0
                ),
            }
            requeues = self._requeues
            failed = self._failed_workers
            healthy = sum(1 for w in self._workers if w.healthy)
        counts = [c for c in per_worker.values()]
        balance = 0.0
        if counts and min(counts) > 0:
            balance = max(counts) / min(counts)
        return {
            "workers": len(self._workers),
            "healthy_workers": healthy,
            "failed_workers": failed,
            "lanes": lanes,
            "routing": {
                "keys": len(self._key_counts),
                "per_worker": per_worker,
                "balance_ratio": balance,
            },
            "replication": replication,
            "requeues": requeues,
        }

    def lane_windows(self) -> dict:
        """Rolling-window latency summary per lane (the ``GET /metrics``
        per-lane histograms), with live inflight and SLO health attached."""
        now = self._clock()
        out: dict[str, dict] = {}
        with self._lock:
            states = list(self._lanes.items())
        for name, st in states:
            snap = st.latency.snapshot(now)
            with self._lock:
                snap["inflight"] = st.inflight
                snap["shed"] = st.shed
                snap["rejected"] = st.rejected
                slo = st.slo_stats()
            if slo is not None:
                snap["slo"] = slo
            out[name] = snap
        return out

    def shards(self) -> list[SolveService]:
        """Each worker's :class:`SolveService`, in worker order (failed ones
        included): the record of what that shard counted."""
        return [w.service for w in self._workers]

    def worker_stats(self) -> list[dict]:
        """Each worker's full :meth:`SolveService.stats` (debugging/ops)."""
        return [s.stats() for s in self.shards()]
