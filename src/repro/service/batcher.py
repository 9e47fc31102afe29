"""MicroBatcher: coalesce concurrent solves into multi-RHS panel sweeps.

The paper's economics (and the H-Chameleon vs HMAT overhead gap of its
Sec. V) say a triangular solve is cheap *per column* but carries a fixed
per-sweep overhead: the tile loop, the leaf walks, the Python dispatch.  A
panel of k right-hand sides pays that overhead once, so k concurrent
requests against the same factorization should ride one sweep.  The batcher
implements exactly that: items are bucketed by fingerprint, and a bucket is
dispatched when it reaches ``max_batch`` columns or its oldest item has
waited ``max_delay`` seconds — bounded extra latency in exchange for
amortization (the pipeline passes its admission capacity as ``max_batch``:
a sweep's fixed cost outweighs its per-column cost at every width measured).
An owner that knows how many items exist in all
(``outstanding``: the pipeline's admitted-and-unresolved count) lets a
bucket go earlier still, as soon as it holds every one of them: waiting
buys width only while something that is not yet in the bucket could join
it.  Batch composition never changes the answer: the panel solve is
column-stable (see :func:`~repro.core.sweep.run_steps`), so a
request's solution is bit-identical whether it rode alone or in a batch of
any width.

The batcher is a passive, thread-safe data structure: producers ``add``,
consumers (the pipeline's workers) ``take``; it never spawns threads.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

__all__ = ["MicroBatcher"]


class _Bucket:
    __slots__ = ("items", "oldest", "held_since")

    def __init__(self, now: float) -> None:
        self.items: list = []
        self.oldest = now
        #: When a ``take`` first passed this bucket over (None: never held).
        self.held_since: float | None = None


class MicroBatcher:
    """Group items by key into (key, [items]) batches of bounded size/age.

    Parameters
    ----------
    max_batch:
        Dispatch a bucket as soon as it holds this many items (the panel
        width cap of the downstream solve; a pipeline passes ``max_queue``).
    max_delay:
        Dispatch a non-empty bucket once its *oldest* item has waited this
        long, even if under-full.  ``0`` degenerates to one-item batches
        (no coalescing latency, no amortization).
    clock:
        Injectable time source (tests pass a virtual clock).
    shed / on_shed:
        Batch-formation-time shedding.  ``shed(item, now)`` marks an item
        dead (e.g. its deadline already passed); dead items are removed
        *while the batch is formed* — before they can occupy one of the
        ``max_batch`` panel slots — and handed to ``on_shed(key, item)`` so
        the owner can resolve them with a typed error.  Without this, an
        expired request still consumes a batch slot and a live straggler is
        pushed into the next sweep.  ``on_shed`` runs under the batcher lock
        and must not call back into the batcher.
    on_batch:
        Formation observer: ``on_batch(key, items, waited)`` fires when a
        batch is cut, with ``waited`` the seconds the batcher held the
        bucket back for coalescing — from the first ``take`` that passed it
        over to this one; ``0.0`` for a bucket dispatched the first time a
        consumer looked at it.  The batch-wait phase of the request traces.
        Runs under the batcher lock; must not call back into the batcher.
    outstanding:
        Early-release hook: ``outstanding()`` is the number of items the
        owner has handed out and not yet seen resolved — queued here, being
        executed by a consumer, or about to be added.  A bucket that holds
        all of them is dispatched without waiting for ``max_delay``: nothing
        in flight could join it, so a lone request never waits, while a
        bucket filling behind a busy consumer is still held.  The count is
        read again on every ``add`` and every ``take``; an owner whose
        items resolve on its consumer threads (each of which comes straight
        back to ``take``) therefore needs no extra wake-up.  Runs under the
        batcher lock; must not call back into the batcher.  Without it
        (the default) only the size/age/drain rules apply.
    """

    def __init__(self, *, max_batch: int = 64, max_delay: float = 0.002,
                 clock=time.monotonic, shed=None, on_shed=None, on_batch=None,
                 outstanding=None) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay}")
        if shed is not None and on_shed is None:
            raise ValueError("shed without on_shed would drop items silently")
        self.max_batch = max_batch
        self.max_delay = max_delay
        self._shed = shed
        self._on_shed = on_shed
        self._on_batch = on_batch
        self._outstanding = outstanding
        self._clock = clock
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._buckets: "OrderedDict[str, _Bucket]" = OrderedDict()
        self._count = 0
        self._draining = False

    def __len__(self) -> int:
        with self._lock:
            return self._count

    def add(self, key: str, item) -> None:
        """Queue ``item`` under ``key`` and wake a waiting consumer."""
        with self._lock:
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = self._buckets[key] = _Bucket(self._clock())
            bucket.items.append(item)
            self._count += 1
            self._ready.notify()

    def drain(self) -> None:
        """Flush mode: every non-empty bucket is immediately takeable and
        blocked ``take`` calls return (with a final batch or ``None``)."""
        with self._lock:
            self._draining = True
            self._ready.notify_all()

    def _pop_ready_locked(self, now: float) -> tuple[str, list] | None:
        """The first dispatchable bucket under the size/age/drain rules, or
        the one bucket that already holds everything ``outstanding``.

        Dead items (``shed``) are dropped at formation time: the batch is
        cut from the *live* items only, so a panel is never padded with
        requests that already missed their deadline.  A bucket that turns
        out to be all-dead is discarded and the scan continues.
        """
        for key, bucket in list(self._buckets.items()):
            if not (
                len(bucket.items) >= self.max_batch
                or self._draining
                or now - bucket.oldest >= self.max_delay
                or (
                    self._outstanding is not None
                    and len(bucket.items) >= self._outstanding()
                )
            ):
                if bucket.held_since is None:
                    bucket.held_since = now
                continue
            live = bucket.items
            if self._shed is not None:
                live = []
                for item in bucket.items:
                    if self._shed(item, now):
                        self._count -= 1
                        self._on_shed(key, item)
                    else:
                        live.append(item)
            items = live[: self.max_batch]
            rest = live[self.max_batch:]
            if rest:  # the rest keeps its age: max_delay bounds every wait
                nb = _Bucket(bucket.oldest)
                nb.items = rest
                self._buckets[key] = nb
                self._buckets.move_to_end(key)
            else:
                del self._buckets[key]
            if not items:
                continue  # everything in the bucket had expired
            self._count -= len(items)
            if self._on_batch is not None:
                held = bucket.held_since
                self._on_batch(key, items, 0.0 if held is None else max(0.0, now - held))
            return key, items
        return None

    def _next_deadline_locked(self, now: float) -> float | None:
        """Seconds until the oldest bucket matures, or None when empty."""
        if not self._buckets:
            return None
        oldest = min(b.oldest for b in self._buckets.values())
        return max(0.0, self.max_delay - (now - oldest))

    def take(self, timeout: float | None = None) -> tuple[str, list] | None:
        """Block for the next ``(key, items)`` batch.

        Returns ``None`` when ``timeout`` elapses with nothing dispatchable,
        or immediately when draining and empty.  An under-full bucket is
        held back until ``max_delay`` so stragglers can join; a full bucket,
        or one that holds everything ``outstanding``, is handed out at once.
        """
        deadline = None if timeout is None else self._clock() + timeout
        with self._lock:
            while True:
                now = self._clock()
                count = self._count
                batch = self._pop_ready_locked(now)
                if batch is not None:
                    return batch
                if self._count != count:
                    # The scan shed dead items and cut no batch: the owner
                    # resolved them, so a bucket it passed over may now hold
                    # everything outstanding.  Look again before sleeping.
                    continue
                if self._draining and self._count == 0:
                    return None
                waits = [
                    w for w in (
                        self._next_deadline_locked(now),
                        None if deadline is None else deadline - now,
                    )
                    if w is not None
                ]
                if deadline is not None and deadline - now <= 0:
                    return None
                self._ready.wait(timeout=min(waits) if waits else None)
