"""Solve service: factorization store, micro-batched serving, backpressure.

The serving layer over the Tile-H solver (see :doc:`docs/service`):

* :class:`FactorizationStore` — content-addressed persistence + LRU cache of
  factorized matrices, so each problem fingerprint is factorized once;
* :class:`MicroBatcher` — coalesces concurrent requests against one
  factorization into a single multi-RHS panel sweep (bit-identical to
  solving each request alone: the panel kernels are column-stable), holding
  a request back only while another one in flight could still join it;
* :class:`SolveService` — bounded admission with explicit
  :class:`QueueFullError` backpressure, per-request deadlines, retries on
  :class:`TransientSolveError`, worker pool, graceful drain on close;
* :class:`ServeFleet` — N sharded services behind a
  :class:`ConsistentHashRouter` with per-lane SLO admission
  (:class:`DeadlineUnmeetableError` shedding), warm replication of hot
  fingerprints, and crash re-routing (:class:`WorkerCrashedError`);
* :func:`make_server` / :class:`SolveClient` — a stdlib HTTP/1.1 boundary
  over kept-alive connections: solves travel as raw little-endian
  float64/complex128 bytes (or as JSON, for ``curl``; the server goes by the
  request's ``Content-Type``), everything else as JSON (``repro serve`` /
  ``repro request`` on the CLI).
"""

from .batcher import MicroBatcher
from .errors import (
    BadRequestError,
    DeadlineExceededError,
    DeadlineUnmeetableError,
    QueueFullError,
    ServiceClosedError,
    ServiceError,
    TransientSolveError,
    WorkerCrashedError,
)
from .fleet import ConsistentHashRouter, LaneConfig, ServeFleet
from .http import SolveClient, decode_vector, encode_vector, make_server
from .pipeline import SolveService, SolveTicket
from .problems import ProblemSpec, build_solver, check_rhs, rhs_dtype, spec_fingerprint
from .store import FactorizationStore

__all__ = [
    "BadRequestError",
    "ConsistentHashRouter",
    "DeadlineExceededError",
    "DeadlineUnmeetableError",
    "FactorizationStore",
    "LaneConfig",
    "MicroBatcher",
    "ProblemSpec",
    "QueueFullError",
    "ServeFleet",
    "ServiceClosedError",
    "ServiceError",
    "SolveClient",
    "SolveService",
    "SolveTicket",
    "TransientSolveError",
    "WorkerCrashedError",
    "build_solver",
    "check_rhs",
    "decode_vector",
    "encode_vector",
    "make_server",
    "rhs_dtype",
    "spec_fingerprint",
]
