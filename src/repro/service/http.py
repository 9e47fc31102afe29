"""Stdlib HTTP endpoint + client for the solve service.

A thin boundary over :class:`~repro.service.pipeline.SolveService`:
``http.server.ThreadingHTTPServer`` on the serving side (one handler thread
per *connection*, all funnelling into the service's bounded admission queue),
``http.client`` on the client side — no third-party dependencies.  Both ends
speak HTTP/1.1 with kept-alive connections and ``TCP_NODELAY`` (the handler
asks for it; ``http.client`` sets it on every connection it opens): header
and body leave in two writes, and without it Nagle's algorithm holds the
second until the peer's delayed ACK (40 ms on Linux) arrives.

Routes::

    POST /v1/solve     one right-hand side in, one solution out (two forms)
    GET  /v1/healthz   -> {"status": "ok"|"draining"}
    GET  /v1/stats     -> the service stats dict (report `service` section)
    GET  /v1/keys      -> {"keys": [fingerprints...]}
    GET  /metrics      -> Prometheus text exposition (counters, gauges,
                          histogram summaries, rolling per-lane latency
                          quantiles, SLO attainment/burn gauges)
    GET  /tracez       -> recent request traces (JSON); ``?trace_id=`` looks
                          one up, ``?limit=N`` bounds the listing
    POST /v1/shutdown  -> {"status": "draining"}   (drain starts in background)

``POST /v1/solve`` answers in the form it was asked in, chosen per request by
its ``Content-Type``:

* ``application/octet-stream`` — what :class:`SolveClient` sends.  The body
  is the vector's raw little-endian entries, nothing else; the request
  headers carry ``X-Repro-Dtype`` (``<f8`` or ``<c16``), ``X-Repro-Problem``
  (the problem spec as compact JSON) and optionally ``X-Repro-Lane`` and
  ``X-Repro-Timeout`` (seconds).  The reply body is the solution in the same
  encoding with ``X-Repro-Dtype``, ``X-Repro-Key`` (fingerprint) and
  ``X-Repro-Latency-Seconds`` headers.
* anything else is read as JSON, for ``curl`` and diagnostics:
  ``{"problem": {...}, "rhs": [...], "timeout"?: s, "lane"?: name}`` ->
  ``{"key", "latency_seconds", "solution"}``; complex vectors (helmholtz)
  are encoded entrywise as ``[re, im]`` pairs.

Both forms carry the same float64/complex128 bits, so both answer
bit-identically to ``solver.solve(rhs)``.  Bodies are capped at 64 MiB.

Typed service errors travel as JSON ``{"error": {"code", "message"}}`` with
the error's ``http_status`` on either form; the client re-raises them as the
same exception classes, so ``QueueFullError`` backpressure is visible
end-to-end.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from ..obs import current as obs_current
from ..obs.exposition import metrics_text, tracez_payload
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
from .fleet import ServeFleet
from .pipeline import SolveService

__all__ = ["encode_vector", "decode_vector", "make_server", "SolveClient"]

_ERROR_TYPES = {
    cls.code: cls
    for cls in (
        ServiceError,
        BadRequestError,
        QueueFullError,
        DeadlineExceededError,
        DeadlineUnmeetableError,
        ServiceClosedError,
        TransientSolveError,
        WorkerCrashedError,
    )
}

#: Request body size cap — a solve payload is one vector, not a matrix.
_MAX_BODY = 64 * 1024 * 1024

#: Seconds ``server_close()`` waits for handler threads to finish a reply.
_CLOSE_GRACE = 10.0

_OCTETS = "application/octet-stream"
_H_DTYPE = "X-Repro-Dtype"
_H_PROBLEM = "X-Repro-Problem"
_H_LANE = "X-Repro-Lane"
_H_TIMEOUT = "X-Repro-Timeout"
_H_KEY = "X-Repro-Key"
_H_LATENCY = "X-Repro-Latency-Seconds"

#: The only dtypes the binary form carries.  A dtype string from the wire is
#: looked up here, never handed to ``np.dtype``.
_WIRE_DTYPES = {"<f8": np.dtype("<f8"), "<c16": np.dtype("<c16")}


def encode_vector(x: np.ndarray) -> list:
    """JSON-able form of a solution/rhs vector (``[re, im]`` pairs if complex)."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        return [[float(v.real), float(v.imag)] for v in x]
    return [float(v) for v in x]


def decode_vector(data) -> np.ndarray:
    """Inverse of :func:`encode_vector`; rejects malformed payloads."""
    if not isinstance(data, list) or not data:
        raise BadRequestError("rhs must be a non-empty JSON array")
    first = data[0]
    if isinstance(first, list):
        try:
            return np.array([complex(v[0], v[1]) for v in data], dtype=np.complex128)
        except (TypeError, IndexError) as exc:
            raise BadRequestError(f"malformed complex rhs entry: {exc}") from exc
    try:
        return np.array([float(v) for v in data], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise BadRequestError(f"malformed rhs entry: {exc}") from exc


def _to_wire(x: np.ndarray) -> tuple[str, bytes]:
    """``(dtype string, raw little-endian entries)`` of one vector."""
    name = "<c16" if np.iscomplexobj(x) else "<f8"
    return name, x.astype(_WIRE_DTYPES[name], copy=False).tobytes()


def _from_wire(name: str | None, body: bytes) -> np.ndarray:
    """Read-only view of a binary body; rejects what :func:`_to_wire` cannot
    have written."""
    dtype = _WIRE_DTYPES.get(name)
    if dtype is None:
        raise BadRequestError(
            f"{_H_DTYPE} must be one of {sorted(_WIRE_DTYPES)}, got {name!r}"
        )
    if not body or len(body) % dtype.itemsize:
        raise BadRequestError(
            f"body of {len(body)} bytes is not a whole, non-zero number of "
            f"{name} entries"
        )
    return np.frombuffer(body, dtype=dtype)


class _Handler(BaseHTTPRequestHandler):
    service: SolveService | ServeFleet  # bound by make_server
    server_version = "repro-solve/1"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):  # quiet by default; obs covers metrics
        pass

    # -- plumbing -------------------------------------------------------------
    def _send(self, status: int, body: bytes, content_type: str, extra=()) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in extra:
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _reply(self, status: int, payload: dict) -> None:
        self._send(status, json.dumps(payload).encode(), "application/json")

    def _reply_error(self, exc: ServiceError) -> None:
        self._reply(exc.http_status, {"error": {"code": exc.code, "message": str(exc)}})

    def _read_body(self) -> bytes:
        """The whole request body.  One that cannot be framed (bad or oversize
        ``Content-Length``, short read) also closes the connection after the
        error reply: on a kept-alive connection its unread bytes would be
        parsed as the next request line."""
        raw = self.headers.get("Content-Length")
        try:
            length = 0 if raw is None else int(raw)
        except ValueError:
            length = -1
        try:
            if length < 0:
                raise BadRequestError(
                    f"Content-Length must be a non-negative integer, got {raw!r}"
                )
            if length > _MAX_BODY:
                raise BadRequestError(f"request body too large ({length} bytes)")
            body = self.rfile.read(length) if length else b""
            if len(body) != length:
                raise BadRequestError(
                    f"request body ended after {len(body)} of {length} bytes"
                )
        except BadRequestError:
            self.close_connection = True
            raise
        return body

    # -- routes ---------------------------------------------------------------
    def do_GET(self) -> None:
        parsed = urllib.parse.urlsplit(self.path)
        if parsed.path == "/v1/healthz":
            self._reply(200, {"status": "draining" if self.service.closed else "ok"})
        elif parsed.path == "/v1/stats":
            self._reply(200, self.service.stats())
        elif parsed.path == "/v1/keys":
            self._reply(200, {"keys": self.service.keys()})
        elif parsed.path == "/metrics":
            self._send(
                200,
                metrics_text(service=self.service).encode(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        elif parsed.path == "/tracez":
            query = urllib.parse.parse_qs(parsed.query)
            trace_id = query.get("trace_id", [None])[0]
            try:
                limit = int(query.get("limit", ["20"])[0])
            except ValueError:
                self._reply(400, {"error": {"code": "bad_request",
                                            "message": "limit must be an integer"}})
                return
            # Always 200: a missing trace_id is reported in-band via
            # ``"found": false`` so clients get the tracer state either way.
            self._reply(200, tracez_payload(
                obs_current(), service=self.service,
                trace_id=trace_id, limit=limit,
            ))
        else:
            self._reply(404, {"error": {"code": "not_found", "message": self.path}})

    def do_POST(self) -> None:
        try:
            # Read before routing: a 404 or a rejected request must not leave
            # its body behind on a connection that stays open.
            body = self._read_body()
            if self.path == "/v1/solve":
                self._solve(body)
            elif self.path == "/v1/shutdown":
                # Drain in the background: this handler thread must not join
                # workers while holding the connection open.
                threading.Thread(target=self.service.close, daemon=True).start()
                self._reply(200, {"status": "draining"})
            else:
                self._reply(404, {"error": {"code": "not_found", "message": self.path}})
        except ServiceError as exc:
            self._reply_error(exc)
        except Exception as exc:  # noqa: BLE001 - boundary: never drop the reply
            self._reply(500, {"error": {"code": "internal", "message": str(exc)}})

    def _binary_request(self, body: bytes) -> tuple:
        """``(problem, rhs, timeout, lane)`` of an octet-stream solve."""
        rhs = _from_wire(self.headers.get(_H_DTYPE), body)
        raw = self.headers.get(_H_PROBLEM)
        if raw is None:
            raise BadRequestError(f"missing {_H_PROBLEM} header")
        try:
            problem = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise BadRequestError(f"invalid JSON in {_H_PROBLEM}: {exc}") from exc
        if not isinstance(problem, dict):
            raise BadRequestError(f"{_H_PROBLEM} must be a JSON object")
        timeout = self.headers.get(_H_TIMEOUT)
        if timeout is not None:
            try:
                timeout = float(timeout)
            except ValueError:
                raise BadRequestError(
                    f"{_H_TIMEOUT} must be a positive number, got {timeout!r}"
                ) from None
        return problem, rhs, timeout, self.headers.get(_H_LANE)

    def _json_request(self, body: bytes) -> tuple:
        """``(problem, rhs, timeout, lane)`` of a JSON solve."""
        if not body:
            raise BadRequestError("request body required")
        try:
            payload = json.loads(body)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise BadRequestError(f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise BadRequestError("request body must be a JSON object")
        problem = payload.get("problem")
        if problem is None:
            raise BadRequestError("missing 'problem' object")
        rhs = decode_vector(payload.get("rhs"))
        return problem, rhs, payload.get("timeout"), payload.get("lane")

    def _solve(self, body: bytes) -> None:
        content_type = (self.headers.get("Content-Type") or "").split(";")[0].strip()
        binary = content_type.lower() == _OCTETS
        problem, rhs, timeout, lane = (
            self._binary_request(body) if binary else self._json_request(body)
        )
        if timeout is not None and (
            not isinstance(timeout, (int, float)) or isinstance(timeout, bool)
            or not timeout > 0
        ):
            raise BadRequestError(f"timeout must be a positive number, got {timeout!r}")
        kwargs = {"timeout": timeout}
        if lane is not None:
            if not isinstance(lane, str):
                raise BadRequestError(f"lane must be a string, got {lane!r}")
            if not isinstance(self.service, ServeFleet):
                raise BadRequestError(
                    "this server runs a single service; 'lane' needs a fleet "
                    "(repro serve --fleet N)"
                )
            kwargs["lane"] = lane
        ticket = self.service.submit(problem, rhs, **kwargs)
        x = ticket.result()
        latency = ticket.finished_at - ticket.submitted_at
        if binary:
            name, out = _to_wire(x)
            self._send(200, out, _OCTETS, extra=(
                (_H_DTYPE, name), (_H_KEY, ticket.key), (_H_LATENCY, repr(latency)),
            ))
        else:
            self._reply(
                200,
                {"key": ticket.key, "latency_seconds": latency, "solution": encode_vector(x)},
            )


class _Server(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` that owns its connections: ``server_close()``
    ends the kept-alive ones, so no handler thread and no accepted socket
    outlives it even when a client never hangs up."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._conn_lock = threading.Lock()
        self._conns: dict[socket.socket, threading.Thread] = {}

    def process_request(self, request, client_address) -> None:
        # Registered here, on the accepting thread, so that server_close()
        # (which runs after shutdown() stopped that thread) sees them all;
        # under the lock, so that the handler cannot deregister first.
        thread = threading.Thread(
            target=self.process_request_thread, args=(request, client_address),
            daemon=True,
        )
        with self._conn_lock:
            thread.start()
            self._conns[request] = thread

    def process_request_thread(self, request, client_address) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self._conn_lock:
                self._conns.pop(request, None)

    def server_close(self) -> None:
        super().server_close()
        with self._conn_lock:
            conns = list(self._conns.items())
        for sock, _ in conns:
            # End of input: an idle handler's blocked read returns at once; one
            # in the middle of a request still writes its reply, then finds it.
            try:
                sock.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # the handler closed it first
        deadline = time.monotonic() + _CLOSE_GRACE
        for _, thread in conns:
            thread.join(max(0.0, deadline - time.monotonic()))


def make_server(service: SolveService | ServeFleet, host: str = "127.0.0.1", port: int = 0):
    """A ready-to-run ``ThreadingHTTPServer`` bound to ``service`` (a single
    :class:`SolveService` or a :class:`~repro.service.fleet.ServeFleet` —
    the routes are identical; a fleet additionally accepts a lane with the
    solve request and reports fleet-shaped ``/v1/stats``).

    ``port=0`` picks a free port (read it back from ``server.server_address``).
    The caller owns the lifecycle: ``serve_forever()`` to run,
    ``shutdown()`` + ``server_close()`` + ``service.close()`` to stop.
    ``server_close()`` also ends every kept-alive connection and waits (up
    to 10 s) for their handler threads, replies in progress included.
    """
    handler = type("BoundHandler", (_Handler,), {"service": service})
    return _Server((host, port), handler)


class SolveClient:
    """Minimal ``http.client`` client of the endpoint.

    ``solve`` speaks the binary form of ``POST /v1/solve``; every other call
    is JSON.  Each calling thread keeps one HTTP/1.1 connection alive across
    its requests, so a client may be shared between threads and used
    concurrently.  A connection the server closed in the meantime (restart,
    ``Connection: close`` after a framing error) is reopened once,
    transparently; a request whose reply has started to arrive is never sent
    again.  :meth:`close` (or the context manager) releases the connections
    — call it when no request is in flight; the client reconnects if used
    again.

    Server-side typed errors are re-raised as the same
    :mod:`repro.service.errors` classes (matched on the wire ``code``), so a
    remote ``QueueFullError`` is catchable exactly like a local one.
    """

    def __init__(self, base_url: str, *, timeout: float = 60.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        url = urllib.parse.urlsplit(self.base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"base_url must be http(s)://host[:port], got {base_url!r}")
        self._connect = (
            http.client.HTTPSConnection if url.scheme == "https" else http.client.HTTPConnection
        )
        self._host, self._port, self._path = url.hostname, url.port, url.path
        self._lock = threading.Lock()
        self._conns: dict[threading.Thread, http.client.HTTPConnection] = {}

    # -- connections ----------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection (made, not yet opened, on first use)."""
        me = threading.current_thread()
        with self._lock:
            conn = self._conns.get(me)
            if conn is None:
                for gone in [t for t in self._conns if not t.is_alive()]:
                    self._conns.pop(gone).close()
                conn = self._conns[me] = self._connect(
                    self._host, self._port, timeout=self.timeout
                )
        return conn

    def close(self) -> None:
        """Close every thread's connection.  Idempotent."""
        with self._lock:
            conns, self._conns = list(self._conns.values()), {}
        for conn in conns:
            conn.close()

    def __enter__(self) -> "SolveClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _exchange(self, method: str, path: str, body: bytes | None = None,
                  headers: dict | None = None) -> tuple:
        """One request/reply on this thread's connection: ``(reply headers,
        reply body)``, or the typed error an error status carries."""
        conn = self._connection()
        try:
            while True:
                reused = conn.sock is not None
                try:
                    conn.request(method, self._path + path, body=body, headers=headers or {})
                    resp = conn.getresponse()
                    break
                except ConnectionError:
                    # Nothing of a reply was read.  On a kept-alive connection
                    # this is how a server that hung up in the meantime shows;
                    # a fresh one failing the same way is a real error.
                    conn.close()
                    if not reused:
                        raise
            data = resp.read()
        except BaseException:
            conn.close()  # timeout, interrupt, short reply: the stream is out of step
            raise
        if resp.status >= 400:
            try:
                err = json.loads(data).get("error", {})
            except Exception:
                err = {}
            cls = _ERROR_TYPES.get(err.get("code"), ServiceError)
            raise cls(err.get("message", f"HTTP {resp.status}"))
        return resp.headers, data

    def _request(self, method: str, path: str) -> dict:
        return json.loads(self._exchange(method, path)[1])

    # -- calls ----------------------------------------------------------------
    def solve(
        self, problem: dict, rhs, *, timeout: float | None = None,
        lane: str | None = None,
    ) -> np.ndarray:
        b = np.asarray(rhs)
        if b.ndim != 1:
            # The wire carries entries, not a shape: refuse here what the
            # server could only misread.
            raise BadRequestError(f"rhs must be 1-D, got shape {b.shape}")
        name, body = _to_wire(b)
        headers = {
            "Content-Type": _OCTETS,
            _H_DTYPE: name,
            _H_PROBLEM: json.dumps(problem, separators=(",", ":")),
        }
        if timeout is not None:
            headers[_H_TIMEOUT] = str(timeout)
        if lane is not None:
            headers[_H_LANE] = str(lane)
        reply, data = self._exchange("POST", "/v1/solve", body, headers)
        x = _from_wire(reply.get(_H_DTYPE), data)
        return x.astype(x.dtype.newbyteorder("="))  # a fresh, writable, native array

    def healthz(self) -> dict:
        return self._request("GET", "/v1/healthz")

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def keys(self) -> list[str]:
        return self._request("GET", "/v1/keys")["keys"]

    def metrics(self) -> str:
        """The raw Prometheus text exposition from ``GET /metrics``."""
        return self._exchange("GET", "/metrics")[1].decode()

    def tracez(self, *, trace_id: str | None = None, limit: int = 20) -> dict:
        """Recent traces (or one trace by id) from ``GET /tracez``."""
        query = {"limit": str(limit)}
        if trace_id is not None:
            query["trace_id"] = trace_id
        return self._request("GET", "/tracez?" + urllib.parse.urlencode(query))

    def shutdown(self) -> dict:
        return self._request("POST", "/v1/shutdown")
