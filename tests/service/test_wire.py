"""The binary form of ``POST /v1/solve``, kept-alive connections, and who
closes what: wire round-trips against the JSON form and the solver itself,
framing errors, a connection that stays in step after every error class,
reconnects, and the no-thread-no-socket-left contract of ``server_close()``."""

import contextlib
import gc
import http.client
import json
import os
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import (
    BadRequestError,
    FactorizationStore,
    LaneConfig,
    ProblemSpec,
    QueueFullError,
    ServeFleet,
    ServiceError,
    SolveClient,
    SolveService,
    decode_vector,
    encode_vector,
    make_server,
    spec_fingerprint,
)

from .test_http import _serving

OCTETS = "application/octet-stream"


def _wire_spec(spec) -> dict:
    return {"kernel": spec.kernel, "n": spec.n, "nb": spec.nb}


def _post(conn, body, headers, path="/v1/solve"):
    """One POST on an open ``http.client`` connection: (status, headers, body)."""
    conn.request("POST", path, body=body, headers=headers)
    resp = conn.getresponse()
    return resp.status, resp.headers, resp.read()


def _binary_headers(problem: dict, dtype="<f8", **extra) -> dict:
    return {"Content-Type": OCTETS, "X-Repro-Dtype": dtype,
            "X-Repro-Problem": json.dumps(problem), **extra}


@contextlib.contextmanager
def _fleet_server(fleet):
    """``with _fleet_server(fleet) as client``: serve, then stop everything."""
    server = make_server(fleet)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = SolveClient(f"http://{host}:{port}")
    try:
        yield client
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        fleet.close()
        thread.join(10)


@pytest.fixture(scope="module")
def live(solver, spec, zsolver, zspec):
    """One live server per precision: ``{"d"|"z": (problem, solver, client, address)}``."""
    with _serving(solver) as (_, dserver, dclient), _serving(zsolver) as (_, zserver, zclient):
        yield {
            "d": (_wire_spec(spec), solver, dclient, dserver.server_address[:2]),
            "z": (_wire_spec(zspec), zsolver, zclient, zserver.server_address[:2]),
        }


@pytest.fixture()
def conn(live):
    """A raw kept-alive connection to the real-precision server."""
    c = http.client.HTTPConnection(*live["d"][3], timeout=30)
    yield c
    c.close()


def _json_solve(address, problem: dict, rhs: np.ndarray) -> np.ndarray:
    """What ``curl`` would do: the JSON form over a throw-away connection."""
    c = http.client.HTTPConnection(*address, timeout=30)
    try:
        status, headers, data = _post(
            c, json.dumps({"problem": problem, "rhs": encode_vector(rhs)}),
            {"Content-Type": "application/json"},
        )
    finally:
        c.close()
    assert status == 200 and headers["Content-Type"] == "application/json"
    reply = json.loads(data)
    assert set(reply) == {"key", "latency_seconds", "solution"}
    return decode_vector(reply["solution"])


LAYOUTS = ["contiguous", "strided", "big-endian", "narrow", "list"]


class TestWireRoundTrip:
    @settings(max_examples=30, deadline=None)
    @given(precision=st.sampled_from("dz"), layout=st.sampled_from(LAYOUTS),
           seed=st.integers(0, 2**16))
    def test_binary_json_and_solver_agree_bit_for_bit(self, live, precision, layout, seed):
        problem, solver, client, address = live[precision]
        rng = np.random.default_rng(seed)
        n = problem["n"]
        v = rng.standard_normal(n)
        if precision == "z":
            v = v + 1j * rng.standard_normal(n)
        if layout == "strided":
            panel = np.ascontiguousarray(np.stack([v[::-1], v, 2 * v], axis=1))
            rhs = panel[:, 1]
            assert not rhs.flags.c_contiguous
        elif layout == "big-endian":
            rhs = v.astype(v.dtype.newbyteorder(">"))
        elif layout == "narrow":
            if precision == "z":
                rhs = v.astype(np.complex64)
            else:
                rhs = v.astype(np.float32) if seed % 2 else rng.integers(-9, 9, size=n)
        elif layout == "list":
            rhs = v.tolist()
        else:
            rhs = v
        exact = np.array(rhs, dtype=v.dtype)  # the widening every path must agree on
        ref = solver.solve(exact)

        x = client.solve(problem, rhs)
        assert np.array_equal(x, ref)
        assert np.array_equal(x, _json_solve(address, problem, np.asarray(rhs)))
        assert x.dtype == ref.dtype and x.dtype.isnative
        assert x.flags.writeable and x.flags.owndata

    def test_reply_headers_carry_key_and_latency(self, live, conn, rhs):
        problem, solver, _, _ = live["d"]
        key = spec_fingerprint(ProblemSpec.from_dict(problem))
        status, headers, data = _post(conn, rhs.astype("<f8").tobytes(), _binary_headers(problem))
        assert status == 200
        assert headers["Content-Type"] == OCTETS and headers["X-Repro-Dtype"] == "<f8"
        assert headers["X-Repro-Key"] == key
        assert 0.0 < float(headers["X-Repro-Latency-Seconds"]) < 30.0
        assert data == solver.solve(rhs).astype("<f8").tobytes()

    def test_lane_and_timeout_travel_in_headers(self, solver, spec, rhs):
        fleet = ServeFleet(1, solver_provider=lambda k, s: solver)
        with _fleet_server(fleet) as client:
            x = client.solve(_wire_spec(spec), rhs, lane="batch", timeout=30.0)
            assert np.array_equal(x, solver.solve(rhs))
            assert fleet.stats()["lanes"]["batch"]["completed"] == 1
            with pytest.raises(BadRequestError, match="timeout"):
                client.solve(_wire_spec(spec), rhs, timeout=-1.0)
            with pytest.raises(BadRequestError, match="Timeout"):
                client.solve(_wire_spec(spec), rhs, timeout="soon")

    def test_two_dimensional_rhs_refused_before_it_is_flattened(self, live):
        problem, _, client, _ = live["d"]
        with pytest.raises(BadRequestError, match="1-D"):
            client.solve(problem, np.ones((problem["n"] // 2, 2)))

    def test_twenty_sequential_solves_share_a_connection_without_stalling(self, spec, rhs):
        class Echo:
            @staticmethod
            def solve(panel):
                return panel

        with _serving(Echo) as (_, server, client):
            body = _wire_spec(spec)
            client.solve(body, rhs)
            t0 = time.perf_counter()
            for _ in range(20):
                assert np.array_equal(client.solve(body, rhs), rhs)
            elapsed = time.perf_counter() - t0
            assert len(server._conns) == 1
            client.close()
        # Header and body are separate writes: with Nagle on, each waits out
        # the peer's 40 ms delayed ACK and twenty take >= 0.8 s.
        assert elapsed < 0.4


class TestBadRequestsAreTyped400s:
    def _expect_400(self, conn, body, headers, match: str, *, closes: bool):
        status, reply, data = _post(conn, body, headers)
        error = json.loads(data)["error"]
        assert (status, error["code"]) == (400, "bad_request"), error
        assert match in error["message"]
        assert (reply.get("Connection") == "close") == closes

    @pytest.mark.parametrize("length", ["banana", "-5", "1e3", ""])
    def test_content_length_that_is_no_size(self, conn, length):
        conn.putrequest("POST", "/v1/solve")
        conn.putheader("Content-Type", "application/json")
        conn.putheader("Content-Length", length)
        conn.endheaders()
        resp = conn.getresponse()
        error = json.loads(resp.read())["error"]
        assert (resp.status, error["code"]) == (400, "bad_request")
        assert resp.getheader("Connection") == "close"  # the body cannot be skipped

    def test_oversize_body_is_refused_unread(self, conn):
        conn.putrequest("POST", "/v1/solve")
        conn.putheader("Content-Length", str(65 * 1024 * 1024))
        conn.endheaders()
        resp = conn.getresponse()
        assert resp.status == 400 and "too large" in json.loads(resp.read())["error"]["message"]
        assert resp.getheader("Connection") == "close"

    @pytest.mark.parametrize("dtype", [">f8", "<f4", "float64", "O", "<c8", "|V16"])
    def test_unknown_dtype(self, live, conn, rhs, dtype):
        headers = _binary_headers(live["d"][0], dtype=dtype)
        self._expect_400(conn, rhs.tobytes(), headers, "X-Repro-Dtype", closes=False)

    def test_missing_dtype(self, live, conn, rhs):
        headers = _binary_headers(live["d"][0])
        del headers["X-Repro-Dtype"]
        self._expect_400(conn, rhs.tobytes(), headers, "X-Repro-Dtype", closes=False)

    @pytest.mark.parametrize("body", [b"", b"\x00" * 12])
    def test_body_that_is_not_whole_entries(self, live, conn, body):
        self._expect_400(conn, body, _binary_headers(live["d"][0]), "entries", closes=False)

    @pytest.mark.parametrize("problem", [None, "{not json", "[1, 2]", '"laplace"'])
    def test_missing_or_ill_formed_problem(self, conn, rhs, problem):
        headers = {"Content-Type": OCTETS, "X-Repro-Dtype": "<f8"}
        if problem is not None:
            headers["X-Repro-Problem"] = problem
        self._expect_400(conn, rhs.tobytes(), headers, "X-Repro-Problem", closes=False)

    def test_json_body_that_is_not_utf8(self, conn):
        self._expect_400(conn, b"\xff\xfe{}", {"Content-Type": "application/json"},
                         "invalid JSON", closes=False)


@pytest.fixture()
def fleet_server(solver):
    """A one-shard fleet (lanes exist, budget of one) whose provider can be
    gated, behind a live server: ``(client, gate)``."""
    gate = threading.Event()
    gate.set()

    def provider(k, s):
        gate.wait(30)
        return solver

    fleet = ServeFleet(
        1, solver_provider=provider, max_batch=1,
        lanes=(LaneConfig("interactive", max_inflight=1), LaneConfig("batch")),
    )
    with _fleet_server(fleet) as client:
        try:
            yield client, gate
        finally:
            gate.set()


class TestConnectionStaysInStep:
    def test_one_client_through_every_error_class_then_a_correct_solve(
            self, fleet_server, solver, spec, rhs):
        client, gate = fleet_server
        good = _wire_spec(spec)
        ref = solver.solve(rhs)

        def still_in_step():
            assert np.array_equal(client.solve(good, rhs), ref)

        still_in_step()
        with pytest.raises(BadRequestError):  # bad spec
            client.solve({"kernel": "nope", "n": spec.n}, rhs)
        still_in_step()
        with pytest.raises(BadRequestError, match="length"):  # wrong length
            client.solve(good, rhs[:7])
        still_in_step()
        bad = rhs.copy()
        bad[3] = np.inf
        with pytest.raises(BadRequestError, match="non-finite"):
            client.solve(good, bad)
        still_in_step()
        with pytest.raises(BadRequestError, match="unknown lane"):
            client.solve(good, rhs, lane="express")
        still_in_step()
        with pytest.raises(ServiceError, match="/v1/nope"):  # 404, body and all
            client._exchange("POST", "/v1/nope", b"x" * 4096)
        still_in_step()

        gate.clear()  # the lane's one slot stays taken until the gate opens
        blocked = threading.Thread(target=lambda: client.solve(good, rhs), daemon=True)
        blocked.start()
        deadline = time.monotonic() + 10
        while client.stats()["lanes"]["interactive"]["inflight"] < 1:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        with pytest.raises(QueueFullError):
            client.solve(good, rhs)
        gate.set()
        blocked.join(10)
        assert not blocked.is_alive()
        still_in_step()

    def test_unread_bodies_never_become_the_next_request(self, live, conn, rhs):
        """The raw view of the same thing: on one connection, a 404 with a
        body, then a refused solve, then a good one."""
        problem, solver, _, _ = live["d"]
        status, headers, _ = _post(conn, b"y" * 10000, {}, path="/v1/nope")
        assert status == 404 and headers.get("Connection") != "close"
        sock = conn.sock
        status, _, _ = _post(conn, rhs.tobytes(), _binary_headers(problem, dtype="<f2"))
        assert status == 400
        status, _, data = _post(conn, rhs.tobytes(), _binary_headers(problem))
        assert status == 200 and conn.sock is sock  # same connection throughout
        assert data == solver.solve(rhs).tobytes()

    def test_client_reconnects_once_to_a_restarted_server(self, solver, spec, rhs):
        svc = SolveService(FactorizationStore(), workers=1, solver_provider=lambda k, s: solver)
        first = make_server(svc)
        host, port = first.server_address[:2]
        threading.Thread(target=first.serve_forever, daemon=True).start()
        body, ref = _wire_spec(spec), solver.solve(rhs)
        with SolveClient(f"http://{host}:{port}") as client:
            try:
                assert np.array_equal(client.solve(body, rhs), ref)
            finally:
                first.shutdown()
                first.server_close()
            second = make_server(svc, host, port)
            threading.Thread(target=second.serve_forever, daemon=True).start()
            try:
                # The kept-alive connection is dead; the client finds out on
                # this request and opens another.
                assert np.array_equal(client.solve(body, rhs), ref)
            finally:
                second.shutdown()
                second.server_close()
                svc.close()
            with pytest.raises(ConnectionError):  # nobody listening: no second retry
                client.solve(body, rhs)


def _sockets() -> int:
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            count += os.readlink(f"/proc/self/fd/{fd}").startswith("socket:")
        except OSError:
            pass
    return count


class TestLifecycle:
    def test_server_close_leaves_no_thread_and_no_socket(self, solver, spec, rhs):
        """Clients that never hang up (the end-to-end harness's does not) must
        not keep handler threads or accepted sockets alive past
        ``shutdown(); server_close()``."""
        gc.collect()
        threads, sockets = set(threading.enumerate()), _sockets()
        svc = SolveService(FactorizationStore(), workers=1, solver_provider=lambda k, s: solver)
        server = make_server(svc)
        serving = threading.Thread(target=server.serve_forever, daemon=True)
        serving.start()
        host, port = server.server_address[:2]
        client = SolveClient(f"http://{host}:{port}")
        body = _wire_spec(spec)
        client.solve(body, rhs)
        other = threading.Thread(target=lambda: client.solve(body, rhs))
        other.start()
        other.join(10)
        assert not other.is_alive() and len(server._conns) == 2  # both still open

        server.shutdown()
        server.server_close()
        serving.join(10)
        svc.close()
        assert set(threading.enumerate()) - threads == set()
        assert _sockets() == sockets + 2  # only the client's own two ends
        client.close()
        client.close()  # idempotent
        assert _sockets() == sockets

    def test_closed_client_reconnects_when_used_again(self, live, rhs):
        problem, solver, _, address = live["d"]
        with SolveClient("http://%s:%d" % address) as client:
            assert client.healthz()["status"] == "ok"
            client.close()
            assert np.array_equal(client.solve(problem, rhs), solver.solve(rhs))

    def test_connections_of_finished_threads_are_dropped(self, live, rhs):
        problem, _, _, address = live["d"]
        with SolveClient("http://%s:%d" % address) as client:
            for _ in range(3):
                t = threading.Thread(target=lambda: client.solve(problem, rhs))
                t.start()
                t.join(10)
            client.healthz()  # this thread's first use prunes the dead ones
            assert len(client._conns) == 1

    def test_base_url_must_name_a_host(self):
        with pytest.raises(ValueError):
            SolveClient("127.0.0.1:8750")
