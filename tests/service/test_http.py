"""HTTP boundary: JSON protocol, typed errors over the wire, lifecycle."""

import contextlib
import threading
import time

import numpy as np
import pytest

from repro.service import (
    BadRequestError,
    FactorizationStore,
    QueueFullError,
    SolveClient,
    SolveService,
    decode_vector,
    encode_vector,
    make_server,
)


@contextlib.contextmanager
def _serving(solver):
    """A service answering every key with ``solver``, behind a live server."""
    svc = SolveService(
        FactorizationStore(), workers=1, max_batch=4, max_delay=0.002,
        solver_provider=lambda k, s: solver,
    )
    server = make_server(svc)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = SolveClient(f"http://{host}:{port}")
    try:
        yield svc, server, client
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        svc.close()


@pytest.fixture()
def served(solver):
    with _serving(solver) as live:
        yield live


class TestCodec:
    def test_real_roundtrip(self):
        x = np.array([1.5, -2.0, 0.0])
        assert np.array_equal(decode_vector(encode_vector(x)), x)

    def test_complex_roundtrip(self):
        x = np.array([1 + 2j, -3.5j, 4.0 + 0j])
        assert np.array_equal(decode_vector(encode_vector(x)), x)

    def test_malformed_rejected(self):
        with pytest.raises(BadRequestError):
            decode_vector([])
        with pytest.raises(BadRequestError):
            decode_vector("nope")
        with pytest.raises(BadRequestError):
            decode_vector([[1.0]])  # complex entry missing imag part


class TestEndpoint:
    def test_solve_bit_identical(self, served, solver, spec, rhs):
        _, _, client = served
        x = client.solve(spec.canonical() | {"nb": spec.nb}, rhs)
        assert np.array_equal(x, solver.solve(rhs))

    def test_healthz(self, served):
        _, _, client = served
        assert client.healthz()["status"] == "ok"

    def test_stats_over_wire(self, served, spec, rhs):
        _, _, client = served
        client.solve(spec.canonical() | {"nb": spec.nb}, rhs)
        st = client.stats()
        assert st["requests"]["completed"] >= 1

    def test_keys_over_wire(self, served, solver, key):
        svc, _, client = served
        svc.store.put(key, solver, persist=False)
        assert key in client.keys()

    def test_bad_request_typed(self, served, rhs):
        _, _, client = served
        with pytest.raises(BadRequestError):
            client.solve({"kernel": "nope", "n": 300}, rhs)

    def test_wrong_rhs_length_typed(self, served, spec):
        _, _, client = served
        with pytest.raises(BadRequestError):
            client.solve({"kernel": spec.kernel, "n": spec.n, "nb": spec.nb}, [1.0, 2.0])

    def test_noncontiguous_complex_rhs_over_wire(self, zspec, zsolver, zpanel):
        wire_spec = {"kernel": zspec.kernel, "n": zspec.n, "nb": zspec.nb}
        with _serving(zsolver) as (_, _, client):
            col = zpanel[:, 1]  # non-contiguous view of a C-ordered panel
            x = client.solve(wire_spec, col)
            assert np.array_equal(x, zsolver.solve(np.ascontiguousarray(col)))
            zpanel[5, 1] = 1j * np.inf
            with pytest.raises(BadRequestError, match="non-finite"):
                client.solve(wire_spec, col)

    def test_queue_full_travels_as_429(self, solver, spec, rhs):
        gate = threading.Event()

        def blocked(k, s):
            gate.wait(30)
            return solver

        svc = SolveService(
            FactorizationStore(), workers=1, max_queue=1, max_batch=1,
            max_delay=0.0, solver_provider=blocked,
        )
        server = make_server(svc)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.server_address[:2]
        client = SolveClient(f"http://{host}:{port}")
        body = {"kernel": spec.kernel, "n": spec.n, "nb": spec.nb}
        try:
            slow = threading.Thread(
                target=lambda: client.solve(body, rhs), daemon=True
            )
            slow.start()
            deadline = time.monotonic() + 10
            while svc.queue_depth() < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            with pytest.raises(QueueFullError):
                client.solve(body, rhs)
        finally:
            gate.set()
            slow.join(10)
            client.close()
            server.shutdown()
            server.server_close()
            svc.close()

    def test_unknown_route_404(self, served):
        import urllib.request
        import urllib.error

        _, server, _ = served
        host, port = server.server_address[:2]
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(f"http://{host}:{port}/nope")
        assert exc.value.code == 404

    def test_shutdown_drains(self, served):
        svc, _, client = served
        assert client.shutdown()["status"] == "draining"
        deadline = time.monotonic() + 10
        while not svc.closed and time.monotonic() < deadline:
            time.sleep(0.02)
        assert svc.closed


class TestObservabilityEndpoints:
    @pytest.fixture()
    def observed(self, solver):
        from repro.obs import Instrumentation

        with Instrumentation(trace_capacity=8) as probe:
            svc = SolveService(
                FactorizationStore(), workers=1, max_batch=4, max_delay=0.002,
                solver_provider=lambda k, s: solver,
            )
            server = make_server(svc)
            threading.Thread(target=server.serve_forever, daemon=True).start()
            host, port = server.server_address[:2]
            client = SolveClient(f"http://{host}:{port}")
            yield probe, svc, client
            client.close()
            server.shutdown()
            server.server_close()
            svc.close()

    def test_metrics_exposition_parses(self, observed, spec, rhs):
        from repro.obs import parse_prometheus

        _, _, client = observed
        client.solve(spec.canonical() | {"nb": spec.nb}, rhs)
        text = client.metrics()
        parsed = parse_prometheus(text)  # raises on any malformed line
        assert parsed["repro_traces_completed"][0][1] >= 1.0
        assert parsed["repro_service_requests_completed"][0][1] >= 1.0
        lanes = {
            labels["lane"] for labels, _ in parsed["repro_lane_latency_seconds"]
        }
        assert lanes == {"default"}

    def test_tracez_lists_and_looks_up(self, observed, spec, rhs):
        _, _, client = observed
        client.solve(spec.canonical() | {"nb": spec.nb}, rhs)
        payload = client.tracez()
        assert payload["enabled"] and payload["completed"] >= 1
        trace = payload["traces"][-1]
        assert any(s["name"] == "solve" for s in trace["spans"])
        one = client.tracez(trace_id=trace["trace_id"])
        assert one["found"] and one["trace"]["trace_id"] == trace["trace_id"]
        missing = client.tracez(trace_id="not-a-trace")
        assert missing["found"] is False

    def test_tracez_disabled_without_probe(self, served, spec, rhs):
        _, _, client = served
        client.solve(spec.canonical() | {"nb": spec.nb}, rhs)
        payload = client.tracez()
        assert payload == {"enabled": False, "traces": []}

    def test_tracez_bad_limit_is_400(self, observed):
        import urllib.error
        import urllib.request

        _, _, client = observed
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(client.base_url + "/tracez?limit=banana")
        assert exc.value.code == 400
