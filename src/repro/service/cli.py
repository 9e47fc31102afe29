"""``repro serve`` / ``repro request`` — the solve service on the command line.

Serve a factorization store over HTTP::

    python -m repro serve --port 8750 --store /tmp/factors --workers 2
    python -m repro serve --port 8750 --budget-mb 256 --profile serve.json
    python -m repro serve --port 8750 --store /tmp/factors --fleet 4

Issue requests against it (and optionally verify against a manufactured
solution computed locally with the streamed dense operator)::

    python -m repro request --url http://127.0.0.1:8750 --kernel laplace \
        --n 2000 --count 8 --check
    python -m repro request --url http://127.0.0.1:8750 --stats
    python -m repro request --url http://127.0.0.1:8750 --shutdown
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time

import numpy as np

from ..flags import (add_method, add_problem, add_run, add_spec, add_store, add_timeout,
                     add_url, add_workers, cli_error, spec_from_args)
from ..geometry import SOLVE_KERNELS

__all__ = ["serve_main", "request_main"]


def serve_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Serve Tile-H solves over HTTP with a factorization store",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8750)
    add_store(parser)
    add_workers(parser)
    add_run(parser)
    parser.set_defaults(nworkers=None)
    parser.add_argument("--budget-mb", type=float, default=None,
                        help="in-memory cache budget in MiB (default: unbounded)")
    parser.add_argument("--fleet", type=int, default=0, metavar="N",
                        help="run N sharded services behind consistent-hash "
                        "routing with SLO lanes (interactive/batch) instead of "
                        "one service (0 = single service)")
    parser.add_argument("--hot-after", type=int, default=16, metavar="K",
                        help="fleet: replicate a fingerprint's factors to other "
                        "workers after K requests (needs --store)")
    parser.add_argument("--replicas", type=int, default=2,
                        help="fleet: total copies of a hot fingerprint")
    parser.add_argument("--interactive-inflight", type=int, default=64,
                        help="fleet: in-flight budget of the interactive lane")
    parser.add_argument("--batch-inflight", type=int, default=256,
                        help="fleet: in-flight budget of the batch lane")
    parser.add_argument("--interactive-slo", type=float, default=None, metavar="S",
                        help="fleet: latency SLO (seconds) of the interactive "
                        "lane; tracked as attainment + burn-rate gauges")
    parser.add_argument("--batch-slo", type=float, default=None, metavar="S",
                        help="fleet: latency SLO (seconds) of the batch lane")
    parser.add_argument("--max-queue", type=int, default=64,
                        help="admission capacity before requests are rejected (429)")
    parser.add_argument("--max-batch", type=int, default=8,
                        help="micro-batch panel width")
    parser.add_argument("--max-delay", type=float, default=0.002,
                        help="max seconds a request waits for batch-mates")
    parser.add_argument("--max-retries", type=int, default=2,
                        help="retries of a batch after a transient failure")
    parser.add_argument("--trace-requests", type=int, default=64, metavar="N",
                        help="keep the last N request traces for /tracez and "
                        "`repro trace` (0 disables tracing)")
    args = parser.parse_args(argv)

    from ..obs import Instrumentation
    from .fleet import LaneConfig, ServeFleet
    from .http import make_server
    from .pipeline import SolveService
    from .store import FactorizationStore

    budget = None if args.budget_mb is None else int(args.budget_mb * (1 << 20))
    # The probe powers both the shutdown report (--profile) and the live
    # /metrics + /tracez endpoints; only --trace-requests 0 with no profile
    # runs fully uninstrumented.
    want_probe = args.profile is not None or args.trace_requests > 0
    probe = (
        Instrumentation(trace_capacity=max(0, args.trace_requests))
        if want_probe else None
    )
    if probe is not None:
        probe.__enter__()
    try:
        knobs = dict(max_queue=args.max_queue, max_batch=args.max_batch,
                     max_delay=args.max_delay, max_retries=args.max_retries,
                     exec_mode=args.exec_mode, exec_workers=args.nworkers)
        try:
            if args.fleet > 0:
                service = ServeFleet(
                    args.fleet,
                    store_root=args.store,
                    budget_bytes=budget,
                    lanes=(
                        LaneConfig("interactive", max_inflight=args.interactive_inflight,
                                   slo_seconds=args.interactive_slo),
                        LaneConfig("batch", max_inflight=args.batch_inflight,
                                   slo_seconds=args.batch_slo),
                    ),
                    replicate_hot_after=args.hot_after,
                    replicas=args.replicas,
                    service_threads=args.workers,
                    **knobs,
                )
            else:
                store = FactorizationStore(args.store, budget_bytes=budget, mmap=True)
                service = SolveService(store, workers=args.workers, **knobs)
        except ValueError as exc:
            return cli_error(exc)
        server = make_server(service, args.host, args.port)
        host, port = server.server_address[:2]
        if args.fleet > 0:
            print(f"serving   : http://{host}:{port} "
                  f"(fleet of {args.fleet}, queue {args.max_queue}/worker, "
                  f"batch {args.max_batch}, lanes interactive/"
                  f"{args.interactive_inflight} batch/{args.batch_inflight})")
        else:
            print(f"serving   : http://{host}:{port} "
                  f"({args.workers} workers, queue {args.max_queue}, batch {args.max_batch})")
        if args.exec_mode != "eager":
            print(f"executor  : {args.exec_mode} x {args.nworkers or 'auto'} for cold builds")
        print(f"store     : {args.store or 'in-memory only'}"
              + (f", budget {args.budget_mb:g} MiB" if budget is not None else ""))
        if service.keys():
            print(f"warm keys : {len(service.keys())} factorization(s) on disk")

        # POST /v1/shutdown drains the service; watch for that and stop the
        # HTTP loop so the process exits cleanly.
        def _watch():
            while not service.closed:
                time.sleep(0.2)
            server.shutdown()

        threading.Thread(target=_watch, daemon=True).start()
        try:
            server.serve_forever(poll_interval=0.2)
        except KeyboardInterrupt:
            print("\ndraining  : completing admitted requests...")
        finally:
            server.shutdown()
            server.server_close()
            service.close()
        stats = service.stats()
        if args.fleet > 0:
            for name, lane in sorted(stats["lanes"].items()):
                print(f"lane {name:<11}: {lane['completed']} completed "
                      f"| {lane['shed']} shed | {lane['rejected']} rejected "
                      f"| {lane['failed']} failed")
            print(f"routing   : {stats['routing']['keys']} keys over "
                  f"{stats['healthy_workers']}/{stats['workers']} workers, "
                  f"{stats['requeues']} requeues")
        else:
            req = stats["requests"]
            print(f"served    : {req['completed']} completed | {req['rejected']} rejected "
                  f"| {req['failed']} failed")
    finally:
        if probe is not None:
            probe.__exit__(None, None, None)
    if args.profile is not None:
        from ..obs import build_run_report, write_report

        meta = {"mode": "serve", "workers": args.workers,
                "max_batch": args.max_batch, "max_queue": args.max_queue,
                "exec_mode": args.exec_mode}
        if args.fleet > 0:
            meta["fleet"] = args.fleet
            report = build_run_report(probe=probe, meta=meta, fleet=service.stats())
        else:
            meta["exec_workers"] = service.exec_workers
            report = build_run_report(probe=probe, meta=meta, service=service.stats())
        write_report(report, args.profile)
        print(f"profile   : run report written to {args.profile}")
    return 0


def request_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro request",
        description="Send solve requests to a running `repro serve` endpoint",
    )
    add_url(parser)
    add_spec(parser, SOLVE_KERNELS)
    add_problem(parser)
    add_method(parser)
    add_timeout(parser)
    parser.set_defaults(url="http://127.0.0.1:8750", eps=1e-6)
    parser.add_argument("--count", type=int, default=1, help="number of requests to send")
    parser.add_argument("--lane", default=None,
                        help="admission lane (fleet servers only: "
                        "'interactive' or 'batch')")
    parser.add_argument("--check", action="store_true",
                        help="manufacture the solution locally (streamed dense matvec) "
                        "and report the forward error of each reply")
    parser.add_argument("--stats", action="store_true",
                        help="print the server's stats (no solve unless --count given too)")
    parser.add_argument("--shutdown", action="store_true",
                        help="ask the server to drain and exit")
    args = parser.parse_args(argv)

    from .errors import BadRequestError, ServiceError
    from .http import SolveClient

    try:
        spec = spec_from_args(args, method=args.method)
    except BadRequestError as exc:
        return cli_error(exc)
    client = SolveClient(args.url)
    try:
        if args.shutdown:
            print(client.shutdown())
            return 0
        if args.stats and args.count < 1:
            print(json.dumps(client.stats(), indent=2))
            return 0

        rng = np.random.default_rng(args.seed)
        complex_rhs = args.kernel == "helmholtz"

        x0s, rhs = [], []
        if args.check:
            from ..geometry import GEOMETRIES, make_kernel, streamed_matvec

            points = GEOMETRIES[args.geometry](args.n)
            kernel = make_kernel(args.kernel, points)
        for _ in range(args.count):
            x0 = rng.standard_normal(args.n)
            if complex_rhs:
                x0 = x0 + 1j * rng.standard_normal(args.n)
            if args.check:
                x0s.append(x0)
                rhs.append(streamed_matvec(kernel, points, x0))
            else:
                rhs.append(x0)

        latencies = []
        for i, b in enumerate(rhs):
            t0 = time.perf_counter()
            x = client.solve(spec.canonical(), b, timeout=args.timeout, lane=args.lane)
            dt = time.perf_counter() - t0
            latencies.append(dt)
            line = f"request {i:3d}: {dt * 1e3:8.2f} ms, |x| = {np.linalg.norm(x):.6g}"
            if args.check:
                err = np.linalg.norm(x - x0s[i]) / np.linalg.norm(x0s[i])
                line += f", forward error {err:.2e}"
            print(line)
        if latencies:
            print(f"latency   : mean {np.mean(latencies) * 1e3:.2f} ms, "
                  f"max {np.max(latencies) * 1e3:.2f} ms over {len(latencies)} requests")
        if args.stats:
            print(json.dumps(client.stats(), indent=2))
        return 0
    except ServiceError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        return cli_error(f"cannot reach {args.url}: {exc}")
    finally:
        client.close()
