"""Command-line driver — the analogue of the TEST_FEMBEM binary.

Builds the cylinder test case, assembles the chosen format, factorises,
solves against a manufactured solution and reports compression, accuracy
and (simulated) parallel performance::

    python -m repro --n 5000 --precision d --nb 500 --threads 1 9 35
    python -m repro --n 2000 --precision z --format hmat
    python -m repro --n 3000 --format blr --scheduler ws
    python -m repro --n 2000 --exec threaded --nworkers 4 --nested \
        --nested-min-leaf 64   # every --exec runs the recorded program
    python -m repro --n 2000 --exec threaded --nworkers 4 --scheduler ws \
        --profile run.json --chrome-trace run.trace.json
    python -m repro report run.json
    python -m repro serve --port 8750 --store /tmp/factors
    python -m repro request --url http://127.0.0.1:8750 --n 2000 --check
    python -m repro gp train --kernel sqexp --n 1200 --store /tmp/factors
    python -m repro gp predict --kernel sqexp --n 1200 --store /tmp/factors \
        --n-test 64
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .analysis import forward_error, format_table
from .analysis.experiments import PAPER_EQUIVALENT_OVERHEADS
from .baselines import BLRMatrix, HMatSolver
from .core import EXEC_MODES, TileHConfig, TileHMatrix, default_nb
from .flags import add_method, add_problem, add_run, add_url, cli_error
from .geometry import cylinder_cloud, make_kernel, streamed_matvec
from .runtime import SCHEDULER_NAMES, validate_trace

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Tile-H / H-matrix LU solver on the TEST_FEMBEM cylinder test case",
    )
    add_problem(parser)
    add_method(parser)
    parser.add_argument(
        "--exec", dest="exec_mode", choices=EXEC_MODES, default="eager",
        help="executor of the factorisation: eager (kernels run at submission), "
        "threaded (worker threads under a scheduling policy) or process (worker "
        "processes over shared-memory tiles; GIL-free, yet measured slower than "
        "one thread — docs/parallelism.md — and without the update accumulator: "
        "its factors are the accumulate=False ones); Tile-H assembly is one "
        "serial loop in every mode",
    )
    parser.add_argument("--nworkers", type=int, default=2,
                        help="workers of --exec threaded/process")
    add_run(parser)
    parser.add_argument(
        "--precision",
        choices=["d", "z"],
        default="d",
        help="d: real double (K=1/d), z: complex double (K=exp(ikd)/d)",
    )
    parser.add_argument(
        "--format",
        choices=["tile-h", "hmat", "blr"],
        default="tile-h",
        help="storage format / solver variant (--method cholesky, --nested and --exec: "
        "tile-h only; hmat takes no --nb)",
    )
    parser.add_argument(
        "--scheduler",
        choices=SCHEDULER_NAMES,
        default="prio",
        help="ready-task policy of the threaded/process executors and of the "
        "virtual-machine replay",
    )
    parser.add_argument(
        "--threads",
        type=int,
        nargs="+",
        default=[1, 2, 9, 18, 35],
        help="worker counts to simulate",
    )
    parser.add_argument(
        "--nested",
        action="store_true",
        help="expand H-structured tile kernels into fine-grain subtask DAGs "
        "(nested task parallelism; tile-h only)",
    )
    parser.add_argument(
        "--nested-min-leaf",
        type=int,
        default=128,
        metavar="N",
        help="granularity cutoff for --nested: blocks with min dimension "
        "<= N stay opaque tasks (default 128)",
    )
    parser.add_argument(
        "--racecheck",
        action="store_true",
        help="verify declared task access modes against actual memory effects "
        "(runtime race detector) and validate simulated schedules against the DAG",
    )
    parser.add_argument(
        "--chrome-trace",
        metavar="PATH",
        default=None,
        help="export the factorisation's execution trace (with queue-depth and "
        "H-memory counter tracks) as Chrome tracing JSON for Perfetto",
    )
    return parser


def report_main(argv: list[str]) -> int:
    """The ``repro report`` subcommand: validate + render a run report,
    or compare two reports side by side (``--diff A.json B.json``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro report",
        description="Validate and pretty-print a run report written by --profile",
    )
    parser.add_argument("path", nargs="?", default=None, help="run-report JSON file")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"), default=None,
                        help="compare two run reports side by side and flag "
                        "regressions beyond --threshold")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative regression threshold for --diff "
                        "(default 0.10 = 10%%)")
    args = parser.parse_args(argv)
    from .obs import diff_reports, load_report, render_report, validate_report

    if args.diff is not None:
        reports = []
        for path in args.diff:
            try:
                report = load_report(path)
                if not (isinstance(report, dict) and isinstance(report.get("totals"), dict)
                        and isinstance(report.get("kinds"), dict)):
                    raise ValueError("not a run report (needs 'totals' and 'kinds' objects)")
                reports.append(report)
            except (OSError, ValueError) as exc:
                return cli_error(f"cannot read report {path}: {exc}")
        text, regressions = diff_reports(
            reports[0], reports[1], threshold=args.threshold
        )
        try:
            print(text)
        except BrokenPipeError:
            sys.stderr.close()
            return 0
        return 1 if regressions else 0
    if args.path is None:
        parser.error("a report path (or --diff A B) is required")
    try:
        report = load_report(args.path)
    except (OSError, ValueError) as exc:
        return cli_error(f"cannot read report {args.path}: {exc}")
    errors = validate_report(report)
    if errors:
        print(f"error: {args.path} is not a valid run report:", file=sys.stderr)
        for e in errors[:10]:
            print(f"  {e}", file=sys.stderr)
        return 1
    try:
        print(render_report(report))
    except BrokenPipeError:  # e.g. `repro report run.json | head`
        sys.stderr.close()  # suppress the interpreter's shutdown warning
    return 0


def trace_main(argv: list[str]) -> int:
    """The ``repro trace`` subcommand: export captured request traces.

    Sources (pick one): ``--url`` pulls /tracez from a live server;
    ``--report`` reads the ``tracing`` section of a run report.  By default
    every available trace is merged into one chrome trace; ``--request ID``
    exports a single request's trace.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Export request traces (chrome trace JSON for Perfetto)",
    )
    src = parser.add_mutually_exclusive_group(required=True)
    add_url(src)
    src.add_argument("--report", default=None, metavar="PATH",
                     help="read traces from a run report's tracing section")
    parser.add_argument("--request", default=None, metavar="ID",
                        help="export only the trace with this trace id")
    parser.add_argument("--limit", type=int, default=20,
                        help="max traces to pull from --url (default 20)")
    parser.add_argument("--out", default="requests.trace.json", metavar="PATH",
                        help="output chrome-trace path (default requests.trace.json)")
    args = parser.parse_args(argv)
    from .obs import export_request_chrome_trace

    if args.url is not None:
        from .service.errors import ServiceError
        from .service.http import SolveClient

        try:
            with SolveClient(args.url) as client:
                payload = client.tracez(trace_id=args.request, limit=args.limit)
        except (ServiceError, OSError) as exc:
            return cli_error(f"cannot fetch traces from {args.url}: {exc}")
        if not payload.get("enabled", False):
            print("error: tracing is disabled on the server "
                  "(serve with --trace-requests N)", file=sys.stderr)
            return 1
        if args.request is not None:
            if not payload.get("found"):
                print(f"error: trace {args.request} not found (evicted or "
                      "never captured)", file=sys.stderr)
                return 1
            traces = [payload["trace"]]
        else:
            traces = payload.get("traces", [])
        source = args.url
    else:
        import json as _json

        try:
            with open(args.report) as fh:
                report = _json.load(fh)
        except (OSError, ValueError) as exc:
            return cli_error(f"cannot read report {args.report}: {exc}")
        tracing = report.get("tracing")
        if not tracing:
            print(f"error: {args.report} has no tracing section "
                  "(profile a run with tracing enabled)", file=sys.stderr)
            return 1
        traces = tracing.get("recent", [])
        if args.request is not None:
            traces = [t for t in traces if t.get("trace_id") == args.request]
            if not traces:
                print(f"error: trace {args.request} not in {args.report}",
                      file=sys.stderr)
                return 1
        source = args.report
    if not traces:
        print("error: no traces captured yet", file=sys.stderr)
        return 1
    export_request_chrome_trace(traces, args.out, metadata={"source": source})
    print(f"trace     : {len(traces)} request trace(s) written to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "report":
        return report_main(argv[1:])
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "serve":
        from .service.cli import serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "request":
        from .service.cli import request_main

        return request_main(argv[1:])
    if argv and argv[0] == "gp":
        from .gp.cli import gp_main

        return gp_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.n < 2:
        return cli_error("--n must be at least 2")
    if min(args.threads) < 1:
        return cli_error("--threads must be at least 1")
    if args.format != "tile-h":
        for flag, used in (("--method cholesky", args.method != "lu"),
                           ("--nested", args.nested),
                           (f"--exec {args.exec_mode}", args.exec_mode != "eager")):
            if used:
                return cli_error(f"{flag} needs --format tile-h")
    if args.format == "hmat" and args.nb is not None:
        return cli_error("--nb needs --format tile-h or blr (hmat factors one tile, nb = n)")
    nb = args.nb if args.nb is not None else default_nb(args.n)
    if args.format == "hmat":
        nb = args.n
    try:
        tile_config = TileHConfig(
            nb=nb, eps=args.eps, leaf_size=args.leaf_size, racecheck=args.racecheck,
            exec_mode=args.exec_mode, nworkers=args.nworkers,
            scheduler=args.scheduler,
            nested=args.nested, nested_min_leaf=args.nested_min_leaf,
        )
    except ValueError as exc:
        return cli_error(exc)

    points = cylinder_cloud(args.n)
    kernel = make_kernel("laplace" if args.precision == "d" else "helmholtz", points)

    print(f"test case : cylinder, n={args.n}, precision={args.precision}")
    print(f"format    : {args.format} (nb={nb}, eps={args.eps:g}, leaf={args.leaf_size})")
    if args.exec_mode in ("threaded", "process"):
        kind = "worker threads" if args.exec_mode == "threaded" else "worker processes"
        print(f"executor  : {args.exec_mode}, {args.nworkers} {kind}, "
              f"scheduler={args.scheduler}")

    rng = np.random.default_rng(args.seed)
    x0 = rng.standard_normal(args.n)
    if args.precision == "z":
        x0 = x0 + 1j * rng.standard_normal(args.n)
    b = streamed_matvec(kernel, points, x0)

    probe = None
    if args.profile is not None or args.chrome_trace is not None:
        from .obs import Instrumentation

        probe = Instrumentation()

    try:
        if probe is not None:
            probe.__enter__()
        t0 = time.perf_counter()
        if args.format == "tile-h":
            solver = TileHMatrix.build(kernel, points, tile_config)
        elif args.format == "blr":
            solver = BLRMatrix.build(kernel, points, tile_config)
        else:
            solver = HMatSolver(
                kernel, points, eps=args.eps, leaf_size=args.leaf_size,
                racecheck=args.racecheck,
            )
        t_build = time.perf_counter() - t0
        print(f"assembly  : {t_build:.2f} s, "
              f"compression {solver.compression_ratio():.1%} of dense")

        t0 = time.perf_counter()
        if args.format == "tile-h":
            info = solver.factorize(method=args.method)
        else:
            info = solver.factorize()
        t_fact = time.perf_counter() - t0
        print(
            f"factorise : {t_fact:.2f} s wall, {info.sequential_seconds():.2f} s kernel time, "
            f"{info.n_tasks} tasks, {info.n_dependencies} dependencies"
        )

        violations = validate_trace(info.graph, info.trace, strict=False)
        if violations:
            print(f"error: {args.exec_mode} trace violates the DAG: {violations[:3]}",
                  file=sys.stderr)
            return 1
        print(f"trace     : {len(info.trace.events)} {args.exec_mode} "
              "events validated as a linear extension of the DAG")

        nested_info = info.nested
        if nested_info:
            print(
                f"nested    : {nested_info['expanded_tasks']} tile kernels "
                f"expanded into {nested_info['subtasks']} subtasks "
                f"(min_leaf {nested_info['min_leaf']}), critical path "
                f"{nested_info['critical_path_before']:.4g} -> "
                f"{nested_info['critical_path_after']:.4g} "
                f"{nested_info['cost_attr']}"
            )

        x = solver.solve(b)
        print(f"solve     : forward error {forward_error(x, x0):.2e} (eps={args.eps:g})")
        if args.racecheck and info.racecheck is not None:
            print(f"racecheck : {info.racecheck.summary()}")
    finally:
        # Deactivate before the simulated replays below so their scheduler
        # counters never pollute the measured run's report.
        if probe is not None:
            probe.__exit__(None, None, None)

    if probe is not None:
        from .obs import build_run_report, write_report
        from .runtime import export_chrome_trace

        if args.profile is not None:
            report = build_run_report(
                probe=probe,
                trace=info.trace,
                graph=info.graph,
                nested=info.nested,
                meta={
                    "n": args.n,
                    "precision": args.precision,
                    "format": args.format,
                    "nb": info.nb,
                    "eps": args.eps,
                    "exec_mode": args.exec_mode,
                    "scheduler": args.scheduler,
                    "nworkers": args.nworkers if args.exec_mode != "eager" else 1,
                },
            )
            write_report(report, args.profile)
            print(f"profile   : run report written to {args.profile}")
        if args.chrome_trace is not None:
            export_chrome_trace(
                info.trace,
                args.chrome_trace,
                counters=probe.series,
                metadata={"scheduler": args.scheduler},
            )
            print(f"trace     : Chrome trace written to {args.chrome_trace}")

    rows = []
    for p in args.threads:
        r = info.simulate(p, args.scheduler, overheads=PAPER_EQUIVALENT_OVERHEADS)
        if args.racecheck and r.trace is not None:
            validate_trace(info.graph, r.trace)
        rows.append([p, f"{r.makespan:.4f}", f"{r.speedup_vs_serial:.1f}",
                     f"{r.efficiency:.0%}"])
    print()
    print(format_table(
        ["workers", "LU seconds", "speedup", "efficiency"],
        rows,
        title=f"virtual-machine replay [{args.scheduler}]",
    ))
    if args.racecheck:
        print(f"racecheck : {len(args.threads)} simulated schedules validated "
              "as linear extensions of the DAG")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
