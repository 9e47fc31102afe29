"""One workload per process: every metric by name and unit from one command.

    python3 benchmarks/e2e/run.py --workload lu_d_seq --seed 1 --seconds 20 --trace 0

Human-readable lines first (all metrics, the environment stamp); the last
line of standard output is the JSON object the benchmark contract asks for.
"""

import time

_T0 = time.perf_counter()  # process start, as near as a script can see it

import argparse  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402


def main(argv=None) -> int:
    import harness

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["lu_d_seq", "lu_d_tasks2", "gp_chol", "serve_mix"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measure for about this long: as many cycles as fit, never under 5")
    ap.add_argument("--cycles", type=int, default=None,
                    help="run exactly this many cycles instead of filling --seconds")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0,
                    help="1: spans + layer probes, prints the per-layer metrics")
    ap.add_argument("--smoke", action="store_true", help="n~512, 2 cycles, seconds")
    args = ap.parse_args(argv)
    if args.cycles is not None and args.cycles < 1:
        ap.error("--cycles must be >= 1")

    harness.ensure_importable()
    import workloads  # noqa: F401 - pulls in numpy, scipy and the program: part of set-up

    import_s = time.perf_counter() - _T0
    try:
        report = harness.run_workload(
            args.workload, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
            smoke=args.smoke, cycles=args.cycles, import_s=import_s)
    finally:
        # Every path out: no process this run started outlives it.
        stopped = harness.stop_children()
        if stopped:
            print(f"warning: had to signal child processes {stopped}", file=sys.stderr)
    print(harness.render(report))
    leaked = [t.name for t in threading.enumerate() if t is not threading.main_thread()]
    if leaked:
        print(f"warning: threads still alive at exit: {leaked}", file=sys.stderr)
    print(harness.result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
