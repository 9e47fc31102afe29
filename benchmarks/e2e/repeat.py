"""Repeatability self-check: do two sets of runs of the same code agree?

    python3 benchmarks/e2e/repeat.py [--runs 5] [--workload NAME ...]

Runs two alternating sets (A, B) of ``--runs`` fresh-process runs per
workload at the current commit, each run with another seed, and prints for
every workload x end-to-end metric both set medians, each set's quartile
spread as a share of its median, and how much worse B's median is than A's,
against the metric's bound from BENCHMARK.json.  Exits non-zero when a gap or
a spread exceeds its bound (``setup_s``'s spread is reported, not judged).

A metric that still misses after its phase has been lengthened is demoted to
a per-layer number for all workloads; bounds are not widened.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def one_run(spec: dict, workload: str, seed: int, extra: list[str]) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"] + extra
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=5, help="runs per set (>= 2)")
    ap.add_argument("--workload", action="append", help="default: every workload")
    ap.add_argument("--seed", type=int, default=1000, help="first seed; each run takes the next")
    ap.add_argument("--smoke", action="store_true", help="pass --smoke to every run (plumbing check)")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be >= 2")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    extra = ["--smoke"] if args.smoke else []

    bad = 0
    seed = args.seed
    every: list[str] = []
    print(f"{'workload':<12} {'metric':<20} {'median A':>11} {'median B':>11} "
          f"{'iqr A':>7} {'iqr B':>7} {'B worse':>8} {'bound':>6}  verdict")
    for name in names:
        sets = {"A": [], "B": []}
        for _ in range(args.runs):
            for label in ("A", "B"):  # alternate, so drift hits both sets alike
                res = one_run(spec, name, seed, extra)
                seed += 1
                if res["failed"] or not res["correct"]:
                    print(f"{name}: run with seed {seed - 1} reported "
                          f"{res['failed']} failed of {res['attempted']}")
                    bad += 1
                sets[label].append(res["metrics"])
        for m in spec["end_to_end"]:
            a = [r[m["name"]]["value"] for r in sets["A"]]
            b = [r[m["name"]]["value"] for r in sets["B"]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a
            if m["better"] == "higher":
                worse = -worse
            sa, sb = spread(a), spread(b)
            judged_spread = 0.0 if m["name"] == "setup_s" else max(sa, sb)
            ok = worse <= m["bound"] and judged_spread <= m["bound"]
            bad += not ok
            print(f"{name:<12} {m['name']:<20} {med_a:>11.5g} {med_b:>11.5g} "
                  f"{sa:>7.1%} {sb:>7.1%} {worse:>+8.1%} {m['bound']:>6.0%}  "
                  f"{'ok' if ok else 'MISS'}", flush=True)
            every.append(f"{name} {m['name']} A={[float(f'{v:.4g}') for v in a]} "
                         f"B={[float(f'{v:.4g}') for v in b]}")
    print("every run made:")
    print("\n".join(every))
    print("all pairs within bounds" if not bad else f"{bad} problem(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
