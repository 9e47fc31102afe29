"""Scheduler trade-offs: watch the paper's Section V-C effects directly.

Builds one Tile-H problem, factorises it once, then replays the task DAG
under each scheduling policy (the paper's ws/lws/prio and the FIFO eager
baseline) and several worker counts — printing the
speedup table and a text gantt chart per policy so the contention /
work-stealing / priority effects are visible at a glance.  Also contrasts
the Tile-H DAG with the pure-HMAT fine-grained DAG under growing
dependency-handling overheads (the paper's explanation for Fig. 6's
real-case crossover).

Run:  python examples/scheduler_tradeoffs.py [n]
"""

import sys

import numpy as np

from repro.analysis import format_table
from repro.analysis.experiments import PAPER_EQUIVALENT_OVERHEADS
from repro.baselines import HMatSolver
from repro.core import TileHConfig, TileHMatrix
from repro.geometry import cylinder_cloud, make_kernel
from repro.runtime import SCHEDULER_NAMES, RuntimeOverheadModel, render_gantt


def main(n: int = 2500) -> None:
    points = cylinder_cloud(n)
    kernel = make_kernel("laplace", points)
    a = TileHMatrix.build(kernel, points, TileHConfig(nb=max(64, n // 12), eps=1e-4))
    info = a.factorize()
    print(f"Tile-H DAG: {info.n_tasks} tasks, {info.n_dependencies} dependencies, "
          f"{info.sequential_seconds():.2f} s sequential\n")

    rows = []
    for sched in SCHEDULER_NAMES:
        times = {}
        for p in (1, 2, 9, 18, 35):
            times[p] = info.simulate(p, sched, overheads=PAPER_EQUIVALENT_OVERHEADS).makespan
        rows.append([sched] + [f"{times[p]:.3f}" for p in (1, 2, 9, 18, 35)])
    print(format_table(
        ["scheduler", "p=1", "p=2", "p=9", "p=18", "p=35"],
        rows,
        title="LU time (s) per scheduling policy",
    ))

    print("\ngantt charts at p=9 (G=getrf, T=trsm, M=gemm, .=idle):")
    for sched in SCHEDULER_NAMES:
        r = info.simulate(9, sched, overheads=PAPER_EQUIVALENT_OVERHEADS)
        print(f"\n[{sched}]  makespan {r.makespan:.3f}s, "
              f"utilization {r.trace.utilization():.0%}")
        print(render_gantt(r.trace, width=76))

    # The fine-grain story: per-dependency cost vs DAG granularity.
    hm = HMatSolver(kernel, points, eps=1e-4)
    hinfo = hm.factorize()
    print(f"\npure-HMAT fine-grain DAG: {hinfo.n_tasks} tasks, "
          f"{hinfo.n_dependencies} dependencies")
    rows = []
    for dep in (0.0, 1e-6, 1e-5, 1e-4):
        ovh = RuntimeOverheadModel(per_task=1e-6, per_dependency=dep)
        t_tile = info.simulate(18, "prio", overheads=ovh).makespan
        t_hmat = hinfo.simulate(18, "lws", overheads=ovh).makespan
        rows.append([f"{dep:.0e}", f"{t_tile:.3f}", f"{t_hmat:.3f}",
                     f"{t_hmat / t_tile:.2f}x"])
    print(format_table(
        ["per-dep cost (s)", "tile-h (s)", "hmat (s)", "hmat/tile-h"],
        rows,
        title="\nDependency-handling cost vs DAG granularity (18 workers)",
    ))
    print("\nAs the per-dependency cost grows, the fine-grained pure-H DAG "
          "falls behind — the paper's real-double crossover.")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 2500)
