"""Ablation — HMAT vs opaque Tile-H vs nested Tile-H, simulated makespans.

The paper's crossover (Sec. V): HMAT's leaf-level DAG exposes more
parallelism than Tile-H's coarse tiles. Nested expansion (Carratalá-Sáez et
al., 1906.00874) splits each H-structured tile kernel into a sub-block
subtask DAG, which should recover that parallelism without giving up the
tile layout. All three graphs of one cylinder Laplace problem are replayed
on p virtual workers with bottom-level priorities, zero runtime overheads
and flop-proportional task costs, so the table isolates DAG shape.

The problem is fixed (n=512, nb=128, leaf 48: few tiles and fat diagonal
kernels, the regime where opaque Tile-H is weakest) and the sweep, two
factorisations and their simulated replays, is deterministic; it takes about
a second.
"""

from __future__ import annotations

from repro.baselines import HMatSolver
from repro.core import TileHConfig, TileHMatrix
from repro.core.algorithms import apply_bottom_level_priorities
from repro.geometry import cylinder_cloud, make_kernel
from repro.runtime import RuntimeOverheadModel, simulate

EPS = 1e-4
#: Virtual worker counts for the HMAT / Tile-H / nested crossover sweep.
_CROSSOVER_WORKERS = (1, 2, 4, 8, 16, 32)
_CROSSOVER_N, _CROSSOVER_NB = (512, 128)
#: Deterministic flop->seconds scale for simulated makespans (the measured
#: ~2.7 GF/s NumPy/BLAS leaf-kernel rate; see analysis.autotune).
_FLOP_RATE = 2.7e9


def _crossover_sweep(n: int, nb: int) -> list[dict]:
    """Pure-HMAT vs. opaque Tile-H vs. nested Tile-H, simulated makespans.

    The deterministic proxy behind the nested-parallelism claim: all three
    DAGs are replayed on virtual workers with flop-modelled task costs
    (scaled to seconds at :data:`_FLOP_RATE`) under an overhead-free model,
    so the comparison isolates dependency structure — the quantity nested
    expansion changes.  The nested graph and HMAT's are the graphs their
    factorisations ran, their flops on the factor's ranks; the opaque Tile-H
    baseline is the *contracted* nested graph (each expansion's subtasks
    collapsed back into one task with summed flops), which keeps all three
    under the identical flop model.  At high worker counts coarse Tile-H
    tasks starve the machine and the format trails pure HMAT; nested
    expansion must recover that headroom — the test asserts it.
    """
    pts = cylinder_cloud(n)
    kern = make_kernel("laplace", pts)
    leaf = min(48, nb)
    a = TileHMatrix.build(
        kern, pts, TileHConfig(nb=nb, eps=EPS, leaf_size=leaf, nested=True, nested_min_leaf=leaf)
    )
    info = a.factorize()
    graph = info.graph
    apply_bottom_level_priorities(graph, "flops")
    contracted = info.nested_stats.contract(graph)
    apply_bottom_level_priorities(contracted, "flops")
    hinfo = HMatSolver(kern, pts, eps=EPS, leaf_size=leaf).factorize()
    apply_bottom_level_priorities(hinfo.graph, "flops")
    variants = [
        ("hmat", hinfo.graph),
        ("tile_h", contracted),
        ("nested", graph),
    ]
    rows = []
    for p in _CROSSOVER_WORKERS:
        row = {"case": "crossover", "n": n, "nb": nb, "nworkers": p}
        for name, g in variants:
            r = simulate(
                g, p, "prio", overheads=RuntimeOverheadModel.zero(),
                cost_attr="flops", cost_scale=1.0 / _FLOP_RATE,
                keep_trace=False,
            )
            row[f"makespan_{name}"] = r.makespan
            if p == _CROSSOVER_WORKERS[0]:
                row[f"critical_path_{name}"] = r.critical_path
        rows.append(row)
    return rows


def test_abl_nested(benchmark, emit):
    cross = benchmark.pedantic(
        _crossover_sweep, args=(_CROSSOVER_N, _CROSSOVER_NB), rounds=1, iterations=1
    )
    first = cross[0]
    emit(
        "abl_nested",
        ["workers", "hmat s", "tile-h opaque s", "tile-h nested s"],
        [[r["nworkers"], r["makespan_hmat"], r["makespan_tile_h"], r["makespan_nested"]]
         for r in cross],
        title=(
            f"Ablation: nested expansion vs HMAT and opaque Tile-H (N={_CROSSOVER_N}, "
            f"NB={_CROSSOVER_NB}, leaf 48; zero overheads, flops at "
            f"{_FLOP_RATE / 1e9:g} GF/s; critical paths hmat "
            f"{first['critical_path_hmat']:.4g} s, opaque "
            f"{first['critical_path_tile_h']:.4g} s, nested "
            f"{first['critical_path_nested']:.4g} s)"
        ),
    )

    # Crossover: where coarse Tile-H trails the fine-grain HMAT DAG (high
    # virtual worker counts), nested expansion must claw the makespan back.
    trailing = [r for r in cross if r["makespan_tile_h"] > r["makespan_hmat"]]
    assert trailing, f"opaque Tile-H never trailed HMAT: {cross}"
    for r in trailing:
        assert r["makespan_nested"] < r["makespan_tile_h"], r
    assert first["critical_path_nested"] < first["critical_path_tile_h"], first
