"""Outside-in layer probes for the traced run.

A traced run probes the layers its workload enters, on that workload's own
problem: geometry, dense, hmatrix and core for all four; runtime and nested
expansion for ``lu_d_tasks2``; service for ``serve_mix``; gp for ``gp_chol``;
obs and the paper's baselines for ``lu_d_seq``.  Metrics of layers a workload
never enters read 0 there.  Counts repeat exactly; timings are medians of a
few calls and informational.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from dataclasses import replace

import numpy as np

from repro.baselines import DenseTiledLU, HMatSolver
from repro.core import TileHMatrix, build_tile_h_clustering, tiled_getrf_tasks
from repro.dense import flops_gemm, flops_getrf, flops_trsm, gemm_update, getrf_nopiv, trsm
from repro.geometry import cylinder_cloud, make_kernel, streamed_matvec
from repro.hmatrix import (
    AssemblyConfig,
    StrongAdmissibility,
    assemble_hmatrix,
    hgemm,
    hgetrf,
    htrsm,
    load_tile_h,
    save_tile_h,
)
from repro.obs import Instrumentation
from repro.runtime import NestedPolicy, RuntimeOverheadModel, StfEngine, simulate
from repro.service import (
    FactorizationStore,
    MicroBatcher,
    SolveService,
    decode_vector,
    encode_vector,
    spec_fingerprint,
)

from harness import BURST, Cycle, open_fds, p95, timed

#: The simulator's hand-calibrated per-task / per-dependency cost
#: (EXPERIMENTS.md), to set beside runtime.task_overhead_us.
CALIBRATED = RuntimeOverheadModel(per_task=24e-6, per_dependency=6e-6, serialized=True)


def _geometry(prob, sp) -> dict:
    pts, kern = prob["points"], prob["kernel"]
    n = pts.shape[0]
    out = {}
    with sp("geometry.cylinder_cloud"):
        out["geometry.cloud_s"] = timed(lambda: cylinder_cloud(n), 5)
    rows = pts[: min(512, n)]
    mentries = rows.shape[0] * n / 1e6
    for key, name, params in (
        ("geometry.kernel_eval_mentries_per_s", "laplace", {}),
        ("geometry.kernel_eval_z_mentries_per_s", "helmholtz", {}),
        ("geometry.kernel_eval_sqexp_mentries_per_s", "sqexp", {"length": 0.3}),
    ):
        k = make_kernel(name, pts, **params)
        with sp(f"geometry.kernel[{name}]"):
            out[key] = mentries / timed(lambda: k(rows, pts), 5)
    x = np.random.default_rng(0).standard_normal((n, 16))
    with sp("geometry.streamed_matvec"):
        t0 = time.perf_counter()
        b = streamed_matvec(kern, pts, x)
        out["geometry.streamed_matvec_s"] = time.perf_counter() - t0
    prob["x_true"], prob["rhs"] = x, b
    return out


def _dense(prob, sp) -> dict:
    nb = prob["nb"]
    dtype = prob["kernel"].dtype
    is_c = np.dtype(dtype).kind == "c"
    rng = np.random.default_rng(0)
    a = rng.standard_normal((nb, nb)).astype(dtype)
    b = rng.standard_normal((nb, nb)).astype(dtype)
    c = np.zeros((nb, nb), dtype=dtype)
    diag = a + nb * np.eye(nb)
    out = {}
    with sp("dense.gemm_update"):
        t = timed(lambda: gemm_update(c, a, b), 20)
    out["dense.gemm_gflops"] = flops_gemm(nb, nb, nb, is_complex=is_c) / t / 1e9
    with sp("dense.getrf_nopiv"):
        t = timed(lambda: getrf_nopiv(diag.copy()), 10)
    out["dense.getrf_gflops"] = flops_getrf(nb, is_complex=is_c) / t / 1e9
    lu = getrf_nopiv(diag.copy())
    with sp("dense.trsm"):
        t = timed(lambda: trsm("left", "lower", lu, b, unit_diagonal=True), 10)
    out["dense.trsm_gflops"] = flops_trsm(nb, nb, is_complex=is_c) / t / 1e9
    return out


def _hmatrix(prob, sp) -> dict:
    pts, kern, cfg = prob["points"], prob["kernel"], prob["config"]
    out = {}
    with sp("hmatrix.clustering"):
        t0 = time.perf_counter()
        cl = build_tile_h_clustering(pts, cfg.nb, leaf_size=cfg.leaf_size,
                                     admissibility=StrongAdmissibility(eta=cfg.eta))
        out["hmatrix.cluster_s"] = time.perf_counter() - t0
    acfg = AssemblyConfig(eps=cfg.eps, method=cfg.method)
    nt = cl.nt
    with sp("hmatrix.assemble_hmatrix[all tiles]"):
        t0 = time.perf_counter()
        tiles = {(i, j): assemble_hmatrix(kern, pts, cl.block_tree(i, j), acfg)
                 for i in range(nt) for j in range(nt)}
        out["hmatrix.aca_assembly_s"] = time.perf_counter() - t0
    # One step of Algorithm 1 on three diagonal positions; the median tile.
    getrf, trsm_t, gemm = [], [], []
    with sp("hmatrix.tile_kernels"):
        for k in range(min(3, nt - 1)):
            d, u, l, c = tiles[k, k], tiles[k, k + 1], tiles[k + 1, k], tiles[k + 1, k + 1]
            getrf.append(timed(lambda: hgetrf(d, cfg.eps)))
            trsm_t.append(timed(lambda: htrsm("left", "lower", d, u, cfg.eps, unit_diagonal=True)))
            htrsm("right", "upper", d, l, cfg.eps)
            gemm.append(timed(lambda: hgemm(c, l, u, cfg.eps)))
    for key, vals in (("hmatrix.hgetrf_ms", getrf), ("hmatrix.htrsm_ms", trsm_t),
                      ("hmatrix.hgemm_ms", gemm)):
        out[key] = statistics.median(vals) * 1e3 if vals else 0.0
    return out


def _core(prob, sp, scratch) -> dict:
    pts, kern, cfg, method = prob["points"], prob["kernel"], prob["config"], prob["method"]
    out = {}
    with sp("core.build"):
        t0 = time.perf_counter()
        a = TileHMatrix.build(kern, pts, cfg)
        out["core.build_s"] = time.perf_counter() - t0
    out["hmatrix.compression_ratio"] = a.compression_ratio()
    out["hmatrix.storage_mb"] = a.storage_bytes() / 1e6
    with sp("core.factorize"):
        t0 = time.perf_counter()
        info = a.factorize(method=method)
        out["core.factorize_s"] = time.perf_counter() - t0
    out["core.tasks"] = info.n_tasks
    out["core.deps"] = info.n_dependencies
    b, x_true = prob["rhs"], prob["x_true"]
    col = np.ascontiguousarray(b[:, 0])
    with sp("core.solve"):
        out["core.solve1_ms"] = timed(lambda: a.solve(col), 20) * 1e3
    panel = np.tile(b, (1, BURST // b.shape[1]))
    with sp("core.solve[64]"):
        out["core.solve64_ms"] = timed(lambda: a.solve(panel), 5) * 1e3
    x = a.solve(col)
    out["core.fwd_error"] = float(np.linalg.norm(x - x_true[:, 0]) / np.linalg.norm(x_true[:, 0]))

    path = scratch / "probe.npz"
    with sp("hmatrix.io.save_tile_h"):
        out["hmatrix.io.save_s"] = timed(lambda: save_tile_h(
            a.desc, path, factorized=True, method=method, config=a.config, compress=False))
    out["hmatrix.io.archive_mb"] = path.stat().st_size / 1e6
    with sp("hmatrix.io.load_tile_h"):
        out["hmatrix.io.load_s"] = timed(lambda: load_tile_h(path), 3)
    with sp("hmatrix.io.load_tile_h[mmap]"):
        out["hmatrix.io.load_mmap_s"] = timed(lambda: load_tile_h(path, mmap=True), 3)
    gc.collect()
    path.unlink()
    prob["factorize_s"] = out["core.factorize_s"]
    return out


def _factor_under(wl, exec_mode: str, nworkers: int):
    """Eager build, then the factorisation alone on the named executor, with
    the workload's own options otherwise."""
    a = TileHMatrix.build(wl.kern, wl.pts, wl.eager_cfg)
    a.config = replace(wl.cfg, exec_mode=exec_mode, nworkers=nworkers)
    return a, a.factorize()


def _runtime(wl, prob, sp) -> dict:
    """lu_d_tasks2 only: submission, expansion, executors, simulator."""
    out = {}
    a = TileHMatrix.build(wl.kern, wl.pts, wl.eager_cfg)
    # Deferred submission only records closures, so one built matrix serves both.
    with sp("runtime.stf.submit"):
        t0 = time.perf_counter()
        opaque = tiled_getrf_tasks(a.desc, StfEngine(mode="deferred"), accumulate=False)
        out["runtime.stf.submit_s"] = time.perf_counter() - t0
    out["runtime.stf.submit_us_per_task"] = out["runtime.stf.submit_s"] / len(opaque) * 1e6
    eng = StfEngine(mode="deferred", nested=NestedPolicy(min_leaf=wl.cfg.nested_min_leaf))
    with sp("core.nested.expand"):
        t0 = time.perf_counter()
        tiled_getrf_tasks(a.desc, eng, accumulate=False)
        nested_s = time.perf_counter() - t0
    out["core.nested.subtasks"] = eng.nested_stats.subtasks
    out["core.nested.expand_s"] = nested_s - out["runtime.stf.submit_s"]
    del a, opaque, eng

    with sp("runtime.threaded1"):
        _, info1 = _factor_under(wl, "threaded", 1)
    out["runtime.threaded1.run_s"] = info1.wall_seconds
    kernel_s = info1.graph.total_work("seconds")
    out["runtime.task_overhead_us"] = (info1.wall_seconds - kernel_s) / info1.n_tasks * 1e6
    with sp("runtime.simulate"):
        t0 = time.perf_counter()
        sim = simulate(info1.graph, 2, wl.cfg.scheduler, overheads=CALIBRATED, keep_trace=False)
        out["runtime.sim.simulate_s"] = time.perf_counter() - t0
    out["runtime.sim.makespan_p2_s"] = sim.makespan

    with sp("runtime.threaded2"), Instrumentation(trace_capacity=0) as probe:
        _, info2 = _factor_under(wl, "threaded", 2)
    out["runtime.threaded2.run_s"] = info2.wall_seconds
    out["runtime.threaded2.idle_frac"] = 1.0 - info2.trace.utilization()
    out["runtime.threaded2.steals"] = probe.sched.steals
    out["runtime.speedup_p2"] = prob["factorize_s"] / info2.wall_seconds
    out["runtime.sim_vs_real_p2"] = sim.makespan / info2.wall_seconds

    with sp("runtime.process2"):
        _, info3 = _factor_under(wl, "process", 2)
    out["runtime.process2.run_s"] = info3.wall_seconds
    return out


def _obs_baselines(wl, prob, sp) -> dict:
    """lu_d_seq only: probe overhead and the paper's two comparisons."""
    out = {}
    a = TileHMatrix.build(wl.kern, wl.pts, wl.cfg)
    with sp("obs.factorize[instrumented]"), Instrumentation(trace_capacity=0):
        t0 = time.perf_counter()
        a.factorize()
        out["obs.probe_overhead_frac"] = (time.perf_counter() - t0) / prob["factorize_s"]
    del a
    cfg = wl.cfg
    with sp("baselines.hmat"):
        h = HMatSolver(wl.kern, wl.pts, eps=cfg.eps, leaf_size=cfg.leaf_size, accumulate=False)
        out["baselines.hmat.factor_s"] = timed(h.factorize)
    del h
    with sp("baselines.dense"):
        d = DenseTiledLU(wl.kern(wl.pts, wl.pts), cfg.nb)
        out["baselines.dense.factor_s"] = timed(d.factorize)
    return out


def _gp(wl, sp) -> dict:
    out = {}
    with sp("gp.fit"):
        t0 = time.perf_counter()
        m = wl.new_model().fit(wl.x, wl.y)
        out["gp.fit_s"] = time.perf_counter() - t0
    out["gp.tasks"] = m.info_.n_tasks
    kern = m.kernel_function(wl.x)
    with sp("gp.cross_covariance"):
        out["gp.cross_cov_ms"] = timed(lambda: kern(wl.x, wl.xt), 10) * 1e3
    with sp("gp.predict"):
        out["gp.predict1_ms"] = timed(lambda: m.predict(wl.xt[:1]), 20) * 1e3
    with sp("gp.predict[64]"):
        out["gp.predict64_ms"] = timed(lambda: m.predict(wl.xt), 5) * 1e3
    mean = m.predict(wl.xt).mean
    out["gp.mean_rel_err"] = float(np.linalg.norm(mean - wl.mean_ref) / np.linalg.norm(wl.mean_ref))
    return out


def _burst_rate(wl, fleet) -> float:
    for _ in range(2):
        wl.burst(fleet, 0)
    rates = [r for r in (wl.burst(fleet, i) for i in range(6)) if r is not None]
    return statistics.median(rates) if rates else 0.0


def _sweeps(fleet) -> tuple[int, float]:
    """(panel sweeps, columns swept) so far, over the fleet's shards."""
    hists = [s["batch_size"] for s in fleet.worker_stats()]
    return sum(h["count"] for h in hists), sum(h["sum"] for h in hists)


def _service(wl, sp, scratch) -> dict:
    """serve_mix only, outside in: HTTP -> fleet -> pipeline -> batcher/store."""
    out = {}
    spec, b = wl.specs[0], wl.rhs[0][:, 0]
    key = spec_fingerprint(spec)
    payload = wl.payload(spec)

    sweeps0, _ = _sweeps(wl.fleet)
    with sp("service.http.solve"):
        out["service.http.solve_ms"] = timed(lambda: wl.client.solve(payload, b), 20) * 1e3
    with sp("service.fleet.solve"):
        out["service.fleet.solve_ms"] = timed(lambda: wl.fleet.solve(spec, b), 20) * 1e3
    # One client, one in flight: every request must ride its own panel sweep.
    out["service.sweeps"] = _sweeps(wl.fleet)[0] - sweeps0

    def codec():
        wire = json.dumps({"problem": payload, "rhs": encode_vector(b)})
        decode_vector(json.loads(wire)["rhs"])
        back = json.dumps({"solution": encode_vector(b)})
        decode_vector(json.loads(back)["solution"])

    with sp("service.http.codec"):
        out["service.http.codec_ms"] = timed(codec, 20) * 1e3
    with sp("service.fingerprint"):
        out["service.fingerprint_us"] = timed(lambda: spec_fingerprint(spec), 1000) * 1e6

    fds0 = open_fds()
    store = FactorizationStore(wl.warm_root, mmap=True)
    with sp("service.store.get[disk]"):
        t0 = time.perf_counter()
        solver = store.get(key)
        out["service.store.disk_load_ms"] = (time.perf_counter() - t0) * 1e3
    out["service.store.fds_per_key"] = open_fds() - fds0
    with sp("service.store.get[memory]"):
        out["service.store.hit_us"] = timed(lambda: store.get(key), 1000) * 1e6
    with sp("service.pipeline.solve"), SolveService(store, workers=1) as svc:
        svc.solve(spec, b)
        out["service.pipeline.solve_ms"] = timed(lambda: svc.solve(spec, b), 20) * 1e3
    with sp("service.store.put"):
        t0 = time.perf_counter()
        FactorizationStore(scratch / "put", mmap=True).put(key, solver)
        out["service.store.put_s"] = time.perf_counter() - t0
    del store, solver, svc

    batcher = MicroBatcher()  # the services' own max_batch / max_delay

    def roundtrip():
        batcher.add("k", 0)
        batcher.take(timeout=1.0)

    with sp("service.batcher.roundtrip"):
        out["service.batcher.roundtrip_us"] = timed(roundtrip, 50) * 1e6

    sweeps0, cols0 = _sweeps(wl.fleet)
    with sp("service.fleet.bursts[2 shards]"):
        out["service.fleet.rps_2shard"] = _burst_rate(wl, wl.fleet)
    sweeps1, cols1 = _sweeps(wl.fleet)
    out["service.batch_width_mean"] = (cols1 - cols0) / (sweeps1 - sweeps0) if sweeps1 > sweeps0 else 0.0
    for name, kw in (("service.fleet.rps_1shard", {"workers": 1}),
                     ("service.fleet.rps_2shard_replicated", {"replicate_hot_after": 16})):
        with sp(f"service.fleet.bursts[{name.rsplit('.', 1)[1]}]"):
            fleet = wl.new_fleet(wl.warm_root, **kw)
            try:
                for k, s in enumerate(wl.specs):
                    fleet.solve(s, wl.rhs[k][:, 0])
                out[name] = _burst_rate(wl, fleet)
            finally:
                fleet.close()
                del fleet
                gc.collect()
    lanes = wl.fleet.stats()["lanes"].values()
    out["service.shed"] = sum(x["shed"] for x in lanes)
    out["service.rejected"] = sum(x["rejected"] for x in lanes)
    return out


def run(wl, sp, ops, w1_pool: list[float], shape: dict) -> dict:
    """Every per-layer metric this workload's layers give."""
    prob = wl.problem()
    scratch = wl.scratch / "probes"
    scratch.mkdir(parents=True, exist_ok=True)
    out = {}
    groups = [lambda: _geometry(prob, sp), lambda: _dense(prob, sp),
              lambda: _hmatrix(prob, sp), lambda: _core(prob, sp, scratch)]
    if wl.name == "lu_d_seq":
        groups.append(lambda: _obs_baselines(wl, prob, sp))
    elif wl.name == "lu_d_tasks2":
        groups.append(lambda: _runtime(wl, prob, sp))
    elif wl.name == "gp_chol":
        groups.append(lambda: _gp(wl, sp))
    elif wl.name == "serve_mix":
        groups.append(lambda: _service(wl, sp, scratch))
    for group in groups:
        got, _ = ops.run(group)
        out.update(got or {})

    # Tail latency needs >= 10 samples beyond the percentile: top the
    # window-1 pool up with extra cycles' worth of solves.
    pool = list(w1_pool)
    while len(pool) < shape["p95_pool"]:
        extra = Cycle(None)  # tail latency is reported as timed
        wl.window1(len(pool), extra)
        got = extra.samples("w1", raw=True)
        if not got:
            break
        pool += got
    tail = p95(pool) * 1e3
    out["service.solve_p95_ms" if wl.name == "serve_mix" else "core.solve_p95_ms"] = tail
    return out
