"""The four workloads.  Each drives only public functions of the program and
receives only inputs generated here from ``--seed``: right-hand sides, GP
targets and test points, key and lane draws.  Geometry is the deterministic
``cylinder_cloud``.

Every workload answers the same four questions per cycle (time to solution,
one solve in flight, 64 at once, a restart's first answer) so all six
end-to-end metrics exist for each; see README.md for why these four.
"""

from __future__ import annotations

import gc
import shutil
import threading
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from repro.core import TileHConfig, TileHMatrix
from repro.geometry import cylinder_cloud, make_kernel, streamed_matvec
from repro.gp import GPModel, synthetic_gp_data
from repro.service import (
    FactorizationStore,
    ProblemSpec,
    ServeFleet,
    SolveClient,
    build_solver,
    make_server,
    rhs_dtype,
    spec_fingerprint,
)

from harness import BURST, Cycle, Ops, Spans

NCOL = 16  # reference right-hand sides per problem
W1_BLOCK = 20  # window-1 solves between two speed marks

#: One-sentence reasons, repeated in BENCHMARK.json.
WHY = {
    "lu_d_seq": "Paper's real case, eager and single-threaded: ACA assembly and "
                "H-arithmetic do nearly all the work and the runtime almost none; the plain baseline.",
    "lu_d_tasks2": "Same problem as nested tasks on 2 worker threads: STF inference, expansion, "
                   "scheduler and executor carry the difference to lu_d_seq (scaling efficiency).",
    "gp_chol": "GP regression by H-Cholesky at eps=1e-6 with the accumulator on: rank-heavier tiles "
               "and gp assembly/reductions; an LU-only or accumulate-off-only gain shows no change here.",
    "serve_mix": "2-shard fleet behind HTTP, three keys (real, complex, GP) drawn 0.6/0.2/0.2: cold "
                 "builds beside warm hits, batching, store and codec layers idle in the other three.",
}

SIZES = {
    "full": {
        "lu": {"n": 2304, "nb": 192, "leaf": 48},
        "gp": {"n": 2000, "nb": 250, "leaf": 48, "pool": 256},
        "serve": [(1600, 200), (1024, 128), (1200, 200)],
        "warmup": {"n": 1024, "nb": 256},
    },
    "smoke": {
        "lu": {"n": 512, "nb": 128, "leaf": 48},
        "gp": {"n": 500, "nb": 125, "leaf": 48, "pool": 128},
        "serve": [(400, 100), (256, 64), (300, 100)],
        "warmup": {"n": 256, "nb": 128},
    },
}


def warm_up(sizes: dict) -> None:
    """Fixed warm-up: first-call costs (BLAS threads, lazy imports, LAPACK
    lookups) are paid in set-up, never in the first cycle."""
    n, nb = sizes["warmup"]["n"], sizes["warmup"]["nb"]
    pts = cylinder_cloud(n)
    kern = make_kernel("laplace", pts)
    a, _ = TileHMatrix.build_factorize(kern, pts, TileHConfig(nb=nb, eps=1e-4, leaf_size=48))
    a.solve(np.ones(n))


class Workload:
    """Shared plumbing: spans, operation counts, scratch space, seeded draws."""

    name = ""

    def __init__(self, *, mode: str, seed: int, spans: Spans, ops: Ops,
                 scratch: Path, shape: dict, mark=lambda: None) -> None:
        self.sizes = SIZES[mode]
        self.mark = mark  # set-up calls it between stages: a speed mark
        self.seed = seed
        self.sp = spans
        self.ops = ops
        self.scratch = Path(scratch)
        self.shape = shape
        self.rng = np.random.default_rng(seed)

    def each_w1(self, c: Cycle):
        """Indices of one cycle's window-1 solves, a speed mark after each block."""
        for i in range(self.shape["w1"]):
            yield i
            if i % W1_BLOCK == W1_BLOCK - 1:
                c.mark()

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


# -- lu_d_seq / lu_d_tasks2 ---------------------------------------------------

class LuWorkload(Workload):
    """Laplace on the cylinder, tiled H-LU; ``tasks`` picks the executor."""

    def __init__(self, *, tasks: bool, **kw) -> None:
        super().__init__(**kw)
        s = self.sizes["lu"]
        self.n = s["n"]
        self.eager_cfg = TileHConfig(nb=s["nb"], eps=1e-4, leaf_size=s["leaf"],
                                     accumulate=False)
        self.cfg = self.eager_cfg
        if tasks:
            self.cfg = replace(self.eager_cfg, exec_mode="threaded", nworkers=2,
                               scheduler="lws", nested=True, nested_min_leaf=48)
        self.name = "lu_d_tasks2" if tasks else "lu_d_seq"

    def setup(self) -> None:
        sp = self.sp
        self.scratch.mkdir(parents=True, exist_ok=True)
        with sp("geometry.cylinder_cloud"):
            self.pts = cylinder_cloud(self.n)
        with sp("geometry.make_kernel"):
            self.kern = make_kernel("laplace", self.pts)
        self.x_true = self.rng.standard_normal((self.n, NCOL))
        with sp("geometry.streamed_matvec"):
            self.rhs = np.asfortranarray(streamed_matvec(self.kern, self.pts, self.x_true))
        self.mark()
        # The reference is always the eager factor: lu_d_tasks2 must
        # reproduce its bits (the repo's own contract, accumulate=False).
        with sp("core.build_factorize"):
            ref, _ = TileHMatrix.build_factorize(self.kern, self.pts, self.eager_cfg)
        with sp("core.solve"):
            self.x_ref = np.asfortranarray(ref.solve(self.rhs))
        self.mark()
        self.archive = self.scratch / "factor.npz"
        with sp("core.save"):
            ref.save(self.archive, compress=False)
        # The warm factor is the persisted one, loaded under this workload's
        # executor options (a plain load is bit-identical to the factor saved).
        with sp("core.load"):
            self.warm = TileHMatrix.load(self.archive, self.cfg)
        self.panel = np.asfortranarray(np.tile(self.rhs, (1, BURST // NCOL)))
        self.mark()
        with sp("warm_up"):
            warm_up(self.sizes)

    def problem(self) -> dict:
        return {"kernel": self.kern, "points": self.pts, "config": self.eager_cfg,
                "method": "lu", "nb": self.eager_cfg.nb}

    def _bits(self, x, col: int, what: str) -> None:
        self.ops.verify(np.array_equal(x, self.x_ref[:, col]), f"{what}: bits differ from reference")

    def time_to_solution(self, cycle: int, c: Cycle) -> None:
        col = cycle % NCOL
        b = self.rhs[:, col]

        def op():
            with self.sp("core.build_factorize"):
                a, _ = TileHMatrix.build_factorize(self.kern, self.pts, self.cfg)
            with self.sp("core.solve"):
                return a.solve(b)

        x, dt = self.ops.run(op)
        if x is None:
            return
        xt = self.x_true[:, col]
        err = float(np.linalg.norm(x - xt) / np.linalg.norm(xt))
        ok = self.ops.verify(err <= 10 * self.cfg.eps, f"forward error {err:.2e}")
        if ok:
            self._bits(x, col, "time_to_solution")
        c.add("tts", dt)

    def window1(self, cycle: int, c: Cycle) -> None:
        solve = self.warm.solve
        for i in self.each_w1(c):
            col = (cycle + i) % NCOL
            b = self.rhs[:, col]
            with self.sp("core.solve"):
                x, dt = self.ops.run(lambda: solve(b))
            if x is not None:
                self._bits(x, col, "window1")
                c.add("w1", dt)

    def window64(self, cycle: int, c: Cycle) -> None:
        for _ in range(self.shape["bursts"]):
            with self.sp("core.solve[64]"):
                x, dt = self.ops.run(lambda: self.warm.solve(self.panel), n=BURST)
            if x is not None:
                for j in range(BURST):
                    self._bits(x[:, j], j % NCOL, "window64")
                c.add("rate", BURST / dt)
            c.mark()

    def reload(self, cycle: int, c: Cycle) -> None:
        for i in range(self.shape["reloads"]):
            col = (cycle + i) % NCOL
            b = self.rhs[:, col]

            def op():
                with self.sp("core.load"):
                    a = TileHMatrix.load(self.archive, self.cfg)
                with self.sp("core.solve"):
                    return a.solve(b)

            x, dt = self.ops.run(op)
            if x is not None:
                self._bits(x, col, "reload")
                c.add("reload", dt)
            c.mark()


# -- gp_chol -------------------------------------------------------------------

class GpWorkload(Workload):
    name = "gp_chol"
    HYPER = {"length": 0.3, "signal": 1.0, "noise": 0.05}

    def __init__(self, **kw) -> None:
        super().__init__(**kw)
        s = self.sizes["gp"]
        self.n = s["n"]
        self.cfg = TileHConfig(nb=s["nb"], eps=1e-6, leaf_size=s["leaf"])

    def new_model(self) -> GPModel:
        return GPModel("sqexp", config=self.cfg, **self.HYPER)

    def setup(self) -> None:
        sp = self.sp
        self.scratch.mkdir(parents=True, exist_ok=True)
        with sp("gp.synthetic_gp_data"):
            x, y, pool, _ = synthetic_gp_data(self.n, self.sizes["gp"]["pool"],
                                              noise=self.HYPER["noise"], seed=self.seed)
        self.x, self.y = x, y
        pick = np.sort(self.rng.choice(pool.shape[0], size=BURST, replace=False))
        self.xt = np.ascontiguousarray(pool[pick])
        # Dense NumPy posterior: the reference every predicted mean is held to.
        with sp("reference.dense_posterior"):
            self.kern = make_kernel("sqexp", x, length=self.HYPER["length"],
                                    signal=self.HYPER["signal"],
                                    nugget=self.HYPER["noise"] ** 2)
            alpha = np.linalg.solve(self.kern(x, x), y)
            self.mean_ref = self.kern(self.xt, x) @ alpha
        self.scale = float(np.max(np.abs(self.mean_ref)))
        self.mark()
        with sp("gp.fit"):
            self.warm = self.new_model().fit(x, y)
        self.mark()
        self.archive = self.scratch / "gp.npz"
        with sp("gp.save"):
            self.warm.save(self.archive, compress=False)
        with sp("warm_up"):
            warm_up(self.sizes)

    def problem(self) -> dict:
        return {"kernel": self.kern, "points": self.x, "config": self.cfg,
                "method": "cholesky", "nb": self.cfg.nb}

    def _close(self, mean, idx, what: str) -> None:
        err = float(np.max(np.abs(mean - self.mean_ref[idx])) / self.scale)
        self.ops.verify(err <= 10 * self.cfg.eps, f"{what}: posterior mean off by {err:.2e}")

    def time_to_solution(self, cycle: int, c: Cycle) -> None:
        j = cycle % BURST

        def op():
            with self.sp("gp.fit"):
                m = self.new_model().fit(self.x, self.y)
            with self.sp("gp.predict"):
                return m.predict(self.xt[j:j + 1]).mean

        mean, dt = self.ops.run(op)
        if mean is not None:
            self._close(mean, slice(j, j + 1), "time_to_solution")
            c.add("tts", dt)

    def window1(self, cycle: int, c: Cycle) -> None:
        for i in self.each_w1(c):
            j = (cycle + i) % BURST
            pt = self.xt[j:j + 1]
            with self.sp("gp.predict"):
                res, dt = self.ops.run(lambda: self.warm.predict(pt))
            if res is not None:
                self._close(res.mean, slice(j, j + 1), "window1")
                c.add("w1", dt)

    def window64(self, cycle: int, c: Cycle) -> None:
        for _ in range(self.shape["bursts"]):
            with self.sp("gp.predict[64]"):
                res, dt = self.ops.run(lambda: self.warm.predict(self.xt), n=BURST)
            if res is not None:
                err = np.abs(res.mean - self.mean_ref) / self.scale
                bad = int(np.count_nonzero(err > 10 * self.cfg.eps))
                if bad:
                    self.ops.fail("check failed: window64 posterior mean off", bad)
                c.add("rate", BURST / dt)
            c.mark()

    def reload(self, cycle: int, c: Cycle) -> None:
        for i in range(self.shape["reloads"]):
            j = (cycle + i) % BURST

            def op():
                with self.sp("gp.load"):
                    m = GPModel.load(self.archive, self.x, self.y, kernel="sqexp", **self.HYPER)
                with self.sp("gp.predict"):
                    return m.predict(self.xt[j:j + 1]).mean

            mean, dt = self.ops.run(op)
            if mean is not None:
                self._close(mean, slice(j, j + 1), "reload")
                c.add("reload", dt)
            c.mark()


# -- serve_mix -----------------------------------------------------------------

def _stratified(rng, counts: list[int]) -> np.ndarray:
    """Indices 0..len(counts)-1 in exact proportions, order drawn from the
    seed: every cycle carries the same mix, so p50 does not ride on how many
    slow-key requests a draw happened to hold."""
    draw = np.repeat(np.arange(len(counts)), counts)
    rng.shuffle(draw)
    return draw


def _split(total: int, shares: list[float]) -> list[int]:
    counts = [int(round(total * s)) for s in shares]
    counts[0] += total - sum(counts)
    return counts


class ServeWorkload(Workload):
    name = "serve_mix"
    KEY_SHARES = [0.6, 0.2, 0.2]
    LANE_SHARES = [0.8, 0.2]
    LANES = ["interactive", "batch"]

    def __init__(self, **kw) -> None:
        super().__init__(**kw)
        (n0, nb0), (n1, nb1), (n2, nb2) = self.sizes["serve"]
        self.specs = [
            ProblemSpec(kernel="laplace", n=n0, nb=nb0, eps=1e-6),
            ProblemSpec(kernel="helmholtz", n=n1, nb=nb1, eps=1e-4),
            ProblemSpec(kernel="sqexp", n=n2, nb=nb2, eps=1e-6, kind="gp",
                        length=0.3, signal=1.0, noise=0.05),
        ]
        self.fleet = None
        self.server = None

    @staticmethod
    def payload(spec: ProblemSpec) -> dict:
        """The JSON problem object a remote client would send."""
        return {k: v for k, v in asdict(spec).items() if v is not None}

    def _rhs(self, spec: ProblemSpec) -> np.ndarray:
        if spec.kind == "gp":
            # A prediction request's rhs is the test point's cross-covariance column.
            pts = cylinder_cloud(spec.n)
            kern = make_kernel(spec.kernel, pts, length=spec.length, signal=spec.signal,
                               nugget=spec.noise ** 2)
            pool = cylinder_cloud(4 * NCOL)
            pick = self.rng.choice(pool.shape[0], size=NCOL, replace=False)
            return np.asfortranarray(kern(pts, pool[pick]))
        b = self.rng.standard_normal((spec.n, NCOL))
        if rhs_dtype(spec).kind == "c":
            b = b + 1j * self.rng.standard_normal((spec.n, NCOL))
        return np.asfortranarray(b)

    def new_fleet(self, root, **kw) -> ServeFleet:
        # replicate_hot_after=None: when the replica thread lands decides the
        # burst rate (README, findings), so the gated phases run without it.
        kw.setdefault("replicate_hot_after", None)
        return ServeFleet(kw.pop("workers", 2), store_root=root, **kw)

    def setup(self) -> None:
        sp = self.sp
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.warm_root = self.scratch / "warm"
        self.rhs, self.x_ref = [], []
        store = FactorizationStore(self.warm_root, mmap=True)
        for spec in self.specs:
            b = self._rhs(spec)
            with sp("service.build_solver"):
                solver = build_solver(spec)
            with sp("core.solve"):
                self.x_ref.append(np.asfortranarray(solver.solve(b)))
            self.rhs.append(b)
            # Persist the reference factor: the fleet's first request per key
            # is then a disk hit, not a second build.
            with sp("service.store.put"):
                store.put(spec_fingerprint(spec), solver)
            self.mark()
        del store, solver
        with sp("service.fleet.start"):
            self.fleet = self.new_fleet(self.warm_root)
            self.server = make_server(self.fleet)
            self._thread = threading.Thread(target=self.server.serve_forever,
                                            name="e2e-http", daemon=True)
            self._thread.start()
            host, port = self.server.server_address[:2]
            self.client = SolveClient(f"http://{host}:{port}")
        with sp("service.prewarm"):
            for k, spec in enumerate(self.specs):
                x = self.fleet.solve(spec, self.rhs[k][:, 0])
                if not self._matches(x, k, 0):
                    raise RuntimeError(f"pre-warm answer for key {k} is wrong")
        self.mark()
        w1, lanes1 = self.shape["w1"], _split(self.shape["w1"], self.LANE_SHARES)
        self.w1_keys = _split(w1, self.KEY_SHARES)
        self.w1_lanes = lanes1
        self.burst_keys = _split(BURST, self.KEY_SHARES)
        self.burst_lanes = _split(BURST, self.LANE_SHARES)
        with sp("warm_up"):
            warm_up(self.sizes)

    def problem(self) -> dict:
        spec = self.specs[0]
        pts = cylinder_cloud(spec.n)
        return {"kernel": make_kernel(spec.kernel, pts), "points": pts,
                "config": TileHConfig(nb=spec.effective_nb, eps=spec.eps,
                                      leaf_size=spec.leaf_size),
                "method": spec.method, "nb": spec.effective_nb}

    def _matches(self, x, key: int, col: int, rtol: float = 1e-8) -> bool:
        ref = self.x_ref[key][:, col]
        return bool(np.max(np.abs(x - ref)) <= rtol * np.max(np.abs(ref)))

    def _check(self, x, key: int, col: int, what: str, rtol: float = 1e-8) -> None:
        self.ops.verify(self._matches(x, key, col, rtol), f"{what}: key {key} answer differs")

    def time_to_solution(self, cycle: int, c: Cycle) -> None:
        """Three cold requests (miss -> build -> persist -> answer) on a fresh
        fleet over an empty store root.  eps is scaled per cycle so the
        fingerprints are new; the answers then agree with the references to
        the factorisation tolerance, not to round-off."""
        self.cold_root = self.scratch / "cold"
        shutil.rmtree(self.cold_root, ignore_errors=True)
        self.cold_specs = [replace(s, eps=s.eps * (1.0 + 0.01 * (cycle + 1)))
                           for s in self.specs]
        self.cold_x = [None] * len(self.specs)
        with self.sp("service.fleet.start"):
            fleet = self.new_fleet(self.cold_root)
        total, good = 0.0, True
        try:
            for k, spec in enumerate(self.cold_specs):
                b = self.rhs[k][:, 0]
                with self.sp("service.fleet.solve[cold]"):
                    x, dt = self.ops.run(lambda: fleet.solve(spec, b))
                total += dt
                if x is None:
                    good = False
                    continue
                self.cold_x[k] = x
                self._check(x, k, 0, "cold", rtol=1e3 * spec.eps)
        finally:
            with self.sp("service.fleet.close"):
                fleet.close()
            del fleet
            gc.collect()
        if good:
            c.add("tts", total)

    def window1(self, cycle: int, c: Cycle) -> None:
        keys = _stratified(self.rng, self.w1_keys)
        lanes = _stratified(self.rng, self.w1_lanes)
        payloads = [self.payload(s) for s in self.specs]
        for i in self.each_w1(c):
            k, lane = keys[i], lanes[i]
            col = (cycle + i) % NCOL
            b = self.rhs[k][:, col]
            with self.sp("service.http.solve"):
                x, dt = self.ops.run(
                    lambda: self.client.solve(payloads[k], b, lane=self.LANES[lane]))
            if x is not None:
                self._check(x, k, col, "window1")
                c.add("w1", dt)

    def burst(self, fleet, cycle: int) -> float | None:
        """Submit 64 requests at once, wait for all; requests per second."""
        keys = _stratified(self.rng, self.burst_keys)
        lanes = _stratified(self.rng, self.burst_lanes)
        cols = [(cycle + i) % NCOL for i in range(BURST)]

        self.ops.attempted += BURST
        t0 = time.perf_counter()
        try:
            tickets = [fleet.submit(self.specs[k], self.rhs[k][:, col], lane=self.LANES[lane])
                       for k, lane, col in zip(keys, lanes, cols)]
        except Exception as exc:  # noqa: BLE001 - a refused submit spoils the burst
            self.ops.fail(f"{type(exc).__name__}: {exc}", BURST)
            return None
        answers = []
        for t in tickets:
            try:
                answers.append(t.result(timeout=60.0))
            except Exception as exc:  # noqa: BLE001 - shed, expired or failed request
                self.ops.fail(f"{type(exc).__name__}: {exc}")
                answers.append(None)
        dt = time.perf_counter() - t0
        for x, k, col in zip(answers, keys, cols):
            if x is not None:
                self._check(x, k, col, "window64")
        return BURST / dt

    def window64(self, cycle: int, c: Cycle) -> None:
        for _ in range(self.shape["bursts"]):
            with self.sp("service.fleet.submit[64]"):
                rate = self.burst(self.fleet, cycle)
            if rate is not None:
                c.add("rate", rate)
            c.mark()

    def reload(self, cycle: int, c: Cycle) -> None:
        """First request per key on another fresh fleet over the root the cold
        phase just filled: an mmap disk hit, a restart's first answer."""
        with self.sp("service.fleet.start"):
            fleet = self.new_fleet(self.cold_root)
        try:
            for k, spec in enumerate(self.cold_specs):
                b = self.rhs[k][:, 0]
                with self.sp("service.fleet.solve[reload]"):
                    x, dt = self.ops.run(lambda: fleet.solve(spec, b))
                if x is None:
                    continue
                if self.cold_x[k] is not None:
                    # cold build == warm load (to mmap round-off).
                    same = np.max(np.abs(x - self.cold_x[k])) <= 1e-8 * np.max(np.abs(x))
                    self.ops.verify(bool(same), f"reload: key {k} differs from its cold answer")
                c.add("reload", dt)
                c.mark()
        finally:
            with self.sp("service.fleet.close"):
                fleet.close()
            del fleet
            gc.collect()
            shutil.rmtree(self.cold_root, ignore_errors=True)

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self._thread.join(timeout=10.0)
            self.server = None
        if self.fleet is not None:
            self.fleet.close()
            self.fleet = None
        gc.collect()
        super().close()


def make(name: str, **kw) -> Workload:
    if name == "lu_d_seq":
        return LuWorkload(tasks=False, **kw)
    if name == "lu_d_tasks2":
        return LuWorkload(tasks=True, **kw)
    if name == "gp_chol":
        return GpWorkload(**kw)
    if name == "serve_mix":
        return ServeWorkload(**kw)
    raise ValueError(f"unknown workload {name!r}; choose from {sorted(WHY)}")
