"""Cycle loop, spans, operation accounting and the environment stamp.

A run is ``setup`` followed by cycles; each cycle performs, in order, one
time-to-solution sample, the window-1 solves, the window-64 bursts and the
reload samples.  Every end-to-end metric is the median over cycles of the
per-cycle value, so a multi-second burst of host contention spoils at most
one sample of every metric instead of every sample of one.
"""

from __future__ import annotations

import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"

#: name -> (unit, better).  BENCHMARK.json repeats these; test_smoke.py
#: checks the two agree.
E2E_METRICS = {
    "setup_s": ("s", "lower"),
    "time_to_solution_s": ("s", "lower"),
    "solve_p50_ms": ("ms", "lower"),
    "solve_rps": ("1/s", "higher"),
    "reload_solve_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

LAYER_METRICS = {
    "geometry.cloud_s": ("s", "lower"),
    "geometry.kernel_eval_mentries_per_s": ("Mentry/s", "higher"),
    "geometry.kernel_eval_z_mentries_per_s": ("Mentry/s", "higher"),
    "geometry.kernel_eval_sqexp_mentries_per_s": ("Mentry/s", "higher"),
    "geometry.streamed_matvec_s": ("s", "lower"),
    "dense.gemm_gflops": ("Gflop/s", "higher"),
    "dense.getrf_gflops": ("Gflop/s", "higher"),
    "dense.trsm_gflops": ("Gflop/s", "higher"),
    "hmatrix.cluster_s": ("s", "lower"),
    "hmatrix.aca_assembly_s": ("s", "lower"),
    "hmatrix.compression_ratio": ("ratio", "lower"),
    "hmatrix.storage_mb": ("MB", "lower"),
    "hmatrix.hgetrf_ms": ("ms", "lower"),
    "hmatrix.htrsm_ms": ("ms", "lower"),
    "hmatrix.hgemm_ms": ("ms", "lower"),
    "hmatrix.io.save_s": ("s", "lower"),
    "hmatrix.io.load_s": ("s", "lower"),
    "hmatrix.io.load_mmap_s": ("s", "lower"),
    "hmatrix.io.archive_mb": ("MB", "lower"),
    "core.build_s": ("s", "lower"),
    "core.factorize_s": ("s", "lower"),
    "core.solve1_ms": ("ms", "lower"),
    "core.solve64_ms": ("ms", "lower"),
    "core.solve_p95_ms": ("ms", "lower"),
    "core.fwd_error": ("ratio", "lower"),
    "core.tasks": ("count", "lower"),
    "core.deps": ("count", "lower"),
    "core.nested.subtasks": ("count", "lower"),
    "core.nested.expand_s": ("s", "lower"),
    "runtime.stf.submit_s": ("s", "lower"),
    "runtime.stf.submit_us_per_task": ("us", "lower"),
    "runtime.sim.simulate_s": ("s", "lower"),
    "runtime.sim.makespan_p2_s": ("s", "lower"),
    "runtime.threaded1.run_s": ("s", "lower"),
    "runtime.threaded2.run_s": ("s", "lower"),
    "runtime.threaded2.idle_frac": ("ratio", "lower"),
    "runtime.threaded2.steals": ("count", "lower"),
    "runtime.process2.run_s": ("s", "lower"),
    "runtime.task_overhead_us": ("us", "lower"),
    "runtime.speedup_p2": ("ratio", "higher"),
    "runtime.sim_vs_real_p2": ("ratio", "higher"),
    "service.fingerprint_us": ("us", "lower"),
    "service.store.put_s": ("s", "lower"),
    "service.store.hit_us": ("us", "lower"),
    "service.store.disk_load_ms": ("ms", "lower"),
    "service.store.fds_per_key": ("count", "lower"),
    "service.batcher.roundtrip_us": ("us", "lower"),
    "service.pipeline.solve_ms": ("ms", "lower"),
    "service.fleet.solve_ms": ("ms", "lower"),
    "service.http.solve_ms": ("ms", "lower"),
    "service.http.codec_ms": ("ms", "lower"),
    "service.fleet.rps_1shard": ("1/s", "higher"),
    "service.fleet.rps_2shard": ("1/s", "higher"),
    "service.fleet.rps_2shard_replicated": ("1/s", "higher"),
    "service.batch_width_mean": ("count", "higher"),
    "service.sweeps": ("count", "lower"),
    "service.shed": ("count", "lower"),
    "service.rejected": ("count", "lower"),
    "service.solve_p95_ms": ("ms", "lower"),
    "gp.fit_s": ("s", "lower"),
    "gp.cross_cov_ms": ("ms", "lower"),
    "gp.predict1_ms": ("ms", "lower"),
    "gp.predict64_ms": ("ms", "lower"),
    "gp.tasks": ("count", "lower"),
    "gp.mean_rel_err": ("ratio", "lower"),
    "obs.probe_overhead_frac": ("ratio", "lower"),
    "baselines.hmat.factor_s": ("s", "lower"),
    "baselines.dense.factor_s": ("s", "lower"),
    "bench.trace_overhead_frac": ("ratio", "lower"),
}

#: Cycle shape.  ``min``/``max`` bound the time-based cycle count.
SHAPES = {
    "full": {"w1": 40, "bursts": 4, "reloads": 2, "min": 5, "max": 12,
             "setup_reps": 2, "traced_cycles": 2, "p95_pool": 280},
    "smoke": {"w1": 8, "bursts": 2, "reloads": 1, "min": 2, "max": 2,
              "setup_reps": 1, "traced_cycles": 1, "p95_pool": 24},
}
BURST = 64


# -- spans -----------------------------------------------------------------

class _Null:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _Null()


class _Span:
    __slots__ = ("spans", "row")

    def __init__(self, spans, name):
        self.spans = spans
        stack = spans._stack
        self.row = {"id": len(spans.rows), "name": name, "start": 0.0, "end": 0.0,
                    "parent": stack[-1] if stack else None, "cycle": spans.cycle}
        spans.rows.append(self.row)

    def __enter__(self):
        self.spans._stack.append(self.row["id"])
        self.row["start"] = time.perf_counter() - self.spans.t0
        return self

    def __exit__(self, *exc):
        self.row["end"] = time.perf_counter() - self.spans.t0
        self.spans._stack.pop()
        return False


class Spans:
    """In-memory ``{name, start, end, parent, cycle}`` spans around the
    harness's calls into each layer; written out once, at the end of the run.
    Only the single client thread records, so no lock is needed.  When
    disabled, :meth:`__call__` hands back one shared no-op context."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.rows: list[dict] = []
        self._stack: list[int] = []
        self.cycle = -1
        self.t0 = time.perf_counter()

    def __call__(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def with_self_time(self) -> list[dict]:
        """The rows plus ``self`` = duration minus the children's durations."""
        child = [0.0] * len(self.rows)
        for r in self.rows:
            if r["parent"] is not None:
                child[r["parent"]] += r["end"] - r["start"]
        return [dict(r, self=r["end"] - r["start"] - child[r["id"]]) for r in self.rows]


# -- operation accounting ----------------------------------------------------

class Ops:
    """Attempted / failed operation counts.  An operation fails when it
    raises (shed, refused and timed-out requests raise typed errors) or when
    its answer fails the workload's check; neither aborts the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        if len(self.errors) < 10:
            self.errors.append(what)

    def run(self, fn, n: int = 1):
        """``(fn(), seconds)``; ``(None, seconds)`` and ``n`` failures if it raised."""
        self.attempted += n
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # noqa: BLE001 - boundary: count, keep running
            self.fail(f"{type(exc).__name__}: {exc}", n)
            return None, time.perf_counter() - t0
        return out, time.perf_counter() - t0

    def verify(self, ok: bool, what: str) -> bool:
        if not ok:
            self.fail(f"check failed: {what}")
        return bool(ok)


class Speed:
    """Machine-speed probe: fixed work outside the program (an interpreter
    loop, small GEMMs, a memory stream: what the program's time is made of).

    The host of this sandbox flips between a quiet regime and one 1.5-1.7x
    slower, for seconds to minutes at a time (README, "Why speed-normalised").
    Every timing sample is therefore scaled by ``REF_S / median of the speed
    marks around it``: a time reads as it would at the reference speed,
    whatever the host was doing when it was taken.
    """

    #: One mark's seconds on this box in its quiet regime.
    REF_S = 0.0420

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((192, 192))
        self._b = rng.standard_normal((192, 192))
        self._x = np.ones(2_000_000)
        self._z = np.zeros(2_000_000)
        self._add = np.add
        self.sample()  # first touch of the arrays and of BLAS: never a mark

    def sample(self) -> float:
        a, b = self._a, self._b
        for _ in range(3):  # untimed: BLAS threads asleep after a long call are not speed
            a @ b
        t0 = time.perf_counter()
        d: dict = {}
        for i in range(250_000):
            d[i & 255] = d.get(i & 255, 0) + i
        for _ in range(75):
            a @ b
        for _ in range(2):
            self._add(self._x, self._x, out=self._z)
        return time.perf_counter() - t0


class Cycle:
    """The samples one cycle contributes, each between two speed marks."""

    def __init__(self, speed: Speed | None) -> None:
        self.speed = speed  # None: samples are only ever read as timed
        self.events: list[tuple[str, float]] = []

    def mark(self) -> None:
        if self.speed is not None:
            self.events.append(("speed", self.speed.sample()))

    def add(self, kind: str, value: float) -> None:
        self.events.append((kind, value))

    def samples(self, kind: str, *, raw: bool = False) -> list[float]:
        """Samples of ``kind``; unless ``raw``, at the reference speed."""
        marks = [(i, v) for i, (k, v) in enumerate(self.events) if k == "speed"]
        out = []
        for i, (k, v) in enumerate(self.events):
            if k != kind:
                continue
            around = [m for j, m in marks if j < i][-2:] + [m for j, m in marks if j > i][:2]
            f = Speed.REF_S / statistics.median(around) if around and not raw else 1.0
            out.append(v / f if kind == "rate" else v * f)
        return out

    def values(self, *, raw: bool = False) -> dict:
        tts, w1 = self.samples("tts", raw=raw), self.samples("w1", raw=raw)
        rates, reloads = self.samples("rate", raw=raw), self.samples("reload", raw=raw)
        return {
            "time_to_solution_s": tts[0] if tts else None,
            "solve_p50_ms": statistics.median(w1) * 1e3 if w1 else None,
            "solve_rps": statistics.median(rates) if rates else None,
            "reload_solve_ms": statistics.fmean(reloads) * 1e3 if reloads else None,
        }


def median_over_cycles(cycles: list[Cycle], *, raw: bool = False) -> dict:
    out = {}
    per_cycle = [c.values(raw=raw) for c in cycles]
    for name in ("time_to_solution_s", "solve_p50_ms", "solve_rps", "reload_solve_ms"):
        vals = [v[name] for v in per_cycle if v[name] is not None]
        out[name] = statistics.median(vals) if vals else 0.0
    return out


def p95(samples: list[float]) -> float:
    s = sorted(samples)
    return s[int(0.95 * (len(s) - 1))] if s else 0.0


def timed(fn, reps: int = 1) -> float:
    """Median wall seconds of ``reps`` calls (probe timings are informational)."""
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return statistics.median(out)


# -- environment --------------------------------------------------------------

def _blas_threads() -> int | str:
    """Thread count of the OpenBLAS numpy loaded, as the program left it."""
    try:
        with open("/proc/self/maps") as f:
            libs = {ln.split()[-1] for ln in f if "openblas" in ln and ".so" in ln}
    except OSError:
        return "unknown"
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return "unknown"


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def env_stamp(**extra) -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (KeyError, TypeError):
        pass
    stamp = {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "nofile": resource.getrlimit(resource.RLIMIT_NOFILE)[0],
        "platform": platform.platform(),
    }
    stamp.update(extra)
    return stamp


def loadavg() -> list[float]:
    try:
        return list(os.getloadavg())
    except OSError:
        return []


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def children() -> list[int]:
    """Pids of this process's children, zombies included (from /proc)."""
    me, out = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # ended while we looked
        if ppid == me:
            out.append(int(entry))
    return out


def _reap(pid: int, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while True:
        try:
            if os.waitpid(pid, os.WNOHANG)[0] == pid:
                return True
        except ChildProcessError:
            return True  # someone else waited for it
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)


def stop_children() -> list[int]:
    """Stop every process this one started and wait until each has ended.

    The process executor's workers are joined by the program itself; what
    outlives a run is ``multiprocessing``'s resource tracker, which the
    shared-memory arena starts and which ends only once its parent is gone:
    an orphan the moment the benchmark exits.  Closing its pipe ends it now.
    Anything else still alive is terminated, then killed.  Returns the pids
    that had to be signalled (none, on a clean run).
    """
    tracker = getattr(sys.modules.get("multiprocessing.resource_tracker"),
                      "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_pid", None) is not None:
        try:
            tracker._stop()  # closes the pipe and waits for the tracker
        except (OSError, AttributeError):
            pass  # the sweep below ends it
    signalled = []
    for sig, patience in ((signal.SIGTERM, 5.0), (signal.SIGKILL, 5.0)):
        left = [pid for pid in children() if not _reap(pid, 0.0)]
        for pid in left:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                continue
            signalled.append(pid)
        if all(_reap(pid, patience) for pid in left):
            break
    return sorted(set(signalled))


# -- the run -----------------------------------------------------------------

def _run_cycle(wl, spans: Spans, speed: Speed, index: int) -> Cycle:
    spans.cycle = index
    c = Cycle(speed)
    c.mark()
    c.mark()
    with spans("cycle"):
        with spans("phase.time_to_solution"):
            wl.time_to_solution(index, c)
        c.mark()
        with spans("phase.window1"):
            wl.window1(index, c)
        with spans("phase.window64"):
            wl.window64(index, c)
        with spans("phase.reload"):
            wl.reload(index, c)
    spans.cycle = -1
    return c


def run_workload(name: str, *, seed: int, seconds: float, trace: bool, smoke: bool,
                 cycles: int | None = None, import_s: float = 0.0) -> dict:
    """One run of one workload; returns the full report (see ``run.py``)."""
    import probes
    import workloads

    t_run0 = time.perf_counter()
    load0 = loadavg()
    mode = "smoke" if smoke else "full"
    shape = SHAPES[mode]
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{os.getpid()}-{name}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir()
    ops = Ops()
    spans = Spans(enabled=trace)
    speed = Speed()
    import_mark = speed.sample()
    wl = None
    layers: dict[str, float] = {}
    try:
        # Set-up several times, report the median: one slow set-up (page
        # cache, a contention burst) does not move setup_s.
        setups, setups_raw = [], []
        for rep in range(1 if trace else shape["setup_reps"]):
            if wl is not None:
                wl.close()
            marks = [speed.sample()]
            wl = workloads.make(name, mode=mode, seed=seed, spans=spans, ops=ops,
                                scratch=scratch / f"s{rep}", shape=shape,
                                mark=lambda: marks.append(speed.sample()))
            gc.collect()
            with spans("setup"):
                setups_raw.append(timed(wl.setup))
            marks.append(speed.sample())
            # The marks a set-up takes between its stages are inside its time.
            inside = sum(marks[1:-1])
            setups_raw[-1] -= inside
            setups.append(setups_raw[-1] * Speed.REF_S / statistics.median(marks))
        setup_s = import_s * Speed.REF_S / import_mark + statistics.median(setups)
        setup_raw_s = import_s + statistics.median(setups_raw)

        t_measure0 = time.perf_counter()
        done: list[Cycle] = []
        if trace:
            # Traced and untraced cycles alternate, so their ratio is the
            # tracing overhead measured inside one process.
            plain: list[Cycle] = []
            for i in range(shape["traced_cycles"]):
                done.append(_run_cycle(wl, spans, speed, i))
                spans.enabled = False
                plain.append(_run_cycle(wl, spans, speed, i))
                spans.enabled = True
            traced_tts = median_over_cycles(done)["time_to_solution_s"]
            plain_tts = median_over_cycles(plain)["time_to_solution_s"]
            layers["bench.trace_overhead_frac"] = traced_tts / plain_tts if plain_tts else 0.0
            pool = [s for c in done + plain for s in c.samples("w1", raw=True)]
            with spans("probes"):
                layers.update(probes.run(wl, spans, ops, pool, shape))
        else:
            while True:
                done.append(_run_cycle(wl, spans, speed, len(done)))
                n = len(done)
                if cycles is not None:
                    if n >= cycles:
                        break
                    continue
                if n >= shape["max"]:
                    break
                elapsed = time.perf_counter() - t_measure0
                # Start another cycle only if at least half of it fits.
                if n >= shape["min"] and elapsed + 0.5 * elapsed / n > seconds:
                    break
        measure_s = time.perf_counter() - t_measure0
    finally:
        if wl is not None:
            wl.close()
        wl = None
        gc.collect()
        shutil.rmtree(scratch, ignore_errors=True)
        stop_children()

    e2e = median_over_cycles(done)
    e2e["setup_s"] = setup_s
    e2e["peak_rss_mb"] = peak_rss_mb()
    raw = median_over_cycles(done, raw=True)
    raw["setup_s"] = setup_raw_s
    pooled_w1 = [s for c in done for s in c.samples("w1", raw=True)]
    marks = [v for c in done for k, v in c.events if k == "speed"]
    report = {
        "workload": name,
        "mode": mode,
        "trace": trace,
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "errors": ops.errors,
        "end_to_end": e2e,
        "raw": raw,
        "per_layer": {k: float(layers.get(k, 0.0)) for k in LAYER_METRICS} if trace else {},
        "solve_p95_ms": p95(pooled_w1) * 1e3,
        "solve_samples": len(pooled_w1),
        "cycles": [dict(c.values(), raw=c.values(raw=True), events=c.events) for c in done],
        "setup_reps_raw_s": setups_raw,
        "import_s": import_s,
        "measure_s": measure_s,
        "env": env_stamp(seed=seed, cycles=len(done), seconds=seconds,
                         loadavg_start=load0, loadavg_end=loadavg(),
                         speed_ref_s=Speed.REF_S,
                         speed_median_s=statistics.median(marks) if marks else 0.0,
                         wall_s=import_s + time.perf_counter() - t_run0),
    }
    (OUT / f"{name}.json").write_text(json.dumps(report, indent=1))
    if trace:
        (OUT / f"{name}.trace.json").write_text(json.dumps(
            {"workload": name, "seed": seed, "spans": spans.with_self_time()}))
    return report


def result_line(report: dict) -> str:
    """The contract's last line: exactly correct/attempted/failed/metrics."""
    if report["trace"]:
        metrics = {k: {"value": report["per_layer"][k], "unit": LAYER_METRICS[k][0]}
                   for k in LAYER_METRICS}
    else:
        metrics = {k: {"value": float(report["end_to_end"][k]), "unit": E2E_METRICS[k][0]}
                   for k in E2E_METRICS}
    return json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                       "failed": report["failed"], "metrics": metrics})


def render(report: dict) -> str:
    """Every metric by name and unit, plus the stamp, for a human reader."""
    lines = [f"workload {report['workload']} ({report['mode']}, "
             f"{'traced' if report['trace'] else 'untraced'}): "
             f"{report['attempted']} operations attempted, {report['failed']} failed"]
    for k, (unit, _) in E2E_METRICS.items():
        asis = f"   (as timed: {report['raw'][k]:.6g})" if k in report["raw"] else ""
        lines.append(f"  {k:<28} {report['end_to_end'][k]:>14.6g} {unit}{asis}")
    lines.append(f"  {'solve_p95_ms (not gated)':<28} {report['solve_p95_ms']:>14.6g} ms"
                 f"   (as timed, {report['solve_samples']} window-1 samples)")
    for k, v in report["per_layer"].items():
        lines.append(f"  {k:<44} {v:>14.6g} {LAYER_METRICS[k][0]}")
    for e in report["errors"]:
        lines.append(f"  error: {e}")
    lines.append("env: " + json.dumps(report["env"]))
    return "\n".join(lines)


def ensure_importable() -> None:
    """Put the program's source on the path; exit non-zero when it is absent
    (a directory holding only the benchmark cannot produce a result)."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: program source not found at {src}\n")
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    # One mmap-loaded factor holds hundreds of descriptors (README, findings).
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    want = 65536 if hard == resource.RLIM_INFINITY else hard
    if soft < want:
        resource.setrlimit(resource.RLIMIT_NOFILE, (want, hard))
