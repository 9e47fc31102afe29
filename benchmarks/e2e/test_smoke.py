"""Smoke test of the end-to-end benchmark (not part of the tier-1 suite):

    PYTHONPATH=src python -m pytest -q benchmarks/e2e/test_smoke.py

Runs every workload, untraced and traced, in ``--smoke`` size and checks the
contract: metric names and units as BENCHMARK.json lists them, no failed
operation, nothing leaked, nothing written outside ``benchmarks/e2e/out/``.
"""

from __future__ import annotations

import functools
import gc
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
for p in (str(ROOT / "src"), str(HERE)):
    if p not in sys.path:
        sys.path.insert(0, p)

import harness  # noqa: E402
import workloads  # noqa: E402
from repro.runtime import orphaned_segments  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
EXACT = ["core.tasks", "core.deps", "core.nested.subtasks", "gp.tasks",
         "service.sweeps", "service.store.fds_per_key"]
_SKIP_DIRS = {".git", "__pycache__", ".hypothesis", ".pytest_cache"}


def _tree() -> set[str]:
    out = set()
    for base, dirs, files in os.walk(ROOT):
        dirs[:] = [d for d in dirs if d not in _SKIP_DIRS
                   and Path(base, d) != harness.OUT]
        out.update(str(Path(base, f).relative_to(ROOT)) for f in files)
    return out


def _held() -> list[str]:
    """What the process holds open that a workload could leak: files and sockets."""
    held = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith(("socket:", str(ROOT))):
            held.append(target)
    return sorted(held)


@pytest.fixture(scope="module", autouse=True)
def writes_stay_in_out():
    before = _tree()
    yield
    assert _tree() - before == set(), "files written outside benchmarks/e2e/out/"


@functools.lru_cache(maxsize=None)
def _run(name: str, trace: bool, rep: int = 0) -> dict:
    gc.collect()
    threads = set(threading.enumerate())
    held = _held()
    report = harness.run_workload(name, seed=7, seconds=1.0, trace=trace, smoke=True)
    gc.collect()
    deadline = time.monotonic() + 5.0  # HTTP handler threads end with their connection
    while set(threading.enumerate()) - threads and time.monotonic() < deadline:
        time.sleep(0.05)
    report["leaked_threads"] = [t.name for t in set(threading.enumerate()) - threads]
    report["leaked_fds"] = [t for t in _held() if t not in held]
    report["leaked_shm"] = orphaned_segments()
    report["leaked_children"] = harness.children()
    return report


def test_benchmark_json_lists_what_the_harness_reports():
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WHY
    e2e = {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
    assert e2e == harness.E2E_METRICS
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    layers = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert layers == harness.LAYER_METRICS


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", NAMES)
def test_workload_runs_clean(name, trace):
    report = _run(name, trace)
    assert report["attempted"] >= 1
    assert report["failed"] == 0, report["errors"]
    assert report["correct"] is True
    assert report["leaked_threads"] == []
    assert report["leaked_fds"] == []
    assert report["leaked_shm"] == []
    assert report["leaked_children"] == []  # the resource tracker too
    line = json.loads(harness.result_line(report))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    table = harness.LAYER_METRICS if trace else harness.E2E_METRICS
    assert set(line["metrics"]) == set(table)
    for key, m in line["metrics"].items():
        assert set(m) == {"value", "unit"}
        assert m["unit"] == table[key][0]
        assert math.isfinite(m["value"])
        if not trace:
            assert m["value"] > 0, key
    for key in ("commit", "python", "numpy", "scipy", "blas", "blas_threads", "nproc",
                "loadavg_start", "loadavg_end", "seed", "cycles", "wall_s"):
        assert key in report["env"]


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_writes_spans_and_counts_repeat(name):
    first, second = _run(name, True, 0), _run(name, True, 1)
    for key in EXACT:
        assert first["per_layer"][key] == second["per_layer"][key], key
    assert first["per_layer"]["bench.trace_overhead_frac"] > 0
    trace = json.loads((harness.OUT / f"{name}.trace.json").read_text())
    spans = trace["spans"]
    assert {"cycle", "phase.time_to_solution", "phase.window1", "phase.window64",
            "phase.reload", "probes"} <= {s["name"] for s in spans}
    for s in spans:
        assert set(s) == {"id", "name", "start", "end", "parent", "cycle", "self"}
        assert s["end"] >= s["start"] and s["self"] >= -1e-6
        assert s["parent"] is None or spans[s["parent"]]["start"] <= s["start"]


def test_layers_a_workload_never_enters_read_zero():
    seq = _run("lu_d_seq", True)["per_layer"]
    assert seq["service.http.solve_ms"] == 0 and seq["gp.fit_s"] == 0
    assert seq["baselines.hmat.factor_s"] > 0 and seq["core.factorize_s"] > 0
    assert _run("lu_d_tasks2", True)["per_layer"]["core.nested.subtasks"] > 0
    assert _run("serve_mix", True)["per_layer"]["service.sweeps"] > 0


def test_command_line_prints_the_result_last():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "lu_d_seq", "--seed", "3",
         "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert "setup_s" in last["metrics"] and "env: " in proc.stdout


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "lu_d_seq", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
