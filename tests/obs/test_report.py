"""Run-report tests: schema, accounting invariants, determinism, overhead."""

import json
import sys
import time

import numpy as np
import pytest

from repro.baselines import DenseTiledLU
from repro.core import TileHConfig, TileHMatrix
from repro.dense import flops_gemm, flops_getrf, flops_trsm
from repro.geometry import cylinder_cloud, make_kernel
from repro.obs import (
    Instrumentation,
    build_run_report,
    load_report,
    nontiming_view,
    render_report,
    validate_report,
    write_report,
)
from repro.runtime import AccessMode, StfEngine, ThreadedExecutor


def _profiled_threaded_lu(n=400, nb=100, scheduler="ws", nworkers=2):
    pts = cylinder_cloud(n)
    kern = make_kernel("laplace", pts)
    cfg = TileHConfig(
        nb=nb, eps=1e-4, leaf_size=48, accumulate=False,
        exec_mode="threaded", nworkers=nworkers, scheduler=scheduler,
    )
    with Instrumentation() as probe:
        _a, info = TileHMatrix.build_factorize(kern, pts, cfg)
    return build_run_report(
        probe=probe, trace=info.trace, graph=info.graph,
        meta={"n": n, "nb": nb, "scheduler": scheduler},
    ), info


class TestThreadedRunReport:
    @pytest.fixture(scope="class")
    def report_info(self):
        return _profiled_threaded_lu()

    def test_schema_valid(self, report_info):
        report, _ = report_info
        assert validate_report(report) == []

    def test_kind_times_sum_to_busy(self, report_info):
        # The per-kind table is integrated from the same trace as the busy
        # total, so the sums must agree to well within the 1% acceptance bar.
        report, _ = report_info
        busy = report["totals"]["busy_seconds"]
        kind_sum = sum(e["seconds"] for e in report["kinds"].values())
        assert kind_sum == pytest.approx(busy, rel=0.01)
        share_sum = sum(e["share_of_busy"] for e in report["kinds"].values())
        assert share_sum == pytest.approx(1.0, rel=1e-6)

    def test_worker_accounting(self, report_info):
        report, info = report_info
        assert len(report["workers"]) == 2
        worker_busy = sum(w["busy_seconds"] for w in report["workers"])
        assert worker_busy == pytest.approx(report["totals"]["busy_seconds"], rel=1e-9)
        for w in report["workers"]:
            assert w["busy_seconds"] + w["idle_seconds"] == pytest.approx(
                report["totals"]["makespan"], rel=1e-9
            )
        assert report["totals"]["n_tasks"] == info.n_tasks

    def test_steal_and_idle_counters_nonzero_under_ws(self):
        # ISSUE acceptance: ws with >= 2 workers must show stealing activity
        # and nonzero idle time.  A steal is attempted only when a worker
        # reaches the scheduler with an empty queue.  A factorisation has one
        # source task and every release lands on the releasing worker's
        # queue, so under the lease one worker may run the whole graph from
        # its own queue while the other never pops.  Independent source tasks
        # are split round-robin over the two queues; with the lease quantum
        # above the run's length the first lessee keeps the lease until a pop
        # returns None, so the other queue's share can only reach it by
        # stealing.
        eng = StfEngine(mode="deferred")
        for i in range(16):
            a = np.ones((64, 64))
            eng.insert_task("gemm", lambda a=a: a @ a, [(eng.handle(a, f"a{i}"), AccessMode.RW)])
        graph = eng.wait_all()
        executor = ThreadedExecutor(2, scheduler="ws", interpreter_bound=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(10.0)
        try:
            with Instrumentation() as probe:
                executor.run(graph)
        finally:
            sys.setswitchinterval(interval)
        report = build_run_report(probe=probe, trace=executor.trace, graph=graph, meta={})
        sched = report["scheduler"]
        assert sched["pushes"] > 0
        assert sched["steal_attempts"] > 0
        assert report["totals"]["idle_seconds"] > 0.0
        assert sched["queue_depth_samples"] >= sched["pushes"]

    def test_lease_reading(self, report_info):
        # Tile-H graphs run under the interpreter lease: task closures never
        # overlap, so two workers are at most half busy, and every change of
        # holder is counted per worker and in the registry.
        report, _ = report_info
        assert report["totals"]["utilization"] <= 0.5
        handoffs = sum(w["lease_handoffs"] for w in report["workers"])
        assert handoffs >= 1
        assert report["counters"]["counters"]["executor.lease_handoffs"] == handoffs
        assert sum(w["wait_seconds"] for w in report["workers"]) > 0.0
        assert "lease" in render_report(report)

    def test_hmatrix_section_populated(self, report_info):
        report, _ = report_info
        h = report["hmatrix"]
        assert h["blocks_compressed"] > 0
        assert h["recompressions"] > 0
        assert 0 < h["compressed_bytes"] < h["dense_bytes"]
        assert h["peak_bytes"] > 0

    def test_aca_sampled_versus_dense_entries(self, report_info):
        # Matrix-free assembly: ACA looks at a fraction of every block it
        # compresses, and at no fewer entries than the factors it keeps.
        report, _ = report_info
        h = report["hmatrix"]
        aca = h["aca"]
        assert 0 < aca["kernel_entries"] < aca["dense_entries"]
        itemsize = h["dense_bytes"] / aca["dense_entries"]
        assert aca["kernel_entries"] * itemsize >= h["compressed_bytes"]
        assert "sampled / dense entries" in render_report(report)

    def test_render_and_roundtrip(self, report_info, tmp_path):
        report, _ = report_info
        text = render_report(report)
        assert "per-kind breakdown" in text
        assert "per-worker utilization" in text
        assert "steal_attempts" in text
        p = write_report(report, tmp_path / "run.json")
        assert load_report(p) == json.loads(json.dumps(report))


class TestDenseTiledFlops:
    def test_flop_totals_match_analytic_model(self):
        # ISSUE acceptance: the report's flop totals for the dense-tiled
        # baseline must equal the dense/flops.py estimates exactly (same
        # formulas, summed per kind over the LU loop nest).
        n, nb = 192, 48
        nt = n // nb
        rng = np.random.default_rng(0)
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        with Instrumentation() as probe:
            lu = DenseTiledLU(a.copy(), nb)
            info = lu.factorize()
        report = build_run_report(probe=probe, graph=info.graph)
        assert validate_report(report) == []
        exp_getrf = nt * flops_getrf(nb)
        n_trsm = nt * (nt - 1)  # (nt-1-k) left + right panels per step k
        exp_trsm = n_trsm * flops_trsm(nb, nb)
        n_gemm = sum((nt - 1 - k) ** 2 for k in range(nt))
        exp_gemm = n_gemm * flops_gemm(nb, nb, nb)
        kinds = report["kinds"]
        assert kinds["getrf"]["flops"] == pytest.approx(exp_getrf, rel=1e-12)
        assert kinds["trsm"]["flops"] == pytest.approx(exp_trsm, rel=1e-12)
        assert kinds["gemm"]["flops"] == pytest.approx(exp_gemm, rel=1e-12)
        assert report["totals"]["total_flops"] == pytest.approx(
            exp_getrf + exp_trsm + exp_gemm, rel=1e-12
        )

    def test_operand_bytes_tagged(self):
        n, nb = 128, 64
        a = np.eye(n) * n
        with Instrumentation() as probe:
            DenseTiledLU(a, nb).factorize()
        # Every dense-tiled task touches nb x nb float64 tiles.
        for kind, agg in probe.kinds.items():
            assert agg["operand_bytes"] > 0, kind
        assert probe.registry.counter("tasks.submitted") > 0


class TestDeterminism:
    def test_eager_profiled_runs_agree_on_nontiming_view(self):
        # Two eager runs of the same computation: wall-clock differs, every
        # counter/flop/structure metric must match exactly.
        views = []
        pts = cylinder_cloud(300)
        kern = make_kernel("laplace", pts)
        cfg = TileHConfig(nb=75, eps=1e-4, leaf_size=48)
        for _ in range(2):
            with Instrumentation() as probe:
                mat = TileHMatrix.build(kern, pts, cfg)
                info = mat.factorize()
            report = build_run_report(probe=probe, graph=info.graph)
            assert validate_report(report) == []
            views.append(nontiming_view(report))
        assert views[0] == views[1]


class TestSchemaValidation:
    def test_rejects_missing_sections(self):
        errors = validate_report({"schema": "repro-run-report/v1"})
        assert any("totals" in e for e in errors)
        assert any("hmatrix" in e for e in errors)

    def test_rejects_wrong_schema_id(self):
        report = build_run_report()
        report["schema"] = "bogus/v0"
        assert any("bogus" in e for e in validate_report(report))

    def test_rejects_negative_and_wrong_types(self):
        report = build_run_report()
        report["totals"]["busy_seconds"] = -1.0
        report["totals"]["n_tasks"] = "three"
        errors = validate_report(report)
        assert any("below minimum" in e for e in errors)
        assert any("n_tasks" in e for e in errors)

    def test_write_report_refuses_invalid(self, tmp_path):
        report = build_run_report()
        del report["scheduler"]
        with pytest.raises(ValueError, match="invalid run report"):
            write_report(report, tmp_path / "bad.json")

    def test_empty_report_is_valid(self):
        report = build_run_report()
        assert validate_report(report) == []
        assert report["totals"]["n_tasks"] == 0


def _spin_chain_graph(ntasks: int, spin_seconds: float):
    eng = StfEngine(mode="deferred")
    h = eng.handle(object())

    def spin():
        t_end = time.perf_counter() + spin_seconds
        while time.perf_counter() < t_end:
            pass

    for _ in range(ntasks):
        eng.insert_task("k", spin, [(h, AccessMode.RW)])
    return eng.wait_all()


class TestOverhead:
    NTASKS = 20
    SPIN = 0.004

    def _best_run(self, instrumented: bool) -> float:
        ideal = self.NTASKS * self.SPIN
        best = float("inf")
        for _ in range(3):
            graph = _spin_chain_graph(self.NTASKS, self.SPIN)
            if instrumented:
                with Instrumentation() as probe:
                    ex = ThreadedExecutor(1, scheduler="ws", instrument=probe)
                    best = min(best, ex.run(graph))
            else:
                best = min(best, ThreadedExecutor(1, scheduler="ws").run(graph))
        return best / ideal

    def test_disabled_instrumentation_overhead_under_5_percent(self):
        # ISSUE acceptance: with no probe active the hook sites cost one None
        # test each — the executor must stay within 5% of pure spin time.
        assert self._best_run(instrumented=False) <= 1.05

    def test_profiled_run_overhead_bounded(self):
        # The profiled path does real work per task (span + counters) but
        # must stay within a small constant factor of the spin time.
        assert self._best_run(instrumented=True) <= 1.25


class TestTracingSection:
    @pytest.fixture(scope="class")
    def traced_report(self):
        from repro.service.pipeline import SolveService
        from repro.service.store import FactorizationStore

        with Instrumentation(trace_capacity=8) as probe:
            svc = SolveService(FactorizationStore(), workers=1, max_batch=2)
            spec = {"kernel": "laplace", "n": 120, "nb": 60, "eps": 1e-6,
                    "leaf_size": 32}
            svc.submit(spec, np.ones(120)).result(timeout=60)
            svc.close()
        return build_run_report(probe=probe, meta={"mode": "serve"},
                                service=svc.stats())

    def test_tracing_folded_in_and_schema_valid(self, traced_report):
        assert validate_report(traced_report) == []
        tracing = traced_report["tracing"]
        assert tracing["completed"] == 1
        (trace,) = tracing["recent"]
        names = [s["name"] for s in trace["spans"]]
        assert "queue-wait" in names and "solve" in names
        assert "solve" in tracing["phases"]

    def test_render_includes_tracing(self, traced_report):
        text = render_report(traced_report)
        assert "tracing" in text and "solve" in text

    def test_no_traces_no_section(self):
        with Instrumentation(trace_capacity=8) as probe:
            pass
        report = build_run_report(probe=probe, meta={})
        assert "tracing" not in report
        assert validate_report(report) == []


class TestDiffReports:
    def _minimal(self, makespan, getrf, busy=None):
        busy = makespan if busy is None else busy
        return {
            "meta": {"n": 400},
            "totals": {"makespan": makespan, "busy_seconds": busy,
                       "idle_seconds": makespan - busy * 0.5,
                       "utilization": busy / makespan, "total_flops": 1e9},
            "kinds": {
                "getrf": {"count": 4, "seconds": getrf},
                "gemm": {"count": 12, "seconds": makespan - getrf},
            },
            "workers": [{"worker": 0, "busy_seconds": busy,
                         "idle_seconds": 0.0, "utilization": 1.0}],
        }

    def test_no_regression_within_threshold(self):
        from repro.obs import diff_reports

        a = self._minimal(1.00, 0.40)
        b = self._minimal(1.05, 0.42)
        text, regressions = diff_reports(a, b, threshold=0.10)
        assert regressions == []
        assert "no regressions beyond 10%" in text

    def test_regressions_flagged_beyond_threshold(self):
        from repro.obs import diff_reports

        a = self._minimal(1.00, 0.40)
        b = self._minimal(1.50, 0.70)
        text, regressions = diff_reports(a, b, threshold=0.10)
        assert any(r.startswith("totals.makespan") for r in regressions)
        assert any("kinds.getrf.seconds" in r for r in regressions)
        assert "!" in text and "regressions (> 10%):" in text

    def test_improvements_not_flagged(self):
        from repro.obs import diff_reports

        a = self._minimal(1.50, 0.70)
        b = self._minimal(1.00, 0.40)
        _, regressions = diff_reports(a, b, threshold=0.10)
        assert regressions == []

    def test_kind_only_in_one_report(self):
        from repro.obs import diff_reports

        a = self._minimal(1.0, 0.4)
        b = self._minimal(1.0, 0.4)
        b["kinds"]["trsm"] = {"count": 2, "seconds": 0.1}
        text, regressions = diff_reports(a, b)
        assert "trsm" in text  # union of kinds is shown
        assert regressions == []  # zero baseline -> n/a, never flagged

    def test_cli_diff_exit_codes(self, tmp_path):
        from repro.__main__ import main

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(self._minimal(1.00, 0.40)))
        b.write_text(json.dumps(self._minimal(1.50, 0.70)))
        assert main(["report", "--diff", str(a), str(b)]) == 1
        assert main(["report", "--diff", str(a), str(a)]) == 0


class TestRenderOptionalKeys:
    """Schema-valid reports whose optional blocks lack a key a line prints
    (these raised ``KeyError`` in ``render_report`` and ``repro report``)."""

    #: The required keys of the optional sections patched below.
    SECTIONS = {
        "fleet": {"workers": 2, "healthy_workers": 2, "lanes": {},
                  "routing": {"keys": 0, "per_worker": {}, "balance_ratio": 0.0}},
        "gp": {"kernel": "sqexp", "n_train": 10, "n_test": 2,
               "train_seconds": 0.1, "predict_seconds": 0.01},
        "nested": {"min_leaf": 32, "coarse": False, "expanded_tasks": 1, "subtasks": 4,
                   "subtasks_per_expansion": 4.0, "critical_path_before": 2.0,
                   "critical_path_after": 1.0},
    }

    @pytest.mark.parametrize("section, patch, expected", [
        ("hmatrix", {"aca": {"dense_entries": 10}}, "aca       : 0 / 10 sampled / dense entries"),
        ("hmatrix", {"accumulator": {"deferred": 3}},
         "accumulator: 3 deferred updates, 0 block flushes"),
        ("fleet", {"replication": {"hot_keys": 1}}, "replicas  : 1 hot fingerprint(s), 0 warm"),
        ("gp", {"mean_rmse": 0.1, "var_max": 2.0}, "posterior : mean RMSE 0.1 vs latent truth"),
        ("nested", {"program_misses": 1}, "graph replayed in 0 of 1 builds"),
    ])
    def test_renders(self, section, patch, expected):
        report = build_run_report()
        report.setdefault(section, dict(self.SECTIONS.get(section, {}))).update(patch)
        assert validate_report(report) == []
        text = render_report(report)
        assert expected in text
        assert "variance" not in text  # printed only when var_min and var_max both exist


class TestCliDiffInput:
    @pytest.mark.parametrize("content", ["{}", "[]", '{"totals": 1}',
                                         '{"totals": {}, "kinds": []}'])
    def test_not_a_report_exits_2(self, tmp_path, capsys, content):
        from repro.__main__ import main

        path = tmp_path / "e.json"
        path.write_text(content)
        assert main(["report", "--diff", str(path), str(path)]) == 2
        assert f"error: cannot read report {path}" in capsys.readouterr().err


def test_docs_list_every_report_section():
    """docs/observability.md's run-report section list names every top-level
    key of the schema, one bullet each."""
    import re
    from pathlib import Path

    from repro.obs import REPORT_SCHEMA

    doc = (Path(__file__).resolve().parents[2] / "docs" / "observability.md").read_text()
    section = doc.split("## The run report", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^- `(\w+)`", section, flags=re.M)
    assert sorted(bullets) == sorted(REPORT_SCHEMA["properties"])
