"""Run reports: one JSON document per profiled run + schema + text renderer.

A :func:`build_run_report` call folds everything a profiled run produced —
the :class:`~repro.obs.instrument.Instrumentation` aggregates, the
:class:`~repro.runtime.trace.ExecutionTrace`, and the task graph — into a
single JSON-serialisable report answering the paper's Fig. 6/7 questions:
where did the time go per kernel kind, how idle was each worker under the
chosen policy, how many steals happened, and how the Tile-H blocks
compressed.  The report validates against :data:`REPORT_SCHEMA` (a
self-contained JSON-Schema subset — no external dependency — derived from
the one field table :data:`_FIELDS`) and renders to fixed-width tables with
:func:`render_report` (the ``repro report`` CLI).

This module deliberately imports nothing from the runtime/analysis layers at
module level so the ambient-probe import chain stays acyclic.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = [
    "SCHEMA_ID",
    "REPORT_SCHEMA",
    "build_run_report",
    "validate_report",
    "render_report",
    "write_report",
    "load_report",
    "nontiming_view",
    "diff_reports",
]

SCHEMA_ID = "repro-run-report/v1"

#: JSON-schema node of each leaf token of :data:`_FIELDS`.
_LEAVES = {
    "int": {"type": "integer", "minimum": 0},
    "int1": {"type": "integer", "minimum": 1},
    "count": {"type": "integer"},
    "num": {"type": "number", "minimum": 0},
    "real": {"type": "number"},
    "str": {"type": "string"},
    "bool": {"type": "boolean"},
    "obj": {"type": "object"},
    "num|null": {"type": ["number", "null"]},
    "str|null": {"type": ["string", "null"]},
    SCHEMA_ID: {"type": "string", "enum": [SCHEMA_ID]},
}

#: A metrics-registry histogram snapshot (the ``hist`` token).
_HIST = {
    "count": "int",
    "sum": "real",
    "min": "real",
    "max": "real",
    "mean": "real",
    "buckets?": {"*": "count"},
}

#: The report's shape, one row per field, written once: :data:`REPORT_SCHEMA`
#: is derived from it, and the ``hmatrix`` and ``process`` sections are folded
#: from the metrics registry along its rows.  A leaf is a token of
#: :data:`_LEAVES` or ``hist``; a ``?`` suffix marks an optional key,
#: ``{"*": ...}`` is a map and ``[...]`` an array.  Required keys are listed
#: in row order.
_FIELDS = {
    "schema": SCHEMA_ID,
    "meta": "obj",
    "totals": {
        "makespan": "num",
        "busy_seconds": "num",
        "idle_seconds": "num",
        "utilization": "num",
        "n_tasks": "int",
        "n_dependencies": "int",
        "total_flops": "num",
        "flop_rate?": "num",
        "nworkers?": "int",
    },
    "kinds": {"*": {
        "submitted?": "int",
        "count": "int",
        "seconds": "num",
        "flops": "num",
        "share_of_busy": "num",
        "operand_bytes?": "int",
    }},
    "workers": [{
        "worker": "int",
        "tasks": "int",
        "busy_seconds": "num",
        "idle_seconds": "num",
        "wait_seconds?": "num",
        "lease_handoffs?": "int",
        "utilization": "num",
    }],
    "scheduler": {
        "pushes": "int",
        "pops_local": "int",
        "steal_attempts": "int",
        "steals": "int",
        "queue_depth_samples?": "int",
        "queue_depth_max?": "int",
        "queue_depth_mean?": "num",
    },
    # Registry metric h.<path> per row (see _fold).
    "hmatrix": {
        "recompressions": "int",
        "rank_in?": "hist",
        "rank_out?": "hist",
        "blocks_compressed": "int",
        "block_rank?": "hist",
        "compressed_bytes": "num",
        "dense_bytes": "num",
        "peak_bytes?": "num",
        "aca?": {
            "kernel_entries?": "int",
            "dense_entries?": "int",
        },
        "accumulator?": {
            "deferred?": "int",
            "flushed_blocks?": "int",
        },
    },
    "counters?": "obj",
    "service?": {
        "requests": {
            "admitted": "int",
            "rejected": "int",
            "completed": "int",
            "failed": "int",
            "expired?": "int",
            "retries?": "int",
        },
        "latency_seconds": "hist",
        "batch_size": "hist",
        "queue?": {
            "depth_peak?": "int",
            "capacity?": "int",
        },
        "store": {
            "hits": "int",
            "misses": "int",
            "evictions?": "int",
            "entries?": "int",
            "bytes?": "num",
            "peak_bytes?": "num",
            "budget_bytes?": "num|null",
        },
        "workers?": "int",
    },
    # Registry metric process.<path> per row (see _fold).
    "process?": {
        "workers": "int",
        "dispatches": "int",
        "dispatch_batches?": "int",
        "batch_size?": "hist",
        "ipc_bytes": "num",
        "shm_bytes": "num",
        "segments": "int",
    },
    "nested?": {
        "min_leaf": "int1",
        "coarse": "bool",
        "expanded_tasks": "int",
        "subtasks": "int",
        "subtasks_per_expansion": "num",
        "graph_tasks?": "int",
        "contracted_tasks?": "int",
        "cost_attr?": "str",
        "critical_path_before": "num",
        "critical_path_after": "num",
        "program_hits?": "int",
        "program_misses?": "int",
    },
    "fleet?": {
        "workers": "int",
        "healthy_workers": "int",
        "failed_workers?": "int",
        "requeues?": "int",
        "lanes": {"*": {
            "admitted": "int",
            "completed": "int",
            "failed": "int",
            "expired?": "int",
            "shed": "int",
            "rejected": "int",
            "inflight?": "int",
            "inflight_peak?": "int",
            "max_inflight?": "int",
            "est_service_seconds?": "num",
            "p50_ms?": "num",
            "p95_ms?": "num",
            "p99_ms?": "num",
            "slo?": {
                "target_seconds?": "num",
                "good?": "int",
                "violations?": "int",
                "attainment?": "num",
                "burn_rate?": "num",
            },
        }},
        "routing": {
            "keys": "int",
            "per_worker": {"*": "int"},
            "balance_ratio": "num",
        },
        "replication?": {
            "hot_keys?": "int",
            "replicated_loads?": "int",
            "hot_after?": "int",
        },
    },
    "gp?": {
        "kernel": "str",
        "geometry?": "str",
        "n_train": "int",
        "n_test": "int",
        "length?": "num",
        "signal?": "num",
        "noise?": "num",
        "eps?": "num",
        "train_seconds": "num",
        "predict_seconds": "num",
        "predict_throughput_rps?": "num",
        "batch_width_mean?": "num",
        "mean_rmse?": "num",
        "var_min?": "real",
        "var_max?": "real",
        "krylov?": {
            "iterations?": "int",
            "converged?": "bool",
            "final_residual?": "num",
        },
    },
    "tracing?": {
        "capacity": "int",
        "started": "int",
        "completed": "int",
        "evicted?": "int",
        "dropped_spans?": "int",
        "phases?": {"*": {
            "count": "int",
            "seconds": "num",
        }},
        "slowest_per_lane?": {"*": {
            "trace_id": "str",
            "key?": "str",
            "duration_seconds": "num",
        }},
        "recent": [{
            "trace_id": "str",
            "key?": "str",
            "lane?": "str|null",
            "start": "real",
            "duration_seconds": "num",
            "outcome?": "str",
            "dropped_spans?": "int",
            "spans": [{
                "name": "str",
                "t0": "real",
                "t1": "real",
                "worker?": "str",
                "meta?": "obj",
            }],
        }],
    },
}


def _schema(node) -> dict:
    """The JSON-schema node of one :data:`_FIELDS` entry."""
    if node == "hist":
        node = _HIST
    if isinstance(node, str):
        return _LEAVES[node]
    if isinstance(node, list):
        return {"type": "array", "items": _schema(node[0])}
    if "*" in node:
        return {"type": "object", "additionalProperties": _schema(node["*"])}
    required = [k for k in node if not k.endswith("?")]
    return {"type": "object", **({"required": required} if required else {}),
            "properties": {k.rstrip("?"): _schema(v) for k, v in node.items()}}


#: JSON schema (draft-subset: type/properties/required/items/additionalProperties/
#: enum/minimum) of one run report, derived from :data:`_FIELDS`.
REPORT_SCHEMA = _schema(_FIELDS)


# -- construction -----------------------------------------------------------


def _fold(fields: dict, prefix: str, reg) -> dict:
    """One section read from the registry along its :data:`_FIELDS` rows:
    row ``key`` is metric ``prefix.key`` — its histogram for ``hist`` rows,
    else its counter, or its gauge when nothing was counted (``int`` rows
    as integers)."""
    out = {}
    for key, token in fields.items():
        key = key.rstrip("?")
        name = f"{prefix}.{key}"
        if isinstance(token, dict):
            out[key] = _fold(token, name, reg)
        elif token == "hist":
            out[key] = reg.histogram(name)
        else:
            value = reg.counter(name) or reg.gauge(name)
            out[key] = int(value) if token == "int" else value
    return out


def build_run_report(
    *, probe=None, trace=None, graph=None, meta=None, service=None, fleet=None,
    nested=None, tracing=None, gp=None,
) -> dict:
    """Fold probe aggregates + trace + graph into one schema-valid report.

    ``trace`` (an :class:`~repro.runtime.trace.ExecutionTrace`) is the
    preferred time source: per-kind and per-worker times are integrated from
    its events, so the kind table sums exactly to total busy time.  Without a
    trace (the dense and ℌ-matrix baselines) the ``graph``'s measured task
    seconds are used and the run is reported as a single worker lane.
    ``probe`` contributes flop tags, scheduler counters, and the H-arithmetic
    metrics; any subset of the three sources may be omitted.

    ``service`` attaches a solve-service section (see
    ``repro.service.SolveService.stats``, the one record of its counts).
    ``fleet`` attaches a serve-fleet section
    (``repro.service.ServeFleet.stats``): per-lane admission/shedding
    counters and latency percentiles, routing balance, and replication.
    ``nested`` attaches a nested-expansion section (the
    ``FactorizationInfo.nested`` dict built by
    ``repro.runtime.NestedStats.report``): how many tile kernels expanded
    into subtask DAGs and the deterministic critical-path lengths of the
    contracted (opaque-equivalent) vs. expanded graph.
    ``tracing`` attaches a request-tracing section (see
    ``repro.obs.RequestTracer.report``); when omitted, the probe's tracer is
    folded in automatically if it completed any trace.
    ``gp`` attaches a Gaussian-process regression section (the ``repro gp``
    CLI builds it): train/predict timings, batching width,
    posterior-mean RMSE and the Krylov refinement stats.
    """
    kinds: dict[str, dict] = {}

    def kind_entry(kind: str) -> dict:
        e = kinds.get(kind)
        if e is None:
            e = kinds[kind] = {
                "submitted": 0,
                "count": 0,
                "seconds": 0.0,
                "flops": 0.0,
                "share_of_busy": 0.0,
                "operand_bytes": 0,
            }
        return e

    workers: list[dict] = []
    makespan = 0.0
    busy = 0.0
    nworkers = 0

    if trace is not None and trace.events:
        makespan = trace.makespan
        nworkers = trace.nworkers
        for e in trace.events:
            entry = kind_entry(e.kind)
            entry["count"] += 1
            entry["seconds"] += e.duration
            busy += e.duration
        for w, lane in enumerate(trace.worker_timelines()):
            wbusy = sum(e.duration for e in lane)
            workers.append(
                {
                    "worker": w,
                    "tasks": len(lane),
                    "busy_seconds": wbusy,
                    "idle_seconds": max(0.0, makespan - wbusy),
                    "utilization": wbusy / makespan if makespan > 0 else 0.0,
                }
            )
    elif graph is not None and len(graph):
        nworkers = 1
        for t in graph:
            entry = kind_entry(t.kind)
            entry["count"] += 1
            entry["seconds"] += t.seconds
            busy += t.seconds
        makespan = busy
        workers.append(
            {
                "worker": 0,
                "tasks": len(graph),
                "busy_seconds": busy,
                "idle_seconds": 0.0,
                "utilization": 1.0 if busy > 0 else 0.0,
            }
        )

    total_flops = 0.0
    if probe is not None:
        for kind, agg in probe.kinds.items():
            entry = kind_entry(kind)
            entry["submitted"] = agg["submitted"]
            entry["flops"] = agg["flops"]
            entry["operand_bytes"] = agg["operand_bytes"]
            total_flops += agg["flops"]
        for w in workers:
            pw = probe.workers.get(w["worker"])
            if pw is not None:
                w["wait_seconds"] = pw["wait_seconds"]
                w["lease_handoffs"] = pw["lease_handoffs"]
    elif graph is not None:
        for t in graph:
            kind_entry(t.kind)["flops"] += t.flops
            total_flops += t.flops
    if graph is not None and probe is not None:
        # Submitted counts for graphs built without probe-aware engines.
        seen = {k for k, v in kinds.items() if v["submitted"]}
        for t in graph:
            if t.kind not in seen:
                kind_entry(t.kind)["submitted"] += 1
    for entry in kinds.values():
        entry["share_of_busy"] = entry["seconds"] / busy if busy > 0 else 0.0

    sched = probe.sched.snapshot() if probe is not None else {
        "pushes": 0,
        "pops_local": 0,
        "steal_attempts": 0,
        "steals": 0,
        "queue_depth_samples": 0,
        "queue_depth_max": 0,
        "queue_depth_mean": 0.0,
    }

    if probe is not None:
        hmatrix = _fold(_FIELDS["hmatrix"], "h", probe.registry)
    else:  # the required rows, zero
        hmatrix = {k: 0 if t == "int" else 0.0
                   for k, t in _FIELDS["hmatrix"].items() if not k.endswith("?")}

    report = {
        "schema": SCHEMA_ID,
        "meta": dict(meta or {}),
        "totals": {
            "makespan": makespan,
            "busy_seconds": busy,
            "idle_seconds": max(0.0, makespan * nworkers - busy),
            "utilization": busy / (makespan * nworkers) if makespan > 0 and nworkers else 0.0,
            "n_tasks": len(graph) if graph is not None else sum(e["count"] for e in kinds.values()),
            "n_dependencies": graph.n_edges() if graph is not None else 0,
            "total_flops": total_flops,
            "flop_rate": total_flops / busy if busy > 0 else 0.0,
            "nworkers": nworkers,
        },
        "kinds": kinds,
        "workers": workers,
        "scheduler": sched,
        "hmatrix": hmatrix,
    }
    if probe is not None:
        report["counters"] = probe.registry.as_dict()
    if probe is not None and probe.registry.counter("process.dispatches"):
        report["process"] = _fold(_FIELDS["process?"], "process", probe.registry)
    if nested is not None:
        report["nested"] = dict(nested)
        if probe is not None:
            # How many of the run's nested factorisations replayed a recorded
            # graph (repro.core.factor_program) and how many recorded one.
            reg = probe.registry
            report["nested"]["program_hits"] = int(reg.counter("nested.program.hits"))
            report["nested"]["program_misses"] = int(reg.counter("nested.program.misses"))
    if service is not None:
        report["service"] = service
    if fleet is not None:
        report["fleet"] = fleet
    if gp is not None:
        report["gp"] = dict(gp)
    if tracing is not None:
        report["tracing"] = tracing
    else:
        tracer = getattr(probe, "tracer", None)
        if tracer is not None and tracer.completed:
            report["tracing"] = tracer.report()
    return report


# -- validation --------------------------------------------------------------

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def _type_ok(value, tname: str) -> bool:
    if tname == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if tname == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, _TYPES[tname])


def _validate(value, schema: dict, path: str, errors: list[str]) -> None:
    t = schema.get("type")
    if t is not None:
        names = t if isinstance(t, list) else [t]
        if not any(_type_ok(value, n) for n in names):
            errors.append(f"{path}: expected {t}, got {type(value).__name__}")
            return
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in {schema['enum']}")
    if "minimum" in schema and isinstance(value, (int, float)) and not isinstance(value, bool):
        if value < schema["minimum"]:
            errors.append(f"{path}: {value} below minimum {schema['minimum']}")
    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required key {key!r}")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties")
        for key, sub in value.items():
            if key in props:
                _validate(sub, props[key], f"{path}.{key}", errors)
            elif isinstance(extra, dict):
                _validate(sub, extra, f"{path}.{key}", errors)
            elif extra is False:
                errors.append(f"{path}: unexpected key {key!r}")
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            _validate(item, schema["items"], f"{path}[{i}]", errors)


def validate_report(report) -> list[str]:
    """Validate against :data:`REPORT_SCHEMA`; returns a list of problems
    (empty = valid)."""
    errors: list[str] = []
    _validate(report, REPORT_SCHEMA, "$", errors)
    return errors


# -- persistence -------------------------------------------------------------


def write_report(report: dict, path) -> Path:
    """Validate and write the report as JSON; raises on schema violations."""
    errors = validate_report(report)
    if errors:
        raise ValueError("invalid run report: " + "; ".join(errors[:5]))
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return p


def load_report(path) -> dict:
    return json.loads(Path(path).read_text())


# -- views -------------------------------------------------------------------


def nontiming_view(report: dict) -> dict:
    """The deterministic (timing-free) projection of a report.

    Two profiled runs of the same *eager* computation must agree exactly on
    this view — task/flop counts, scheduler counters (all zero eagerly), and
    every H-arithmetic metric — while wall-clock fields are free to differ.
    Used by the determinism tests and handy for diffing CI artifacts.
    """
    kinds = {
        kind: {"submitted": e["submitted"], "count": e["count"], "flops": e["flops"],
               "operand_bytes": e.get("operand_bytes", 0)}
        for kind, e in sorted(report["kinds"].items())
    }
    sched = {
        k: report["scheduler"][k]
        for k in ("pushes", "pops_local", "steal_attempts", "steals")
    }
    return {
        "n_tasks": report["totals"]["n_tasks"],
        "n_dependencies": report["totals"]["n_dependencies"],
        "total_flops": report["totals"]["total_flops"],
        "kinds": kinds,
        "scheduler": sched,
        "hmatrix": report["hmatrix"],
    }


# -- rendering ---------------------------------------------------------------


def _mb(nbytes: float) -> str:
    return f"{nbytes / 1e6:.2f} MB"


def render_report(report: dict) -> str:
    """Fixed-width text rendering (the ``repro report`` output): a per-kind
    time/flop table and a per-worker busy/idle table à la the paper's Fig. 6
    breakdowns, plus scheduler and H-compression counter lines."""
    from ..analysis.reporting import format_table  # lazy: keeps imports acyclic

    t = report["totals"]
    lines = [f"run report ({report['schema']})"]
    meta = report.get("meta") or {}
    if meta:
        lines.append("meta      : " + " ".join(f"{k}={v}" for k, v in sorted(meta.items())))
    lines.append(
        f"totals    : makespan {t['makespan']:.4f} s on {t.get('nworkers', 0)} workers | "
        f"busy {t['busy_seconds']:.4f} s | idle {t['idle_seconds']:.4f} s | "
        f"utilization {t['utilization']:.0%}"
    )
    lines.append(
        f"graph     : {t['n_tasks']} tasks, {t['n_dependencies']} dependencies, "
        f"{t['total_flops'] / 1e9:.3f} Gflop"
        + (f" @ {t.get('flop_rate', 0.0) / 1e9:.2f} Gflop/s" if t["busy_seconds"] else "")
    )
    lines.append("")
    kind_rows = [
        [
            kind,
            e["count"],
            f"{e['seconds']:.4f}",
            f"{e['share_of_busy']:.1%}",
            f"{e['flops'] / 1e9:.3f}",
        ]
        for kind, e in sorted(
            report["kinds"].items(), key=lambda kv: -kv[1]["seconds"]
        )
    ]
    lines.append(
        format_table(
            ["kind", "count", "seconds", "% busy", "Gflop"],
            kind_rows,
            title="per-kind breakdown",
        )
    )
    if report["workers"]:
        lines.append("")
        worker_rows = [
            [
                w["worker"],
                w["tasks"],
                f"{w['busy_seconds']:.4f}",
                f"{w['idle_seconds']:.4f}",
                f"{w['utilization']:.0%}",
                w.get("lease_handoffs", 0),
            ]
            for w in report["workers"]
        ]
        lines.append(
            format_table(
                ["worker", "tasks", "busy s", "idle s", "util", "lease"],
                worker_rows,
                title="per-worker utilization",
            )
        )
    s = report["scheduler"]
    lines.append("")
    lines.append(
        f"scheduler : pushes={s['pushes']} pops_local={s['pops_local']} "
        f"steal_attempts={s['steal_attempts']} steals={s['steals']} "
        f"queue depth mean={s.get('queue_depth_mean', 0.0):.1f} "
        f"max={s.get('queue_depth_max', 0)}"
    )
    h = report["hmatrix"]
    rank_out = h.get("rank_out", {})
    lines.append(
        f"h-matrix  : {h['recompressions']} recompressions"
        + (
            f" (rank out mean {rank_out['mean']:.1f}, max {rank_out['max']:.0f})"
            if rank_out.get("count")
            else ""
        )
        + f", {h['blocks_compressed']} blocks compressed "
        f"({_mb(h['compressed_bytes'])} vs {_mb(h['dense_bytes'])} dense)"
        + (f", peak {_mb(h['peak_bytes'])}" if h.get("peak_bytes") else "")
    )
    aca = h.get("aca")
    if aca and aca.get("dense_entries"):
        lines.append(
            f"aca       : {aca.get('kernel_entries', 0)} / {aca['dense_entries']} "
            f"sampled / dense entries "
            f"({100.0 * aca.get('kernel_entries', 0) / aca['dense_entries']:.1f}%)"
        )
    acc = h.get("accumulator")
    if acc and acc.get("deferred"):
        lines.append(
            f"accumulator: {acc['deferred']} deferred updates, "
            f"{acc.get('flushed_blocks', 0)} block flushes"
        )
    proc = report.get("process")
    if proc:
        batches = ""
        if proc.get("dispatch_batches"):
            mean = proc["dispatches"] / proc["dispatch_batches"]
            batches = (
                f" in {proc['dispatch_batches']} batches "
                f"(mean {mean:.1f}/write)"
            )
        lines.append(
            f"process   : {proc['workers']} worker processes | "
            f"{proc['dispatches']} dispatches{batches}, "
            f"{_mb(proc['ipc_bytes'])} over pipes | "
            f"{_mb(proc['shm_bytes'])} into {proc['segments']} shm segment(s)"
        )
    nested = report.get("nested")
    if nested:
        cp_b = nested["critical_path_before"]
        cp_a = nested["critical_path_after"]
        ratio = f" ({cp_b / cp_a:.2f}x shorter)" if cp_a else ""
        lines.append(
            f"nested    : {nested['expanded_tasks']} tile kernels expanded into "
            f"{nested['subtasks']} subtasks "
            f"(mean {nested['subtasks_per_expansion']:.1f}, "
            f"min_leaf {nested['min_leaf']}"
            + (", coarse accesses" if nested.get("coarse") else "")
            + f") | critical path {cp_b:.3g} -> {cp_a:.3g} "
            f"{nested.get('cost_attr', 'flops')}{ratio}"
        )
        hits = nested.get("program_hits", 0)
        lookups = hits + nested.get("program_misses", 0)
        if lookups:
            lines[-1] += f" | graph replayed in {hits} of {lookups} builds"
    svc = report.get("service")
    if svc:
        req = svc["requests"]
        lat = svc.get("latency_seconds", {})
        batch = svc.get("batch_size", {})
        store = svc.get("store", {})
        lines.append("")
        lines.append(
            f"service   : {req['admitted']} admitted | {req['completed']} completed | "
            f"{req['rejected']} rejected | {req['failed']} failed"
            + (f" | {req['retries']} retries" if req.get("retries") else "")
        )
        if lat.get("count"):
            pct = ""
            if "p50" in lat:
                pct = f" p50 {lat['p50'] * 1e3:.2f} ms, p95 {lat.get('p95', 0.0) * 1e3:.2f} ms,"
            lines.append(
                f"latency   :{pct} mean {lat['mean'] * 1e3:.2f} ms, "
                f"max {lat['max'] * 1e3:.2f} ms over {lat['count']} requests"
            )
        if batch.get("count"):
            lines.append(
                f"batching  : {batch['count']} panel sweeps, mean width "
                f"{batch['mean']:.2f}, max {batch['max']:.0f}"
                + (
                    f", queue depth peak {svc['queue'].get('depth_peak', 0)}"
                    if svc.get("queue")
                    else ""
                )
            )
        if store:
            total = store.get("hits", 0) + store.get("misses", 0)
            rate = store.get("hits", 0) / total if total else 0.0
            lines.append(
                f"store     : {store.get('hits', 0)} hits / {store.get('misses', 0)} misses "
                f"({rate:.0%} hit rate), {store.get('evictions', 0)} evictions"
                + (f", {_mb(store['bytes'])} resident" if store.get("bytes") else "")
            )
    fleet = report.get("fleet")
    if fleet:
        lines.append("")
        ratio = fleet["routing"]["balance_ratio"]
        # 0.0 is the sentinel for "fewer keys than workers" (some worker owns
        # nothing, so max/min is undefined).
        balance = f"{ratio:.2f}x" if ratio else "n/a"
        lines.append(
            f"fleet     : {fleet['healthy_workers']}/{fleet['workers']} workers healthy | "
            f"{fleet['routing']['keys']} fingerprints, routing balance "
            f"{balance} | "
            f"{fleet.get('requeues', 0)} crash requeues"
        )
        for name, lane in sorted(fleet["lanes"].items()):
            pct = ""
            if "p50_ms" in lane:
                pct = f" | p50 {lane['p50_ms']:.2f} ms, p95 {lane.get('p95_ms', 0.0):.2f} ms"
            slo = lane.get("slo") or {}
            if slo.get("target_seconds") is not None:
                pct += (
                    f" | SLO {slo['target_seconds'] * 1e3:.0f} ms: "
                    f"{slo.get('attainment', 0.0):.1%} attained, "
                    f"burn {slo.get('burn_rate', 0.0):.2f}"
                )
            lines.append(
                f"lane {name:<9}: {lane['admitted']} admitted | {lane['completed']} completed "
                f"| {lane['shed']} shed | {lane['rejected']} rejected{pct}"
            )
        rep = fleet.get("replication") or {}
        if rep.get("hot_keys"):
            lines.append(
                f"replicas  : {rep['hot_keys']} hot fingerprint(s), "
                f"{rep.get('replicated_loads', 0)} warm loads "
                f"(hot after {rep.get('hot_after', 0)} requests)"
            )
    gp = report.get("gp")
    if gp:
        lines.append("")
        line = (
            f"gp        : {gp['kernel']} n={gp['n_train']} -> {gp['n_test']} test points | "
            f"train {gp['train_seconds']:.3f} s | predict {gp['predict_seconds'] * 1e3:.1f} ms"
        )
        if gp.get("predict_throughput_rps"):
            line += f" ({gp['predict_throughput_rps']:.1f} pred/s)"
        if gp.get("batch_width_mean"):
            line += f" | batch width {gp['batch_width_mean']:.2f}"
        lines.append(line)
        if gp.get("mean_rmse") is not None:
            lines.append(
                f"posterior : mean RMSE {gp['mean_rmse']:.3g} vs latent truth"
                + (
                    f" | variance in [{gp['var_min']:.3g}, {gp['var_max']:.3g}]"
                    if gp.get("var_min") is not None and gp.get("var_max") is not None
                    else ""
                )
            )
        krylov = gp.get("krylov")
        if krylov:
            lines.append(
                f"krylov    : pcg {krylov.get('iterations', 0)} iterations, "
                f"{'converged' if krylov.get('converged') else 'NOT converged'}, "
                f"final residual {krylov.get('final_residual', 0.0):.2e}"
            )
    # Ambient krylov counters (recorded by pcg/gmres under any probe).
    ctrs = (report.get("counters") or {}).get("counters") or {}
    if ctrs.get("krylov.solves") and not (gp or {}).get("krylov"):
        lines.append(
            f"krylov    : {int(ctrs['krylov.solves'])} solve(s), "
            f"{int(ctrs.get('krylov.iters', 0))} total iterations, "
            f"{int(ctrs.get('krylov.converged', 0))} converged / "
            f"{int(ctrs.get('krylov.unconverged', 0))} not"
        )
    tracing = report.get("tracing")
    if tracing:
        lines.append("")
        lines.append(
            f"tracing   : {tracing['completed']} traces captured "
            f"(ring {tracing['capacity']}, {tracing.get('evicted', 0)} evicted, "
            f"{tracing.get('dropped_spans', 0)} spans dropped)"
        )
        phases = tracing.get("phases") or {}
        if phases:
            top = sorted(phases.items(), key=lambda kv: -kv[1]["seconds"])[:6]
            lines.append(
                "phases    : "
                + " | ".join(
                    f"{name} {agg['seconds'] * 1e3:.1f} ms x{agg['count']}"
                    for name, agg in top
                )
            )
        for lane, worst in sorted((tracing.get("slowest_per_lane") or {}).items()):
            lines.append(
                f"slowest   : {lane:<11} {worst['duration_seconds'] * 1e3:.2f} ms "
                f"(trace {worst['trace_id']})"
            )
    return "\n".join(lines)


# -- diffing -----------------------------------------------------------------


def diff_reports(a: dict, b: dict, *, threshold: float = 0.10) -> tuple[str, list[str]]:
    """Side-by-side comparison of two run reports (``repro report --diff``).

    Returns ``(text, regressions)``: fixed-width totals/kind/worker tables
    with a relative-delta column, and a list of human-readable regression
    descriptions — any timing that grew by more than ``threshold`` (default
    10%) from ``a`` (baseline) to ``b``.  Count/flop drift is shown but not
    flagged; only time-like quantities regress.
    """
    from ..analysis.reporting import format_table  # lazy: keeps imports acyclic

    regressions: list[str] = []

    def delta(va: float, vb: float, flag: str | None = None, show=lambda v: f"{v:.4f}"):
        """The relative-delta cell of B vs A ("n/a" on a ~zero baseline); a
        time-like row named by ``flag`` that grew beyond the threshold is
        marked and listed as a regression."""
        if abs(va) < 1e-12:
            return "n/a"
        d = (vb - va) / va
        cell = f"{d:+.1%}"
        if flag is not None and d > threshold:
            regressions.append(f"{flag}: {show(va)} -> {show(vb)} ({cell})")
            cell += " !"
        return cell

    lines: list[str] = [f"report diff (threshold {threshold:.0%}): A=baseline, B=candidate"]
    for tag, rep in (("A", a), ("B", b)):
        meta = rep.get("meta") or {}
        if meta:
            lines.append(
                f"  {tag}: " + " ".join(f"{k}={v}" for k, v in sorted(meta.items()))
            )
    ta, tb = a["totals"], b["totals"]
    total_rows = []
    for label, key in (
        ("makespan s", "makespan"),
        ("busy s", "busy_seconds"),
        ("idle s", "idle_seconds"),
    ):
        va, vb = ta.get(key, 0.0), tb.get(key, 0.0)
        total_rows.append([label, f"{va:.4f}", f"{vb:.4f}", delta(va, vb, f"totals.{key}")])
    for label, key in (("utilization", "utilization"), ("Gflop", "total_flops")):
        va, vb = ta.get(key, 0.0), tb.get(key, 0.0)
        scale = 1e-9 if key == "total_flops" else 1.0
        total_rows.append([label, f"{va * scale:.3f}", f"{vb * scale:.3f}", delta(va, vb)])
    lines.append("")
    lines.append(format_table(["total", "A", "B", "delta"], total_rows, title="totals"))

    kind_rows = []
    all_kinds = sorted(
        set(a["kinds"]) | set(b["kinds"]),
        key=lambda k: -max(
            a["kinds"].get(k, {}).get("seconds", 0.0),
            b["kinds"].get(k, {}).get("seconds", 0.0),
        ),
    )
    for kind in all_kinds:
        ka = a["kinds"].get(kind, {})
        kb = b["kinds"].get(kind, {})
        sa, sb = ka.get("seconds", 0.0), kb.get("seconds", 0.0)
        kind_rows.append(
            [
                kind,
                ka.get("count", 0),
                kb.get("count", 0),
                f"{sa:.4f}",
                f"{sb:.4f}",
                delta(sa, sb, f"kinds.{kind}.seconds"),
            ]
        )
    lines.append("")
    lines.append(
        format_table(
            ["kind", "count A", "count B", "sec A", "sec B", "delta"],
            kind_rows,
            title="per-kind",
        )
    )

    wa = {w["worker"]: w for w in a.get("workers", [])}
    wb = {w["worker"]: w for w in b.get("workers", [])}
    worker_rows = []
    for wid in sorted(set(wa) | set(wb)):
        ba = wa.get(wid, {}).get("busy_seconds", 0.0)
        bb = wb.get(wid, {}).get("busy_seconds", 0.0)
        worker_rows.append(
            [
                wid,
                f"{ba:.4f}",
                f"{bb:.4f}",
                f"{wa.get(wid, {}).get('utilization', 0.0):.0%}",
                f"{wb.get(wid, {}).get('utilization', 0.0):.0%}",
                delta(ba, bb, f"workers[{wid}].busy_seconds"),
            ]
        )
    if worker_rows:
        lines.append("")
        lines.append(
            format_table(
                ["worker", "busy A", "busy B", "util A", "util B", "delta"],
                worker_rows,
                title="per-worker",
            )
        )

    sa, sb = a.get("service"), b.get("service")
    if sa and sb:
        la, lb = sa.get("latency_seconds", {}), sb.get("latency_seconds", {})
        if la.get("count") and lb.get("count"):
            rows = []
            for label, key in (("p50", "p50"), ("p95", "p95"), ("mean", "mean"), ("max", "max")):
                va, vb = la.get(key, 0.0), lb.get(key, 0.0)
                cell = delta(va, vb, f"service.latency_seconds.{key}",
                             lambda v: f"{v * 1e3:.2f} ms")
                rows.append([label, f"{va * 1e3:.3f}", f"{vb * 1e3:.3f}", cell])
            lines.append("")
            lines.append(
                format_table(["latency ms", "A", "B", "delta"], rows, title="service latency")
            )

    lines.append("")
    if regressions:
        lines.append(f"regressions (> {threshold:.0%}):")
        lines.extend(f"  ! {r}" for r in regressions)
    else:
        lines.append(f"no regressions beyond {threshold:.0%}")
    return "\n".join(lines), regressions
