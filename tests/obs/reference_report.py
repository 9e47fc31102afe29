"""The run-report module before the field table, verbatim, for tests only.

Until ``repro.obs.report`` derived ``REPORT_SCHEMA`` from one table of rows
and folded the ``hmatrix``/``process`` sections along it, the schema was the
hand-written literal below and the builder copied every registry metric by
hand.  The library no longer contains them; this module is the only copy,
kept unchanged (bar the two ``format_table`` imports, made absolute, and
three keys nothing emits any more — ``service.executor``, ``gp.exec_mode``
and ``hmatrix.accumulator.early_flushes`` — deleted with the library's rows)
as the reference the table-driven module is held to: the same schema, the same
reports, the same validation errors, rendering, diffs and views
(``test_report_equivalence.py``).  Do not "fix" or modernise it: its value is
that it is what the library used to run.
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

_HIST = {
    "type": "object",
    "required": ["count", "sum", "min", "max", "mean"],
    "properties": {
        "count": {"type": "integer", "minimum": 0},
        "sum": {"type": "number"},
        "min": {"type": "number"},
        "max": {"type": "number"},
        "mean": {"type": "number"},
        "buckets": {"type": "object", "additionalProperties": {"type": "integer"}},
    },
}

#: JSON schema (draft-subset: type/properties/required/items/additionalProperties/
#: enum/minimum) of one run report.
REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema", "meta", "totals", "kinds", "workers", "scheduler", "hmatrix"],
    "properties": {
        "schema": {"type": "string", "enum": [SCHEMA_ID]},
        "meta": {"type": "object"},
        "totals": {
            "type": "object",
            "required": [
                "makespan",
                "busy_seconds",
                "idle_seconds",
                "utilization",
                "n_tasks",
                "n_dependencies",
                "total_flops",
            ],
            "properties": {
                "makespan": {"type": "number", "minimum": 0},
                "busy_seconds": {"type": "number", "minimum": 0},
                "idle_seconds": {"type": "number", "minimum": 0},
                "utilization": {"type": "number", "minimum": 0},
                "n_tasks": {"type": "integer", "minimum": 0},
                "n_dependencies": {"type": "integer", "minimum": 0},
                "total_flops": {"type": "number", "minimum": 0},
                "flop_rate": {"type": "number", "minimum": 0},
                "nworkers": {"type": "integer", "minimum": 0},
            },
        },
        "kinds": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["count", "seconds", "flops", "share_of_busy"],
                "properties": {
                    "submitted": {"type": "integer", "minimum": 0},
                    "count": {"type": "integer", "minimum": 0},
                    "seconds": {"type": "number", "minimum": 0},
                    "flops": {"type": "number", "minimum": 0},
                    "share_of_busy": {"type": "number", "minimum": 0},
                    "operand_bytes": {"type": "integer", "minimum": 0},
                },
            },
        },
        "workers": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["worker", "tasks", "busy_seconds", "idle_seconds", "utilization"],
                "properties": {
                    "worker": {"type": "integer", "minimum": 0},
                    "tasks": {"type": "integer", "minimum": 0},
                    "busy_seconds": {"type": "number", "minimum": 0},
                    "idle_seconds": {"type": "number", "minimum": 0},
                    "wait_seconds": {"type": "number", "minimum": 0},
                    "lease_handoffs": {"type": "integer", "minimum": 0},
                    "utilization": {"type": "number", "minimum": 0},
                },
            },
        },
        "scheduler": {
            "type": "object",
            "required": ["pushes", "pops_local", "steal_attempts", "steals"],
            "properties": {
                "pushes": {"type": "integer", "minimum": 0},
                "pops_local": {"type": "integer", "minimum": 0},
                "steal_attempts": {"type": "integer", "minimum": 0},
                "steals": {"type": "integer", "minimum": 0},
                "queue_depth_samples": {"type": "integer", "minimum": 0},
                "queue_depth_max": {"type": "integer", "minimum": 0},
                "queue_depth_mean": {"type": "number", "minimum": 0},
            },
        },
        "hmatrix": {
            "type": "object",
            "required": ["recompressions", "blocks_compressed", "compressed_bytes", "dense_bytes"],
            "properties": {
                "recompressions": {"type": "integer", "minimum": 0},
                "rank_in": _HIST,
                "rank_out": _HIST,
                "blocks_compressed": {"type": "integer", "minimum": 0},
                "block_rank": _HIST,
                "compressed_bytes": {"type": "number", "minimum": 0},
                "dense_bytes": {"type": "number", "minimum": 0},
                "peak_bytes": {"type": "number", "minimum": 0},
                "aca": {
                    "type": "object",
                    "properties": {
                        "kernel_entries": {"type": "integer", "minimum": 0},
                        "dense_entries": {"type": "integer", "minimum": 0},
                    },
                },
                "accumulator": {
                    "type": "object",
                    "properties": {
                        "deferred": {"type": "integer", "minimum": 0},
                        "flushed_blocks": {"type": "integer", "minimum": 0},
                    },
                },
            },
        },
        "counters": {"type": "object"},
        "service": {
            "type": "object",
            "required": ["requests", "latency_seconds", "batch_size", "store"],
            "properties": {
                "requests": {
                    "type": "object",
                    "required": ["admitted", "rejected", "completed", "failed"],
                    "properties": {
                        "admitted": {"type": "integer", "minimum": 0},
                        "rejected": {"type": "integer", "minimum": 0},
                        "completed": {"type": "integer", "minimum": 0},
                        "failed": {"type": "integer", "minimum": 0},
                        "expired": {"type": "integer", "minimum": 0},
                        "retries": {"type": "integer", "minimum": 0},
                    },
                },
                "latency_seconds": _HIST,
                "batch_size": _HIST,
                "queue": {
                    "type": "object",
                    "properties": {
                        "depth_peak": {"type": "integer", "minimum": 0},
                        "capacity": {"type": "integer", "minimum": 0},
                    },
                },
                "store": {
                    "type": "object",
                    "required": ["hits", "misses"],
                    "properties": {
                        "hits": {"type": "integer", "minimum": 0},
                        "misses": {"type": "integer", "minimum": 0},
                        "evictions": {"type": "integer", "minimum": 0},
                        "entries": {"type": "integer", "minimum": 0},
                        "bytes": {"type": "number", "minimum": 0},
                        "peak_bytes": {"type": "number", "minimum": 0},
                        "budget_bytes": {"type": ["number", "null"]},
                    },
                },
                "workers": {"type": "integer", "minimum": 0},
            },
        },
        "process": {
            "type": "object",
            "required": ["workers", "dispatches", "ipc_bytes", "shm_bytes", "segments"],
            "properties": {
                "workers": {"type": "integer", "minimum": 0},
                "dispatches": {"type": "integer", "minimum": 0},
                "dispatch_batches": {"type": "integer", "minimum": 0},
                "batch_size": _HIST,
                "ipc_bytes": {"type": "number", "minimum": 0},
                "shm_bytes": {"type": "number", "minimum": 0},
                "segments": {"type": "integer", "minimum": 0},
            },
        },
        "nested": {
            "type": "object",
            "required": [
                "min_leaf",
                "coarse",
                "expanded_tasks",
                "subtasks",
                "subtasks_per_expansion",
                "critical_path_before",
                "critical_path_after",
            ],
            "properties": {
                "min_leaf": {"type": "integer", "minimum": 1},
                "coarse": {"type": "boolean"},
                "expanded_tasks": {"type": "integer", "minimum": 0},
                "subtasks": {"type": "integer", "minimum": 0},
                "subtasks_per_expansion": {"type": "number", "minimum": 0},
                "graph_tasks": {"type": "integer", "minimum": 0},
                "contracted_tasks": {"type": "integer", "minimum": 0},
                "cost_attr": {"type": "string"},
                "critical_path_before": {"type": "number", "minimum": 0},
                "critical_path_after": {"type": "number", "minimum": 0},
                "program_hits": {"type": "integer", "minimum": 0},
                "program_misses": {"type": "integer", "minimum": 0},
            },
        },
        "fleet": {
            "type": "object",
            "required": ["workers", "healthy_workers", "lanes", "routing"],
            "properties": {
                "workers": {"type": "integer", "minimum": 0},
                "healthy_workers": {"type": "integer", "minimum": 0},
                "failed_workers": {"type": "integer", "minimum": 0},
                "requeues": {"type": "integer", "minimum": 0},
                "lanes": {
                    "type": "object",
                    "additionalProperties": {
                        "type": "object",
                        "required": ["admitted", "completed", "failed", "shed", "rejected"],
                        "properties": {
                            "admitted": {"type": "integer", "minimum": 0},
                            "completed": {"type": "integer", "minimum": 0},
                            "failed": {"type": "integer", "minimum": 0},
                            "expired": {"type": "integer", "minimum": 0},
                            "shed": {"type": "integer", "minimum": 0},
                            "rejected": {"type": "integer", "minimum": 0},
                            "inflight": {"type": "integer", "minimum": 0},
                            "inflight_peak": {"type": "integer", "minimum": 0},
                            "max_inflight": {"type": "integer", "minimum": 0},
                            "est_service_seconds": {"type": "number", "minimum": 0},
                            "p50_ms": {"type": "number", "minimum": 0},
                            "p95_ms": {"type": "number", "minimum": 0},
                            "p99_ms": {"type": "number", "minimum": 0},
                            "slo": {
                                "type": "object",
                                "properties": {
                                    "target_seconds": {"type": "number", "minimum": 0},
                                    "good": {"type": "integer", "minimum": 0},
                                    "violations": {"type": "integer", "minimum": 0},
                                    "attainment": {"type": "number", "minimum": 0},
                                    "burn_rate": {"type": "number", "minimum": 0},
                                },
                            },
                        },
                    },
                },
                "routing": {
                    "type": "object",
                    "required": ["keys", "per_worker", "balance_ratio"],
                    "properties": {
                        "keys": {"type": "integer", "minimum": 0},
                        "per_worker": {
                            "type": "object",
                            "additionalProperties": {"type": "integer", "minimum": 0},
                        },
                        "balance_ratio": {"type": "number", "minimum": 0},
                    },
                },
                "replication": {
                    "type": "object",
                    "properties": {
                        "hot_keys": {"type": "integer", "minimum": 0},
                        "replicated_loads": {"type": "integer", "minimum": 0},
                        "hot_after": {"type": "integer", "minimum": 0},
                    },
                },
            },
        },
        "gp": {
            "type": "object",
            "required": ["kernel", "n_train", "n_test", "train_seconds", "predict_seconds"],
            "properties": {
                "kernel": {"type": "string"},
                "geometry": {"type": "string"},
                "n_train": {"type": "integer", "minimum": 0},
                "n_test": {"type": "integer", "minimum": 0},
                "length": {"type": "number", "minimum": 0},
                "signal": {"type": "number", "minimum": 0},
                "noise": {"type": "number", "minimum": 0},
                "eps": {"type": "number", "minimum": 0},
                "train_seconds": {"type": "number", "minimum": 0},
                "predict_seconds": {"type": "number", "minimum": 0},
                "predict_throughput_rps": {"type": "number", "minimum": 0},
                "batch_width_mean": {"type": "number", "minimum": 0},
                "mean_rmse": {"type": "number", "minimum": 0},
                "var_min": {"type": "number"},
                "var_max": {"type": "number"},
                "krylov": {
                    "type": "object",
                    "properties": {
                        "iterations": {"type": "integer", "minimum": 0},
                        "converged": {"type": "boolean"},
                        "final_residual": {"type": "number", "minimum": 0},
                    },
                },
            },
        },
        "tracing": {
            "type": "object",
            "required": ["capacity", "started", "completed", "recent"],
            "properties": {
                "capacity": {"type": "integer", "minimum": 0},
                "started": {"type": "integer", "minimum": 0},
                "completed": {"type": "integer", "minimum": 0},
                "evicted": {"type": "integer", "minimum": 0},
                "dropped_spans": {"type": "integer", "minimum": 0},
                "phases": {
                    "type": "object",
                    "additionalProperties": {
                        "type": "object",
                        "required": ["count", "seconds"],
                        "properties": {
                            "count": {"type": "integer", "minimum": 0},
                            "seconds": {"type": "number", "minimum": 0},
                        },
                    },
                },
                "slowest_per_lane": {
                    "type": "object",
                    "additionalProperties": {
                        "type": "object",
                        "required": ["trace_id", "duration_seconds"],
                        "properties": {
                            "trace_id": {"type": "string"},
                            "key": {"type": "string"},
                            "duration_seconds": {"type": "number", "minimum": 0},
                        },
                    },
                },
                "recent": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["trace_id", "start", "duration_seconds", "spans"],
                        "properties": {
                            "trace_id": {"type": "string"},
                            "key": {"type": "string"},
                            "lane": {"type": ["string", "null"]},
                            "start": {"type": "number"},
                            "duration_seconds": {"type": "number", "minimum": 0},
                            "outcome": {"type": "string"},
                            "dropped_spans": {"type": "integer", "minimum": 0},
                            "spans": {
                                "type": "array",
                                "items": {
                                    "type": "object",
                                    "required": ["name", "t0", "t1"],
                                    "properties": {
                                        "name": {"type": "string"},
                                        "t0": {"type": "number"},
                                        "t1": {"type": "number"},
                                        "worker": {"type": "string"},
                                        "meta": {"type": "object"},
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


# -- construction -----------------------------------------------------------


def _service_section(reg) -> dict:
    """Fold the probe's ``service.*`` metrics into the report's ``service``
    section (used when the caller has no richer stats dict to contribute)."""
    return {
        "requests": {
            "admitted": int(reg.counter("service.requests.admitted")),
            "rejected": int(reg.counter("service.requests.rejected")),
            "completed": int(reg.counter("service.requests.completed")),
            "failed": int(reg.counter("service.requests.failed")),
            "retries": int(reg.counter("service.requests.retries")),
        },
        "latency_seconds": reg.histogram("service.latency_seconds"),
        "batch_size": reg.histogram("service.batch_size"),
        "queue": {"depth_peak": int(reg.gauge("service.queue_depth_peak"))},
        "store": {
            "hits": int(reg.counter("service.store.hits")),
            "misses": int(reg.counter("service.store.misses")),
            "evictions": int(reg.counter("service.store.evictions")),
            "bytes": reg.gauge("service.store.bytes"),
            "peak_bytes": reg.gauge("service.store.peak_bytes"),
        },
    }


def build_run_report(
    *, probe=None, trace=None, graph=None, meta=None, service=None, fleet=None,
    nested=None, tracing=None, gp=None,
) -> dict:
    """Fold probe aggregates + trace + graph into one schema-valid report.

    ``trace`` (an :class:`~repro.runtime.trace.ExecutionTrace`) is the
    preferred time source: per-kind and per-worker times are integrated from
    its events, so the kind table sums exactly to total busy time.  Without a
    trace (eager runs) the ``graph``'s measured task seconds are used and the
    run is reported as a single worker lane.  ``probe`` contributes flop
    tags, scheduler counters, and the H-arithmetic metrics; any subset of the
    three sources may be omitted.

    ``service`` attaches a solve-service section (see
    ``repro.service.SolveService.stats``); when omitted, a section is folded
    from the probe's ``service.*`` metrics if any request was observed.
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
    CLI and ``bench_gp`` build it): train/predict timings, batching width,
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
        reg = probe.registry
        hmatrix = {
            "recompressions": int(reg.counter("h.recompressions")),
            "rank_in": reg.histogram("h.rank_in"),
            "rank_out": reg.histogram("h.rank_out"),
            "blocks_compressed": int(reg.counter("h.blocks_compressed")),
            "block_rank": reg.histogram("h.block_rank"),
            "compressed_bytes": reg.counter("h.compressed_bytes"),
            "dense_bytes": reg.counter("h.dense_bytes"),
            "peak_bytes": reg.gauge("h.peak_bytes"),
            "aca": {
                "kernel_entries": int(reg.counter("h.aca.kernel_entries")),
                "dense_entries": int(reg.counter("h.aca.dense_entries")),
            },
            "accumulator": {
                "deferred": int(reg.counter("h.accumulator.deferred")),
                "flushed_blocks": int(reg.counter("h.accumulator.flushed_blocks")),
            },
        }
    else:
        hmatrix = {
            "recompressions": 0,
            "blocks_compressed": 0,
            "compressed_bytes": 0.0,
            "dense_bytes": 0.0,
        }

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
        reg = probe.registry
        report["process"] = {
            "workers": int(reg.gauge("process.workers")),
            "dispatches": int(reg.counter("process.dispatches")),
            "dispatch_batches": int(reg.counter("process.dispatch_batches")),
            "batch_size": reg.histogram("process.batch_size"),
            "ipc_bytes": reg.counter("process.ipc_bytes"),
            "shm_bytes": reg.counter("process.shm_bytes"),
            "segments": int(reg.gauge("process.segments")),
        }
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
    elif probe is not None and probe.registry.counter("service.requests.admitted"):
        report["service"] = _service_section(probe.registry)
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
    from repro.analysis.reporting import format_table  # lazy: keeps imports acyclic

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
            f"aca       : {aca['kernel_entries']} / {aca['dense_entries']} "
            f"sampled / dense entries "
            f"({100.0 * aca['kernel_entries'] / aca['dense_entries']:.1f}%)"
        )
    acc = h.get("accumulator")
    if acc and acc.get("deferred"):
        lines.append(
            f"accumulator: {acc['deferred']} deferred updates, "
            f"{acc['flushed_blocks']} block flushes"
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
        lookups = nested.get("program_hits", 0) + nested.get("program_misses", 0)
        if lookups:
            lines[-1] += f" | graph replayed in {nested['program_hits']} of {lookups} builds"
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
                f"{rep['replicated_loads']} warm loads "
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
                    if gp.get("var_max") is not None
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


def _pct_delta(a: float, b: float) -> float | None:
    """Relative change b vs a (None when the baseline is ~zero)."""
    if abs(a) < 1e-12:
        return None
    return (b - a) / a


def _delta_cell(a: float, b: float, *, threshold: float, higher_is_worse: bool = True):
    d = _pct_delta(a, b)
    if d is None:
        return "n/a", False
    regressed = d > threshold if higher_is_worse else d < -threshold
    return f"{d:+.1%}" + (" !" if regressed else ""), regressed


def diff_reports(a: dict, b: dict, *, threshold: float = 0.10) -> tuple[str, list[str]]:
    """Side-by-side comparison of two run reports (``repro report --diff``).

    Returns ``(text, regressions)``: fixed-width totals/kind/worker tables
    with a relative-delta column, and a list of human-readable regression
    descriptions — any timing that grew by more than ``threshold`` (default
    10%) from ``a`` (baseline) to ``b``.  Count/flop drift is shown but not
    flagged; only time-like quantities regress.
    """
    from repro.analysis.reporting import format_table  # lazy: keeps imports acyclic

    regressions: list[str] = []
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
        cell, bad = _delta_cell(va, vb, threshold=threshold)
        if bad:
            regressions.append(f"totals.{key}: {va:.4f} -> {vb:.4f} ({cell.rstrip(' !')})")
        total_rows.append([label, f"{va:.4f}", f"{vb:.4f}", cell])
    for label, key in (("utilization", "utilization"), ("Gflop", "total_flops")):
        va, vb = ta.get(key, 0.0), tb.get(key, 0.0)
        scale = 1e-9 if key == "total_flops" else 1.0
        cell, _ = _delta_cell(va, vb, threshold=threshold, higher_is_worse=False)
        total_rows.append([label, f"{va * scale:.3f}", f"{vb * scale:.3f}", cell.rstrip(" !")])
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
        cell, bad = _delta_cell(sa, sb, threshold=threshold)
        if bad:
            regressions.append(f"kinds.{kind}.seconds: {sa:.4f} -> {sb:.4f} ({cell.rstrip(' !')})")
        kind_rows.append(
            [
                kind,
                ka.get("count", 0),
                kb.get("count", 0),
                f"{sa:.4f}",
                f"{sb:.4f}",
                cell,
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
        cell, bad = _delta_cell(ba, bb, threshold=threshold)
        if bad:
            regressions.append(
                f"workers[{wid}].busy_seconds: {ba:.4f} -> {bb:.4f} ({cell.rstrip(' !')})"
            )
        worker_rows.append(
            [
                wid,
                f"{ba:.4f}",
                f"{bb:.4f}",
                f"{wa.get(wid, {}).get('utilization', 0.0):.0%}",
                f"{wb.get(wid, {}).get('utilization', 0.0):.0%}",
                cell,
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
                cell, bad = _delta_cell(va, vb, threshold=threshold)
                if bad:
                    regressions.append(
                        f"service.latency_seconds.{key}: "
                        f"{va * 1e3:.2f} ms -> {vb * 1e3:.2f} ms ({cell.rstrip(' !')})"
                    )
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
