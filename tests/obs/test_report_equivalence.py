"""Equivalence: the table-driven run report against the hand-written one.

``reference_report.py`` is ``repro.obs.report`` as it was before the report's
shape became one field table (``_FIELDS``), kept verbatim.  The schema derived
from the table must equal its literal, and build, validate, render, diff and
``nontiming_view`` must give the same output:

* over real runs of every kind (empty, eager, threaded, nested, process,
  dense tiled, traced service, fleet, GP), compared as sorted JSON text
  because ``3 == 3.0`` would hide an int/float drift;
* over reports generated from the schema, and mutations of them (a key
  dropped, a wrong type, a negative value, a bool for an int, an extra key).

Two intended differences: the reference's renderer raised ``KeyError`` on
some schema-valid reports (an ``aca``, ``accumulator`` or ``replication``
block, a ``gp`` section or the ``nested`` replay counters missing an optional
key the line printed) — every generated report renders now.  Otherwise,
where the reference rendered, the text is the same.
"""

import copy
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import DenseTiledLU
from repro.core import TileHConfig, TileHMatrix
from repro.geometry import cylinder_cloud, make_kernel
from repro.gp import GPModel
from repro.obs import Instrumentation
from repro.obs import report as new

from . import reference_report as ref

# -- real runs --------------------------------------------------------------


def _tile_h(n=300, nb=100, **cfg):
    pts = cylinder_cloud(n)
    kern = make_kernel("laplace", pts)
    config = TileHConfig(nb=nb, eps=1e-4, leaf_size=32, **cfg)
    with Instrumentation() as probe:
        _a, info = TileHMatrix.build_factorize(kern, pts, config)
    kwargs = dict(probe=probe, trace=info.trace, graph=info.graph, meta={"n": n, "nb": nb})
    if cfg.get("nested"):
        kwargs["nested"] = info.nested
    return kwargs


def _eager():
    pts = cylinder_cloud(300)
    with Instrumentation() as probe:
        mat = TileHMatrix.build(make_kernel("laplace", pts), pts,
                                TileHConfig(nb=100, eps=1e-4, leaf_size=32, accumulate=True))
        info = mat.factorize()
    return dict(probe=probe, graph=info.graph)


def _dense():
    a = np.random.default_rng(0).standard_normal((128, 128)) + 128 * np.eye(128)
    with Instrumentation() as probe:
        info = DenseTiledLU(a, 32).factorize()
    return dict(probe=probe, graph=info.graph)


def _service(pass_stats):
    from repro.service.pipeline import SolveService
    from repro.service.store import FactorizationStore

    with Instrumentation(trace_capacity=8) as probe:
        svc = SolveService(FactorizationStore(), workers=1, max_batch=2)
        spec = {"kernel": "laplace", "n": 120, "nb": 60, "eps": 1e-6, "leaf_size": 32}
        svc.submit(spec, np.ones(120)).result(timeout=60)
        svc.close()
    kwargs = dict(probe=probe, meta={"mode": "serve"})
    if pass_stats:
        kwargs["service"] = svc.stats()
    return kwargs


def _fleet():
    from repro.service import ProblemSpec, ServeFleet, build_solver

    spec = ProblemSpec(kernel="laplace", n=120, nb=60, eps=1e-6, leaf_size=32)
    solver = build_solver(spec)
    with Instrumentation() as probe:
        fleet = ServeFleet(2, solver_provider=lambda k, s: solver, replicate_hot_after=2)
        try:
            for lane in ("interactive", "batch", "interactive"):
                fleet.solve(spec, np.ones(120), lane=lane)
            stats = fleet.stats()
        finally:
            fleet.close()
    return dict(probe=probe, meta={"mode": "fleet"}, fleet=stats)


def _gp():
    from repro.gp import synthetic_gp_data

    x, y, _, _ = synthetic_gp_data(200, 1, seed=0)
    with Instrumentation() as probe:
        model = GPModel("matern32", length=0.3, config=TileHConfig(nb=100, eps=1e-6)).fit(x, y)
        pred = model.predict(x[:8])
    gp = {
        "kernel": "matern32", "geometry": "cylinder", "n_train": 200, "n_test": 8,
        "length": 0.3, "signal": 1.0, "noise": 0.1, "eps": 1e-6,
        "train_seconds": 0.5, "predict_seconds": 0.01, "predict_throughput_rps": 800.0,
        "batch_width_mean": 4.0, "mean_rmse": 0.02,
        "var_min": float(pred.var.min()), "var_max": float(pred.var.max()),
        "krylov": {"iterations": 3, "converged": True, "final_residual": 1e-9},
    }
    return dict(probe=probe, graph=model.info_.graph, gp=gp)


RUNS = {
    "empty": dict,
    "eager": _eager,
    "threaded_ws2": lambda: _tile_h(exec_mode="threaded", nworkers=2, scheduler="ws"),
    "threaded_prio1": lambda: _tile_h(exec_mode="threaded", nworkers=1, scheduler="prio"),
    "nested_threaded": lambda: _tile_h(
        exec_mode="threaded", nworkers=2, scheduler="lws", nested=True, nested_min_leaf=32),
    "process_lws2": lambda: _tile_h(exec_mode="process", nworkers=2, scheduler="lws"),
    "process_nested1": lambda: _tile_h(
        exec_mode="process", nworkers=1, nested=True, nested_min_leaf=32),
    "dense_tiled": _dense,
    "service_traced": lambda: _service(pass_stats=True),
    "service_from_probe": lambda: _service(pass_stats=False),
    "fleet_2shard": _fleet,
    "gp": _gp,
}


@pytest.fixture(scope="module")
def runs():
    """Each run's ``build_run_report`` arguments, collected once."""
    return {name: make() for name, make in RUNS.items()}


@pytest.fixture(scope="module")
def reports(runs):
    return {name: new.build_run_report(**kwargs) for name, kwargs in runs.items()}


def _text(report) -> str:
    return json.dumps(report, sort_keys=True)


def test_schema_equals_the_literal():
    assert new.REPORT_SCHEMA == ref.REPORT_SCHEMA


@pytest.mark.parametrize("name", RUNS)
def test_build_same_report(runs, name):
    report = new.build_run_report(**runs[name])
    assert _text(report) == _text(ref.build_run_report(**runs[name]))
    assert new.validate_report(report) == []


def test_the_runs_cover_every_section(reports):
    """The real runs between them fill every top-level section, and the
    registry fold reads real counters, not only zeros."""
    seen = set().union(*(r for r in reports.values()))
    assert seen == set(new.REPORT_SCHEMA["properties"])
    process = reports["process_lws2"]["process"]
    assert process["dispatches"] > 0 and process["ipc_bytes"] > 0  # counters
    assert process["workers"] == 2 and process["segments"] > 0  # gauges
    assert process["batch_size"]["count"] > 0  # histogram
    assert reports["threaded_ws2"]["hmatrix"]["peak_bytes"] > 0
    assert reports["eager"]["hmatrix"]["accumulator"]["deferred"] > 0
    assert reports["threaded_ws2"]["hmatrix"]["accumulator"]["deferred"] > 0
    assert reports["process_lws2"]["hmatrix"]["accumulator"]["deferred"] == 0  # undeferred
    assert reports["nested_threaded"]["nested"]["program_hits"] \
        + reports["nested_threaded"]["nested"]["program_misses"] == 1


@pytest.mark.parametrize("name", RUNS)
def test_render_validate_and_view_same(reports, name):
    report = reports[name]
    assert new.render_report(report) == ref.render_report(report)
    assert new.validate_report(report) == ref.validate_report(report)
    assert new.nontiming_view(report) == ref.nontiming_view(report)


@pytest.mark.parametrize("pair", [
    ("threaded_ws2", "process_lws2"),
    ("process_lws2", "threaded_ws2"),
    ("eager", "nested_threaded"),
    ("service_traced", "service_from_probe"),
    ("empty", "dense_tiled"),
    ("fleet_2shard", "gp"),
])
@pytest.mark.parametrize("threshold", [0.0, 0.10])
def test_diff_same(reports, pair, threshold):
    a, b = (reports[name] for name in pair)
    assert new.diff_reports(a, b, threshold=threshold) == ref.diff_reports(a, b, threshold=threshold)


# -- generated reports -------------------------------------------------------


def from_schema(node):
    """A strategy for values valid against one node of the schema subset."""
    if "enum" in node:
        return st.sampled_from(node["enum"])
    t = node["type"]
    if isinstance(t, list):
        return st.one_of([from_schema({**node, "type": one}) for one in t])
    lo = node.get("minimum", -10**6)
    if t == "integer":
        return st.integers(min_value=lo, max_value=10**6)
    if t == "number":
        return st.one_of(st.integers(min_value=lo, max_value=10**6),
                         st.floats(min_value=lo, max_value=1e6, allow_nan=False))
    if t == "string":
        return st.text(max_size=6)
    if t == "boolean":
        return st.booleans()
    if t == "null":
        return st.none()
    if t == "array":
        return st.lists(from_schema(node["items"]), max_size=2)
    if "additionalProperties" in node:
        return st.dictionaries(st.text(max_size=4), from_schema(node["additionalProperties"]),
                               max_size=2)
    if "properties" in node:
        required = set(node.get("required", ()))
        props = {k: from_schema(v) for k, v in node["properties"].items()}
        return st.fixed_dictionaries({k: s for k, s in props.items() if k in required},
                                     optional={k: s for k, s in props.items() if k not in required})
    # A free-form object (meta, counters): a few opaque entries.
    return st.dictionaries(st.text(alphabet="abc", max_size=3), st.integers(0, 9), max_size=2)


REPORTS = from_schema(new.REPORT_SCHEMA)
GENERATED = settings(max_examples=150, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


def _outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the outcome is what is compared
        return "raised", type(exc)


def _paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _paths(v, path + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _paths(v, path + (i,))


MUTATIONS = ("drop", "wrong_type", "negative", "bool", "extra_key")


def mutate(report, path, how):
    """A copy of ``report`` with the value at ``path`` mutated."""
    out = copy.deepcopy(report)
    *head, last = path
    parent = out
    for step in head:
        parent = parent[step]
    if how == "drop":
        del parent[last]
    elif how == "wrong_type":
        parent[last] = 1.5 if isinstance(parent[last], str) else "wrong"
    elif how == "negative":
        parent[last] = -1
    elif how == "bool":
        parent[last] = True
    else:
        target = parent[last] if isinstance(parent[last], dict) else parent
        if isinstance(target, dict):
            target["zz_extra"] = 1
        else:
            target.append(1)
    return out


@GENERATED
@given(report=REPORTS)
def test_generated_reports_are_valid_and_render(report):
    """Every report generated from the table is valid and renders; where the
    reference rendered it, the text is the same."""
    assert new.validate_report(report) == []
    text = new.render_report(report)
    kind, expected = _outcome(ref.render_report, report)
    if kind == "ok":
        assert text == expected
    assert _outcome(new.nontiming_view, report) == _outcome(ref.nontiming_view, report)


@GENERATED
@given(report=REPORTS, data=st.data())
def test_validate_same_on_mutations(report, data):
    path = data.draw(st.sampled_from([p for p in _paths(report) if p]))
    how = data.draw(st.sampled_from(MUTATIONS))
    bad = mutate(report, path, how)
    errors = new.validate_report(bad)
    assert errors == ref.validate_report(bad)
    if how == "drop" and len(path) == 1 and path[0] in new.REPORT_SCHEMA["required"]:
        assert f"$: missing required key {path[0]!r}" in errors


def _partial(data, report):
    """A diff input cut down the way hand-made or older reports are: some
    totals and kind fields missing, no sections beyond the four diffed."""
    def some(d):
        keep = data.draw(st.sets(st.sampled_from(sorted(d)))) if d else set()
        return {k: v for k, v in d.items() if k in keep}

    return {"meta": report["meta"], "totals": some(report["totals"]),
            "kinds": {k: some(e) for k, e in report["kinds"].items()},
            "workers": report["workers"]}


@GENERATED
@given(a=REPORTS, b=REPORTS, data=st.data())
def test_diff_same_on_generated(a, b, data):
    threshold = data.draw(st.sampled_from([0.0, 0.1, 0.5]))
    if data.draw(st.booleans()):
        a, b = _partial(data, a), _partial(data, b)
    assert _outcome(new.diff_reports, a, b, threshold=threshold) \
        == _outcome(ref.diff_reports, a, b, threshold=threshold)
