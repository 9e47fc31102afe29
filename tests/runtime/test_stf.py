"""Unit + property tests for sequential-task-flow dependency inference."""

import gc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hmatrix import HMatrix, build_block_cluster_tree, build_cluster_tree
from repro.obs import Instrumentation
from repro.runtime import AccessMode, StfEngine

R, W, RW = AccessMode.R, AccessMode.W, AccessMode.RW


class TestHandleRegistry:
    def test_same_payload_same_handle(self):
        eng = StfEngine()
        obj = object()
        assert eng.handle(obj) is eng.handle(obj)

    def test_distinct_payloads(self):
        eng = StfEngine()
        assert eng.handle(object()) is not eng.handle(object())
        assert eng.n_handles == 2


class TestDependencyInference:
    def test_read_after_write(self):
        eng = StfEngine()
        h = eng.handle(object())
        t1 = eng.insert_task("w", None, [(h, W)])
        t2 = eng.insert_task("r", None, [(h, R)])
        assert t1.id in t2.deps

    def test_write_after_read(self):
        eng = StfEngine()
        h = eng.handle(object())
        t1 = eng.insert_task("w", None, [(h, W)])
        r1 = eng.insert_task("r", None, [(h, R)])
        r2 = eng.insert_task("r", None, [(h, R)])
        t2 = eng.insert_task("w", None, [(h, RW)])
        assert r1.id in t2.deps and r2.id in t2.deps

    def test_concurrent_reads_independent(self):
        eng = StfEngine()
        h = eng.handle(object())
        eng.insert_task("w", None, [(h, W)])
        r1 = eng.insert_task("r", None, [(h, R)])
        r2 = eng.insert_task("r", None, [(h, R)])
        assert r1.id not in r2.deps and r2.id not in r1.deps

    def test_write_after_write(self):
        eng = StfEngine()
        h = eng.handle(object())
        t1 = eng.insert_task("w", None, [(h, W)])
        t2 = eng.insert_task("w", None, [(h, W)])
        assert t1.id in t2.deps

    def test_disjoint_handles_no_deps(self):
        eng = StfEngine()
        a, b = eng.handle(object()), eng.handle(object())
        t1 = eng.insert_task("w", None, [(a, RW)])
        t2 = eng.insert_task("w", None, [(b, RW)])
        assert not t2.deps and t1.id not in t2.deps

    def test_tiled_lu_dag_shape(self):
        """The 3x3 tiled LU must produce exactly the paper's Figure 1 DAG."""
        eng = StfEngine(mode="deferred")
        tiles = {(i, j): eng.handle(object(), f"A{i}{j}") for i in range(3) for j in range(3)}
        nt = 3
        for k in range(nt):
            eng.insert_task("getrf", None, [(tiles[k, k], RW)])
            for j in range(k + 1, nt):
                eng.insert_task("trsm", None, [(tiles[k, k], R), (tiles[k, j], RW)])
            for i in range(k + 1, nt):
                eng.insert_task("trsm", None, [(tiles[k, k], R), (tiles[i, k], RW)])
            for i in range(k + 1, nt):
                for j in range(k + 1, nt):
                    eng.insert_task(
                        "gemm",
                        None,
                        [(tiles[i, k], R), (tiles[k, j], R), (tiles[i, j], RW)],
                    )
        g = eng.wait_all()
        counts = g.kind_counts()
        assert counts["getrf"] == 3 and counts["trsm"] == 6 and counts["gemm"] == 5
        assert len(g) == 14

    def test_eager_executes_at_wait_all(self):
        # insert_task only records; the eager engine runs the section when it closes.
        eng = StfEngine()
        h = eng.handle(object())
        hits = []
        t = eng.insert_task("k", lambda: hits.append(1), [(h, RW)])
        assert hits == [] and t.func is not None
        eng.wait_all()
        assert hits == [1] and t.func is None

    def test_eager_measures_cost(self):
        eng = StfEngine()
        h = eng.handle(object())
        t = eng.insert_task("k", lambda: sum(range(10000)), [(h, RW)])
        assert t.seconds == 0.0  # not run yet
        eng.wait_all()
        assert t.seconds > 0

    def test_explicit_seconds_override(self):
        # A cost set on the returned task stays while nothing runs it; a
        # kernel's run measures its own.
        eng = StfEngine(mode="deferred")
        h = eng.handle(object())
        costed = eng.insert_task("k", None, [(h, RW)], flops=7.0)
        costed.seconds = 4.5
        eng.wait_all()
        assert costed.seconds == 4.5 and costed.flops == 7.0
        eng = StfEngine()
        run = eng.insert_task("k", lambda: None, [(eng.handle(object()), RW)])
        run.seconds = 4.5
        eng.wait_all()
        assert run.seconds != 4.5

    def test_eager_sections_run_each_kernel_once(self):
        eng = StfEngine()
        h = eng.handle(object())
        hits = []
        eng.insert_task("a", lambda: hits.append("a"), [(h, RW)])
        first = eng.insert_task("b", lambda: hits.append("b"), [(h, RW)])
        eng.wait_all()
        seconds = first.seconds
        eng.insert_task("c", lambda: hits.append("c"), [(h, RW)])
        g = eng.wait_all()
        assert hits == ["a", "b", "c"] and len(g) == 3
        assert first.seconds == seconds  # the second run left the first's cost

    def test_an_eager_section_runs_only_its_own_tasks(self):
        # A probe sees each task run once: a later section passes no earlier task.
        with Instrumentation() as probe:
            eng = StfEngine()
            h = eng.handle(object())
            for _ in range(3):
                eng.insert_task("gemm", lambda: None, [(h, RW)])
            eng.wait_all()
            eng.insert_task("trsm", lambda: None, [(h, RW)])
            g = eng.wait_all()
        assert len(g) == 4  # the returned graph stays cumulative
        runs = {kind: probe.registry.histogram(f"tasks.seconds.{kind}")["count"]
                for kind in ("gemm", "trsm")}
        assert probe.kinds["gemm"]["submitted"] == runs["gemm"] == 3
        assert runs["trsm"] == 1

    def test_eager_kernel_error_raises_from_wait_all(self):
        eng = StfEngine()
        h = eng.handle(object())
        hits = []

        def boom():
            raise ZeroDivisionError("kernel")

        eng.insert_task("a", boom, [(h, RW)])
        eng.insert_task("b", lambda: hits.append(1), [(h, RW)])
        with pytest.raises(ZeroDivisionError, match="kernel"):
            eng.wait_all()
        assert hits == []  # the failed task's successor never ran

    def test_deferred_stores_func(self):
        eng = StfEngine(mode="deferred")
        h = eng.handle(object())
        hits = []
        t = eng.insert_task("k", lambda: hits.append(1), [(h, RW)])
        assert hits == [] and t.func is not None

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            StfEngine(mode="turbo")

    def test_wait_all_validates(self):
        eng = StfEngine(mode="deferred")
        h = eng.handle(object())
        eng.insert_task("a", None, [(h, W)])
        eng.insert_task("b", None, [(h, RW)])
        g = eng.wait_all()
        assert len(g) == 2

    def test_wait_all_ends_the_section(self):
        eng = StfEngine(mode="deferred")
        h = eng.handle(object())
        w = eng.insert_task("w", None, [(h, W)])
        r = eng.insert_task("r", None, [(h, R)])
        eng.wait_all()
        assert r.deps == {w.id} and w.successors == {r.id}  # the edges stay
        # The engine forgot the last writer and the readers since.
        read = eng.insert_task("r", None, [(h, R)])
        eng.wait_all()
        later = eng.insert_task("w", None, [(h, W)])
        assert not read.deps and not later.deps

    def test_dropped_graph_needs_no_collector(self):
        # task -> accesses -> handle -> last writer -> task would be a cycle.
        gc.collect()
        gc.disable()
        try:
            eng = StfEngine(mode="deferred")
            sub = eng.subhandle(eng.handle(object()), object())
            payload = np.zeros(4)
            eng.insert_task("w", lambda: payload.fill(1.0), [(eng.handle(payload), W)])
            eng.insert_task("r", None, [(eng.handle(payload), R), (sub, RW)])
            g = eng.wait_all()
            gone = [weakref.ref(t) for t in g.tasks] + [weakref.ref(payload)]
            del eng, g, payload
            assert [ref() for ref in gone] == [None] * 3
        finally:
            gc.enable()


def _blocks(n=8, leaf=2):
    """An H-matrix subdivided down to ``leaf``: 8 -> 4 -> 2, 16 dense leaves."""
    ct = build_cluster_tree(np.linspace(0.0, 1.0, n)[:, None], leaf_size=leaf)
    never = SimpleNamespace(is_admissible=lambda rows, cols: False)
    return HMatrix.from_dense(np.zeros((n, n)), build_block_cluster_tree(ct, ct, never), 1e-4)


class TestLeafCells:
    """An access covers the leaves under its payload; each leaf orders its own."""

    def test_a_read_of_an_ancestor_waits_for_a_write_to_a_leaf(self):
        eng = StfEngine(mode="deferred")
        parent = _blocks().child(0, 0)
        leaf = next(parent.leaves())
        w = eng.insert_task("gemm", None, [(eng.handle(leaf), RW)])
        r = eng.insert_task("trsm", None, [(eng.handle(parent), R)])
        assert r.deps == {w.id}

    def test_sibling_sub_blocks_take_no_edge(self):
        eng = StfEngine(mode="deferred")
        h = _blocks()
        a, b = eng.handle(h.child(0, 0)), eng.handle(h.child(0, 1))
        wa = eng.insert_task("getrf", None, [(a, RW)])
        wb = eng.insert_task("gemm", None, [(b, RW)])
        both = eng.insert_task("trsm", None, [(a, R), (b, RW)])
        assert not wb.deps and both.deps == {wa.id, wb.id}

    def test_a_write_to_the_parent_supersedes_a_leaf_writer(self):
        eng = StfEngine(mode="deferred")
        parent = _blocks().child(0, 0)
        leaf = eng.handle(next(parent.leaves()))
        eng.insert_task("gemm", None, [(leaf, RW)])
        whole = eng.insert_task("getrf", None, [(eng.handle(parent), RW)])
        r = eng.insert_task("trsm", None, [(leaf, R)])
        assert r.deps == {whole.id}  # the leaf writer is implied through it

    def test_a_task_touching_a_leaf_twice_writes_it(self):
        eng = StfEngine(mode="deferred")
        parent = _blocks().child(0, 0)
        leaf = eng.handle(next(parent.leaves()))
        r = eng.insert_task("r", None, [(leaf, R)])
        rw = eng.insert_task("gemm", None, [(eng.handle(parent), R), (leaf, RW)])
        later = eng.insert_task("r", None, [(eng.handle(parent), R)])
        assert rw.deps == {r.id} and later.deps == {rw.id}


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.integers(min_value=0, max_value=4), st.sampled_from(["R", "W", "RW"])),
        min_size=1,
        max_size=40,
    )
)
def test_property_stf_sequential_consistency(ops):
    """Replaying the DAG in ANY topological order gives the same final data
    state as sequential execution — the core STF soundness property.

    Model: each handle holds a list; W/RW appends the task id.  We compare the
    sequential result against a replay using reversed-ready-order scheduling.
    """
    # Sequential reference.
    seq_state: dict[int, list[int]] = {k: [] for k in range(5)}
    for tid, (hid, mode) in enumerate(ops):
        if mode in ("W", "RW"):
            seq_state[hid].append(tid)

    eng = StfEngine(mode="deferred")
    payloads = {k: [] for k in range(5)}
    handles = {k: eng.handle(payloads[k], f"h{k}") for k in range(5)}
    for tid, (hid, mode) in enumerate(ops):
        m = AccessMode[mode]
        if m.writes:
            eng.insert_task("w", (lambda h=hid, t=tid: payloads[h].append(t)), [(handles[hid], m)])
        else:
            eng.insert_task("r", None, [(handles[hid], m)])
    g = eng.wait_all()

    # Replay greedily with a LIFO ready stack (a valid topological order that
    # differs maximally from submission order).
    indeg = {t.id: len(t.deps) for t in g.tasks}
    stack = [t for t in g.tasks if indeg[t.id] == 0]
    done = 0
    while stack:
        t = stack.pop()
        if t.func is not None:
            t.func()
        done += 1
        for s in sorted(t.successors):
            indeg[s] -= 1
            if indeg[s] == 0:
                stack.append(g.tasks[s])
    assert done == len(g)
    for k in range(5):
        assert payloads[k] == seq_state[k], f"handle {k} diverged"
