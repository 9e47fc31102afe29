"""Unit tests for the task graph container."""

import pytest

from repro.runtime import TaskGraph


def _chain(costs):
    g = TaskGraph()
    prev = None
    for c in costs:
        t = g.new_task("k", seconds=c)
        if prev is not None:
            g.add_dependency(prev, t)
        prev = t
    return g


def _diamond():
    g = TaskGraph()
    a = g.new_task("a", seconds=1.0)
    b = g.new_task("b", seconds=2.0)
    c = g.new_task("c", seconds=3.0)
    d = g.new_task("d", seconds=1.0)
    g.add_dependency(a, b)
    g.add_dependency(a, c)
    g.add_dependency(b, d)
    g.add_dependency(c, d)
    return g


class TestTaskGraph:
    def test_empty(self):
        g = TaskGraph()
        assert len(g) == 0
        assert g.critical_path() == 0.0
        assert g.total_work() == 0.0
        assert g.roots() == []

    def test_chain_critical_path(self):
        g = _chain([1.0, 2.0, 3.0])
        assert g.critical_path() == 6.0
        assert g.total_work() == 6.0

    def test_diamond_critical_path(self):
        g = _diamond()
        assert g.critical_path() == 5.0  # a -> c -> d
        assert g.total_work() == 7.0

    def test_self_dependency_rejected(self):
        g = TaskGraph()
        t = g.new_task("k")
        with pytest.raises(ValueError):
            g.add_dependency(t, t)

    def test_duplicate_edges_deduplicated(self):
        g = TaskGraph()
        a, b = g.new_task("a"), g.new_task("b")
        g.add_dependency(a, b)
        g.add_dependency(a, b)
        assert g.n_edges() == 1

    def test_topological_order(self):
        g = _diamond()
        order = [t.id for t in g.topological_order()]
        pos = {tid: i for i, tid in enumerate(order)}
        for t in g.tasks:
            for d in t.deps:
                assert pos[d] < pos[t.id]

    def test_cycle_detection(self):
        g = TaskGraph()
        a, b = g.new_task("a"), g.new_task("b")
        g.add_dependency(a, b)
        # Force a cycle by hand (add_dependency would allow it: it only
        # checks self-loops).
        a.deps.add(b.id)
        b.successors.add(a.id)
        with pytest.raises(ValueError):
            g.topological_order()

    def test_validate_asymmetric_edge(self):
        g = TaskGraph()
        a, b = g.new_task("a"), g.new_task("b")
        b.deps.add(a.id)  # forgot the successor side
        with pytest.raises(ValueError, match="asymmetric"):
            g.validate()

    def test_validate_successor_without_dependency(self):
        g = _diamond()
        g.tasks[0].successors.add(3)  # forgot the dependency side
        with pytest.raises(ValueError, match="asymmetric edge 0 -> 3"):
            g.validate()

    def test_validate_finds_a_cycle_through_a_backward_edge(self):
        g = TaskGraph()
        a, b, c = g.new_task("a"), g.new_task("b"), g.new_task("c")
        g.add_dependency(a, b)
        g.add_dependency(b, c)
        g.validate()
        g.add_dependency(c, b)  # symmetric, but c -> b closes a cycle
        with pytest.raises(ValueError, match="cycle"):
            g.validate()

    def test_validate_accepts_backward_edges_without_a_cycle(self):
        g = TaskGraph()
        a, b = g.new_task("a"), g.new_task("b")
        g.add_dependency(b, a)  # later task first: legal in a hand-built graph
        g.validate()

    def test_kind_counts(self):
        g = TaskGraph()
        g.new_task("gemm")
        g.new_task("gemm")
        g.new_task("trsm")
        assert g.kind_counts() == {"gemm": 2, "trsm": 1}

    def test_roots(self):
        g = _diamond()
        assert [t.kind for t in g.roots()] == ["a"]

    def test_flops_cost_attr(self):
        g = TaskGraph()
        t1 = g.new_task("a", flops=10.0)
        t2 = g.new_task("b", flops=20.0)
        g.add_dependency(t1, t2)
        assert g.critical_path("flops") == 30.0
        assert g.total_work("flops") == 30.0

    def test_to_networkx(self):
        g = _diamond()
        nx_g = g.to_networkx()
        assert nx_g.number_of_nodes() == 4
        assert nx_g.number_of_edges() == 4

    def test_to_dot(self):
        g = _diamond()
        dot = g.to_dot()
        assert dot.startswith("digraph") and "t0 -> t1" in dot

    def test_to_dot_size_guard(self):
        g = _chain([1.0] * 10)
        with pytest.raises(ValueError):
            g.to_dot(max_tasks=5)

    def test_to_dot_escapes_quotes_and_backslashes(self):
        g = TaskGraph()
        g.new_task("k", label='solve "L\\U" panel')
        dot = g.to_dot()
        assert 'label="solve \\"L\\\\U\\" panel"' in dot
        # Every label attribute's quotes stay balanced line by line.
        for line in dot.splitlines():
            if "label=" in line:
                body = line.split("label=", 1)[1]
                assert body.count('"') - body.count('\\"') == 2
