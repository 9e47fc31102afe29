"""Task graphs: dependency storage, critical path, exports.

The DAG (Figure 1 of the paper for a 3x3 tiled LU) is the object every other
runtime component works on: the STF engine grows it, schedulers walk it, the
simulator replays it, and the analysis layer reads critical-path/total-work
bounds off it.
"""

from __future__ import annotations

from collections import Counter

from .task import Task

__all__ = ["TaskGraph"]


class TaskGraph:
    """An append-only DAG of :class:`Task` nodes."""

    def __init__(self) -> None:
        self.tasks: list[Task] = []

    # -- construction ---------------------------------------------------------
    def new_task(self, kind: str, **kwargs) -> Task:
        """Create, register and return a task (edges added separately)."""
        task = Task(id=len(self.tasks), kind=kind, **kwargs)
        self.tasks.append(task)
        return task

    def add_dependency(self, before: Task, after: Task) -> None:
        """Declare that ``after`` cannot start until ``before`` completes."""
        if before.id == after.id:
            raise ValueError(f"task #{before.id} cannot depend on itself")
        if before.id not in after.deps:
            after.deps.add(before.id)
            before.successors.add(after.id)

    # -- queries ----------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self):
        return iter(self.tasks)

    def n_edges(self) -> int:
        return sum(len(t.deps) for t in self.tasks)

    def kind_counts(self) -> Counter:
        return Counter(t.kind for t in self.tasks)

    def total_work(self, cost_attr: str = "seconds") -> float:
        """Sum of task costs — the 1-worker lower bound."""
        return sum(t.cost(cost_attr) for t in self.tasks)

    def roots(self) -> list[Task]:
        return [t for t in self.tasks if not t.deps]

    def topological_order(self) -> list[Task]:
        """Kahn topological order; raises on cycles."""
        indeg = {t.id: len(t.deps) for t in self.tasks}
        stack = [t for t in self.tasks if indeg[t.id] == 0]
        out: list[Task] = []
        while stack:
            t = stack.pop()
            out.append(t)
            for s in t.successors:
                indeg[s] -= 1
                if indeg[s] == 0:
                    stack.append(self.tasks[s])
        if len(out) != len(self.tasks):
            raise ValueError("task graph contains a cycle")
        return out

    def critical_path(self, cost_attr: str = "seconds") -> float:
        """Longest path cost — the infinite-worker lower bound."""
        longest: dict[int, float] = {}
        for t in self.topological_order():
            base = max((longest[d] for d in t.deps), default=0.0)
            longest[t.id] = base + t.cost(cost_attr)
        return max(longest.values(), default=0.0)

    def bottom_levels(self, cost_attr: str = "seconds") -> dict:
        """Longest path from each task to a sink, including its own cost.

        The classic list-scheduling *bottom level* ``b(t) = cost(t) +
        max(b(s) for s in successors)``: tasks on the critical path carry the
        largest values, so scheduling by decreasing bottom level keeps the
        critical path moving ahead of bulk trailing updates.  Returns a
        ``task id -> level`` map; ``max`` of the values equals
        :meth:`critical_path`.
        """
        levels: dict[int, float] = {}
        for t in reversed(self.topological_order()):
            below = max((levels[s] for s in t.successors), default=0.0)
            levels[t.id] = below + t.cost(cost_attr)
        return levels

    def validate(self) -> None:
        """Check edge symmetry and acyclicity (cheap structural audit).

        Every executor run audits its graph, so the common case is one pass:
        each dependency must be mirrored as a successor, the two edge counts
        must agree (so no successor lacks its dependency), and when every
        edge points from a lower id to a higher one — all an STF section can
        produce — submission order is a topological order and no cycle
        exists.  Only a graph with a backward edge pays for Kahn's algorithm.
        """
        tasks = self.tasks
        forward = True
        n_succ = 0
        for t in tasks:
            tid = t.id
            n_succ += len(t.successors)
            for d in t.deps:
                if tid not in tasks[d].successors:
                    raise ValueError(f"asymmetric edge {d} -> {tid}")
                if d >= tid:
                    forward = False
        if n_succ != self.n_edges():
            for t in tasks:
                for s in t.successors:
                    if t.id not in tasks[s].deps:
                        raise ValueError(f"asymmetric edge {t.id} -> {s}")
        if not forward:
            self.topological_order()  # raises on cycles

    # -- exports -------------------------------------------------------------------
    def to_networkx(self):
        """Export to a networkx DiGraph (optional dependency)."""
        import networkx as nx

        g = nx.DiGraph()
        for t in self.tasks:
            g.add_node(t.id, kind=t.kind, seconds=t.seconds, priority=t.priority)
        for t in self.tasks:
            for d in t.deps:
                g.add_edge(d, t.id)
        return g

    def to_dot(self, max_tasks: int = 500) -> str:
        """GraphViz DOT text (small graphs only; Figure 1 style)."""
        from .kinds import kind_color

        if len(self.tasks) > max_tasks:
            raise ValueError(f"graph too large for DOT export ({len(self.tasks)} tasks)")
        lines = ["digraph tasks {", "  rankdir=TB;"]
        for t in self.tasks:
            color = kind_color(t.kind)
            label = t.label or f"{t.kind}#{t.id}"
            label = label.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  t{t.id} [label="{label}", color={color}];')
        for t in self.tasks:
            for d in t.deps:
                lines.append(f"  t{d} -> t{t.id};")
        lines.append("}")
        return "\n".join(lines)
