"""Tasks, data handles, and access modes (the StarPU data model).

A :class:`DataHandle` stands for one piece of user data (a tile, an H-matrix
node).  Tasks declare ``(handle, mode)`` accesses at submission; the STF
engine derives dependencies from those declarations exactly like StarPU does,
so "all the algorithms ... work out of the box" once kernels exist — the
property the paper's Structure 2 is designed to preserve.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

__all__ = ["AccessMode", "DataHandle", "Task"]


class AccessMode(Enum):
    """Data access declared for one task operand (StarPU's R/W/RW)."""

    R = "R"
    W = "W"
    RW = "RW"

    def __init__(self, code: str) -> None:
        # Plain member attributes: dependency inference reads them ~20 times
        # per task, which a property pays for as a Python call each time.
        self.reads: bool = code != "W"
        self.writes: bool = code != "R"


_handle_counter = itertools.count()


class DataHandle:
    """Runtime identity of one piece of data.

    Dependency state (last writer / readers since last write) lives on the
    handle, which makes STF inference O(accesses) per task.

    A handle may be *hierarchical*: ``parent``/``children`` link it to
    handles covering enclosing/enclosed data (a tile and its H-block-tree
    sub-nodes, registered through
    :meth:`~repro.runtime.stf.StfEngine.subhandle`).  The STF inference
    treats an access to any handle as conflicting with accesses to every
    handle in its family (ancestors and descendants), which is what lets
    nested-task expansions declare sub-block accesses while opaque tasks
    keep declaring whole-tile accesses.
    """

    __slots__ = ("id", "name", "payload", "last_writer", "readers", "parent", "children")

    def __init__(self, name: str = "", payload: Any = None) -> None:
        self.id = next(_handle_counter)
        self.name = name or f"data{self.id}"
        self.payload = payload
        self.last_writer: "Task | None" = None
        self.readers: list["Task"] = []
        self.parent: "DataHandle | None" = None
        self.children: list["DataHandle"] = []

    def reset(self) -> None:
        """Forget dependency state (new STF section); hierarchy is kept."""
        self.last_writer = None
        self.readers = []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"DataHandle({self.name!r})"


@dataclass
class Task:
    """One node of the task graph.

    Attributes
    ----------
    id:
        Dense index within its :class:`~repro.runtime.dag.TaskGraph`.
    kind:
        Kernel family ("getrf", "trsm", "gemm", ...); drives priorities and
        reporting.
    accesses:
        Declared ``(handle, mode)`` pairs.
    priority:
        Larger runs earlier under priority-aware schedulers.
    seconds:
        Measured sequential execution time (the simulator's default cost).
    flops:
        Modelled arithmetic work (the deterministic alternative cost).
    func:
        The kernel closure; ``None`` once executed eagerly (STF mode) or for
        replayed/traced tasks.
    spec:
        Optional declarative kernel description (a
        :class:`~repro.runtime.process.TaskSpec`) that a process executor can
        ship to a worker; ``None`` when the task only has an in-process
        closure.
    """

    id: int
    kind: str
    accesses: tuple = ()
    priority: int = 0
    seconds: float = 0.0
    flops: float = 0.0
    func: Callable[[], Any] | None = None
    deps: set = field(default_factory=set)
    successors: set = field(default_factory=set)
    label: str = ""
    spec: Any | None = None

    @property
    def n_deps(self) -> int:
        return len(self.deps)

    def cost(self, attr: str = "seconds") -> float:
        """Cost under the named model ("seconds" or "flops")."""
        if attr == "seconds":
            return self.seconds
        if attr == "flops":
            return self.flops
        raise ValueError(f"unknown cost attribute {attr!r}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Task(#{self.id} {self.kind} prio={self.priority})"

    def __hash__(self) -> int:
        return self.id

    def __eq__(self, other) -> bool:
        return isinstance(other, Task) and other.id == self.id
