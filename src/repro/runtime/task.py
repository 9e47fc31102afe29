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

    A handle carries no dependency state: the STF engine orders accesses on
    the leaf *cells* under each handle's payload (an H-matrix's leaves, or an
    array as one cell).  ``parent`` links a sub-block handle to the handle of
    the data enclosing it (a tile and its H-block-tree sub-nodes, registered
    through :meth:`~repro.runtime.stf.StfEngine.subhandle`); the race
    checker's aliasing screen and the factor program's handle names read it.
    """

    __slots__ = ("id", "name", "payload", "parent")

    def __init__(self, name: str = "", payload: Any = None) -> None:
        self.id = next(_handle_counter)
        self.name = name or f"data{self.id}"
        self.payload = payload
        self.parent: "DataHandle | None" = None

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
        The kernel closure an executor runs; ``None`` once an eager STF
        section ran it, and in a graph that only describes (a deferred
        engine's kernel-less tasks, a factor program's bound graph), which
        is simulated, never run.
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
