"""Sequential-task-flow engine (StarPU's submission model).

``insert_task`` mirrors ``starpu_task_insert``: a kernel plus ``(handle,
mode)`` accesses.  Dependencies are inferred from the access sequence, on
the leaf *cells* under each access — the leaves of an H-matrix payload (a
tile or a block-tree node), or the handle's data as one cell.  A task's
modes merge per cell, a write winning; then per cell:

* a reader depends on the cell's last writer;
* a writer depends on the last writer *and* every reader since then.

So a whole-tile task and a subtask on a sub-block of that tile conflict
exactly where their leaves meet, with no handle hierarchy to walk.

``insert_task`` only records: it infers the task's edges, announces it and
stores its kernel.  ``wait_all`` closes the section, and the mode says what
then runs it:

* ``eager`` (default) — the calling thread, as the one leased worker of a
  :class:`~repro.runtime.threaded.ThreadedExecutor` that measures each task's
  cost for the simulator (into ``task.seconds``; every task of an eager
  section has a kernel), with :meth:`RaceChecker.watch
  <repro.runtime.racecheck.RaceChecker.watch>` bracketing the lowered
  section's ``execute`` when the engine checks;
* ``deferred`` — nothing: the graph is returned unrun, for any executor.
"""

from __future__ import annotations

from typing import Any, Callable

from ..obs.instrument import current as _current_probe
from .dag import TaskGraph
from .expand import NestedPolicy, NestedStats
from .racecheck import RaceChecker
from .ready import _lower
from .task import AccessMode, DataHandle, Task
from .threaded import ThreadedExecutor

__all__ = ["StfEngine", "announce_task", "payload_footprint"]


def payload_footprint(payload: Any) -> tuple[int, int]:
    """Best-effort ``(bytes, rank)`` estimate of one operand payload.

    Dense arrays report ``nbytes`` and rank 0; H-matrix objects (``HMatrix``,
    ``RkMatrix``, tile wrappers exposing ``.mat``) report their compressed
    storage and maximum block rank.  Unknown payloads report ``(0, 0)``.
    """
    mat = getattr(payload, "mat", None)
    if mat is not None:  # Tile-like wrapper around an H-matrix
        payload = mat
    nbytes = getattr(payload, "nbytes", None)
    if nbytes is not None:  # ndarray-like
        return int(nbytes), 0
    storage = getattr(payload, "storage", None)
    if callable(storage):
        try:
            entries = int(storage())
        except Exception:
            return 0, 0
        itemsize = 8
        rank = 0
        max_rank = getattr(payload, "max_rank", None)
        if callable(max_rank):
            try:
                rank = int(max_rank())
            except Exception:
                rank = 0
        else:
            rank = int(getattr(payload, "rank", 0) or 0)
        return entries * itemsize, rank
    return 0, 0


def _cells(handle: DataHandle) -> list | tuple:
    """The cells an access to ``handle`` covers: the leaves of an H-matrix
    payload (a tile's ``.mat`` or a block-tree node), else the handle's own
    data as one cell."""
    payload = handle.payload
    leaf_index = getattr(getattr(payload, "mat", payload), "leaf_index", None)
    if leaf_index is None:
        return (handle,)
    return [leaf for leaf, _, _ in leaf_index()]


def announce_task(probe, kind: str, flops: float, footprints) -> None:
    """Tell ``probe`` one task of ``kind`` entered a graph: its flops, and from
    its operands' :func:`payload_footprint` pairs the total bytes and the
    largest rank.  The one place the ``task_submitted`` event is built —
    :meth:`StfEngine.insert_task` and the program announcer of
    :mod:`repro.core.factor_program` both report through it."""
    probe.task_submitted(
        kind,
        flops,
        sum(nbytes for nbytes, _ in footprints),
        max((rank for _, rank in footprints), default=0),
    )


class StfEngine:
    """Builds a :class:`TaskGraph` from sequential task submissions.

    ``racecheck`` enables the runtime access-mode race detector: ``True``
    installs a default strict :class:`~repro.runtime.racecheck.RaceChecker`,
    or pass a configured checker instance.  When enabled, newly registered
    handles are screened for memory aliasing and an eager section runs under
    :meth:`RaceChecker.watch <repro.runtime.racecheck.RaceChecker.watch>`,
    whose payload fingerprints verify each kernel's declared R/W/RW modes.

    ``nested`` enables nested task expansion: a
    :class:`~repro.runtime.expand.NestedPolicy` makes ``insert_task`` honour
    the ``expander`` argument — instead of submitting the opaque task, the
    expander walks the operand's block tree and submits a subgraph of
    finer-grain subtasks (recorded in :attr:`nested_stats`).  Subtasks may
    declare accesses on *sub-block* handles created with :meth:`subhandle`;
    dependency inference orders every access on the leaves under it, so
    opaque whole-tile tasks and expanded sub-block tasks interleave
    correctly in one graph.
    """

    def __init__(
        self,
        mode: str = "eager",
        *,
        racecheck: bool | RaceChecker = False,
        nested: NestedPolicy | None = None,
    ) -> None:
        if mode not in ("eager", "deferred"):
            raise ValueError(f"mode must be 'eager' or 'deferred', got {mode!r}")
        self.mode = mode
        self.graph = TaskGraph()
        self._section = 0  # id of the open section's first task
        self._handles: dict[int, DataHandle] = {}
        # Per leaf cell of the open section: the ids of its last writer and
        # of its readers since.
        self._writer: dict[Any, int] = {}
        self._readers: dict[Any, list[int]] = {}
        self.racecheck = RaceChecker() if racecheck is True else racecheck or None
        self.nested = nested
        self.nested_stats = NestedStats(nested) if nested is not None else None

    # -- handle management -------------------------------------------------
    def handle(self, payload: Any, name: str = "") -> DataHandle:
        """Get-or-create the handle registered for ``payload`` (by identity)."""
        return self.subhandle(None, payload, name)

    def handle_of(self, payload: Any) -> DataHandle | None:
        """The handle already registered for ``payload``, or ``None`` — lets a
        caller that registers the same payload many times build the handle's
        name only when it is about to be created."""
        return self._handles.get(id(payload))

    def subhandle(self, parent: DataHandle | None, payload: Any, name: str = "") -> DataHandle:
        """Get-or-create a handle for a sub-block of ``parent``'s payload
        (``parent=None``: a handle of its own, as :meth:`handle` makes).

        The new handle links up to ``parent``: the racecheck aliasing screen
        exempts the two, whose data overlap by construction (the inference
        needs no link, it finds the overlap in the shared leaves).
        Re-registering the same payload returns the existing handle without
        re-linking.
        """
        key = id(payload)
        h = self._handles.get(key)
        if h is None:
            h = DataHandle(name=name, payload=payload)
            h.parent = parent
            self._handles[key] = h
            if self.racecheck is not None:
                self.racecheck.register_handle(h)
        return h

    @property
    def n_handles(self) -> int:
        return len(self._handles)

    # -- submission -----------------------------------------------------------
    def insert_task(
        self,
        kind: str,
        func: Callable[[], Any] | None,
        accesses: list[tuple[DataHandle, AccessMode]],
        *,
        priority: int = 0,
        flops: float = 0.0,
        label: str = "",
        spec=None,
        expander: Callable[["StfEngine"], Any] | None = None,
    ) -> Task | None:
        """Record one task; returns the created graph node.

        ``func`` runs when the section does (see :meth:`wait_all`), and the
        run measures its cost into the returned task's ``seconds``.  ``spec``
        optionally attaches a declarative, picklable kernel description for
        process executors.

        ``expander`` marks the task as *expandable*: when the engine was
        built with a nested policy, the expander is called instead of the
        opaque submission and replaces this task with a subgraph of
        finer-grain subtasks (each submitted through ``insert_task`` without
        an expander).  The subtasks inherit ``priority``; the expansion is
        recorded in :attr:`nested_stats` and ``None`` is returned (there is
        no single graph node to hand back).  Without a nested policy the
        expander is ignored and the task submits opaquely.
        """
        if expander is not None and self.nested is not None:
            start = len(self.graph.tasks)
            expander(self)
            stop = len(self.graph.tasks)
            for sub in self.graph.tasks[start:stop]:
                sub.priority = priority
            self.nested_stats.record(kind, label, start, stop)
            return None
        task = self.graph.new_task(
            kind,
            accesses=tuple(accesses),
            priority=priority,
            flops=flops,
            label=label,
        )
        task.spec = spec
        task.func = func
        self._infer_dependencies(task)
        self._announce(task)
        return task

    def _announce(self, task: Task) -> None:
        probe = _current_probe()
        if probe is not None:
            footprints = [payload_footprint(h.payload) for h, _ in task.accesses]
            announce_task(probe, task.kind, task.flops, footprints)

    def _infer_dependencies(self, task: Task) -> None:
        # One access covers the leaf cells under it; the task's modes merge
        # per cell, a write winning, and each cell orders its own accesses.
        writes: dict = {}
        for handle, mode in task.accesses:
            write = mode.writes
            for cell in _cells(handle):
                if write or cell not in writes:
                    writes[cell] = write
        deps: set[int] = set()
        writer_of, readers = self._writer, self._readers
        for cell, write in writes.items():
            writer = writer_of.get(cell)
            if writer is not None:
                deps.add(writer)
            if write:
                deps.update(readers.pop(cell, ()))
                writer_of[cell] = task.id
            else:
                readers.setdefault(cell, []).append(task.id)
        tasks = self.graph.tasks
        for d in deps:
            self.graph.add_dependency(tasks[d], task)

    def wait_all(self) -> TaskGraph:
        """Finish the STF section and return the (validated) DAG.

        An eager engine runs the section — its own tasks only; the returned
        graph is every section's — on ``ThreadedExecutor(1,
        interpreter_bound=True)`` (under its checker's ``watch``, if any), so
        a kernel's exception raises from here; the run measures each task's
        seconds and drops its kernel.

        The engine forgets each cell's last writer and readers: that state
        serves only the inference of the section just finished.  Tasks
        submitted afterwards start a new section and take no edge from this
        one, and the engine holds no task of it: a dropped graph is freed by
        reference counting (nothing links a handle back to a task, or a
        handle down to its sub-blocks).
        """
        graph = self.graph
        self._writer.clear()
        self._readers.clear()
        graph.validate()
        start, self._section = self._section, len(graph.tasks)
        if self.mode == "deferred":
            return graph
        section = _lower(graph, start)
        if self.racecheck is not None:
            self.racecheck.watch(section, section.items)
        try:
            ThreadedExecutor(1, interpreter_bound=True).run(section)
        finally:
            for task in section.items:
                task.func = None
        return graph
