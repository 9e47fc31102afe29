"""Sequential-task-flow engine (StarPU's submission model).

``insert_task`` mirrors ``starpu_task_insert``: a kernel plus ``(handle,
mode)`` accesses.  Dependencies are inferred from the access sequence:

* a reader depends on the handle's last writer;
* a writer depends on the last writer *and* every reader since then.

``insert_task`` only records: it infers the task's edges, announces it and
stores its kernel.  ``wait_all`` closes the section, and the mode says what
then runs it:

* ``eager`` (default) — the calling thread, as the one leased worker of a
  :class:`~repro.runtime.threaded.ThreadedExecutor` that measures each task's
  cost for the simulator;
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
    dependency inference then treats an access to a handle as conflicting
    with accesses to every handle in its family (ancestors and descendants),
    so opaque whole-tile tasks and expanded sub-block tasks interleave
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

        The new handle is linked into ``parent``'s hierarchy so dependency
        inference knows the two overlap in memory (the racecheck aliasing
        screen exempts related handles for the same reason).  Re-registering
        the same payload returns the existing handle without re-linking.
        """
        key = id(payload)
        h = self._handles.get(key)
        if h is None:
            h = DataHandle(name=name, payload=payload)
            if parent is not None:
                h.parent = parent
                parent.children.append(h)
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
        seconds: float | None = None,
        flops: float = 0.0,
        label: str = "",
        spec=None,
        expander: Callable[["StfEngine"], Any] | None = None,
    ) -> Task | None:
        """Record one task; returns the created graph node.

        ``func`` runs when the section does (see :meth:`wait_all`), and the
        run measures its cost.  An explicit ``seconds`` is the cost of a
        pre-traced task, which passes ``func=None``.  ``spec`` optionally
        attaches a declarative, picklable kernel description for process
        executors.

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
        if seconds is not None:
            task.seconds = seconds
        self._infer_dependencies(task)
        self._announce(task)
        return task

    def _announce(self, task: Task) -> None:
        probe = _current_probe()
        if probe is not None:
            footprints = [payload_footprint(h.payload) for h, _ in task.accesses]
            announce_task(probe, task.kind, task.flops, footprints)

    @staticmethod
    def _family(handle: DataHandle) -> list[DataHandle]:
        """``handle`` plus every ancestor and descendant (overlapping data)."""
        members = [handle]
        p = handle.parent
        while p is not None:
            members.append(p)
            p = p.parent
        stack = list(handle.children)
        while stack:
            c = stack.pop()
            members.append(c)
            stack.extend(c.children)
        return members

    def _infer_dependencies(self, task: Task) -> None:
        # Fast path: no accessed handle is hierarchical (the common case for
        # opaque tile graphs) — conflicts are per-handle.
        if all(h.parent is None and not h.children for h, _ in task.accesses):
            for handle, mode in task.accesses:
                if mode.reads and handle.last_writer is not None:
                    self.graph.add_dependency(handle.last_writer, task)
                if mode.writes:
                    if handle.last_writer is not None:
                        self.graph.add_dependency(handle.last_writer, task)
                    for reader in handle.readers:
                        if reader.id != task.id:
                            self.graph.add_dependency(reader, task)
        else:
            # An access to a handle overlaps every handle in its family, so
            # it conflicts with the outstanding writers/readers of each.
            # The post-state pass below stays local to the accessed handle:
            # a relative's stale last_writer/readers can only produce
            # redundant edges later (covered transitively through the edges
            # added here), never missing ones.
            for handle, mode in task.accesses:
                for member in self._family(handle):
                    if mode.reads and member.last_writer is not None:
                        self.graph.add_dependency(member.last_writer, task)
                    if mode.writes:
                        if member.last_writer is not None:
                            self.graph.add_dependency(member.last_writer, task)
                        for reader in member.readers:
                            if reader.id != task.id:
                                self.graph.add_dependency(reader, task)
        # Second pass so a task reading and writing different handles sees a
        # consistent post-state.
        for handle, mode in task.accesses:
            if mode.writes:
                handle.last_writer = task
                handle.readers = []
            elif mode.reads:
                handle.readers.append(task)

    def wait_all(self) -> TaskGraph:
        """Finish the STF section and return the (validated) DAG.

        An eager engine runs the section — its own tasks only; the returned
        graph is every section's — on ``ThreadedExecutor(1,
        interpreter_bound=True)`` (under its checker's ``watch``, if any), so
        a kernel's exception raises from here; the run measures each task's
        seconds and drops its kernel.

        The handles forget their last writer and readers: that state serves
        only the inference of the section just finished, and kept, it closes
        a reference cycle through every task (task -> accesses -> handle ->
        last writer -> task).  A dropped graph would then wait — with what
        its closures hold: work arrays, a discarded factor — for the cyclic
        collector, whose full pass lands in whichever later call trips it;
        acyclic, it is freed by reference counting the moment it is dropped.
        Tasks submitted afterwards start a new section and take no edge from
        this one.
        """
        graph = self.graph
        for handle in self._handles.values():
            handle.reset()
        graph.validate()
        start, self._section = self._section, len(graph.tasks)
        if self.mode == "deferred":
            return graph
        if self.racecheck is not None:
            self.racecheck.watch(graph)
        section = _lower(graph, start)
        try:
            ThreadedExecutor(1, interpreter_bound=True).run(section)
        finally:
            for task in section.items:
                task.func = None
        return graph
