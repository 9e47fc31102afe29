"""The factorisation graph, recorded once per block structure.

What :mod:`repro.core.sweep` did for the substitution, applied to the
factorisation (the recording mode of Börm, Christophersen & Kriemann,
1911.07531): everything the expanders of :mod:`repro.core.nested` read — node
shapes, child grids, leaf kinds — is fixed by the clustering, never by the
numbers in the tiles.  So the task graph of one (block structure, method,
:class:`~repro.runtime.NestedPolicy`; ``None`` is the opaque tile graph, the
recursion cut off at the tile) is derived once, kept with the payloads taken
out, and run by every factorisation (eager is a one-worker run):

* :func:`record` runs today's ``tiled_getrf_tasks``/``tiled_potrf_tasks`` on a
  deferred engine — the expanders plus the engine's leaf-cell inference
  stay the only place the graph is *derived* — and flattens the result into a
  :class:`FactorProgram`: per task its kind, kernel variant, label and
  priority, its operands and accesses as integer *slots*, its dependency and
  successor lists, and the expansion ranges;
* every in-process factorisation runs a program from its arrays
  (:func:`_bind`): the bind resolves the slots to this descriptor's nodes (one walk); task ``t``
  is the id ``t``, its kernel resolved at dispatch, its indegree a CSR count,
  its successors a sorted ``int32`` slice — the
  :class:`~repro.runtime.ready.Lowered` form the ready front runs: eager on
  one worker, threaded on several, race-checked on one with
  :meth:`RaceChecker.watch <repro.runtime.RaceChecker.watch>` bracketing its
  ``execute``;
* :func:`instantiate` describes a program on a descriptor as an ordinary
  :class:`~repro.runtime.TaskGraph`: handles, accesses, edges, flops (a
  subtask's rank-dependent) and each task's
  :class:`~repro.runtime.TaskSpec`, but no kernel.  It is what
  :attr:`FactorizationInfo.graph <repro.core.solver.FactorizationInfo.graph>`
  calls on first read, after the run, what a process run (its workers run
  each task's spec) binds up front to run, and what a race-checked run's
  checker reads each task's accesses from;
* :func:`announce` tells the ambient probe, before a run, every task the
  run will execute — what ``insert_task`` would have announced — with the
  flops :func:`bound_flops` binds on the ranks the kernels start from;
* :func:`program_for` keeps the programs in a small process-wide table
  (:data:`MAX_PROGRAMS`, least recently used out), keyed by
  :func:`structure_key`.

A *slot* is the position of a node in :func:`_walk`'s order over the tiles'
block trees; slot ``s``'s parent is ``slot_parent[s]`` (``-1`` for a tile
root) and ``slot_pos[s]`` its child index there (the tile's grid position for
a root).  A bound graph links handles child → parent only (all
:mod:`~repro.runtime.racecheck` reads), so it holds no reference cycle and a
dropped factorisation is freed by reference counting.
"""

from __future__ import annotations

import operator
import threading
from collections import OrderedDict
from itertools import chain

import numpy as np

from ..hmatrix.arithmetic import kernel_flops, run_kernel
from ..obs.instrument import current as _current_probe
from ..runtime import AccessMode, NestedPolicy, NestedStats, StfEngine, TaskGraph
from ..runtime.expand import ExpansionRecord
from ..runtime.ready import Lowered
from ..runtime.stf import announce_task, payload_footprint
from ..runtime.task import DataHandle, Task
from .algorithms import tiled_getrf_tasks, tiled_potrf_tasks
from .descriptor import TileHDesc
from .nested import _nested_spec

__all__ = [
    "MAX_PROGRAMS",
    "FactorProgram",
    "structure_key",
    "record",
    "instantiate",
    "task_operands",
    "bound_flops",
    "announce",
    "program_for",
]

#: Bound of the process-wide program table (least recently used out).
MAX_PROGRAMS = 8

_MODES = (AccessMode.R, AccessMode.W, AccessMode.RW)
_MODE_CODE = {mode: code for code, mode in enumerate(_MODES)}
_KIND_CODE = {"full": 0, "rk": 1, "h": 2}


def _walk(desc: TileHDesc, method: str) -> tuple[list, list, list]:
    """Every block-tree node the factorisation can reach, parents first.

    Returns ``(nodes, parents, pos)``; the order depends on the trees' shape
    alone, so equal structure keys mean equal slot numbering.  Cholesky
    references the lower tiles only.
    """
    grid, nt = desc.super, desc.nt
    nodes: list = []
    parents: list = []
    pos: list = []
    for i in range(nt):
        for j in range(i + 1 if method == "cholesky" else nt):
            stack = [(grid.get_blktile(i, j).mat, -1, i, j)]
            while stack:
                node, parent, a, b = stack.pop()
                slot = len(nodes)
                nodes.append(node)
                parents.append(parent)
                pos.append((a, b))
                ncol = node.ncol_children
                for idx, child in enumerate(node.children):
                    stack.append((child, slot, idx // ncol, idx % ncol))
    return nodes, parents, pos


def _key(nodes: list, nt: int, method: str, policy: NestedPolicy | None) -> tuple:
    shape = []
    for node in nodes:
        m, n = node.shape
        shape += (m, n, node.nrow_children, node.ncol_children, _KIND_CODE[node.kind])
    # An opaque program keeps its tile kernels' dense-model flops, which read the dtype.
    cut = (policy.min_leaf, policy.coarse) if policy else (None, nodes[0].dtype.char)
    return (nt, method, *cut, tuple(shape))


def structure_key(desc: TileHDesc, method: str, policy: NestedPolicy | None) -> tuple:
    """Exactly what the expanders read, hashable: per reachable tile the tree
    of shapes, child grids and leaf kinds, plus ``nt``, the method and the
    policy's ``min_leaf``/``coarse`` (opaque: the dtype) — never ε or ranks."""
    return _key(_walk(desc, method)[0], desc.nt, method, policy)


class _Recorder(StfEngine):
    """The deferred engine a program is recorded on.  It announces nothing
    to the probe: :func:`announce` tells it the tasks that run."""

    def _announce(self, task: Task) -> None:
        pass


def _csr(rows: list) -> tuple[np.ndarray, np.ndarray]:
    """``rows`` of ints as ``(ptr, flat)``: row ``t`` is ``flat[ptr[t]:ptr[t + 1]]``."""
    ptr = np.zeros(len(rows) + 1, dtype=np.int32)
    np.cumsum(list(map(len, rows)), out=ptr[1:])
    return ptr, np.fromiter(chain.from_iterable(rows), dtype=np.int32, count=int(ptr[-1]))


class FactorProgram:
    """One recorded factorisation graph (opaque if ``policy`` is None), payloads out.

    Flat tuples of atoms and integer arrays only — nothing for the cyclic
    collector to walk, nothing that refers to a tile.  Read-only once made
    and shared freely between threads.
    """

    __slots__ = (
        "key", "method", "policy",
        "kinds", "variants", "units", "flushes", "labels", "priorities", "flops", "paths",
        "op_ptr", "op_slot", "acc_ptr", "acc_code",
        "dep_ptr", "dep_idx", "suc_ptr", "suc_idx",
        "slot_parent", "slot_pos", "handle_slots", "handle_names",
        "rec_kinds", "rec_labels", "rec_bounds",
    )

    def __len__(self) -> int:
        return len(self.kinds)

    @property
    def n_edges(self) -> int:
        return len(self.dep_idx)


def record(desc: TileHDesc, method: str, policy: NestedPolicy | None) -> FactorProgram:
    """Derive the graph of ``desc`` once and flatten it (``policy=None``: opaque).

    The graph is built (and validated) by the tiled algorithm on a deferred
    engine, exactly as a direct caller would get it; its closures are
    dropped, only the structure is kept.
    """
    if method not in ("lu", "cholesky"):
        raise ValueError(f"method must be 'lu' or 'cholesky', got {method!r}")
    nodes, parents, pos = _walk(desc, method)
    tasks_fn = tiled_getrf_tasks if method == "lu" else tiled_potrf_tasks
    engine = _Recorder(mode="deferred", nested=policy)
    graph = tasks_fn(desc, engine, accumulate=False)

    slot_of = {id(node): s for s, node in enumerate(nodes)}
    for s, parent in enumerate(parents):
        if parent < 0:  # a tile handle's payload is the Tile, not its root node
            slot_of[id(desc.super.get_blktile(*pos[s]))] = s
    names: dict[int, str] = {}
    kinds, variants, units, flushes, labels, priorities, flops, paths = [], [], [], [], [], [], [], []
    ops, accs, deps, succs = [], [], [], []
    for task in graph.tasks:
        variant, operands, _eps, unit = task.func.args
        kinds.append(task.kind)
        variants.append(variant)
        units.append(unit)
        flushes.append(task.func.keywords.get("flush", False))
        labels.append(task.label)
        priorities.append(task.priority)
        flops.append(task.flops)
        ops.append([slot_of[id(node)] for node in operands])
        codes = []
        for handle, mode in task.accesses:
            slot = slot_of[id(handle.payload)]
            codes.append(3 * slot + _MODE_CODE[mode])
            while slot not in names:
                names[slot] = handle.name
                handle = handle.parent
                if handle is None:
                    break
                slot = slot_of[id(handle.payload)]
        accs.append(codes)
        deps.append(task.deps)
        succs.append(sorted(task.successors))  # in the order release walks them
        if task.spec is not None:
            paths.append(task.spec.args[1])

    p = FactorProgram()
    p.key = _key(nodes, desc.nt, method, policy)
    p.method, p.policy = method, policy
    p.kinds, p.variants, p.units = tuple(kinds), tuple(variants), tuple(units)
    p.flushes = tuple(flushes)
    p.labels = tuple(labels)
    p.priorities = np.array(priorities, dtype=np.int64)
    p.flops = None if policy else tuple(flops)  # a subtask's read ranks: made at bind
    p.paths = tuple(paths) if paths else None
    p.op_ptr, p.op_slot = _csr(ops)
    p.acc_ptr, p.acc_code = _csr(accs)
    p.dep_ptr, p.dep_idx = _csr(deps)
    p.suc_ptr, p.suc_idx = _csr(succs)
    p.slot_parent = np.array(parents, dtype=np.int32)
    p.slot_pos = np.array(pos, dtype=np.int32).reshape(-1, 2)
    p.handle_slots = np.array(sorted(names), dtype=np.int32)
    p.handle_names = tuple(names[s] for s in sorted(names))
    records = engine.nested_stats.records if policy else ()
    p.rec_kinds = tuple(r.kind for r in records)
    p.rec_labels = tuple(r.label for r in records)
    p.rec_bounds = np.array([(r.start, r.stop) for r in records], dtype=np.int32).reshape(-1, 2)
    return p


def instantiate(program: FactorProgram, desc: TileHDesc) -> tuple[TaskGraph, NestedStats | None]:
    """Describe ``program`` on the tiles of ``desc``: a graph that runs nothing.

    Field by field what the recorder's engine would have built on ``desc``
    (kind, label, priority, flops, accesses, edges, expansion records, and a
    process spec where the recorder had one, at ``desc.eps``) — with this
    descriptor's nodes in the accesses and its ranks in a subtask's flops —
    but no kernel: every run executes :func:`_bind`'s program, or (a process
    run) the specs.
    """
    nodes = _walk(desc, program.method)[0]
    if _key(nodes, desc.nt, program.method, program.policy) != program.key:
        raise ValueError(
            "the descriptor's block structure is not the structure this "
            "program is keyed by; get the program from program_for(desc, ...)"
        )
    grid = desc.super
    slot_parent = program.slot_parent.tolist()
    handles: dict[int, DataHandle] = {}
    pairs: dict[int, tuple] = {}
    for s, name in zip(program.handle_slots.tolist(), program.handle_names):
        parent = slot_parent[s]
        if parent < 0:
            handle = DataHandle(name, grid.get_blktile(*program.slot_pos[s].tolist()))
        else:
            handle = DataHandle(name, nodes[s])
            handle.parent = handles[parent]
        handles[s] = handle
        for c, mode in enumerate(_MODES):
            pairs[3 * s + c] = (handle, mode)

    # One gather each resolves every access of the graph (and every operand,
    # for the flops); a task's share is then a slice (of a tuple: already the
    # tuple it keeps).
    flops = bound_flops(program, task_operands(program, nodes))
    accesses = tuple(map(pairs.__getitem__, program.acc_code.tolist()))
    deps, succs = program.dep_idx.tolist(), program.suc_idx.tolist()
    acc_ptr = program.acc_ptr.tolist()
    dep_ptr, suc_ptr = program.dep_ptr.tolist(), program.suc_ptr.tolist()
    paths, eps = program.paths, desc.eps
    graph = TaskGraph()
    tasks = graph.tasks
    for t, (kind, variant, unit, label, priority) in enumerate(
        zip(program.kinds, program.variants, program.units, program.labels,
            program.priorities.tolist())
    ):
        task = Task(
            t,
            kind,
            accesses[acc_ptr[t]:acc_ptr[t + 1]],
            priority,
            0.0,
            flops[t],
            None,
            set(deps[dep_ptr[t]:dep_ptr[t + 1]]),
            set(succs[suc_ptr[t]:suc_ptr[t + 1]]),
            label,
        )
        if paths is not None:
            task.spec = _nested_spec(variant, paths[t], eps, unit)
        tasks.append(task)
    return graph, _nested_stats(program)


def task_operands(program: FactorProgram, nodes: list) -> list:
    """Each task's operands among ``nodes`` (its slots, as :func:`_lookup`
    returns them), one tuple per task in kernel-argument order."""
    operands = tuple(map(nodes.__getitem__, program.op_slot.tolist()))
    ptr = program.op_ptr.tolist()
    return [operands[ptr[t]:ptr[t + 1]] for t in range(len(program))]


def bound_flops(program: FactorProgram, operands: list) -> tuple | list:
    """Each task's modelled flops on ``operands`` (:func:`task_operands`) as
    they stand: an opaque program's recorded ones, or
    :func:`~repro.hmatrix.arithmetic.kernel_flops` of each subtask on the
    ranks it would start from, taken before a run."""
    if program.flops is not None:
        return program.flops
    return [kernel_flops(v, ops) for v, ops in zip(program.variants, operands)]


def announce(program: FactorProgram, nodes: list) -> None:
    """Tell the ambient probe, if any, every task of ``program`` on ``nodes``
    (its slots, as :func:`_lookup` returns them) — kind, flops and operand
    footprint, field by field what ``insert_task`` would have announced.

    Called before the run, so the flops (:func:`bound_flops`) count the
    ranks the kernels start from.  Nothing runs in between, so each
    operand's footprint is taken once.
    """
    probe = _current_probe()
    if probe is None:
        return
    flops = bound_flops(program, task_operands(program, nodes))
    slots = (program.acc_code // 3).tolist()
    footprint = {s: payload_footprint(nodes[s]) for s in set(slots)}
    acc_ptr = program.acc_ptr.tolist()
    for t, kind in enumerate(program.kinds):
        announce_task(probe, kind, flops[t],
                      [footprint[s] for s in slots[acc_ptr[t]:acc_ptr[t + 1]]])


def _nested_stats(program: FactorProgram) -> NestedStats | None:
    """The expansion accounting the recorder's engine kept, rebuilt (opaque: ``None``)."""
    if program.policy is None:
        return None
    return NestedStats(
        program.policy,
        [
            ExpansionRecord(kind, label, start, stop)
            for kind, label, (start, stop) in zip(
                program.rec_kinds, program.rec_labels, program.rec_bounds.tolist()
            )
        ],
    )


def _bind(program: FactorProgram, nodes: list, eps: float, acc=None) -> Lowered:
    """``program`` as the ready front runs it on ``nodes`` (its slots, in
    :func:`_walk`'s order, which :func:`_lookup` returns with the program),
    deferring updates through ``acc`` (an
    :class:`~repro.hmatrix.UpdateAccumulator`) when one is given: the one
    executable form of an eager, threaded or race-checked factorisation.

    Task ``t`` is the id ``t``; its kernel is resolved at dispatch on its
    :func:`task_operands`; its indegree and successors are the program's CSR
    arrays.  No :class:`~repro.runtime.Task`, handle, set, closure or flop is
    made.
    """
    operands = task_operands(program, nodes)
    variants, units, flushes = program.variants, program.units, program.flushes

    def execute(t: int) -> None:
        run_kernel(variants[t], operands[t], eps, units[t], acc, flush=flushes[t])

    low = Lowered()
    low.items, low.ident, low.execute = range(len(program)), operator.index, execute
    low.kinds = program.kinds
    low.priorities = program.priorities.tolist()
    low.indegree = np.diff(program.dep_ptr).tolist()
    low.suc_ptr, low.suc = program.suc_ptr.tolist(), program.suc_idx.tolist()
    return low


_programs: "OrderedDict[tuple, FactorProgram]" = OrderedDict()
_programs_lock = threading.Lock()


def program_for(desc: TileHDesc, method: str, policy: NestedPolicy | None) -> FactorProgram:
    """The program of ``desc``'s structure: from the table, or recorded now.

    Recording runs outside the lock — two threads meeting the same new
    structure both record, the programs are interchangeable and one is kept.
    The ambient probe counts the lookup as a hit or a miss.
    """
    return _lookup(desc, method, policy)[0]


def _lookup(
    desc: TileHDesc, method: str, policy: NestedPolicy | None
) -> tuple[FactorProgram, list]:
    """:func:`program_for`, plus ``desc``'s nodes in slot order (the walk
    that keyed the lookup, ready for :func:`_bind`)."""
    nodes = _walk(desc, method)[0]
    key = _key(nodes, desc.nt, method, policy)
    with _programs_lock:
        program = _programs.get(key)
        if program is not None:
            _programs.move_to_end(key)
    probe = _current_probe()
    if probe is not None:
        probe.factor_program_lookup(program is not None)
    if program is None:
        program = record(desc, method, policy)
        with _programs_lock:
            _programs[key] = program
            _programs.move_to_end(key)
            while len(_programs) > MAX_PROGRAMS:
                _programs.popitem(last=False)
    return program, nodes
