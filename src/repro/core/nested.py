"""Nested expansion of Tile-H kernels into sub-block task graphs.

The expander reads the same rules the eager kernels of
:mod:`repro.hmatrix.arithmetic` run (:mod:`repro.hmatrix.rules`): it walks a
tile's block tree exactly where the eager kernel recurses — same terminal
test, same steps, same order, because it is the same ``split`` — and submits
one subtask per place the recursion stops: a true leaf kernel or, below the
:class:`~repro.runtime.expand.NestedPolicy` ``min_leaf`` cutoff (the one thing
an expansion adds to the recursion), an opaque subtask running the ordinary
recursive kernel on that node.  Because the grouping never changes which
arithmetic runs or in what sequential order, an expanded factorisation is
bit-identical to the opaque one while the scheduler sees *through* the tile:
panel TRSMs on disjoint sub-blocks, and trailing GEMMs on sub-blocks already
updated, run concurrently instead of serialising behind one giant task —
the fix 1906.00874/1911.07531 apply to the HMAT-vs-Tile-H crossover.

A subtask's task kind, and which operand it declares RW (the one its
:data:`~repro.hmatrix.rules.VARIANTS` row marks written; the others are R),
come from the variant's row; its modelled flops are
:func:`~repro.hmatrix.arithmetic.kernel_flops` on its operands, the model the
traced eager kernels report.  The accesses come in two granularities
(``NestedPolicy.coarse``):

* *fine* (eager/threaded) — each subtask declares R/RW on sub-block
  handles (``StfEngine.subhandle``); the engine orders every access on the
  leaves under it, which wires the fine-grain dependencies.
* *coarse* (process) — subtasks declare whole-tile accesses, because the
  process executor's per-handle shared-memory shipping assumes disjoint
  handles.  Subtasks of one tile then serialise, but each carries a
  picklable :class:`~repro.runtime.process.TaskSpec` (``_op_nested``
  navigates child-index paths from the shipped tile payloads), so results
  stay bit-identical; the fine-grain parallelism claims are made on the
  simulated graph.

The ``packed_lu`` cache rides along as a rule step: ``getrf`` on a node at
or below ``_PACK_TRI_MAX`` and ``potrf`` on one end with ``pack``, and the
panel solves read the pack.  With an accumulator the pack also flushes its
node (see :data:`repro.hmatrix.rules._PACK`).  An expanded diagonal
therefore gets an explicit ``pack`` subtask (RW on the node —
racecheck-neutral, since ``packed_lu`` is excluded from payload
fingerprints) ordered before any TRSM that reads the factor.
The interior ``c.packed_lu = None`` invalidation of ``hgemm`` needs no
subtask: GEMM targets are trailing blocks that are never packed before
their own factorisation, so the clear is a no-op in the LU/Cholesky flow.
"""

from __future__ import annotations

from functools import partial

from ..hmatrix.arithmetic import kernel_flops, run_kernel
from ..hmatrix.rules import VARIANTS, split
from ..runtime.process import TaskSpec
from ..runtime.task import AccessMode

__all__ = ["expander"]

R, RW = AccessMode.R, AccessMode.RW


# ---------------------------------------------------------------------------
# Subtask execution on process workers
# ---------------------------------------------------------------------------

def _op_nested(payloads, variant, paths, eps, unit=True):
    """Process-executor op: resolve child-index ``paths`` and run the kernel.

    ``paths`` is one ``(payload_index, ((i, j), ...))`` per kernel operand in
    kernel-argument order; each navigates from the shipped tile's H-matrix
    root, so the op works on whatever arena views the worker holds.  With
    empty paths it is the whole-tile kernel.
    """
    nodes = []
    for idx, path in paths:
        node = payloads[idx].mat
        for i, j in path:
            node = node.child(i, j)
        nodes.append(node)
    run_kernel(variant, tuple(nodes), eps, unit)


def _nested_spec(variant: str, paths: tuple, eps: float, unit: bool) -> TaskSpec:
    """The process-executor form of one subtask (see :func:`_op_nested`)."""
    return TaskSpec(
        op="repro.core.nested:_op_nested",
        args=(variant, paths, eps),
        kwargs={"unit": unit} if VARIANTS[variant].unit else {},
    )


# ---------------------------------------------------------------------------
# Expansion machinery
# ---------------------------------------------------------------------------

class _Ref:
    """One H-matrix node plus how tasks address it (handle or tile+path)."""

    __slots__ = ("node", "handle", "tile_handle", "path")

    def __init__(self, node, handle, tile_handle, path) -> None:
        self.node = node
        self.handle = handle
        self.tile_handle = tile_handle
        self.path = path


class _Ctx:
    """Per-expansion state: engine, policy, accuracy, accumulator, base label."""

    __slots__ = ("eng", "policy", "eps", "acc", "label")

    def __init__(self, eng, eps: float, acc, label: str) -> None:
        self.eng = eng
        self.policy = eng.nested
        self.eps = eps
        self.acc = acc
        self.label = label


def _root(ctx: _Ctx, tile_handle) -> _Ref:
    """Root reference of one tile operand (the tile handle itself)."""
    handle = None if ctx.policy.coarse else tile_handle
    return _Ref(tile_handle.payload.mat, handle, tile_handle, ())


def _child(ctx: _Ctx, ref: _Ref, i: int, j: int) -> _Ref:
    """Reference to child ``(i, j)``, registering a sub-handle when fine."""
    node = ref.node.child(i, j)
    path = ref.path + ((i, j),)
    if ctx.policy.coarse:
        handle = None
    else:
        # Most calls revisit a registered sub-block (14 200 references to
        # 1 208 handles at n=2304): the name is built only for a new one.
        handle = ctx.eng.handle_of(node)
        if handle is None:
            handle = ctx.eng.subhandle(ref.handle, node, f"{ref.handle.name}/{i},{j}")
    return _Ref(node, handle, ref.tile_handle, path)


def _pathstr(path) -> str:
    return ".".join(f"{i}{j}" for i, j in path) or "r"


def _submit(ctx: _Ctx, variant: str, refs: list, written: _Ref, flush: bool) -> None:
    """Submit one leaf/opaque subtask on ``refs`` (kernel-argument order)."""
    row = VARIANTS[variant]
    nodes = tuple(r.node for r in refs)
    label = f"{ctx.label}/{variant}@{_pathstr(written.path)}"
    # unit=True: the only unit triangle of either factorisation is the LU's L.
    func = partial(run_kernel, variant, nodes, ctx.eps, True, acc=ctx.acc, flush=flush)
    coarse = ctx.policy.coarse
    # Aggregate accesses (coarse, a subtask may reference several sub-blocks
    # of one tile): first-seen order, mode upgraded to RW if any use writes.
    idx_of: dict[int, int] = {}
    handles: list = []
    held: list = []
    paths: list = []
    for n, r in enumerate(refs):
        m = RW if n == row.written else R
        h = r.tile_handle if coarse else r.handle
        i = idx_of.get(h.id)
        if i is None:
            i = len(handles)
            idx_of[h.id] = i
            handles.append(h)
            held.append(m)
        elif m.writes and not held[i].writes:
            held[i] = RW
        paths.append((i, r.path))
    spec = _nested_spec(variant, tuple(paths), ctx.eps, True) if coarse else None
    ctx.eng.insert_task(
        row.kind,
        func,
        list(zip(handles, held)),
        flops=kernel_flops(variant, nodes),
        label=label,
        spec=spec,
    )


# ---------------------------------------------------------------------------
# The expander
# ---------------------------------------------------------------------------

def _expand(ctx: _Ctx, variant: str, refs: list, flush: bool = False) -> None:
    """Descend where the eager kernel would and the written operand is above
    the granularity cutoff; submit one subtask where either stops.

    A split kernel whose row flushes its node on entry (a factorisation) has
    no entry to flush on, as the eager kernel does: the flush falls to the
    first step writing each child, which passes it on the same way if split
    too (``flush``)."""
    row = VARIANTS[variant]
    written = refs[row.written]
    steps = None
    if min(written.node.shape) > ctx.policy.min_leaf:
        steps = split(variant, tuple(r.node for r in refs))
    if steps is None:
        _submit(ctx, variant, refs, written, flush)
        return
    flush = flush or row.flush
    touched = set()
    for sub, operands in steps:
        w = operands[VARIANTS[sub].written]
        _expand(
            ctx,
            sub,
            [refs[s] if i is None else _child(ctx, refs[s], i, j) for s, i, j in operands],
            flush and w[1] is not None and w not in touched,
        )
        touched.add(w)


def expander(variant: str, handles: tuple, eps: float, label: str, acc=None):
    """What the tiled task layer passes to ``insert_task``: expands kernel
    ``variant`` on the tiles behind ``handles`` (kernel-argument order),
    deferring updates through ``acc`` when one is given."""

    def expand(eng) -> None:
        ctx = _Ctx(eng, eps, acc, label)
        _expand(ctx, variant, [_root(ctx, h) for h in handles])

    return expand
