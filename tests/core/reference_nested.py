"""The hand-written nested expanders and flop estimators, verbatim, for tests only.

Until the ℌ-kernels' recursion became one rule table
(:mod:`repro.hmatrix.rules`) every kernel had its own expander here — seven
loop nests that repeated the eager recursions of ``hmatrix/arithmetic.py``
dispatch condition by dispatch condition — plus two recursive flop estimators
and seven factories.  The library no longer contains them; this module is the
only copy (the body of ``src/repro/core/nested.py`` as of PR 22, imports made
absolute), kept unchanged as the reference the generic expander's graphs are
held to field by field (``test_nested_equivalence.py``).  Below it, to drive
them, the tile-level loop nests of ``core/algorithms.py`` as of PR 22 with
their seven process ops and seven closures (the ops' import path now names
this module).  Do not "fix" or modernise any of it: its value is that it is
what the library used to run.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.dense import flops_gemm, flops_getrf, flops_potrf
from repro.hmatrix.arithmetic import (
    _PACK_TRI_MAX,
    _effective_rank,
    _gemm_flops,
    _trsm_flops,
    hgemm,
    hgemm_transb,
    hgetrf,
    hpotrf,
    run_kernel,
)
from repro.core.algorithms import lu_priorities
from repro.core.descriptor import TileHDesc
from repro.dense import flops_trsm
from repro.hmatrix import UpdateAccumulator, htrsm
from repro.runtime import StfEngine, TaskGraph
from repro.runtime.process import TaskSpec
from repro.runtime.task import AccessMode

__all__ = [
    "getrf_expander",
    "potrf_expander",
    "trsm_left_lower_expander",
    "trsm_right_upper_expander",
    "trsm_right_lower_transpose_expander",
    "gemm_expander",
    "gemm_transb_expander",
    "tiled_getrf_tasks",
    "tiled_potrf_tasks",
]

R, RW = AccessMode.R, AccessMode.RW


# ---------------------------------------------------------------------------
# Leaf-subtask execution (shared by in-process closures and process workers)
# ---------------------------------------------------------------------------

def _run(variant: str, nodes: tuple, eps: float, unit: bool = True) -> None:
    """Run one leaf/opaque subtask kernel on resolved H-matrix nodes."""
    if variant == "getrf":
        hgetrf(nodes[0], eps, None)
    elif variant == "potrf":
        hpotrf(nodes[0], eps, None)
    elif variant == "trsm_ll":
        run_kernel("trsm_ll", (nodes[0], nodes[1]), eps, unit, None)
    elif variant == "trsm_ru":
        run_kernel("trsm_ru", (nodes[0], nodes[1]), eps, False, None)
    elif variant == "trsm_rlt":
        run_kernel("trsm_rlt", (nodes[0], nodes[1]), eps, acc=None)
    elif variant == "gemm":
        hgemm(nodes[0], nodes[1], nodes[2], eps, alpha=-1.0, acc=None)
    elif variant == "gemm_tb":
        hgemm_transb(nodes[0], nodes[1], nodes[2], eps, alpha=-1.0, acc=None)
    elif variant == "pack":
        # F order: LAPACK trtrs takes it copy-free (mirrors hgetrf/hpotrf).
        nodes[0].packed_lu = np.asfortranarray(nodes[0].to_dense())
    else:  # pragma: no cover - guarded by the expanders
        raise ValueError(f"unknown nested kernel variant {variant!r}")


def _op_nested(payloads, variant, paths, eps, unit=True):
    """Process-executor op: resolve child-index ``paths`` and run the kernel.

    ``paths`` is one ``(payload_index, ((i, j), ...))`` per kernel operand in
    kernel-argument order; each navigates from the shipped tile's H-matrix
    root, so the op works on whatever arena views the worker holds.
    """
    nodes = []
    for idx, path in paths:
        node = payloads[idx].mat
        for i, j in path:
            node = node.child(i, j)
        nodes.append(node)
    _run(variant, tuple(nodes), eps, unit)


def _nested_spec(variant: str, paths: tuple, eps: float, unit: bool) -> TaskSpec:
    """The process-executor form of one subtask (see :func:`_op_nested`)."""
    return TaskSpec(
        op="repro.core.nested:_op_nested",
        args=(variant, paths, eps),
        kwargs={"unit": unit} if variant == "trsm_ll" else {},
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
    """Per-expansion state: engine, policy, accuracy, base label."""

    __slots__ = ("eng", "policy", "eps", "label")

    def __init__(self, eng, eps: float, label: str) -> None:
        self.eng = eng
        self.policy = eng.nested
        self.eps = eps
        self.label = label


def _root(ctx: _Ctx, tile_handle) -> _Ref:
    """Root reference of one tile operand (the tile handle itself)."""
    mat = tile_handle.payload.mat
    if mat is None:
        raise RuntimeError(
            f"nested expansion of {ctx.label!r} requires assembled tiles; "
            f"tile {tile_handle.name!r} is still pending — run the assembly "
            "graph before building the nested factorisation graph"
        )
    handle = None if ctx.policy.coarse else tile_handle
    return _Ref(mat, handle, tile_handle, ())


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


def _submit(
    ctx: _Ctx,
    kind: str,
    variant: str,
    refs_modes: list,
    written: _Ref,
    unit: bool = True,
) -> None:
    """Submit one leaf/opaque subtask for ``refs_modes`` (kernel-arg order)."""
    nodes = tuple(r.node for r, _ in refs_modes)
    label = f"{ctx.label}/{variant}@{_pathstr(written.path)}"
    func = partial(_run, variant, nodes, ctx.eps, unit)
    coarse = ctx.policy.coarse
    # Aggregate accesses (a subtask may reference one handle several times,
    # e.g. the SYRK case a.child(i,k) twice, or — coarse — several sub-blocks
    # of one tile): first-seen order, mode upgraded to RW if any use writes.
    idx_of: dict[int, int] = {}
    handles: list = []
    modes: list = []
    paths: list = []
    for r, m in refs_modes:
        h = r.tile_handle if coarse else r.handle
        i = idx_of.get(h.id)
        if i is None:
            i = len(handles)
            idx_of[h.id] = i
            handles.append(h)
            modes.append(m)
        elif m.writes and not modes[i].writes:
            modes[i] = RW
        paths.append((i, r.path))
    spec = _nested_spec(variant, tuple(paths), ctx.eps, unit) if coarse else None
    ctx.eng.insert_task(
        kind,
        func,
        list(zip(handles, modes)),
        flops=_flops(variant, nodes),
        label=label,
        spec=spec,
    )


def _expandable(ctx: _Ctx, node) -> bool:
    """Recurse only above the granularity cutoff (written operand's size)."""
    return not node.is_leaf and min(node.shape) > ctx.policy.min_leaf


# ---------------------------------------------------------------------------
# Flop estimators for opaque (below-cutoff / leaf) subtasks
# ---------------------------------------------------------------------------

def _gemm_flops_tb(a, b) -> float:
    """Rank-aware flop model of ``C += A @ B.T`` without materialising B.T."""
    m, k = a.shape
    n = b.shape[0]
    r = min(_effective_rank(a), _effective_rank(b))
    is_c = a.dtype.kind == "c"
    dense = flops_gemm(m, n, k, is_complex=is_c)
    lowrank = 2.0 * (m + n) * k * r * (4.0 if is_c else 1.0)
    return min(dense, lowrank)


def _est_getrf_flops(node) -> float:
    """Rank-aware cost of an opaque recursive H-GETRF on ``node``."""
    if node.is_leaf:
        return flops_getrf(node.shape[0], is_complex=node.dtype.kind == "c")
    nt = min(node.nrow_children, node.ncol_children)
    total = 0.0
    for k in range(nt):
        kk = node.child(k, k)
        total += _est_getrf_flops(kk)
        for j in range(k + 1, nt):
            total += _trsm_flops(kk, node.child(k, j))
        for i in range(k + 1, nt):
            total += _trsm_flops(kk, node.child(i, k))
        for i in range(k + 1, nt):
            for j in range(k + 1, nt):
                total += _gemm_flops(node.child(i, k), node.child(k, j))
    return total


def _est_potrf_flops(node) -> float:
    """Rank-aware cost of an opaque recursive H-Cholesky on ``node``."""
    if node.is_leaf:
        return flops_potrf(node.shape[0], is_complex=node.dtype.kind == "c")
    nt = min(node.nrow_children, node.ncol_children)
    total = 0.0
    for k in range(nt):
        kk = node.child(k, k)
        total += _est_potrf_flops(kk)
        for i in range(k + 1, nt):
            total += _trsm_flops(kk, node.child(i, k))
        for i in range(k + 1, nt):
            for j in range(k + 1, i + 1):
                total += _gemm_flops_tb(node.child(i, k), node.child(j, k))
    return total


def _flops(variant: str, nodes: tuple) -> float:
    """Modelled cost of one subtask on its resolved operands (the nodes
    :func:`_run` receives) — rank-dependent, so evaluated per set of tiles."""
    if variant == "gemm":
        return _gemm_flops(nodes[1], nodes[2])
    if variant == "gemm_tb":
        return _gemm_flops_tb(nodes[1], nodes[2])
    if variant == "pack":
        return 0.0
    if variant == "getrf":
        return _est_getrf_flops(nodes[0])
    if variant == "potrf":
        return _est_potrf_flops(nodes[0])
    return _trsm_flops(nodes[0], nodes[1])  # trsm_ll / trsm_ru / trsm_rlt


# ---------------------------------------------------------------------------
# Expanders (each mirrors one arithmetic.py recursion exactly)
# ---------------------------------------------------------------------------

def _expand_getrf(ctx: _Ctx, ref: _Ref) -> None:
    node = ref.node
    if (
        node.rk is None
        and node.full is None
        and not node.is_leaf
        and node.nrow_children == node.ncol_children
        and _expandable(ctx, node)
    ):
        nt = node.nrow_children
        for k in range(nt):
            kk = _child(ctx, ref, k, k)
            _expand_getrf(ctx, kk)
            for j in range(k + 1, nt):
                _expand_trsm_ll(ctx, kk, _child(ctx, ref, k, j))
            for i in range(k + 1, nt):
                _expand_trsm_ru(ctx, kk, _child(ctx, ref, i, k))
            for i in range(k + 1, nt):
                for j in range(k + 1, nt):
                    _expand_gemm(
                        ctx,
                        _child(ctx, ref, i, j),
                        _child(ctx, ref, i, k),
                        _child(ctx, ref, k, j),
                    )
        if node.shape[0] <= _PACK_TRI_MAX:
            _submit(ctx, "pack", "pack", [(ref, RW)], ref)
    else:
        _submit(ctx, "getrf", "getrf", [(ref, RW)], ref)


def _expand_potrf(ctx: _Ctx, ref: _Ref) -> None:
    node = ref.node
    if (
        node.rk is None
        and node.full is None
        and not node.is_leaf
        and node.nrow_children == node.ncol_children
        and _expandable(ctx, node)
    ):
        nt = node.nrow_children
        for k in range(nt):
            kk = _child(ctx, ref, k, k)
            _expand_potrf(ctx, kk)
            for i in range(k + 1, nt):
                _expand_trsm_rlt(ctx, kk, _child(ctx, ref, i, k))
            for i in range(k + 1, nt):
                for j in range(k + 1, i + 1):
                    _expand_gemm_tb(
                        ctx,
                        _child(ctx, ref, i, j),
                        _child(ctx, ref, i, k),
                        _child(ctx, ref, j, k),
                    )
        if node.shape[0] <= _PACK_TRI_MAX:
            _submit(ctx, "pack", "pack", [(ref, RW)], ref)
    else:
        _submit(ctx, "potrf", "potrf", [(ref, RW)], ref)


def _expand_trsm_ll(ctx: _Ctx, lref: _Ref, bref: _Ref) -> None:
    l, b = lref.node, bref.node
    if (
        not b.is_leaf
        and not l.is_leaf
        and b.nrow_children == l.nrow_children
        and _expandable(ctx, b)
    ):
        nb = l.nrow_children
        for j in range(b.ncol_children):
            for i in range(nb):
                for p in range(i):
                    _expand_gemm(
                        ctx,
                        _child(ctx, bref, i, j),
                        _child(ctx, lref, i, p),
                        _child(ctx, bref, p, j),
                    )
                _expand_trsm_ll(ctx, _child(ctx, lref, i, i), _child(ctx, bref, i, j))
    else:
        _submit(ctx, "trsm", "trsm_ll", [(lref, R), (bref, RW)], bref)


def _expand_trsm_ru(ctx: _Ctx, uref: _Ref, bref: _Ref) -> None:
    u, b = uref.node, bref.node
    if (
        not b.is_leaf
        and not u.is_leaf
        and b.ncol_children == u.nrow_children
        and _expandable(ctx, b)
    ):
        nb = u.nrow_children
        for i in range(b.nrow_children):
            for j in range(nb):
                for p in range(j):
                    _expand_gemm(
                        ctx,
                        _child(ctx, bref, i, j),
                        _child(ctx, bref, i, p),
                        _child(ctx, uref, p, j),
                    )
                _expand_trsm_ru(ctx, _child(ctx, uref, j, j), _child(ctx, bref, i, j))
    else:
        _submit(ctx, "trsm", "trsm_ru", [(uref, R), (bref, RW)], bref)


def _expand_trsm_rlt(ctx: _Ctx, lref: _Ref, bref: _Ref) -> None:
    l, b = lref.node, bref.node
    if (
        not b.is_leaf
        and not l.is_leaf
        and b.ncol_children == l.nrow_children
        and _expandable(ctx, b)
    ):
        nb = l.nrow_children
        for i in range(b.nrow_children):
            for j in range(nb):
                for p in range(j):
                    # (L^T)_{p j} = L_{j p}^T for p < j.
                    _expand_gemm_tb(
                        ctx,
                        _child(ctx, bref, i, j),
                        _child(ctx, bref, i, p),
                        _child(ctx, lref, j, p),
                    )
                _expand_trsm_rlt(ctx, _child(ctx, lref, j, j), _child(ctx, bref, i, j))
    else:
        _submit(ctx, "trsm", "trsm_rlt", [(lref, R), (bref, RW)], bref)


def _expand_gemm(ctx: _Ctx, cref: _Ref, aref: _Ref, bref: _Ref) -> None:
    c, a, b = cref.node, aref.node, bref.node
    if (
        a.rk is None
        and b.rk is None
        and a.full is None
        and b.full is None
        and not c.is_leaf
        and a.nrow_children == c.nrow_children
        and b.ncol_children == c.ncol_children
        and a.ncol_children == b.nrow_children
        and _expandable(ctx, c)
    ):
        for i in range(c.nrow_children):
            for j in range(c.ncol_children):
                for l in range(a.ncol_children):
                    _expand_gemm(
                        ctx,
                        _child(ctx, cref, i, j),
                        _child(ctx, aref, i, l),
                        _child(ctx, bref, l, j),
                    )
    else:
        _submit(ctx, "gemm", "gemm", [(cref, RW), (aref, R), (bref, R)], cref)


def _expand_gemm_tb(ctx: _Ctx, cref: _Ref, aref: _Ref, bref: _Ref) -> None:
    # Mirrors hgemm(c, a, b.transpose()): the structural transpose swaps the
    # children grid, so the recursion is gemm_tb(c_ij, a_il, b_jl).  Leaf
    # transpose copies are per-leaf identical whether taken at the tile or
    # the sub-block level, so grouping preserves bit-identity here too.
    c, a, b = cref.node, aref.node, bref.node
    if (
        a.rk is None
        and b.rk is None
        and a.full is None
        and b.full is None
        and not c.is_leaf
        and a.nrow_children == c.nrow_children
        and b.nrow_children == c.ncol_children
        and a.ncol_children == b.ncol_children
        and _expandable(ctx, c)
    ):
        for i in range(c.nrow_children):
            for j in range(c.ncol_children):
                for l in range(a.ncol_children):
                    _expand_gemm_tb(
                        ctx,
                        _child(ctx, cref, i, j),
                        _child(ctx, aref, i, l),
                        _child(ctx, bref, j, l),
                    )
    else:
        _submit(ctx, "gemm", "gemm_tb", [(cref, RW), (aref, R), (bref, R)], cref)


# ---------------------------------------------------------------------------
# Expander factories (what the tiled task layer passes to insert_task)
# ---------------------------------------------------------------------------

def getrf_expander(a_handle, eps: float, label: str):
    """Expander for ``hgetrf`` on tile ``a_handle`` (RW)."""

    def expander(eng) -> None:
        ctx = _Ctx(eng, eps, label)
        _expand_getrf(ctx, _root(ctx, a_handle))

    return expander


def potrf_expander(a_handle, eps: float, label: str):
    """Expander for ``hpotrf`` on tile ``a_handle`` (RW)."""

    def expander(eng) -> None:
        ctx = _Ctx(eng, eps, label)
        _expand_potrf(ctx, _root(ctx, a_handle))

    return expander


def trsm_left_lower_expander(l_handle, b_handle, eps: float, label: str):
    """Expander for ``L X = B`` (unit diagonal; the LU U-panel kernel)."""

    def expander(eng) -> None:
        ctx = _Ctx(eng, eps, label)
        _expand_trsm_ll(ctx, _root(ctx, l_handle), _root(ctx, b_handle))

    return expander


def trsm_right_upper_expander(u_handle, b_handle, eps: float, label: str):
    """Expander for ``X U = B`` (the LU L-panel kernel)."""

    def expander(eng) -> None:
        ctx = _Ctx(eng, eps, label)
        _expand_trsm_ru(ctx, _root(ctx, u_handle), _root(ctx, b_handle))

    return expander


def trsm_right_lower_transpose_expander(l_handle, b_handle, eps: float, label: str):
    """Expander for ``X L^T = B`` (the Cholesky panel kernel)."""

    def expander(eng) -> None:
        ctx = _Ctx(eng, eps, label)
        _expand_trsm_rlt(ctx, _root(ctx, l_handle), _root(ctx, b_handle))

    return expander


def gemm_expander(c_handle, a_handle, b_handle, eps: float, label: str):
    """Expander for ``C -= A @ B`` (the LU trailing update)."""

    def expander(eng) -> None:
        ctx = _Ctx(eng, eps, label)
        _expand_gemm(
            ctx, _root(ctx, c_handle), _root(ctx, a_handle), _root(ctx, b_handle)
        )

    return expander


def gemm_transb_expander(c_handle, a_handle, b_handle, eps: float, label: str):
    """Expander for ``C -= A @ B^T`` (the Cholesky SYRK/GEMM update)."""

    def expander(eng) -> None:
        ctx = _Ctx(eng, eps, label)
        _expand_gemm_tb(
            ctx, _root(ctx, c_handle), _root(ctx, a_handle), _root(ctx, b_handle)
        )

    return expander


# ---------------------------------------------------------------------------
# The tile-level loop nests (core/algorithms.py as of PR 22)
# ---------------------------------------------------------------------------

# -- process-executor ops ------------------------------------------------------
# Declarative worker-side kernels (module level so spawn children import
# them): each receives the task's access-list payloads in declared order and
# mutates the written payloads in place.  The update accumulator is never
# engaged here — process runs are accumulate=False by construction, which is
# also what makes them bit-identical to eager runs: successive updates of one
# tile are RW on the same handle, so STF serializes them in submission order.
def _op_getrf(payloads, eps):
    hgetrf(payloads[0].mat, eps, None)


def _op_trsm_left_lower(payloads, eps):
    htrsm("left", "lower", payloads[0].mat, payloads[1].mat, eps,
          unit_diagonal=True, acc=None)


def _op_trsm_right_upper(payloads, eps):
    htrsm("right", "upper", payloads[0].mat, payloads[1].mat, eps, acc=None)


def _op_gemm(payloads, eps):
    hgemm(payloads[2].mat, payloads[0].mat, payloads[1].mat, eps,
          alpha=-1.0, acc=None)


def _op_potrf(payloads, eps):
    hpotrf(payloads[0].mat, eps, None)


def _op_trsm_right_lower_t(payloads, eps):
    run_kernel("trsm_rlt", (payloads[0].mat, payloads[1].mat), eps, acc=None)


def _op_gemm_transb(payloads, eps):
    hgemm_transb(payloads[2].mat, payloads[0].mat, payloads[1].mat, eps,
                 alpha=-1.0, acc=None)


def _spec(op: str, *args, **kwargs) -> TaskSpec:
    return TaskSpec(f"{__name__}:{op}", args=args, kwargs=kwargs)


def tiled_getrf_tasks(
    desc: TileHDesc,
    engine: StfEngine | None = None,
    *,
    eps: float | None = None,
    accumulate: bool = True,
    racecheck: bool = False,
) -> TaskGraph:
    """Factorise ``desc`` in place via the tiled right-looking LU.

    Returns the task graph; with the default eager engine the tiles are
    already factorised when this returns (L and U packed tile-wise: strictly
    lower tiles hold L, the diagonal packs both, upper tiles hold U).

    With ``accumulate=True`` (default) the ``nt - k`` trailing-matrix GEMM
    updates each tile receives are buffered in an
    :class:`~repro.hmatrix.UpdateAccumulator` and rounded once, at the panel
    step that next reads the tile (its GETRF or TRSM).  The flush happens
    inside a task that already declares RW on that tile and that depends on
    every deferred writer, so the declared R/W/RW access modes still cover
    all actual accesses and the inferred DAG stays sound.  The accumulator
    is only engaged on the eager (sequential) engine — simulation-only
    engines never execute kernels, and the buffer is not thread-safe.

    ``racecheck=True`` (ignored when ``engine`` is supplied — configure the
    engine instead) verifies every task's actual memory effects against its
    declared access modes via :class:`~repro.runtime.RaceChecker`.

    On an engine with a nested policy every tile kernel is submitted with
    its :mod:`~repro.core.nested` expander, so kernels on H-structured
    tiles above the granularity cutoff become sub-block subtask DAGs.
    Nested expansion forces ``accumulate=False``-class arithmetic (each
    subtask rounds its own update, like the threaded/process paths), so the
    accumulator is never engaged alongside it.
    """
    eng = engine or StfEngine(mode="eager", racecheck=racecheck)
    eps_ = desc.eps if eps is None else eps
    nt = desc.nt
    grid = desc.super
    is_c = np.issubdtype(grid.dtype, np.complexfloating)
    acc = (
        UpdateAccumulator(eps_)
        if accumulate and eng.mode == "eager" and eng.nested is None
        else None
    )
    if acc is not None and eng.racecheck is not None:
        eng.racecheck.watch_accumulator(acc)

    handles = {
        (i, j): eng.handle(grid.get_blktile(i, j), f"A[{i},{j}]")
        for i in range(nt)
        for j in range(nt)
    }

    def t(i, j):
        return grid.get_blktile(i, j).mat

    for k in range(nt):
        mk = grid.tile_rows(k)
        eng.insert_task(
            "getrf",
            (lambda k=k: hgetrf(t(k, k), eps_, acc)),
            [(handles[k, k], RW)],
            priority=lu_priorities(nt, k, "getrf"),
            flops=flops_getrf(mk, is_complex=is_c),
            label=f"getrf({k})",
            spec=_spec("_op_getrf", eps_),
            expander=getrf_expander(handles[k, k], eps_, f"getrf({k})"),
        )
        for j in range(k + 1, nt):
            eng.insert_task(
                "trsm",
                (lambda k=k, j=j: htrsm("left", "lower", t(k, k), t(k, j), eps_, unit_diagonal=True, acc=acc)),
                [(handles[k, k], R), (handles[k, j], RW)],
                priority=lu_priorities(nt, k, "trsm"),
                flops=flops_trsm(mk, grid.tile_rows(j), is_complex=is_c),
                label=f"trsm_u({k},{j})",
                spec=_spec("_op_trsm_left_lower", eps_),
                expander=trsm_left_lower_expander(
                    handles[k, k], handles[k, j], eps_, f"trsm_u({k},{j})"
                ),
            )
        for i in range(k + 1, nt):
            eng.insert_task(
                "trsm",
                (lambda k=k, i=i: htrsm("right", "upper", t(k, k), t(i, k), eps_, acc=acc)),
                [(handles[k, k], R), (handles[i, k], RW)],
                priority=lu_priorities(nt, k, "trsm"),
                flops=flops_trsm(mk, grid.tile_rows(i), is_complex=is_c),
                label=f"trsm_l({i},{k})",
                spec=_spec("_op_trsm_right_upper", eps_),
                expander=trsm_right_upper_expander(
                    handles[k, k], handles[i, k], eps_, f"trsm_l({i},{k})"
                ),
            )
        for i in range(k + 1, nt):
            for j in range(k + 1, nt):
                eng.insert_task(
                    "gemm",
                    (lambda i=i, k=k, j=j: hgemm(t(i, j), t(i, k), t(k, j), eps_, alpha=-1.0, acc=acc)),
                    [(handles[i, k], R), (handles[k, j], R), (handles[i, j], RW)],
                    priority=lu_priorities(nt, k, "gemm", i, j),
                    flops=flops_gemm(
                        grid.tile_rows(i), grid.tile_rows(j), mk, is_complex=is_c
                    ),
                    label=f"gemm({i},{j},{k})",
                    spec=_spec("_op_gemm", eps_),
                    expander=gemm_expander(
                        handles[i, j], handles[i, k], handles[k, j],
                        eps_, f"gemm({i},{j},{k})",
                    ),
                )
    if acc is not None:
        # Every tile's last pending update is flushed by its own panel step,
        # so this is a no-op safety net (asserted by the equivalence tests).
        acc.flush()
    return eng.wait_all()


def tiled_potrf_tasks(
    desc: TileHDesc,
    engine: StfEngine | None = None,
    *,
    eps: float | None = None,
    accumulate: bool = True,
    racecheck: bool = False,
) -> TaskGraph:
    """Tiled right-looking Cholesky of an SPD Tile-H matrix, in place.

    Only the lower-triangular tiles are referenced/written (upper tiles stay
    untouched).  Task kinds: POTRF (diagonal), TRSM (panel, ``X L^T = B``),
    GEMM (the SYRK-style ``C -= A B^T`` trailing update).  Priorities reuse
    the LU heuristic (POTRF plays GETRF's role).  ``accumulate`` defers the
    trailing-update roundings exactly as in :func:`tiled_getrf_tasks`;
    ``racecheck`` enables the access-mode race detector the same way.
    """
    eng = engine or StfEngine(mode="eager", racecheck=racecheck)
    eps_ = desc.eps if eps is None else eps
    nt = desc.nt
    grid = desc.super
    is_c = np.issubdtype(grid.dtype, np.complexfloating)
    acc = (
        UpdateAccumulator(eps_)
        if accumulate and eng.mode == "eager" and eng.nested is None
        else None
    )
    if acc is not None and eng.racecheck is not None:
        eng.racecheck.watch_accumulator(acc)
    handles = {
        (i, j): eng.handle(grid.get_blktile(i, j), f"A[{i},{j}]")
        for i in range(nt)
        for j in range(i + 1)
    }

    def t(i, j):
        return grid.get_blktile(i, j).mat

    for k in range(nt):
        mk = grid.tile_rows(k)
        eng.insert_task(
            "potrf",
            (lambda k=k: hpotrf(t(k, k), eps_, acc)),
            [(handles[k, k], RW)],
            priority=lu_priorities(nt, k, "getrf"),
            flops=flops_potrf(mk, is_complex=is_c),
            label=f"potrf({k})",
            spec=_spec("_op_potrf", eps_),
            expander=potrf_expander(handles[k, k], eps_, f"potrf({k})"),
        )
        for i in range(k + 1, nt):
            eng.insert_task(
                "trsm",
                (lambda k=k, i=i: run_kernel("trsm_rlt", (t(k, k), t(i, k)), eps_, acc=acc)),
                [(handles[k, k], R), (handles[i, k], RW)],
                priority=lu_priorities(nt, k, "trsm"),
                flops=flops_trsm(mk, grid.tile_rows(i), is_complex=is_c),
                label=f"trsm({i},{k})",
                spec=_spec("_op_trsm_right_lower_t", eps_),
                expander=trsm_right_lower_transpose_expander(
                    handles[k, k], handles[i, k], eps_, f"trsm({i},{k})"
                ),
            )
        for i in range(k + 1, nt):
            for j in range(k + 1, i + 1):
                eng.insert_task(
                    "gemm",
                    (lambda i=i, j=j, k=k: hgemm_transb(t(i, j), t(i, k), t(j, k), eps_, alpha=-1.0, acc=acc)),
                    [(handles[i, k], R), (handles[j, k], R), (handles[i, j], RW)],
                    priority=lu_priorities(nt, k, "gemm", i, j),
                    flops=flops_gemm(
                        grid.tile_rows(i), grid.tile_rows(j), mk, is_complex=is_c
                    ),
                    label=f"syrk({i},{j},{k})" if i == j else f"gemm({i},{j},{k})",
                    spec=_spec("_op_gemm_transb", eps_),
                    expander=gemm_transb_expander(
                        handles[i, j], handles[i, k], handles[j, k],
                        eps_,
                        f"syrk({i},{j},{k})" if i == j else f"gemm({i},{j},{k})",
                    ),
                )
    if acc is not None:
        acc.flush()
    return eng.wait_all()
