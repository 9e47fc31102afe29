"""Persistence: save/load Tile-H descriptors (one-blob archive).

Assembly (clustering + ACA over every admissible block) is the expensive,
embarrassingly-reusable step of the pipeline, so a production library needs
it on disk.  An archive (format v4) holds a fixed set of named arrays, however
many leaves the matrix has — the flat block list of Li, Poulson & Ying:

* the point cloud, the permutation, and the cluster tree in pre-order
  (start/stop/level/child counts — bounding boxes are recomputed on load);
* ``nodes``, one int64 row per H-node (:data:`_NCOLS` columns: kind, row and
  column cluster by pre-order index, child grid, packed-triangle flag, and per
  leaf payload its flat array, element offset, order and shape), every tile's
  nodes in pre-order, tile after tile — ``tile_start[t]`` is tile ``t``'s first
  row (``nt x nt`` tiles, row-major, whose clusters are subtrees of the one
  root tree; a global H-matrix is the one-tile ``nt = 1`` descriptor);
* one flat payload array per leaf dtype (``leaf_f8``, ``leaf_c16``): every
  dense block and Rk factor at a 64-byte multiple of it, in its original
  C/Fortran order.

Container (unchanged since v3), the on-disk twin of :class:`repro.runtime.shmem.ArenaRef`::

    magic (8 B) | header length (u64 LE) | JSON header | zeros to 4096 | payload

The header carries ``format_version``, ``n/nt/nb/eps``, the factorisation
state (``factorized``, ``method``, solver ``config``), ``payload_bytes`` with
its ``crc32``, and one table ``arrays: name -> [dtype, shape, order, offset]``;
every array starts at a 64-byte multiple of the page-aligned payload.  Packed
triangle caches (``packed_lu``) are recomputed on load exactly as the
factorisation created them.  A plain load reads the payload into one 64-byte-
aligned buffer and runs its CRC-32 on a helper thread while the tree and tiles
are built (zlib releases the GIL); a bad checksum outranks any structure error
it caused.  ``mmap=True`` maps the file once, read-only (one descriptor;
structure checked, payload bytes not checksummed).  The node table is checked
in bulk before any node exists; leaves are views of the flat arrays with the
same alignment mod 64 either way, so a loaded factor solves bit-identically to
the in-memory one.  Nothing is compressed or pickled.

Only v4 is read.  A zip (the v1/v2 ``.npz``) or a container whose
``format_version`` is not 4 (v3 kept one array per leaf) is a ``ValueError``
naming the file and its version: an archive written before v4 must be rebuilt
(one ``build_factorize`` plus ``save``).
"""

from __future__ import annotations

import json
import math
import mmap as _mmap
import os
import threading
import uuid
import zlib
from dataclasses import asdict, is_dataclass
from pathlib import Path

import numpy as np

from .cluster import BoundingBox, ClusterTree
from .hmatrix import HMatrix
from .rk import RkMatrix

__all__ = ["save_tile_h", "load_tile_h", "read_tile_h"]

_KIND_CODE = {"full": 0, "rk": 1, "h": 2}

#: The archive format: v4, flat node table + flat payloads (the only one read).
TILE_H_FORMAT_VERSION = 4
_MAGIC = b"\x93TILEH\r\n"
_ALIGN = 64  # every payload array: cache-line / SIMD aligned, as in runtime.shmem
_PAGE = 4096  # the payload region: page-aligned, so a mapping keeps _ALIGN
#: The only dtypes a header may name — looked up, never given to ``np.dtype``.
_DTYPES = {s: np.dtype(s) for s in ("<f8", "<c16", "<i8", "|i1")}
_TREE = ("tree_start", "tree_stop", "tree_level", "tree_nkids")
#: Node-table columns: kind, row/column cluster, child grid, packed flag, then
#: (flat array, element offset, 0 C / 1 F, rows, columns) for the dense block or
#: ``rk.u`` (from ``_P0``) and for ``rk.v`` (from ``_P1``).
_KIND, _PACKED, _P0, _P1, _NCOLS = 0, 5, 6, 11, 16
#: The flat payload array of each leaf dtype; its position is the table's code.
_LEAF_FLATS = {"<f8": "leaf_f8", "<c16": "leaf_c16"}


def _order(arr: np.ndarray) -> str:
    return "F" if arr.flags.f_contiguous and not arr.flags.c_contiguous else "C"


# ---------------------------------------------------------------------------
# Writing: tree arrays, node table, flat payloads
# ---------------------------------------------------------------------------

def _serialize_tree(root: ClusterTree) -> tuple[dict, dict[int, int]]:
    """The tree arrays and ``id(node) -> pre-order index``."""
    nodes = list(root.nodes())
    cols = [[n.start for n in nodes], [n.stop for n in nodes], [n.level for n in nodes],
            [len(n.children) for n in nodes]]
    return ({k: np.asarray(c, np.int64) for k, c in zip(_TREE, cols)},
            {id(n): i for i, n in enumerate(nodes)})


def _serialize_nodes(mats, idx: dict[int, int]) -> dict:
    """The node table, ``tile_start`` and one flat array per leaf dtype for the
    H-matrices ``mats`` — each flat a list of parts (leaves and zero padding) that
    :func:`_write_archive` streams, never concatenated in memory."""
    dtypes = list(_LEAF_FLATS)
    parts: dict = {s: [] for s in dtypes}
    fill = dict.fromkeys(dtypes, 0)
    table, starts = [], [0]

    def put(arr: np.ndarray) -> list:
        s = arr.dtype.str
        if s not in parts:
            raise ValueError(f"cannot store a leaf of dtype {arr.dtype}")
        pad = -fill[s] % (_ALIGN // arr.itemsize)
        if pad:
            parts[s].append(np.zeros(pad, arr.dtype))
        parts[s].append(arr)
        fill[s] += pad + arr.size
        return [dtypes.index(s), fill[s] - arr.size, _order(arr) == "F", *arr.shape]

    for mat in mats:
        for node in mat.nodes():  # pre-order
            row = [_KIND_CODE[node.kind], idx[id(node.rows)], idx[id(node.cols)],
                   node.nrow_children, node.ncol_children, node.packed_lu is not None]
            for arr in (node.full,) if node.full is not None else (
                    (node.rk.u, node.rk.v) if node.rk is not None else ()):
                row += put(arr)
            table.append(row + [0] * (_NCOLS - len(row)))
        starts.append(len(table))
    return {"nodes": np.asarray(table, np.int64).reshape(-1, _NCOLS),
            "tile_start": np.asarray(starts, np.int64),
            **{_LEAF_FLATS[s]: p for s, p in parts.items() if p}}


def _write_archive(path, header: dict, arrays: dict) -> Path:
    """Write ``header`` and the named ``arrays`` as one container, published
    atomically (temp file beside the target, ``os.replace``): a reader sees the old
    archive or the new one, and a live mapping of the old one keeps its bytes.
    A list value is one 1-D array: its parts' elements, each in memory order."""
    p = Path(path)
    table, chunks, size, crc = {}, [], 0, 0
    for name, value in arrays.items():
        parts = [np.asarray(a) for a in (value if isinstance(value, list) else [value])]
        dt = parts[0].dtype
        if dt.str not in _DTYPES or any(a.dtype != dt for a in parts):
            raise ValueError(f"cannot store {name!r} in {p}: dtype {dt} not supported")
        pad = bytes(-size % _ALIGN)
        shape, order = ([sum(a.size for a in parts)], "C") if isinstance(value, list) else (
            list(parts[0].shape), _order(parts[0]))
        table[name] = [dt.str, shape, order, size + len(pad)]
        chunks.append(pad)
        crc, size = zlib.crc32(pad, crc), size + len(pad)
        for a in parts:
            # The array's bytes in memory order (a copy only when it is strided).
            o = _order(a)
            flat = np.asarray(a, order=o).reshape(-1, order=o).view(np.uint8)
            chunks.append(flat)
            crc, size = zlib.crc32(flat, crc), size + flat.size
    header = {**header, "payload_bytes": size, "crc32": crc, "arrays": table}
    blob = json.dumps(header, separators=(",", ":")).encode()
    head = _MAGIC + len(blob).to_bytes(8, "little") + blob
    p.parent.mkdir(parents=True, exist_ok=True)
    tmp = p.with_name(f".{p.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb", buffering=1 << 20) as f:
            f.writelines([head, bytes(-len(head) % _PAGE), *chunks])
            f.flush()
        os.replace(tmp, p)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return p


# ---------------------------------------------------------------------------
# Reading: the container
# ---------------------------------------------------------------------------

def _table_entry(name: str, spec, nbytes: int) -> tuple:
    """Check one ``[dtype, shape, order, offset]`` entry against the payload."""
    dtype, shape, order, off = spec
    dt = _DTYPES.get(dtype)
    if dt is None:
        raise ValueError(f"array {name!r} has dtype {dtype!r}, not one of {sorted(_DTYPES)}")
    if (
        order not in ("C", "F") or type(off) is not int or off < 0 or off % _ALIGN
        or not isinstance(shape, list)
        or any(type(d) is not int or not 0 <= d <= nbytes for d in shape)
        or off + math.prod(shape) * dt.itemsize > nbytes
    ):
        raise ValueError(f"table entry {spec!r} of array {name!r} does not fit the payload")
    return name, tuple(shape), dt, order, off


def _checksum(p: Path, buf: np.ndarray, expected):
    """Start ``zlib.crc32(buf)`` on a helper thread; returns the call that joins
    it and raises if the payload does not match ``expected``."""
    got: list = []
    worker = threading.Thread(target=lambda: got.append(zlib.crc32(buf)),
                              name="tileh-crc32", daemon=True)
    worker.start()

    def verify() -> None:
        worker.join()
        if got != [expected]:
            raise ValueError(f"cannot read Tile-H archive {p}: payload does not match its CRC-32")

    return verify


def _unchecked() -> None:
    """The ``verify`` of a mapped open: nothing to check."""


def _refused(version) -> ValueError:
    return ValueError(f"format_version {version} is not {TILE_H_FORMAT_VERSION}; an archive "
                      "written before v4 must be rebuilt (build_factorize, then save)")


def _open_archive(path, *, mmap: bool = False):
    """``(header, arrays, verify)`` of the v4 archive at ``path``.  The version,
    the file size against the header and every table entry against the payload
    are checked *before* any view is made, so an old, cut or doctored file is a
    ``ValueError``, never a ``SIGBUS``.  The arrays are views of one buffer: an
    aligned writable copy, whose CRC-32 runs until ``verify()`` joins it, or one
    read-only mapping that lives, with its descriptor, exactly as long as the
    views do (``verify`` checks nothing).
    """
    p = Path(path)
    verify = _unchecked
    try:
        with open(p, "rb") as f:
            magic = f.read(len(_MAGIC))
            if magic[:4] == b"PK\x03\x04":
                raise _refused("1 or 2 (a .npz zip)")
            if magic != _MAGIC:
                raise ValueError("not a Tile-H container (bad magic)")
            size = os.fstat(f.fileno()).st_size
            hlen = int.from_bytes(f.read(8), "little")
            if 16 + hlen > size:
                raise ValueError(f"{hlen}-byte header runs past the end of the file")
            header = json.loads(f.read(hlen))
            if header.get("format_version") != TILE_H_FORMAT_VERSION:
                raise _refused(header.get("format_version", "(missing)"))
            base = -(-(16 + hlen) // _PAGE) * _PAGE
            nbytes = header["payload_bytes"]
            if type(nbytes) is not int or size != base + nbytes:
                raise ValueError(f"file has {size} bytes, header says {base} + {nbytes!r}")
            entries = [_table_entry(k, v, nbytes) for k, v in header["arrays"].items()]
            if mmap:
                mapping = _mmap.mmap(f.fileno(), 0, access=_mmap.ACCESS_READ)
                buf = np.frombuffer(mapping, np.uint8, nbytes, base)
            else:
                raw = np.empty(nbytes + _ALIGN, np.uint8)
                shift = -raw.ctypes.data % _ALIGN
                buf = raw[shift : shift + nbytes]
                f.seek(base)
                if f.readinto(buf) != nbytes:
                    raise ValueError("payload is shorter than its header says")
            arrays = {
                name: np.ndarray(shape, dt, buffer=buf, offset=off, order=order)
                for name, shape, dt, order, off in entries
            }
            if not mmap:  # last: nothing after the thread starts can fail
                verify = _checksum(p, buf, header["crc32"])
    except FileNotFoundError:
        raise
    except Exception as exc:  # any parse failure of an untrusted file, one typed error
        raise ValueError(f"cannot read Tile-H archive {p}: {exc}") from exc
    return header, arrays, verify


def _load(path, mmap: bool, build):
    """``build(header, arrays)`` over the archive at ``path``, its checksum
    joined on every exit; a bad CRC-32 outranks the error it may have caused,
    and an array of the wrong dtype or shape is the typed error too."""
    header, data, verify = _open_archive(path, mmap=mmap)
    try:
        out = build(header, data)
    except (TypeError, IndexError, KeyError) as exc:  # an array of the wrong kind
        verify()
        raise _invalid(path, repr(exc)) from exc
    except BaseException:
        verify()
        raise
    verify()
    return out


# ---------------------------------------------------------------------------
# Reading: one builder for the tree and the tiles
# ---------------------------------------------------------------------------

def _preorder(arity: np.ndarray, starts: np.ndarray) -> bool:
    """Whether each segment ``[starts[t], starts[t+1])`` of child counts is
    exactly one tree in pre-order (``starts`` strictly increasing)."""
    c = np.concatenate(([0], np.cumsum(arity - 1)))
    # Subtrees still to visit after each node, counted from its segment's root.
    left = 1 + c[1:] - np.repeat(c[starts[:-1]], np.diff(starts))
    last = starts[1:] - 1
    return bool((left[last] == 0).all() and (np.delete(left, last) > 0).all())


def _tree(data, path) -> tuple[list[ClusterTree], np.ndarray]:
    """The cluster-tree nodes in pre-order (``[0]`` is the root) and their sizes;
    every bounding box from one gather of the points in cluster order."""
    points = np.ascontiguousarray(data["points"])
    perm = np.ascontiguousarray(data["perm"])
    n = points.shape[0]
    if perm.shape != (n,):
        raise _invalid(path, f"permutation length {perm.shape[0]} != {n} points")
    start, stop, level, nkids = (np.asarray(data[k]) for k in _TREE)
    for k, arr in zip(_TREE[1:], (stop, level, nkids)):
        if len(arr) != len(start):
            raise _invalid(path, f"cluster-tree arrays disagree ({k} has {len(arr)} "
                                 f"entries, tree_start has {len(start)})")
    m = len(start)
    if not (m and points.ndim == 2 and (start >= 0).all() and (start < stop).all()
            and (stop <= n).all() and (nkids >= 0).all() and (nkids < m).all()
            and _preorder(nkids, np.array([0, m]))):
        raise _invalid(path, "corrupt cluster-tree serialization")
    ordered = np.concatenate((points[perm], points[:1]))  # reduceat needs stop < len
    bounds = np.column_stack((start, stop)).ravel()
    lo, hi = (ufunc.reduceat(ordered, bounds)[::2] for ufunc in (np.minimum, np.maximum))
    nodes = [ClusterTree(start=a, stop=b, bbox=BoundingBox(lo=l, hi=h), perm=perm,
                         points=points, level=lv)
             for a, b, lv, l, h in zip(start.tolist(), stop.tolist(), level.tolist(), lo, hi)]
    done: list = []
    for node, k in zip(reversed(nodes), reversed(nkids.tolist())):
        node.children = [done.pop() for _ in range(k)]
        done.append(node)
    return nodes, stop - start


def _check_nodes(table, starts, flats, sizes, ntiles: int, path) -> None:
    """Every check the tiles need, in bulk, before any node exists."""
    if table.dtype != np.int64 or table.ndim != 2 or table.shape[1] != _NCOLS:
        raise _invalid(path, f"node table {table.dtype}{table.shape} is not (n, {_NCOLS}) int64")
    n = len(table)
    if (starts.dtype != np.int64 or starts.shape != (ntiles + 1,) or starts[0] != 0
            or starts[-1] != n or (np.diff(starts) < 1).any()):
        raise _invalid(path, f"tile_start {starts[:8].tolist()}… does not split "
                             f"{n} nodes into {ntiles} tile(s) (missing tile?)")
    kind, row, col, nrc, ncc, packed = table[:, :_P0].T
    inner = kind == 2
    if not np.isin(kind, (0, 1, 2)).all():
        raise _invalid(path, f"unknown kind code in {sorted(set(kind.tolist()))}")
    if not ((row >= 0) & (row < len(sizes)) & (col >= 0) & (col < len(sizes))
            & np.isin(packed, (0, 1))).all():
        raise _invalid(path, f"node cluster outside the {len(sizes)}-node tree, or bad packed flag")
    grid = np.where(inner, np.minimum(nrc, n) * np.minimum(ncc, n), 0)
    if not ((nrc[inner] >= 1) & (ncc[inner] >= 1)).all() or not _preorder(grid, starts):
        raise _invalid(path, "child grids do not make one pre-order tree per tile_start segment")
    lens = np.array([-1 if a is None else len(a) for a in flats] + [-1], np.int64)
    isz = np.array([1 if a is None else a.itemsize for a in flats] + [1], np.int64)
    # A dense block is rows x cols of its clusters; rk.u and rk.v have the
    # row and column cluster's sizes and one rank between them.
    payloads = ((_P0, kind < 2, sizes[row], np.where(kind == 0, sizes[col], table[:, _P1 + 4])),
                (_P1, kind == 1, sizes[col], table[:, _P0 + 4]))
    for slot, leaf, want_m, want_w in payloads:
        f, off, order, m, w = table[leaf, slot : slot + 5].T
        if not ((m == want_m[leaf]) & (w == want_w[leaf]) & (w >= 0)).all():
            raise _invalid(path, "a leaf's shape disagrees with its clusters")
        f = np.where((f >= 0) & (f < len(flats)), f, -1)
        if (lens[f] < 0).any():
            raise _invalid(path, "missing payload: a leaf names an absent flat array")
        if not ((off >= 0) & (off <= lens[f]) & (off * isz[f] % _ALIGN == 0)
                & (w <= (lens[f] - off) // m) & np.isin(order, (0, 1))).all():
            raise _invalid(path, "a leaf payload lies outside its flat array or is misaligned")


def _tiles(table, starts, flats, nodes) -> list[HMatrix]:
    """One H-matrix per tile of a checked node table, built bottom-up (in reverse
    pre-order a node's children are the last subtrees finished); leaves are
    views of their flat arrays in their stored order."""
    def leaf(f, off, order, m, n):
        flat = flats[f]
        return np.ndarray((m, n), flat.dtype, flat, off * flat.itemsize, None, "CF"[order])

    roots = set(starts[:-1].tolist())
    mats, done = [], []
    k = len(table)
    for kind, r, c, nrc, ncc, packed, *p in reversed(table.tolist()):
        k -= 1
        if kind == 0:
            node = HMatrix(nodes[r], nodes[c], full=leaf(*p[:5]))
        elif kind == 1:
            node = HMatrix(nodes[r], nodes[c], rk=RkMatrix(leaf(*p[:5]), leaf(*p[5:])))
        else:
            kids = done[: -nrc * ncc - 1 : -1]
            del done[-nrc * ncc :]
            node = HMatrix(nodes[r], nodes[c], children=kids, nrow_children=nrc,
                           ncol_children=ncc)
        if packed:
            # Recompute the packed-triangle cache exactly as the factorisation
            # created it (``arithmetic._pack``) so loaded factors solve
            # bit-identically to in-memory ones.
            node.packed_lu = node.to_dense(order="F")
        (mats if k in roots else done).append(node)
    return mats[::-1]


def _rebuild(data, ntiles: int, path) -> tuple[list[ClusterTree], list]:
    """The cluster tree (pre-order nodes) and the ``ntiles`` H-matrices."""
    table, starts = data["nodes"], data["tile_start"]
    flats = [data.get(name) for name in _LEAF_FLATS.values()]
    if any(a is not None and (a.ndim != 1 or a.dtype.str != s)
           for s, a in zip(_LEAF_FLATS, flats)):
        raise _invalid(path, "a flat payload array has the wrong dtype or shape")
    nodes, sizes = _tree(data, path)
    _check_nodes(table, starts, flats, sizes, ntiles, path)
    return nodes, _tiles(table, starts, flats, nodes)


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

def _config_dict(config) -> dict:
    if config is None:
        return {}
    if is_dataclass(config) and not isinstance(config, type):
        return asdict(config)
    return dict(config)


def save_tile_h(desc, path, *, factorized: bool = False, method: str | None = None,
                config=None, compress: bool = True) -> Path:
    """Save a :class:`~repro.core.descriptor.TileHDesc` to ``path``.

    ``factorized``/``method`` record the factorisation state of the tiles
    (the payloads are the L/U or Cholesky factor content when set) and
    ``config`` (a dataclass or mapping) is stored in the header so a loaded
    matrix can solve under the configuration that produced the factors.

    ``compress`` no longer selects anything (deflate bought 6% of the bytes
    for 5.5x the save time and cannot be mapped); it stays because callers pass it.
    """
    root = desc.root
    arrays, idx = _serialize_tree(root)
    nt = desc.nt
    mats = [desc.super.get_blktile(i, j).mat for i in range(nt) for j in range(nt)]
    arrays = {
        "points": root.points,
        "perm": root.perm,
        "tile_cluster_idx": np.asarray([idx[id(c)] for c in desc.clusters], dtype=np.int64),
        **arrays,
        **_serialize_nodes(mats, idx),
    }
    header = {
        "format_version": TILE_H_FORMAT_VERSION, "n": int(root.points.shape[0]),
        "nt": int(nt), "nb": int(desc.nb), "eps": float(desc.eps),
        "factorized": bool(factorized), "method": method or None,
        "config": _config_dict(config),
    }
    return _write_archive(path, header, arrays)


_TILE_H_REQUIRED = ("points", "perm", "tile_cluster_idx", *_TREE, "nodes", "tile_start")
#: The header metadata :func:`save_tile_h` writes, each field with its cast.
_META = {"format_version": int, "n": int, "nt": int, "nb": int, "eps": float,
         "factorized": bool, "method": lambda m: str(m) if m else None, "config": dict}


def _invalid(path, problem: str) -> ValueError:
    return ValueError(f"invalid Tile-H archive {path}: {problem}")


def _require(keys, have, path) -> None:
    missing = [k for k in keys if k not in have]
    if missing:
        raise _invalid(path, f"missing keys {missing} (truncated file or not a Tile-H save?)")


def _tile_h_meta(header: dict, path) -> dict:
    """The typed metadata dict of :func:`read_tile_h` from a raw header."""
    _require(_META, header, path)
    try:
        return {k: cast(header[k]) for k, cast in _META.items()}
    except (TypeError, ValueError) as exc:
        raise _invalid(path, f"bad metadata: {exc}") from exc


def read_tile_h(path, *, mmap: bool = False):
    """``(descriptor, meta)`` of an archive saved by :func:`save_tile_h`, from
    one open of the file.  ``meta`` holds ``format_version``, ``n``, ``nt``,
    ``nb``, ``eps``, ``factorized``, ``method`` (``None`` when unfactorised) and
    ``config`` (the saved solver config as a dict).

    The archive is validated up front (container sizes and table, required
    keys, consistent tree arrays, the whole node table against the tree and
    the flat payloads); a truncated or mismatched file is a
    :class:`ValueError` naming the problem.  A plain load copies the payload
    into memory (writable, CRC-32 verified).  ``mmap=True`` maps the file once,
    *read-only*: loading touches no payload byte, pages
    fault in on first kernel access and are shared by every process serving
    the archive, and the descriptor goes with the last payload view — right
    for the serve path; re-factorising a mapped matrix in place is not
    supported.  Either way the factor solves to the bits that were saved.
    """
    from ..core.descriptor import Tile, TileDesc, TileHDesc
    from .block import StrongAdmissibility

    def build(header, data):
        meta = _tile_h_meta(header, path)
        _require(_TILE_H_REQUIRED, data, path)
        nt, idx = meta["nt"], data["tile_cluster_idx"].tolist()
        if nt < 1 or len(idx) != nt:
            raise _invalid(path, f"{len(idx)} tile clusters for nt={nt}")
        nodes, mats = _rebuild(data, nt * nt, path)
        if not all(0 <= k < len(nodes) for k in idx):
            raise _invalid(path, f"tile cluster index out of range (tree has {len(nodes)} nodes)")
        clusters = [nodes[k] for k in idx]
        n = nodes[0].points.shape[0]
        covered = sum(c.size for c in clusters)
        if covered != n:
            raise _invalid(path, f"tile clusters cover {covered} of {n} points")
        for t, h in enumerate(mats):
            want = (clusters[t // nt].size, clusters[t % nt].size)
            if h.shape != want:
                raise _invalid(path, f"tile {divmod(t, nt)} has shape {h.shape}, "
                                     f"clusters say {want}")
        desc = TileHDesc(
            super=TileDesc(n=n, nb=meta["nb"], nt=nt, tiles=[Tile.of(h) for h in mats]),
            root=nodes[0], clusters=clusters, admissibility=StrongAdmissibility(),
            perm=nodes[0].perm, eps=meta["eps"],
        )
        return desc, meta

    return _load(path, mmap, build)


def load_tile_h(path, *, mmap: bool = False):
    """Load a Tile-H descriptor saved by :func:`save_tile_h` (validation and
    ``mmap`` as in :func:`read_tile_h`, whose first result this is)."""
    return read_tile_h(path, mmap=mmap)[0]

