"""Persistence: save/load H-matrices and Tile-H descriptors (one-blob archive).

Assembly (clustering + ACA over every admissible block) is the expensive,
embarrassingly-reusable step of the pipeline, so a production library needs
it on disk.  An archive holds named arrays:

* the point cloud, the permutation, and the cluster tree in pre-order
  (start/stop/level/child counts — bounding boxes are recomputed on load);
* every H-matrix node in pre-order, referencing its row/column clusters by
  pre-order index, with leaf payloads stored as individual arrays — the same
  indexing for one global H-matrix and for the ``nt x nt`` tiles of a Tile-H
  descriptor (whose clusters are subtrees of the one root tree).

Container (format v3), the on-disk twin of :class:`repro.runtime.shmem.ArenaRef`::

    magic (8 B) | header length (u64 LE) | JSON header | zeros to 4096 | payload

The header carries ``format_version``, ``n/nt/nb/eps``, the factorisation
state (``factorized``, ``method``, solver ``config``), ``payload_bytes`` with
its ``crc32``, and one table ``arrays: name -> [dtype, shape, order, offset]``;
every array starts at a 64-byte multiple of the page-aligned payload, in its
original C/Fortran order.  One flag per H-node marks packed-triangle caches
(``packed_lu``), recomputed on load exactly as the factorisation created them.
A plain load reads the payload into one 64-byte-aligned buffer and verifies
the CRC; ``mmap=True`` maps the file once, read-only (one descriptor; structure
checked, payload bytes not checksummed).  Views have the same alignment mod 64
either way, so a loaded factor solves bit-identically to the in-memory one.
Nothing is compressed or pickled.  Legacy ``.npz`` archives (v1/v2) stay
*readable*: recognised by magic bytes, read into memory, never mapped or written.
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

__all__ = [
    "save_hmatrix",
    "load_hmatrix",
    "save_tile_h",
    "load_tile_h",
    "load_tile_h_meta",
    "read_tile_h",
]

_KIND_CODE = {"full": 0, "rk": 1, "h": 2}

#: Current archive format: v3, the one-blob container (v1/v2 ``.npz``: read-only).
TILE_H_FORMAT_VERSION = 3
_MAGIC = b"\x93TILEH\r\n"
_ALIGN = 64  # every payload array: cache-line / SIMD aligned, as in runtime.shmem
_PAGE = 4096  # the payload region: page-aligned, so a mapping keeps _ALIGN
#: The only dtypes a header may name — looked up, never given to ``np.dtype``.
_DTYPES = {s: np.dtype(s) for s in ("<f8", "<c16", "<i8", "|i1")}
_LEGACY_LOCK = threading.Lock()  # overlapping ``.npy`` header evals raise SystemError


# ---------------------------------------------------------------------------
# Cluster trees
# ---------------------------------------------------------------------------

def _serialize_tree(root: ClusterTree) -> dict:
    starts, stops, levels, nkids = [], [], [], []

    def visit(node: ClusterTree) -> None:
        starts.append(node.start)
        stops.append(node.stop)
        levels.append(node.level)
        nkids.append(len(node.children))
        for c in node.children:
            visit(c)

    visit(root)
    return {
        "tree_start": np.asarray(starts, dtype=np.int64),
        "tree_stop": np.asarray(stops, dtype=np.int64),
        "tree_level": np.asarray(levels, dtype=np.int64),
        "tree_nkids": np.asarray(nkids, dtype=np.int64),
    }


def _tree_index(root: ClusterTree) -> dict[int, int]:
    """Map ``id(node)`` -> pre-order index."""
    out: dict[int, int] = {}

    def visit(node: ClusterTree) -> None:
        out[id(node)] = len(out)
        for c in node.children:
            visit(c)

    visit(root)
    return out


def _deserialize_tree(data, points: np.ndarray, perm: np.ndarray) -> list[ClusterTree]:
    starts = data["tree_start"]
    stops = data["tree_stop"]
    levels = data["tree_level"]
    nkids = data["tree_nkids"]
    nodes: list[ClusterTree] = []
    pos = {"i": 0}

    def build() -> ClusterTree:
        i = pos["i"]
        pos["i"] += 1
        node = ClusterTree(
            start=int(starts[i]),
            stop=int(stops[i]),
            bbox=BoundingBox.of(points[perm[int(starts[i]) : int(stops[i])]]),
            perm=perm,
            points=points,
            level=int(levels[i]),
        )
        nodes.append(node)
        node.children = [build() for _ in range(int(nkids[i]))]
        return node

    build()
    # A recursive closure is a reference cycle: break it, or ``data`` (a mapped
    # archive's descriptor) would live until the next garbage-collector pass.
    del build
    if pos["i"] != len(starts):
        raise ValueError("corrupt cluster-tree serialization")
    return nodes  # nodes[0] is the root, pre-order


# ---------------------------------------------------------------------------
# H-matrix nodes
# ---------------------------------------------------------------------------

def _serialize_hmatrix(h: HMatrix, idx: dict[int, int], payloads: dict, prefix: str) -> dict:
    kinds, rows_i, cols_i, nrc, ncc, plu = [], [], [], [], [], []

    def visit(node: HMatrix) -> None:
        k = len(kinds)
        kinds.append(_KIND_CODE[node.kind])
        rows_i.append(idx[id(node.rows)])
        cols_i.append(idx[id(node.cols)])
        nrc.append(node.nrow_children)
        ncc.append(node.ncol_children)
        plu.append(1 if node.packed_lu is not None else 0)
        if node.full is not None:
            payloads[f"{prefix}full_{k}"] = node.full
        elif node.rk is not None:
            payloads[f"{prefix}rku_{k}"] = node.rk.u
            payloads[f"{prefix}rkv_{k}"] = node.rk.v
        for c in node.children:
            visit(c)

    visit(h)
    return {
        f"{prefix}kind": np.asarray(kinds, dtype=np.int8),
        f"{prefix}rows": np.asarray(rows_i, dtype=np.int64),
        f"{prefix}cols": np.asarray(cols_i, dtype=np.int64),
        f"{prefix}nrc": np.asarray(nrc, dtype=np.int64),
        f"{prefix}ncc": np.asarray(ncc, dtype=np.int64),
        f"{prefix}plu": np.asarray(plu, dtype=np.int8),
    }


def _payload(data, key: str) -> np.ndarray:
    if key not in data:
        raise ValueError(
            f"corrupt H-matrix archive: missing payload {key!r} (truncated file?)"
        )
    # The archive keeps C-vs-Fortran order, and BLAS dispatch (hence the
    # low-order bits of every downstream product) depends on it: return the
    # array as stored, don't force contiguity — bit-identical solves need the
    # factor operands in their original layout.
    return data[key]


def _deserialize_hmatrix(data, nodes: list[ClusterTree], prefix: str) -> HMatrix:
    kinds = data[f"{prefix}kind"]
    rows_i = data[f"{prefix}rows"]
    cols_i = data[f"{prefix}cols"]
    nrc = data[f"{prefix}nrc"]
    ncc = data[f"{prefix}ncc"]
    # v1 archives predate the packed-triangle flags.
    plu = data[f"{prefix}plu"] if f"{prefix}plu" in data else None
    n_nodes = len(kinds)
    for name, arr in (("rows", rows_i), ("cols", cols_i), ("nrc", nrc), ("ncc", ncc)):
        if len(arr) != n_nodes:
            raise ValueError(
                f"corrupt H-matrix archive: {prefix}{name} has {len(arr)} entries "
                f"for {n_nodes} nodes"
            )
    pos = {"i": 0}

    def build() -> HMatrix:
        k = pos["i"]
        pos["i"] += 1
        if k >= n_nodes:
            raise ValueError(
                f"corrupt H-matrix archive: node structure {prefix!r} references "
                f"more than its {n_nodes} serialized nodes"
            )
        ri, ci = int(rows_i[k]), int(cols_i[k])
        if not (0 <= ri < len(nodes) and 0 <= ci < len(nodes)):
            raise ValueError(
                f"corrupt H-matrix archive: node {prefix}{k} references cluster "
                f"({ri}, {ci}) outside the {len(nodes)}-node tree"
            )
        rows = nodes[ri]
        cols = nodes[ci]
        code = int(kinds[k])
        if code == 0:
            full = _payload(data, f"{prefix}full_{k}")
            if full.shape != (rows.size, cols.size):
                raise ValueError(
                    f"corrupt H-matrix archive: payload {prefix}full_{k} has shape "
                    f"{full.shape}, clusters say {(rows.size, cols.size)}"
                )
            node = HMatrix(rows, cols, full=full)
        elif code == 1:
            u = _payload(data, f"{prefix}rku_{k}")
            v = _payload(data, f"{prefix}rkv_{k}")
            if u.shape[0] != rows.size or v.shape[0] != cols.size or u.shape[1] != v.shape[1]:
                raise ValueError(
                    f"corrupt H-matrix archive: Rk payload {prefix}rk*_{k} has shapes "
                    f"{u.shape}/{v.shape}, clusters say {(rows.size, cols.size)}"
                )
            node = HMatrix(rows, cols, rk=RkMatrix(u, v))
        elif code == 2:
            n_children = int(nrc[k]) * int(ncc[k])
            kids = [build() for _ in range(n_children)]
            node = HMatrix(
                rows, cols, children=kids, nrow_children=int(nrc[k]), ncol_children=int(ncc[k])
            )
        else:
            raise ValueError(
                f"corrupt H-matrix archive: node {prefix}{k} has unknown kind code {code}"
            )
        if plu is not None and int(plu[k]):
            # Recompute the packed-triangle cache exactly as the factorisation
            # created it (``to_dense()`` of the factor content, F-ordered) so
            # loaded factors solve bit-identically to in-memory ones.
            node.packed_lu = np.asfortranarray(node.to_dense())
        return node

    h = build()
    del build  # break the closure's reference cycle (see _deserialize_tree)
    if pos["i"] != n_nodes:
        raise ValueError(
            f"corrupt H-matrix archive: structure {prefix!r} used {pos['i']} of "
            f"{n_nodes} serialized nodes"
        )
    return h


def _write_archive(path, header: dict, arrays: dict) -> Path:
    """Write ``header`` and the named ``arrays`` as one v3 container, published
    atomically (temp file beside the target, ``os.replace``): a reader sees the old
    archive or the new one, and a live mapping of the old one keeps its bytes."""
    p = Path(path)
    table, chunks, size, crc = {}, [], 0, 0
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        if arr.dtype.str not in _DTYPES:
            raise ValueError(f"cannot store {name!r} in {p}: dtype {arr.dtype} not supported")
        order = "F" if arr.flags.f_contiguous and not arr.flags.c_contiguous else "C"
        # The array's bytes in memory order (a copy only when it is strided).
        flat = np.asarray(arr, order=order).reshape(-1, order=order).view(np.uint8)
        pad = bytes(-size % _ALIGN)
        table[name] = [arr.dtype.str, list(arr.shape), order, size + len(pad)]
        chunks += (pad, flat)
        crc = zlib.crc32(flat, zlib.crc32(pad, crc))
        size += len(pad) + flat.size
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


def _read_legacy(p: Path, payload: bool) -> tuple[dict, dict]:
    """``(header, arrays)`` of a v1/v2 ``.npz`` — read-only support, in memory."""
    scalars = ("format_version", "nt", "nb", "eps", "factorized", "method")
    with _LEGACY_LOCK, np.load(p, allow_pickle=False) as z:
        header = {k: z[k][0] for k in scalars if k in z}
        if "points" in z:
            header["n"] = z["points"].shape[0]
        if "config_json" in z:
            header["config"] = json.loads(str(z["config_json"][0]))
        return header, dict(z) if payload else {}


def _open_archive(path, *, mmap: bool = False, payload: bool = True) -> tuple[dict, dict]:
    """``(header, arrays)`` of the archive at ``path``, dispatched on its magic
    (``payload=False``: header only).  The file size is checked against the
    header and every table entry against the payload *before* any view is made,
    so a cut or doctored file is a ``ValueError``, never a ``SIGBUS``.  The
    arrays are views of one buffer: an aligned writable copy, or one read-only
    mapping that lives, with its descriptor, exactly as long as the views do.
    """
    p = Path(path)
    try:
        with open(p, "rb") as f:
            magic = f.read(len(_MAGIC))
            if magic[:4] == b"PK\x03\x04":
                return _read_legacy(p, payload)
            if magic != _MAGIC:
                raise ValueError("not a Tile-H container (bad magic)")
            size = os.fstat(f.fileno()).st_size
            hlen = int.from_bytes(f.read(8), "little")
            if 16 + hlen > size:
                raise ValueError(f"{hlen}-byte header runs past the end of the file")
            header = json.loads(f.read(hlen))
            base = -(-(16 + hlen) // _PAGE) * _PAGE
            nbytes = header["payload_bytes"]
            if type(nbytes) is not int or size != base + nbytes:
                raise ValueError(f"file has {size} bytes, header says {base} + {nbytes!r}")
            if not payload:
                return header, {}
            entries = [_table_entry(k, v, nbytes) for k, v in header["arrays"].items()]
            if mmap:
                mapping = _mmap.mmap(f.fileno(), 0, access=_mmap.ACCESS_READ)
                buf = np.frombuffer(mapping, np.uint8, nbytes, base)
            else:
                raw = np.empty(nbytes + _ALIGN, np.uint8)
                shift = -raw.ctypes.data % _ALIGN
                buf = raw[shift : shift + nbytes]
                f.seek(base)
                if f.readinto(buf) != nbytes or zlib.crc32(buf) != header["crc32"]:
                    raise ValueError("payload does not match its CRC-32")
            arrays = {
                name: np.ndarray(shape, dt, buffer=buf, offset=off, order=order)
                for name, shape, dt, order, off in entries
            }
    except FileNotFoundError:
        raise
    except Exception as exc:  # any parse failure of an untrusted file, one typed error
        raise ValueError(f"cannot read Tile-H archive {p}: {exc}") from exc
    return header, arrays


# ---------------------------------------------------------------------------
# Public API — single H-matrix
# ---------------------------------------------------------------------------

def save_hmatrix(h: HMatrix, tree: ClusterTree, path) -> Path:
    """Save a (square) H-matrix plus its cluster tree to ``path``.

    ``tree`` must be the cluster tree whose nodes ``h`` references (rows and
    columns share it for the kernel matrices this library builds).
    """
    idx = _tree_index(tree)
    payloads: dict = {}
    arrays = {
        "points": tree.points,
        "perm": tree.perm,
        **_serialize_tree(tree),
        **_serialize_hmatrix(h, idx, payloads, "h_"),
    }
    header = {"format_version": TILE_H_FORMAT_VERSION, "n": int(tree.points.shape[0])}
    return _write_archive(path, header, {**arrays, **payloads})


def load_hmatrix(path) -> tuple[HMatrix, ClusterTree]:
    """Load an H-matrix saved by :func:`save_hmatrix`; returns (h, tree)."""
    _, data = _open_archive(path)
    points = np.ascontiguousarray(data["points"])
    perm = np.ascontiguousarray(data["perm"])
    nodes = _deserialize_tree(data, points, perm)
    h = _deserialize_hmatrix(data, nodes, "h_")
    return h, nodes[0]


# ---------------------------------------------------------------------------
# Public API — Tile-H descriptors
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
    idx = _tree_index(root)
    nt = desc.nt
    payloads: dict = {}
    arrays = {
        "points": root.points,
        "perm": root.perm,
        "tile_cluster_idx": np.asarray([idx[id(c)] for c in desc.clusters], dtype=np.int64),
        **_serialize_tree(root),
    }
    for i in range(nt):
        for j in range(nt):
            tile = desc.super.get_blktile(i, j)
            arrays.update(_serialize_hmatrix(tile.mat, idx, payloads, f"t{i}_{j}_"))
    header = {
        "format_version": TILE_H_FORMAT_VERSION, "n": int(root.points.shape[0]),
        "nt": int(nt), "nb": int(desc.nb), "eps": float(desc.eps),
        "factorized": bool(factorized), "method": method or None,
        "config": _config_dict(config),
    }
    return _write_archive(path, header, {**arrays, **payloads})


_TILE_H_REQUIRED = ("points", "perm", "tile_cluster_idx",
                    "tree_start", "tree_stop", "tree_level", "tree_nkids")
#: Header metadata: the required fields' casts, the optional ones' (cast, default).
_META_REQUIRED = {"n": int, "nt": int, "nb": int, "eps": float}
_META_OPTIONAL = {"format_version": (int, 1), "factorized": (bool, False),
                  "method": (lambda m: str(m) if m else None, None), "config": (dict, {})}


def _invalid(path, problem: str) -> ValueError:
    return ValueError(f"invalid Tile-H archive {path}: {problem}")


def _require(keys, have, path) -> None:
    missing = [k for k in keys if k not in have]
    if missing:
        raise _invalid(path, f"missing keys {missing} (truncated file or not a Tile-H save?)")


def _tile_h_meta(header: dict, path) -> dict:
    """The typed metadata dict of :func:`load_tile_h_meta` from a raw header."""
    _require(_META_REQUIRED, header, path)
    try:
        meta = {k: cast(header[k]) for k, cast in _META_REQUIRED.items()}
        return meta | {k: cast(header.get(k, d)) for k, (cast, d) in _META_OPTIONAL.items()}
    except (TypeError, ValueError) as exc:
        raise _invalid(path, f"bad metadata: {exc}") from exc


def _validate_tile_h(meta: dict, data, path) -> None:
    _require(_TILE_H_REQUIRED, data, path)
    n_tree = len(data["tree_start"])
    for k in ("tree_stop", "tree_level", "tree_nkids"):
        if len(data[k]) != n_tree:
            raise _invalid(path, f"cluster-tree arrays disagree ({k} has {len(data[k])} "
                                 f"entries, tree_start has {n_tree})")
    nt = meta["nt"]
    if nt < 1:
        raise _invalid(path, f"nt={nt}")
    idx = data["tile_cluster_idx"]
    if len(idx) != nt:
        raise _invalid(path, f"{len(idx)} tile clusters for nt={nt}")
    if len(idx) and (int(idx.min()) < 0 or int(idx.max()) >= n_tree):
        raise _invalid(path, f"tile cluster index out of range (tree has {n_tree} nodes)")
    n = data["points"].shape[0]
    if data["perm"].shape[0] != n:
        raise _invalid(path, f"permutation length {data['perm'].shape[0]} != {n} points")
    for i in range(nt):
        for j in range(nt):
            if f"t{i}_{j}_kind" not in data:
                raise _invalid(path, f"tile ({i}, {j}) missing (truncated file?)")


def read_tile_h(path, *, mmap: bool = False):
    """``(descriptor, meta)`` of an archive saved by :func:`save_tile_h`, from
    one open of the file (``meta`` as :func:`load_tile_h_meta` returns it).

    The archive is validated up front (container sizes and table, required
    keys, consistent tree/tile arrays, payload shapes); a truncated or
    mismatched file is a :class:`ValueError` naming the problem.  A plain load
    copies the payload into memory (writable, CRC-32 verified).  ``mmap=True``
    maps the file once, *read-only*: loading touches no payload byte, pages
    fault in on first kernel access and are shared by every process serving
    the archive, and the descriptor goes with the last payload view — right
    for the serve path; re-factorising a mapped matrix in place is not
    supported.  Either way the factor solves to the bits that were saved.
    """
    from ..core.descriptor import Tile, TileDesc, TileHDesc
    from .block import StrongAdmissibility

    header, data = _open_archive(path, mmap=mmap)
    meta = _tile_h_meta(header, path)
    _validate_tile_h(meta, data, path)
    points = np.ascontiguousarray(data["points"])
    perm = np.ascontiguousarray(data["perm"])
    nodes = _deserialize_tree(data, points, perm)
    nt = meta["nt"]
    clusters = [nodes[int(k)] for k in data["tile_cluster_idx"]]
    n = points.shape[0]
    if sum(c.size for c in clusters) != n:
        raise _invalid(path, f"tile clusters cover {sum(c.size for c in clusters)} of {n} points")
    tiles = []
    for i in range(nt):
        for j in range(nt):
            h = _deserialize_hmatrix(data, nodes, f"t{i}_{j}_")
            if h.shape != (clusters[i].size, clusters[j].size):
                raise _invalid(path, f"tile ({i}, {j}) has shape {h.shape}, clusters say "
                                     f"{(clusters[i].size, clusters[j].size)}")
            tiles.append(Tile.of(h))
    desc = TileHDesc(
        super=TileDesc(n=n, nb=meta["nb"], nt=nt, tiles=tiles), root=nodes[0], clusters=clusters,
        admissibility=StrongAdmissibility(), perm=perm, eps=meta["eps"],
    )
    return desc, meta


def load_tile_h(path, *, mmap: bool = False):
    """Load a Tile-H descriptor saved by :func:`save_tile_h` (validation and
    ``mmap`` as in :func:`read_tile_h`, whose first result this is)."""
    return read_tile_h(path, mmap=mmap)[0]


def load_tile_h_meta(path) -> dict:
    """Read a Tile-H archive's metadata without touching any payload.

    Returns a dict with ``n``, ``nt``, ``nb``, ``eps``, ``factorized``,
    ``method`` (``None`` when unfactorised), ``config`` (the saved solver
    config as a dict, ``{}`` for v1 archives) and ``format_version``.
    """
    return _tile_h_meta(_open_archive(path, payload=False)[0], path)
