"""Writers of the older Tile-H layouts (v1/v2 ``.npz``, v3 container), for tests.

The library only *reads* these layouts now: one array per leaf, named by tile
prefix and pre-order node index (``t{i}_{j}_full_{k}``, ``t{i}_{j}_rku_{k}`` …).
Archives of them exist on disk, so the tests that pin the read path write one
here, with a frozen copy of the per-leaf serialiser — the only place the old
layouts are still written.
"""

import json
from dataclasses import asdict

import numpy as np

from repro.hmatrix import io as hio

_KIND_CODE = {"full": 0, "rk": 1, "h": 2}


def serialize_hmatrix_v3(h, idx, payloads: dict, prefix: str) -> dict:
    """The per-leaf (v1–v3) arrays of ``h``: node structure arrays returned,
    leaf payloads added to ``payloads`` under per-node names."""
    kinds, rows_i, cols_i, nrc, ncc, plu = [], [], [], [], [], []

    def visit(node) -> None:
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


def _per_leaf_arrays(desc) -> dict:
    tree, idx = hio._serialize_tree(desc.root)
    payloads: dict = {}
    arrays = {
        "points": desc.root.points,
        "perm": desc.root.perm,
        "tile_cluster_idx": np.asarray([idx[id(c)] for c in desc.clusters], dtype=np.int64),
        **tree,
    }
    for i in range(desc.nt):
        for j in range(desc.nt):
            mat = desc.super.get_blktile(i, j).mat
            arrays.update(serialize_hmatrix_v3(mat, idx, payloads, f"t{i}_{j}_"))
    return {**arrays, **payloads}


def write_v3(solver, path):
    """Save ``solver`` (a ``TileHMatrix``) to ``path`` as a v3 container: the
    current container around one array per leaf."""
    desc = solver.desc
    header = {
        "format_version": 3, "n": int(desc.root.points.shape[0]),
        "nt": int(desc.nt), "nb": int(desc.nb), "eps": float(desc.eps),
        "factorized": bool(solver.factorized),
        "method": solver._method if solver.factorized else None,
        "config": asdict(solver.config),
    }
    return hio._write_archive(path, header, _per_leaf_arrays(desc))


def write_v3_hmatrix(h, tree, path):
    """Save one H-matrix to ``path`` as a v3 container (tile prefix ``h_``)."""
    arrays, idx = hio._serialize_tree(tree)
    payloads: dict = {}
    arrays = {"points": tree.points, "perm": tree.perm, **arrays,
              **serialize_hmatrix_v3(h, idx, payloads, "h_")}
    header = {"format_version": 3, "n": int(tree.points.shape[0])}
    return hio._write_archive(path, header, {**arrays, **payloads})


def write_legacy_npz(solver, path, *, version: int = 2, compressed: bool = False):
    """Save ``solver`` (a ``TileHMatrix``) to ``path`` as a v1/v2 ``.npz``."""
    desc = solver.desc
    arrays = {
        **_per_leaf_arrays(desc),
        "nt": np.asarray([desc.nt], dtype=np.int64),
        "nb": np.asarray([desc.nb], dtype=np.int64),
        "eps": np.asarray([desc.eps], dtype=np.float64),
    }
    if version == 1:
        # v1 predates the factorisation state and the packed-triangle flags.
        arrays = {k: v for k, v in arrays.items() if not k.endswith("_plu")}
    else:
        method = solver._method if solver.factorized else ""
        arrays.update(
            format_version=np.asarray([2], dtype=np.int64),
            factorized=np.asarray([int(solver.factorized)], dtype=np.int8),
            method=np.asarray([method]),
            config_json=np.asarray([json.dumps(asdict(solver.config), sort_keys=True)]),
        )
    (np.savez_compressed if compressed else np.savez)(path, **arrays)
    return path
