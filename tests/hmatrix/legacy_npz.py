"""Writer of the legacy ``.npz`` Tile-H archive (formats v1/v2), for tests.

The library only *reads* this layout now (one zip member per array, scalars
as 1-element arrays); archives of it exist on disk, so the tests that pin the
read path write one here — the only place the old layout is still written.
"""

import json
from dataclasses import asdict

import numpy as np

from repro.hmatrix import io as hio


def write_legacy_npz(solver, path, *, version: int = 2, compressed: bool = False):
    """Save ``solver`` (a ``TileHMatrix``) to ``path`` as a v1/v2 ``.npz``."""
    desc = solver.desc
    idx = hio._tree_index(desc.root)
    payloads: dict = {}
    arrays = {
        "points": desc.root.points,
        "perm": desc.root.perm,
        "nt": np.asarray([desc.nt], dtype=np.int64),
        "nb": np.asarray([desc.nb], dtype=np.int64),
        "eps": np.asarray([desc.eps], dtype=np.float64),
        "tile_cluster_idx": np.asarray([idx[id(c)] for c in desc.clusters], dtype=np.int64),
        **hio._serialize_tree(desc.root),
    }
    for i in range(desc.nt):
        for j in range(desc.nt):
            mat = desc.super.get_blktile(i, j).mat
            arrays.update(hio._serialize_hmatrix(mat, idx, payloads, f"t{i}_{j}_"))
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
    (np.savez_compressed if compressed else np.savez)(path, **arrays, **payloads)
    return path
