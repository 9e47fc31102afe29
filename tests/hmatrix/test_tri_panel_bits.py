"""The bits of the ℌ panel solves on an H-structured factor, every cell.

:func:`~repro.hmatrix.arithmetic.solve_tri_panel` walks a factorised diagonal
node block row by block row (:func:`~repro.hmatrix.arithmetic.tri_walk`).  It
replaced four hand-written walks (``solve_lower_panel``, ``solve_upper_panel``,
``solve_upper_transpose_panel``, ``solve_lower_transpose_panel``); these
fingerprints were recorded from those four — the upper unit-diagonal cells,
which none of them offered, from the two upper walks with the flag passed
down to their leaf ``trtrs`` — and the one walk must reproduce them: same
values, dtype, shape and memory order.  Factors: LU d (Laplace), LU z
(Helmholtz, real right-hand sides promoted) and Cholesky (squared
exponential), n=600, leaf 32, eps=1e-4: the top node and its diagonal
children are subdivided, and the packed nodes below them are one ``trtrs``
each.  Recorded on the platform named by
``tests/core/test_cholesky_lower.RECORDED_ON`` and skipped elsewhere.
"""

import hashlib

import numpy as np
import pytest

from repro.geometry import cylinder_cloud, make_kernel
from repro.hmatrix import (
    AssemblyConfig,
    StrongAdmissibility,
    assemble_hmatrix,
    build_block_cluster_tree,
    build_cluster_tree,
    hgetrf,
    hpotrf,
)
from repro.hmatrix.arithmetic import solve_tri_panel

from ..core.test_cholesky_lower import _on_recording_platform

N, LEAF, EPS = 600, 32, 1e-4
FACTORS = {
    "lu_d": ("laplace", {}, hgetrf),
    "lu_z": ("helmholtz", {}, hgetrf),
    "chol": ("sqexp", {"nugget": 1e-2}, hpotrf),
}
#: factor -> ``lower unit trans`` cell -> SHA-256 over the vector, C-order
#: panel and F-order panel solutions.
PINS = {
    "lu_d": {
        "1 0 0": "6b186a37cfd4d76da0fc31bda938918dfbf40835d6ef6abc23edec6472303cef",
        "1 1 0": "e7cdc04c595c198f5a07d50bdea361f0d2108c708155c36f31bd3c381565b119",
        "0 0 0": "6360a979e291252b5c35d7743ed9d81e7cf28f1c2633d55d3d65a3514652ac23",
        "0 1 0": "b552460e259805161acb40ae2db0a6c211f124794bbba2b8b6a13255455976d5",
        "1 0 1": "de2b41953e0ea1d77945f82e1868ac91c00fe79252ae024be98812faff0f9a56",
        "1 1 1": "7cc186fdc37902af8d39e7d473ea0e465838d04f7529d45e82eb1f42c1e7c72e",
        "0 0 1": "06496dfdbf5792faf897d880af1cc4176b0df39db01351f1bef9ed8a5f11f787",
        "0 1 1": "3c24b586458d79c7aa948e750021bb7ddbb8c27c189ada78ee06ccab0516a6d7",
    },
    "lu_z": {
        "1 0 0": "1227b9b908573c014255bd0d5d0a3c88cb3a44d14fae72548851b86102e71220",
        "1 1 0": "53af0a8a3db21765306af9916692bd733e5811725abfe71e757ed87edd042161",
        "0 0 0": "ca9c9dacc079f8262065a24d1b7660910a4423af53f8f54a04409d850a11ec4f",
        "0 1 0": "edd7e2673051920253899cd269991203a66ae221c18efc2741808f3685c1e097",
        "1 0 1": "03b312e13ad192302bb2fda5c8e5badc8c84f1923daf78a5a2e388d418dd1c08",
        "1 1 1": "bbf78f162dee72b3c87cc50362e64686e0f884113af26943e547cf58a869fa6d",
        "0 0 1": "a4e298ce5b20f2620707d56870963e3f08e7798f403970ba3f4dd4a85708f1d0",
        "0 1 1": "7a49bf90d923256892c8ec72907e4ac04ccdec4d1ee65e82a7c05c56ca72084a",
    },
    "chol": {
        "1 0 0": "eec85fce6cdec513818832c8f30d53d8dad805ad2ee60af7507530f932bce171",
        "1 1 0": "2a9cc1c8c85424159cc511fe8f0185da08ad5d83e4f93159c5cd229547314628",
        "0 0 0": "79b246cae123266848da4cec503fdecd0d43bf065d0422f6441b2f23c0fe173f",
        "0 1 0": "3139e15138b6d0ab0af1655e5dd0fa19d47042ad08b66dab874b8b866b88506d",
        "1 0 1": "efec2f512ae4c3f7a32eda82921224d28ef62bc72aa463403d3e0eec1afe9deb",
        "1 1 1": "5c18bb8131e21e0efe8537e2d04c918870522117fd074d02f12bc8600bab8aee",
        "0 0 1": "a98905937300a1a52fe8bf9de47c346c8b76bd85b082d6f7470825c8f927f2a7",
        "0 1 1": "a791eda33aa62a371ac7ad785d3c3331a41705541e54b7cc017bdd20c17c94b2",
    },
}


@pytest.fixture(scope="module", params=list(FACTORS))
def factor(request):
    _on_recording_platform()
    kernel, params, factorise = FACTORS[request.param]
    pts = cylinder_cloud(N)
    ct = build_cluster_tree(pts, leaf_size=LEAF)
    bt = build_block_cluster_tree(ct, ct, StrongAdmissibility())
    h = assemble_hmatrix(make_kernel(kernel, pts, **params), pts, bt, AssemblyConfig(eps=EPS))
    factorise(h, EPS)
    assert h.packed_lu is None and h.child(0, 0).packed_lu is None
    return request.param, h


def _right_hand_sides(n: int):
    rng = np.random.default_rng(7)
    panel = rng.standard_normal((n, 5))
    return rng.standard_normal(n), panel, np.asfortranarray(panel)


def panel_solve_sha256(t, lower: bool, unit: bool, trans: int) -> str:
    s = hashlib.sha256()
    for x in _right_hand_sides(t.shape[0]):
        before = x.copy()
        y = solve_tri_panel(t, x, lower=lower, unit=unit, trans=trans)
        assert np.array_equal(x, before)  # the right-hand side is copied
        s.update(repr((y.dtype.str, y.shape, y.flags.f_contiguous)).encode())
        s.update(np.ascontiguousarray(y).tobytes())
    return s.hexdigest()


@pytest.mark.parametrize("cell", list(PINS["lu_d"]))
def test_panel_solves_keep_their_bits(factor, cell):
    name, t = factor
    lower, unit, trans = map(int, cell.split())
    assert panel_solve_sha256(t, bool(lower), bool(unit), trans) == PINS[name][cell]
