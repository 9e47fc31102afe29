"""A Cholesky assembles, updates and keeps only the triangle it factors.

``build_factorize(method="cholesky")`` assembles the ``nt(nt+1)/2`` tiles on
and below the diagonal; a diagonal block's update is the lower-only ``syrk``,
which writes nothing above the diagonal; after ``factorize(method="cholesky")``
every strictly upper tile is the rank-0 tile ``L`` holds there — under every
executor and from both build paths, with one factor between them.  The factor
and its solves were those of the full-product update that came before, bit for
bit (fingerprints first recorded with it, since re-recorded with the wide Rk
rounding), and archives written by it, which hold data above the diagonal, load
without it and solve to the same bits.
"""

import ctypes
import hashlib
from functools import lru_cache

import numpy as np
import pytest
import scipy
import scipy.linalg

import repro.core.build as build_module
from repro.core import TileHConfig, TileHMatrix, build_tile_h, factor_program as fp
from repro.geometry import cylinder_cloud, make_kernel
from repro.gp import GPModel, synthetic_gp_data
from repro.obs import Instrumentation
from repro.runtime import NestedPolicy
from repro.service import FactorizationStore
from repro.service.problems import ProblemSpec, build_solver

N, NB, LEAF = 384, 96, 24  # nt = 4: 10 lower tiles, 6 strictly upper

EXECUTORS = {
    "eager": {},
    "threaded-opaque": dict(exec_mode="threaded", nworkers=2),
    "threaded-nested": dict(exec_mode="threaded", nworkers=2, nested=True, nested_min_leaf=32),
    "eager-nested": dict(nested=True, nested_min_leaf=32),
    # A process run defers no update: it factors to the accumulate=False bits.
    "process": dict(exec_mode="process", nworkers=2, accumulate=False),
}


@lru_cache(maxsize=None)
def _points(n=N):
    return cylinder_cloud(n)


def _kernel(n=N):
    return make_kernel("sqexp", _points(n), nugget=1e-2)


def _cfg(**kw):
    return TileHConfig(nb=NB, eps=1e-6, leaf_size=LEAF, **kw)


def _strictly_upper(h):
    """The leaves of diagonal node ``h`` strictly above its diagonal."""
    if h.is_leaf:
        return
    for i in range(h.nrow_children):
        for j in range(h.ncol_children):
            c = h.child(i, j)
            if i < j:
                yield from c.leaves()
            elif i == j:
                yield from _strictly_upper(c)


def _lower(h):
    """The leaves of diagonal node ``h`` on and below its diagonal."""
    if h.is_leaf:
        yield h
        return
    for i in range(h.nrow_children):
        for j in range(i + 1):
            c = h.child(i, j)
            yield from (_lower(c) if i == j else c.leaves())


def _factor_leaves(desc):
    """Every leaf ``L`` is made of: the lower tiles', the diagonal ones' lower part."""
    grid = desc.super
    for i in range(desc.nt):
        for j in range(i + 1):
            mat = grid.get_blktile(i, j).mat
            yield from (_lower(mat) if i == j else mat.leaves())


def _arrays(leaf):
    return (leaf.full,) if leaf.full is not None else (leaf.rk.u, leaf.rk.v)


def _same_leaves(xs, ys):
    xs, ys = list(xs), list(ys)
    return len(xs) == len(ys) and all(
        x.kind == y.kind and all(map(np.array_equal, _arrays(x), _arrays(y)))
        for x, y in zip(xs, ys)
    )


def factor_sha256(desc) -> str:
    """SHA-256 of the bytes of every leaf of the factor ``L``, in tile and leaf order."""
    s = hashlib.sha256()
    for leaf in _factor_leaves(desc):
        for arr in _arrays(leaf):
            s.update(np.ascontiguousarray(arr).tobytes())
    return s.hexdigest()


def sha256(*arrays) -> str:
    s = hashlib.sha256()
    for a in arrays:
        s.update(np.ascontiguousarray(a).tobytes())
    return s.hexdigest()


def _assert_upper_rank0(desc):
    grid = desc.super
    for i in range(desc.nt):
        for j in range(i + 1, desc.nt):
            tile = grid.get_blktile(i, j)
            assert tile.format == "rk" and tile.mat.rk.rank == 0, (i, j)
            assert tile.mat.rows is desc.clusters[i] and tile.mat.cols is desc.clusters[j]
            assert tile.dtype == grid.dtype


@lru_cache(maxsize=None)
def _assembled():
    """The matrix as assembled, never factorised: the input bits."""
    return TileHMatrix.build(_kernel(), _points(), _cfg())


@lru_cache(maxsize=None)
def _eager_factor(accumulate):
    a = TileHMatrix.build(_kernel(), _points(), _cfg(accumulate=accumulate))
    a.factorize(method="cholesky")
    return a


@pytest.mark.parametrize("path", ["build+factorize", "build_factorize"])
@pytest.mark.parametrize("executor", EXECUTORS)
def test_every_executor_leaves_the_upper_tiles_rank0(executor, path):
    """Strictly upper tiles rank-0; the diagonal tiles' strictly upper leaves
    their input bits, never written, nothing pending; ``L`` the eager one."""
    cfg = _cfg(**EXECUTORS[executor])
    if path == "build_factorize":
        a, _ = TileHMatrix.build_factorize(_kernel(), _points(), cfg, method="cholesky")
    else:
        a = TileHMatrix.build(_kernel(), _points(), cfg)
        a.factorize(method="cholesky")
    _assert_upper_rank0(a.desc)
    grid, assembled = a.desc.super, _assembled().desc.super
    for k in range(a.nt):
        upper = list(_strictly_upper(grid.get_blktile(k, k).mat))
        assert upper and all(leaf.pending is None for leaf in upper)
        assert _same_leaves(upper, _strictly_upper(assembled.get_blktile(k, k).mat))
    ref = _eager_factor(cfg.accumulate)
    assert _same_leaves(_factor_leaves(a.desc), _factor_leaves(ref.desc))
    b = np.random.default_rng(3).standard_normal(N)
    assert np.array_equal(a.solve(b), ref.solve(b))


def test_build_factorize_assembles_only_the_lower_tiles(monkeypatch):
    """``nt(nt+1)/2`` block trees reach the assembler, the probe's ``h.bytes``
    counts those tiles only, and a full build ends at the same ``h.bytes``
    once its factorisation has dropped the upper tiles."""
    trees = []

    def spy(kernel, points, block_trees, cfg):
        trees.extend(block_trees)
        return assemble(kernel, points, block_trees, cfg)

    assemble = build_module.assemble_hmatrices
    monkeypatch.setattr(build_module, "assemble_hmatrices", spy)
    with Instrumentation() as probe:
        a, _ = TileHMatrix.build_factorize(_kernel(), _points(), _cfg(), method="cholesky")
    clusters = a.desc.clusters
    nt = a.nt
    assert [(t.rows, t.cols) for t in trees] == [
        (clusters[i], clusters[j]) for i in range(nt) for j in range(i + 1)
    ]
    lower_bytes = probe.registry.gauge("h.bytes")
    assembled = _assembled().desc.super
    assert lower_bytes == sum(
        assembled.get_blktile(i, j).storage_bytes() for i in range(nt) for j in range(i + 1)
    )

    trees.clear()
    with Instrumentation() as probe:
        b = TileHMatrix.build(_kernel(), _points(), _cfg())
        assert len(trees) == nt * nt  # build() assembles every tile: matvec works
        b.factorize(method="cholesky")
    assert probe.registry.gauge("h.bytes") == lower_bytes


def test_lower_build_makes_the_upper_tiles_rank0():
    desc = build_tile_h(_kernel(), _points(), NB, eps=1e-6, leaf_size=LEAF, lower=True)
    _assert_upper_rank0(desc)
    full = _assembled().desc.super
    grid = desc.super
    for i in range(desc.nt):
        for j in range(i + 1):
            assert _same_leaves(grid.get_blktile(i, j).mat.leaves(),
                                full.get_blktile(i, j).mat.leaves())


# -- the bits of the full-product update ------------------------------------------

#: Recorded with the Rk rounding that QR-factors only a factor with more rows
#: than the stacked rank (a wide sum is one product and one SVD).  Float bits
#: depend on the BLAS kernels, so they hold where they were recorded: NumPy
#: 2.4.6 and SciPy 1.17.1 wheels on OpenBLAS's SkylakeX kernels.
RECORDED_ON = ("2.4.6", "1.17.1", ("SkylakeX", "SkylakeX"))
GP_CHOL = {  # benchmarks/e2e's gp_chol problem: n=2000, nb=250, leaf 48, eps=1e-6
    "factor": "a4525923502162bbcfbf0a093239db0d23fb88e720756a803b7e667f1171ada7",
    "predict": "777f049092c45eb25d78c52e092f6ec90c021c6df1c4a08fcd34b2a790f5b69c",
}
SERVE_MIX_GP = {  # benchmarks/e2e's serve_mix GP key: sqexp, n=1200, nb=200, eps=1e-6
    "factor": "e2159706489e8b6129467056b64ea0b71671bc6a048dee1cc86630af2d824d4b",
    "solve": "9c8ab4f99bbb4a63a8f1b5fe3e8a3a8332a09278d04810ec5e3484513351bc8e",
}


def _blas_platform() -> tuple:
    """NumPy's and SciPy's versions and the OpenBLAS kernels they run on."""
    cores = []
    with open("/proc/self/maps") as f:
        paths = sorted({ln.split()[-1] for ln in f if "openblas" in ln and ".so" in ln})
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            get = getattr(lib, name, None)
            if get is not None:
                get.restype = ctypes.c_char_p
                cores.append(get().decode())
                break
    return (np.__version__, scipy.__version__, tuple(cores))


def _on_recording_platform():
    scipy.linalg.lu_factor(np.eye(2))  # maps SciPy's OpenBLAS before reading the maps
    here = _blas_platform()
    if here != RECORDED_ON:
        pytest.skip(f"fingerprints recorded on {RECORDED_ON}, this is {here}")


@pytest.mark.parametrize("exec_mode", ["eager", "threaded"])
def test_gp_chol_factor_and_predictions_keep_their_bits(exec_mode):
    _on_recording_platform()
    x, y, pool, _ = synthetic_gp_data(2000, 256, noise=0.05, seed=0)
    cfg = TileHConfig(nb=250, eps=1e-6, leaf_size=48, exec_mode=exec_mode,
                      nworkers=2 if exec_mode == "threaded" else 1)
    model = GPModel("sqexp", config=cfg, length=0.3, signal=1.0, noise=0.05).fit(x, y)
    _assert_upper_rank0(model.solver_.desc)
    assert factor_sha256(model.solver_.desc) == GP_CHOL["factor"]
    res = model.predict(pool[:16])
    assert sha256(res.mean, res.var) == GP_CHOL["predict"]


def test_serve_mix_gp_key_keeps_its_bits():
    _on_recording_platform()
    spec = ProblemSpec(kernel="sqexp", n=1200, nb=200, eps=1e-6, kind="gp",
                       length=0.3, signal=1.0, noise=0.05)
    solver = build_solver(spec)
    pts = cylinder_cloud(1200)
    kern = make_kernel("sqexp", pts, length=0.3, signal=1.0, nugget=0.05**2)
    b = np.asfortranarray(kern(pts, cylinder_cloud(32)[:8]))
    assert factor_sha256(solver.desc) == SERVE_MIX_GP["factor"]
    assert sha256(solver.solve(b)) == SERVE_MIX_GP["solve"]


# -- archives written with data above the diagonal ---------------------------------

GP = dict(kernel="sqexp", length=0.3, signal=1.0, noise=0.05)


def _make_old_shaped(solver, assembled):
    """Turn the factor ``solver`` into what archives held before: the strictly
    upper tiles as assembled (``assembled``: the tiles of ``build``), the
    diagonal tiles' strictly upper leaves holding data (their input bits
    shifted here; whatever the full-product update left, there)."""
    grid = solver.desc.super
    for i in range(solver.nt):
        for j in range(i + 1, solver.nt):
            grid.set_blktile(i, j, assembled.get_blktile(i, j))
        for leaf, src in zip(_strictly_upper(grid.get_blktile(i, i).mat),
                             _strictly_upper(assembled.get_blktile(i, i).mat)):
            leaf.full = None if src.full is None else src.full + 1.0
            leaf.rk = None if src.rk is None else src.rk.scale(2.0)
    solver.desc.relink_clusters()  # onto the factor's own cluster tree


def test_archives_with_data_above_the_diagonal_solve_to_the_same_bits(tmp_path):
    x, y, pool, _ = synthetic_gp_data(400, 16, noise=0.05, seed=1)
    model = GPModel(config=TileHConfig(nb=100, eps=1e-6, leaf_size=48), **GP).fit(x, y)
    xt = pool[:8]
    ks = model.kern_(x, xt)
    want_x, want = model.solver_.solve(ks), model.predict(xt)
    old = GPModel(config=model.config, **GP).fit(x, y).solver_  # the model's own stays clean
    _make_old_shaped(old, TileHMatrix.build(model.kern_, x, model.config).desc.super)
    assert old.desc.super.get_blktile(0, 1).storage() > 0
    path = tmp_path / "old.tileh"
    old.save(path)
    model.solver_.save(tmp_path / "new.tileh")
    want_bytes = TileHMatrix.load(tmp_path / "new.tileh").storage_bytes()
    assert want_bytes == model.solver_.storage_bytes() < old.storage_bytes()
    for mmap in (False, True):
        loaded = TileHMatrix.load(path, mmap=mmap)
        _assert_upper_rank0(loaded.desc)
        assert loaded.storage_bytes() == want_bytes, mmap
        assert np.array_equal(loaded.solve(ks), want_x), mmap
        fitted = GPModel.load(path, x, y, mmap=mmap, **GP)
        assert fitted.solver_.storage_bytes() == want_bytes, mmap
        got = fitted.predict(xt)
        assert np.array_equal(got.mean, want.mean) and np.array_equal(got.var, want.var), mmap
    FactorizationStore(tmp_path / "store").put("old", old)
    for mmap in (False, True):
        served = FactorizationStore(tmp_path / "store", mmap=mmap).get("old")
        assert served.storage_bytes() == want_bytes, mmap
        assert np.array_equal(served.solve(ks), want_x), mmap


def test_a_pack_step_sits_on_a_packable_node_only():
    """A split potrf ends with ``pack`` on a node of at most 256 rows, as a
    split getrf does: a larger one has nothing pending to flush by then and
    is never packed, so its ``pack`` would be an empty subtask."""
    desc = build_tile_h(_kernel(1800), _points(1800), 600, eps=1e-6, leaf_size=64, lower=True)
    program = fp.record(desc, "cholesky", NestedPolicy(min_leaf=64))
    graph = fp.instantiate(program, desc)[0]
    rows = [t.accesses[0][0].payload.shape[0] for t in graph.tasks if t.kind == "pack"]
    assert rows and max(rows) <= 256
