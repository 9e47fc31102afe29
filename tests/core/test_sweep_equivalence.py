"""Generated equivalence matrix: the compiled sweep against the old leaf walk.

``reference_sweep.py`` is the substitution the library ran before the sweep
was compiled into one flat program, kept verbatim.  No bit of any solve or
prediction may differ from it, over

    (LU d, LU z, Cholesky) x (packed diagonal, H-structured diagonal)
    x factor source (in memory, load, load(mmap=True))
    x widths (vector, 0, 1, 2, 7, 64) x right-hand-side dtype x layout,

and every other solve path (task-based on each engine, ``TileHMatrix.solve``
in each ``exec_mode``, ``GPModel.predict``) must agree with the eager
program, because they all interpret the same steps.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    TileHConfig,
    TileHMatrix,
    tiled_chol_solve,
    tiled_chol_solve_tasks,
    tiled_solve,
    tiled_solve_tasks,
)
from repro.geometry import cylinder_cloud, make_kernel
from repro.gp import GPModel, synthetic_gp_data
from repro.gp.model import _posterior
from repro.runtime import StfEngine, ThreadedExecutor

from . import reference_sweep as ref

FACTORS = {"lu_d": ("laplace", "lu"), "lu_z": ("helmholtz", "lu"), "chol": ("exponential", "cholesky")}
#: n, nb: tiles up to 256 rows pack their diagonal triangle dense; larger
#: ones keep it H-structured and the sweep recurses into it.
DIAGONALS = {"packed": (400, 100), "hstruct": (640, 320)}
SOURCES = ("memory", "load", "mmap")
WIDTHS = ("vec", 0, 1, 2, 7, 64)
#: float64 is "real on a complex factor" for lu_z, complex128 "complex on a
#: real factor" for the other two.
DTYPES = (np.float64, np.complex128, np.float32, np.int64)
LAYOUTS = ("C", "F", "strided", "readonly")


@pytest.fixture(scope="module")
def factors(tmp_path_factory):
    """Every (factor, diagonal) pair, factorised once, plus its archive."""
    out = {}
    root = tmp_path_factory.mktemp("sweep-factors")
    for fname, (kernel, method) in FACTORS.items():
        for dname, (n, nb) in DIAGONALS.items():
            pts = cylinder_cloud(n)
            cfg = TileHConfig(nb=nb, eps=1e-6, leaf_size=32, accumulate=False)
            a, _ = TileHMatrix.build_factorize(make_kernel(kernel, pts), pts, cfg, method=method)
            out[fname, dname] = (a, a.save(root / f"{fname}-{dname}.tileh"))
    return out


def _from(factors, fname, dname, source, config=None):
    a, path = factors[fname, dname]
    if source == "memory" and config is None:
        return a
    return TileHMatrix.load(path, config, mmap=source == "mmap")


def _rhs(n, width, dtype, layout, seed):
    rng = np.random.default_rng(seed)
    shape = (n,) if width == "vec" else (n, width)
    b = rng.standard_normal(shape) * 4
    if np.dtype(dtype).kind == "c":
        b = b + 1j * rng.standard_normal(shape)
    b = b.astype(dtype)
    if layout == "F":
        b = np.asfortranarray(b)
    elif layout == "strided":
        wide = np.zeros((2 * n,) + shape[1:], dtype=dtype)
        wide[::2] = b
        b = wide[::2]
    elif layout == "readonly":
        b.setflags(write=False)
    return b


def _same(x, y, what):
    assert x.dtype == y.dtype and x.shape == y.shape, what
    assert x.tobytes() == y.tobytes(), what


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("dname", DIAGONALS)
@pytest.mark.parametrize("fname", FACTORS)
def test_program_matches_reference_walk(factors, fname, dname, source):
    a = _from(factors, fname, dname, source)
    old = ref.tiled_chol_solve if a._method == "cholesky" else ref.tiled_solve
    if dname == "hstruct":
        assert all(a.desc.super.get_blktile(k, k).mat.packed_lu is None for k in range(a.nt))
    seed = 0
    for width in WIDTHS:
        for dtype in DTYPES:
            for layout in LAYOUTS:
                seed += 1
                b = _rhs(a.desc.n, width, dtype, layout, seed)
                keep = b.copy()
                what = f"{fname}/{dname}/{source} width={width} {np.dtype(dtype)} {layout}"
                _same(a.solve(b), old(a.desc, b), what)
                assert np.array_equal(b, keep), f"{what}: right-hand side modified"


@pytest.mark.parametrize("dname", DIAGONALS)
@pytest.mark.parametrize("fname", FACTORS)
def test_any_column_equals_its_standalone_solve(factors, fname, dname):
    a = _from(factors, fname, dname, "memory")
    for width in (1, 2, 7, 64):
        b = _rhs(a.desc.n, width, np.float64, "C", width)
        x = a.solve(b)
        for c in range(width):
            _same(x[:, c], a.solve(b[:, c]), f"{fname}/{dname} width={width} column {c}")
    # ... and of the batch it rides in (the micro-batcher's contract).
    b = _rhs(a.desc.n, 7, np.float64, "C", 99)
    _same(a.solve(b)[:, [1, 4]], a.solve(b[:, [1, 4]]), "sub-batch")


@pytest.mark.parametrize("dname", DIAGONALS)
@pytest.mark.parametrize("fname", FACTORS)
def test_every_engine_runs_the_same_steps(factors, fname, dname):
    a = _from(factors, fname, dname, "memory")
    chol = a._method == "cholesky"
    free, tasks = (tiled_chol_solve, tiled_chol_solve_tasks) if chol else (tiled_solve, tiled_solve_tasks)
    for width in ("vec", 0, 1, 5):
        b = _rhs(a.desc.n, width, np.float64, "F", 7)
        x = a.solve(b)
        what = f"{fname}/{dname} width={width}"
        _same(free(a.desc, b), x, f"{what}: free function")
        _same(tasks(a.desc, b)[0], x, f"{what}: eager engine")
        _same(tasks(a.desc, b, StfEngine(racecheck=True))[0], x, f"{what}: racecheck")
        threaded = tasks(a.desc, b, StfEngine(mode="deferred"),
                         executor=ThreadedExecutor(nworkers=2, scheduler="lws"))
        _same(threaded[0], x, f"{what}: threaded x2")


@pytest.mark.parametrize("exec_mode", ["eager", "racecheck", "threaded", "process"])
@pytest.mark.parametrize("fname", ["lu_d", "chol"])
def test_solver_answers_do_not_depend_on_exec_mode(factors, fname, exec_mode):
    a, _ = factors[fname, "packed"]
    if exec_mode == "racecheck":
        cfg = replace(a.config, racecheck=True)
    else:
        cfg = replace(a.config, exec_mode=exec_mode, nworkers=2)
    other = _from(factors, fname, "packed", "load", cfg)
    for width in ("vec", 3):
        b = _rhs(a.desc.n, width, np.float64, "C", 11)
        _same(other.solve(b), a.solve(b), f"{fname} {exec_mode} width={width}")


# -- GP predictions ---------------------------------------------------------

def _reference_predict(model, x_test):
    """``GPModel.predict``'s fold over the old sweep's solve of the
    cross-covariance panel."""
    ks = model.kern_(model.x_, x_test)
    v = ref.tiled_chol_solve(model.solver_.desc, ks)
    return _posterior(model.kern_, ks, model.y_, x_test, v)


@pytest.mark.parametrize("exec_mode", ["eager", "threaded", "process"])
def test_gp_predictions_keep_their_bits(exec_mode):
    x, y, pool, _ = synthetic_gp_data(400, 64, geometry="cylinder", noise=0.05, seed=3)
    cfg = TileHConfig(nb=100, eps=1e-8, leaf_size=40, accumulate=False,
                      exec_mode=exec_mode, nworkers=2)
    model = GPModel("sqexp", length=0.4, signal=1.1, noise=0.05, config=cfg).fit(x, y)
    for m in (1, 2, 64):
        x_test = np.ascontiguousarray(pool[:m])
        got = model.predict(x_test)
        mean, var = _reference_predict(model, x_test)
        _same(got.mean, mean, f"{exec_mode} m={m}: mean")
        _same(got.var, var, f"{exec_mode} m={m}: var")
