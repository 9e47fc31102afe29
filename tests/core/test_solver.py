"""Unit tests for the public TileHMatrix API."""

import gc
import weakref

import numpy as np
import pytest

from repro.core import TileHConfig, TileHMatrix
from repro.geometry import assemble_dense, cylinder_cloud, laplace_kernel, make_kernel
from repro.runtime import RuntimeOverheadModel

N = 350


@pytest.fixture(scope="module")
def geom():
    pts = cylinder_cloud(N)
    kern = laplace_kernel(pts)
    dense = assemble_dense(kern, pts)
    return pts, kern, dense


class TestConfig:
    def test_defaults(self):
        cfg = TileHConfig()
        assert cfg.nb > 0 and cfg.eps > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            TileHConfig(nb=0)
        with pytest.raises(ValueError):
            TileHConfig(eps=-1)
        with pytest.raises(ValueError):
            TileHConfig(leaf_size=0)

    def test_unknown_compression_method_rejected(self):
        # Caught at construction, not deep in the first admissible block.
        with pytest.raises(ValueError, match="unknown compression method 'bogus'"):
            TileHConfig(method="bogus")
        for method in ("aca", "svd", "rsvd", "aca_full"):
            assert TileHConfig(method=method).method == method

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="eps must be non-negative"):
            TileHConfig(eps=eps)


class TestBuild:
    def test_shape_and_compression(self, geom):
        pts, kern, _ = geom
        a = TileHMatrix.build(kern, pts, TileHConfig(nb=100, eps=1e-5, leaf_size=32))
        assert a.shape == (N, N)
        assert 0 < a.compression_ratio() <= 1.0
        assert a.storage_bytes() > 0
        assert a.nt == 4

    def test_to_dense_original_order(self, geom):
        pts, kern, dense = geom
        a = TileHMatrix.build(kern, pts, TileHConfig(nb=100, eps=1e-7, leaf_size=32))
        assert np.linalg.norm(a.to_dense() - dense) <= 1e-5 * np.linalg.norm(dense)

    def test_matvec_original_order(self, geom):
        pts, kern, dense = geom
        a = TileHMatrix.build(kern, pts, TileHConfig(nb=100, eps=1e-7, leaf_size=32))
        x = np.random.default_rng(0).standard_normal(N)
        assert np.linalg.norm(a.matvec(x) - dense @ x) <= 1e-5 * np.linalg.norm(dense @ x)


class TestFactorizeSolve:
    def test_full_cycle(self, geom):
        pts, kern, dense = geom
        a = TileHMatrix.build(kern, pts, TileHConfig(nb=100, eps=1e-7, leaf_size=32))
        x0 = np.random.default_rng(1).standard_normal(N)
        b = dense @ x0
        info = a.factorize()
        assert a.factorized
        assert info.n_tasks == len(info.graph)
        assert info.n_dependencies > 0
        assert info.sequential_seconds() > 0
        x = a.solve(b)
        assert np.linalg.norm(x - x0) <= 1e-4 * np.linalg.norm(x0)

    def test_factorize_twice_rejected(self, geom):
        pts, kern, _ = geom
        a = TileHMatrix.build(kern, pts, TileHConfig(nb=100, eps=1e-5, leaf_size=32))
        a.factorize()
        with pytest.raises(RuntimeError):
            a.factorize()

    def test_solve_before_factorize_rejected(self, geom):
        pts, kern, _ = geom
        a = TileHMatrix.build(kern, pts, TileHConfig(nb=100, eps=1e-5, leaf_size=32))
        with pytest.raises(RuntimeError):
            a.solve(np.zeros(N))

    def test_matvec_after_factorize_rejected(self, geom):
        pts, kern, _ = geom
        a = TileHMatrix.build(kern, pts, TileHConfig(nb=100, eps=1e-5, leaf_size=32))
        a.factorize()
        with pytest.raises(RuntimeError):
            a.matvec(np.zeros(N))

    def test_gesv(self, geom):
        pts, kern, dense = geom
        a = TileHMatrix.build(kern, pts, TileHConfig(nb=100, eps=1e-7, leaf_size=32))
        x0 = np.random.default_rng(2).standard_normal(N)
        x = a.gesv(dense @ x0)
        assert a.factorized
        assert np.linalg.norm(x - x0) <= 1e-4 * np.linalg.norm(x0)

    def test_complex_gesv(self):
        pts = cylinder_cloud(N)
        kern = make_kernel("helmholtz", pts)
        dense = assemble_dense(kern, pts)
        a = TileHMatrix.build(kern, pts, TileHConfig(nb=100, eps=1e-7, leaf_size=32))
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        x = a.gesv(dense @ x0)
        assert np.linalg.norm(x - x0) <= 1e-4 * np.linalg.norm(x0)


class TestSimulation:
    def test_simulate_from_info(self, geom):
        pts, kern, _ = geom
        a = TileHMatrix.build(kern, pts, TileHConfig(nb=50, eps=1e-5, leaf_size=25))
        info = a.factorize()
        r1 = info.simulate(1, "prio", overheads=RuntimeOverheadModel.zero())
        r35 = info.simulate(35, "prio", overheads=RuntimeOverheadModel.zero())
        assert r1.makespan == pytest.approx(info.sequential_seconds(), rel=1e-9)
        assert r35.makespan < r1.makespan
        assert r35.makespan >= r1.makespan / 35 - 1e-12

    def test_simulate_flops_model_deterministic(self, geom):
        pts, kern, _ = geom
        a = TileHMatrix.build(kern, pts, TileHConfig(nb=50, eps=1e-5, leaf_size=25))
        info = a.factorize()
        r_a = info.simulate(4, "ws", cost_attr="flops", cost_scale=1e-9)
        r_b = info.simulate(4, "ws", cost_attr="flops", cost_scale=1e-9)
        assert r_a.makespan == r_b.makespan


class TestSaveLoad:
    def test_roundtrip_and_solve(self, geom, tmp_path):
        pts, kern, dense = geom
        a = TileHMatrix.build(kern, pts, TileHConfig(nb=100, eps=1e-7, leaf_size=32))
        p = a.save(tmp_path / "a.npz")
        b = TileHMatrix.load(p)
        assert b.nt == a.nt
        assert b.compression_ratio() == a.compression_ratio()
        x0 = np.random.default_rng(5).standard_normal(N)
        x = b.gesv(dense @ x0)
        assert np.linalg.norm(x - x0) <= 1e-4 * np.linalg.norm(x0)

    def test_factorized_roundtrip_solves_bitexact(self, geom, tmp_path):
        # Factorized matrices are saveable since the v2 archive format
        # records factor payloads; the reload solves bit-identically.
        pts, kern, _ = geom
        a = TileHMatrix.build(kern, pts, TileHConfig(nb=100, eps=1e-5, leaf_size=32))
        a.factorize()
        p = a.save(tmp_path / "a.npz")
        b = TileHMatrix.load(p)
        assert b.factorized
        rhs = np.random.default_rng(6).standard_normal(N)
        assert np.array_equal(b.solve(rhs), a.solve(rhs))

    def test_load_with_explicit_config(self, geom, tmp_path):
        pts, kern, _ = geom
        a = TileHMatrix.build(kern, pts, TileHConfig(nb=100, eps=1e-5, leaf_size=32))
        p = a.save(tmp_path / "a.npz")
        b = TileHMatrix.load(p, TileHConfig(nb=100, eps=1e-5))
        assert b.config.eps == 1e-5


@pytest.mark.parametrize("mode", ["eager", "nested-threaded"])
def test_dropped_factorisation_leaves_nothing_to_the_collector(geom, mode):
    """Build, factorise, solve, drop — with the collector off everything dies
    by reference count (tasks, tiles, block trees), and a pass afterwards
    finds no unreachable object: no self-naming closure per tile in assembly,
    no ``CDLL`` re-made per BLAS scope, no handle cycle in a nested graph."""
    pts, kern, _ = geom
    extra = {}
    if mode == "nested-threaded":
        extra = dict(nested=True, nested_min_leaf=32, exec_mode="threaded", nworkers=2,
                     accumulate=False)
    cfg = TileHConfig(nb=100, eps=1e-5, leaf_size=25, **extra)

    def cycle():
        a, info = TileHMatrix.build_factorize(kern, pts, cfg)
        a.solve(np.ones(N))
        return a, info

    cycle()  # imports, the BLAS handles and a first recorded program are kept
    gc.collect()
    gc.disable()
    try:
        a, info = cycle()
        tile = a.desc.super.get_blktile(1, 0)
        refs = [weakref.ref(t) for t in info.graph.tasks]
        refs += [weakref.ref(tile), weakref.ref(a.desc)]
        del a, info, tile
        assert [r for r in refs if r() is not None] == []
        assert gc.collect() == 0
    finally:
        gc.enable()


def _failing_third_trsm_ll(monkeypatch):
    """Make the third ``trsm_ll`` kernel call of the process raise."""
    import scipy.linalg

    from repro.hmatrix import arithmetic

    kernel = arithmetic._KERNELS["trsm_ll"]
    calls = []

    def third_fails(*args):
        calls.append(1)
        if len(calls) == 3:
            raise scipy.linalg.LinAlgError("injected")
        kernel(*args)

    monkeypatch.setitem(arithmetic._KERNELS, "trsm_ll", third_fails)


FAILING = {
    "eager": {},
    "threaded": dict(exec_mode="threaded", nworkers=2, accumulate=False),
    "nested-threaded": dict(exec_mode="threaded", nworkers=2, accumulate=False, nested=True,
                            nested_min_leaf=64),
}


@pytest.mark.parametrize("mode", list(FAILING))
def test_a_failed_factorisation_is_kept_on_the_matrix(mode, monkeypatch, tmp_path):
    """Some tiles are already overwritten when a kernel raises: the matrix
    refuses every use that would read them as an operator or a factor."""
    import scipy.linalg

    pts = cylinder_cloud(512)
    kern = make_kernel("laplace", pts)
    a = TileHMatrix.build(kern, pts, TileHConfig(nb=128, eps=1e-4, leaf_size=32, **FAILING[mode]))
    _failing_third_trsm_ll(monkeypatch)
    with pytest.raises(scipy.linalg.LinAlgError, match="injected"):
        a.factorize()
    monkeypatch.undo()
    assert not a.factorized
    uses = {
        "matvec": lambda: a.matvec(np.ones(512)),
        "factorize": a.factorize,
        "solve": lambda: a.solve(np.ones(512)),
        "save": lambda: a.save(tmp_path / "a.npz"),
    }
    for use in uses.values():
        with pytest.raises(RuntimeError, match="failed factorize.*LinAlgError: injected"):
            use()
    assert not (tmp_path / "a.npz").exists()


class TestLoadConfig:
    @pytest.fixture(scope="class")
    def archive(self, geom, tmp_path_factory):
        pts, kern, _ = geom
        cfg = TileHConfig(nb=128, eps=1e-4, leaf_size=32, accumulate=False)
        a = TileHMatrix.build(kern, pts, cfg)
        a.factorize()
        return a.save(tmp_path_factory.mktemp("load") / "f.npz"), cfg

    @pytest.mark.parametrize("field,value", [("nb", 64), ("eps", 1e-2)])
    def test_a_config_contradicting_the_archive_is_rejected(self, archive, field, value):
        from dataclasses import replace

        path, cfg = archive
        with pytest.raises(ValueError, match=f"config.{field}=.*archive's {field}="):
            TileHMatrix.load(path, replace(cfg, **{field: value}))

    def test_executor_fields_stay_free(self, archive):
        from dataclasses import replace

        path, cfg = archive
        free = replace(cfg, exec_mode="threaded", nworkers=2, scheduler="ws", nested=True,
                       nested_min_leaf=32)
        b = TileHMatrix.load(path, free)
        assert b.config == free and b.factorized
