"""``sequential_blas``: the scope's bookkeeping, and where the cold path holds it.

The bookkeeping tests run against a fake library (any platform); the rest
need a real OpenBLAS and are skipped where the helper finds none.  No
wall-clock assertion anywhere: the scope's contract is thread counts and bits.
"""

import sys
import threading

import numpy as np
import pytest

import repro.hmatrix.arithmetic as arithmetic
from repro.baselines import HMatSolver
from repro.core import TileHConfig, TileHMatrix
from repro.dense import SingularTileError, sequential_blas
from repro.dense import blas as blas_mod
from repro.geometry import cylinder_cloud, make_kernel
from repro.gp import GPModel, synthetic_gp_data

JOIN_S = 30.0


class FakeBlas:
    """A library with a thread count and a log of every write to it."""

    def __init__(self, threads: int) -> None:
        self.threads = threads
        self.writes: list[int] = []

    def get(self) -> int:
        return self.threads

    def put(self, n: int) -> None:
        self.writes.append(n)
        self.threads = n


@pytest.fixture
def fakes(monkeypatch):
    libs = [FakeBlas(2), FakeBlas(4)]
    monkeypatch.setattr(blas_mod, "_find_openblas", lambda: [(f.get, f.put) for f in libs])
    return libs


def _counts(libs):
    return [f.threads for f in libs]


class TestBookkeeping:
    def test_held_at_one_and_restored(self, fakes):
        with sequential_blas():
            assert _counts(fakes) == [1, 1]
        assert _counts(fakes) == [2, 4]
        assert [f.writes for f in fakes] == [[1, 2], [1, 4]]

    def test_restored_after_exception(self, fakes):
        with pytest.raises(ZeroDivisionError):
            with sequential_blas():
                assert _counts(fakes) == [1, 1]
                1 / 0
        assert _counts(fakes) == [2, 4]

    def test_nested_entry_restores_only_at_the_outermost_exit(self, fakes):
        with sequential_blas():
            with sequential_blas():
                assert _counts(fakes) == [1, 1]
            assert _counts(fakes) == [1, 1]
            with pytest.raises(KeyError):
                with sequential_blas():
                    raise KeyError("inner")
            assert _counts(fakes) == [1, 1]
        assert _counts(fakes) == [2, 4]
        # One write down, one write back, however deep the nesting went.
        assert [f.writes for f in fakes] == [[1, 2], [1, 4]]

    def test_decorator_form_opens_a_scope_per_call(self, fakes):
        @sequential_blas()
        def inside():
            return _counts(fakes)

        assert inside() == [1, 1]
        assert inside() == [1, 1]
        assert _counts(fakes) == [2, 4]

    def test_count_of_one_is_left_alone(self, monkeypatch):
        lib = FakeBlas(1)
        monkeypatch.setattr(blas_mod, "_find_openblas", lambda: [(lib.get, lib.put)])
        with sequential_blas():
            assert lib.threads == 1
        assert lib.threads == 1
        assert lib.writes == []

    def test_no_library_found_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(blas_mod, "_find_openblas", lambda: [])
        with sequential_blas():
            with sequential_blas():
                pass
        with pytest.raises(ValueError):
            with sequential_blas():
                raise ValueError

    def test_overlapping_scopes_hold_until_the_last_leaves(self, fakes):
        # Thread A enters first and leaves first; B enters while A is inside
        # and leaves last.  The count must stay 1 after A's exit and come
        # back only with B's.
        a_inside, b_inside, a_left = (threading.Event() for _ in range(3))
        seen = {}

        def thread_a():
            with sequential_blas():
                a_inside.set()
                assert b_inside.wait(JOIN_S)
            seen["after_a"] = _counts(fakes)
            a_left.set()

        def thread_b():
            assert a_inside.wait(JOIN_S)
            with sequential_blas():
                b_inside.set()
                assert a_left.wait(JOIN_S)
                seen["b_alone"] = _counts(fakes)

        threads = [threading.Thread(target=t) for t in (thread_a, thread_b)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(JOIN_S)
        assert not any(th.is_alive() for th in threads)
        assert seen == {"after_a": [1, 1], "b_alone": [1, 1]}
        assert _counts(fakes) == [2, 4]
        assert [f.writes for f in fakes] == [[1, 2], [1, 4]]

    def test_racing_entries_never_record_one_as_what_they_found(self, fakes):
        # More threads than cores, a short switch interval, every thread
        # entering and leaving many times: whenever all are out the counts
        # must read the originals — a second entry that raced the first and
        # saved "1" would leave a library stuck at 1.
        nthreads, rounds = 8, 200
        barrier = threading.Barrier(nthreads)
        bad: list = []

        def worker():
            barrier.wait(JOIN_S)
            for _ in range(rounds):
                with sequential_blas():
                    if _counts(fakes) != [1, 1]:
                        bad.append(_counts(fakes))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(nthreads)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(JOIN_S)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert bad == []
        assert _counts(fakes) == [2, 4]
        for f, ambient in zip(fakes, (2, 4)):
            assert set(f.writes) == {1, ambient}
            assert f.writes[-1] == ambient


# -- a real OpenBLAS ------------------------------------------------------------

needs_openblas = pytest.mark.skipif(
    not blas_mod._find_openblas(), reason="no OpenBLAS loaded in this process"
)


@pytest.fixture
def ambient():
    """Set every loaded OpenBLAS to a chosen count; put the host's back after."""
    libs = blas_mod._find_openblas()
    before = [get() for get, _ in libs]

    def set_to(n: int):
        for _, put in libs:
            put(n)
        return lambda: [get() for get, _ in libs]

    yield set_to
    for (_, put), n in zip(libs, before):
        put(n)


def _laplace(n=300):
    pts = cylinder_cloud(n)
    return make_kernel("laplace", pts), pts


CFG = dict(nb=100, eps=1e-4, leaf_size=48)


def _spy_on_getrf(monkeypatch, read) -> list:
    """Record ``(thread name, thread counts)`` at every dense-leaf LU."""
    seen = []
    real_getrf = arithmetic.getrf_nopiv

    def spying_getrf(*args, **kwargs):
        seen.append((threading.current_thread().name, read()))
        return real_getrf(*args, **kwargs)

    monkeypatch.setattr(arithmetic, "getrf_nopiv", spying_getrf)
    return seen


@needs_openblas
class TestColdPathScope:
    def test_numpy_and_scipy_copies_are_both_found(self):
        # NumPy and SciPy wheels each vendor their own OpenBLAS.
        assert len(blas_mod._find_openblas()) >= 2

    def test_real_libraries_round_trip(self, ambient):
        read = ambient(2)
        with sequential_blas():
            assert set(read()) == {1}
        assert set(read()) == {2}

    @pytest.mark.parametrize("exec_mode", ["eager", "threaded"])
    def test_kernels_inside_factorize_see_one_thread(self, ambient, monkeypatch, exec_mode):
        read = ambient(2)
        seen = _spy_on_getrf(monkeypatch, read)
        kern, pts = _laplace()
        cfg = TileHConfig(**CFG, exec_mode=exec_mode, nworkers=2)
        a = TileHMatrix.build(kern, pts, cfg)
        assert set(read()) == {2}  # ambient right after build
        a.factorize()
        assert set(read()) == {2}  # ... and right after factorize
        assert seen and all(set(counts) == {1} for _, counts in seen)
        if exec_mode == "threaded":
            # Worker 0 of a run is the calling thread; the others are pool threads.
            caller = threading.current_thread().name
            assert all(name == caller or name.startswith("repro-worker-") for name, _ in seen)
        # A warm solve is outside the scope and does not toggle anything.
        a.solve(np.ones(pts.shape[0]))
        assert set(read()) == {2}

    @pytest.mark.parametrize("exec_mode", ["eager", "threaded"])
    def test_ambient_after_build_factorize(self, ambient, exec_mode):
        read = ambient(2)
        kern, pts = _laplace()
        cfg = TileHConfig(**CFG, exec_mode=exec_mode, nworkers=2)
        TileHMatrix.build_factorize(kern, pts, cfg)
        assert set(read()) == {2}

    def test_ambient_after_gp_fit(self, ambient):
        read = ambient(2)
        x, y, _, _ = synthetic_gp_data(300, 8, geometry="cylinder", noise=0.05, seed=3)
        cfg = TileHConfig(nb=100, eps=1e-6, leaf_size=48)
        GPModel("sqexp", length=0.4, signal=1.1, noise=0.05, config=cfg).fit(x, y)
        assert set(read()) == {2}

    def test_ambient_after_hmat_baseline(self, ambient, monkeypatch):
        read = ambient(2)
        seen = _spy_on_getrf(monkeypatch, read)
        kern, pts = _laplace()
        solver = HMatSolver(kern, pts, eps=1e-4, leaf_size=48)
        assert set(read()) == {2}
        solver.factorize()
        assert set(read()) == {2}
        assert seen and all(set(counts) == {1} for _, counts in seen)

    def test_ambient_after_a_factorize_that_raises(self, ambient):
        read = ambient(2)
        kern, pts = _laplace()
        a = TileHMatrix.build(kern, pts, TileHConfig(**CFG))
        for leaf in a.desc.super.get_blktile(0, 0).mat.leaves():
            if leaf.full is not None:
                leaf.full[...] = 0.0
        with pytest.raises(SingularTileError):
            a.factorize()
        assert set(read()) == {2}

    def test_user_chosen_count_is_what_comes_back(self, ambient):
        # threadpoolctl / OPENBLAS_NUM_THREADS users: the scope restores
        # what it found, not a count of its own choosing.
        read = ambient(1)
        kern, pts = _laplace()
        TileHMatrix.build_factorize(kern, pts, TileHConfig(**CFG))
        assert set(read()) == {1}


def _factor_arrays(mat: TileHMatrix) -> list[np.ndarray]:
    out = []
    nt = mat.nt
    for i in range(nt):
        for j in range(nt):
            for leaf in mat.desc.super.get_blktile(i, j).mat.leaves():
                if leaf.full is not None:
                    out.append(leaf.full)
                else:
                    out.extend((leaf.rk.u, leaf.rk.v))
    return out


@needs_openblas
@pytest.mark.parametrize(
    "kernel,method,eps",
    [("helmholtz", "lu", 1e-4), ("laplace", "lu", 1e-6), ("sqexp", "cholesky", 1e-6)],
)
def test_cold_build_bits_do_not_depend_on_ambient_blas_threads(ambient, kernel, method, eps):
    # Contract row (aim 3): a cold build's bits do not depend on the host's
    # core count.  Leaf 64 puts the complex GEMMs and real trtrs calls above
    # OpenBLAS's threading threshold, so outside the scope the two builds
    # would take different code paths inside the library.
    pts = cylinder_cloud(512)
    params = dict(length=0.3, signal=1.0, nugget=0.05**2) if kernel == "sqexp" else {}
    kern = make_kernel(kernel, pts, **params)
    cfg = TileHConfig(nb=128, eps=eps, leaf_size=64)
    factors = []
    for n in (2, 1):
        ambient(n)
        mat, _ = TileHMatrix.build_factorize(kern, pts, cfg, method=method)
        factors.append(_factor_arrays(mat))
    two, one = factors
    assert len(two) == len(one)
    for a, b in zip(two, one):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
