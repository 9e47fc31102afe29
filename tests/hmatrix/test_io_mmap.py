"""Mapped loads of Tile-H archives: mapped == read == in-memory, bit for bit.

Every archive is one container whose payload arrays sit at 64-byte multiples
of a page-aligned region.  ``load(path)`` reads that region into one aligned
buffer; ``load(path, mmap=True)`` maps the file once, read-only.  Both hand
BLAS operands with the same alignment mod 64 and the same C/Fortran order as
the factor that was saved, so solves agree exactly — not to a few ulps.
"""

import mmap
import sys
import threading

import numpy as np
import pytest

from repro.core import TileHConfig, TileHMatrix
from repro.geometry import cylinder_cloud, make_kernel, streamed_matvec

N, NB = 256, 64


def _leaves(h):
    if h.children:
        for c in h.children:
            yield from _leaves(c)
    else:
        yield h


def _leaf_arrays(solver):
    nt = solver.desc.nt
    for i in range(nt):
        for j in range(nt):
            for leaf in _leaves(solver.desc.super.get_blktile(i, j).mat):
                if leaf.full is not None:
                    yield leaf.full
                elif leaf.rk is not None:
                    yield leaf.rk.u
                    yield leaf.rk.v


def _backing(arr):
    """The object at the end of ``arr``'s base chain (what owns its bytes)."""
    while isinstance(arr, np.ndarray) and arr.base is not None:
        arr = arr.base
    return arr.obj if isinstance(arr, memoryview) else arr


@pytest.fixture(scope="module")
def factorized(tmp_path_factory):
    pts = cylinder_cloud(N)
    kern = make_kernel("laplace", pts)
    solver, _ = TileHMatrix.build_factorize(
        kern, pts, TileHConfig(nb=NB, eps=1e-6, leaf_size=48), method="lu"
    )
    rng = np.random.default_rng(0)
    x0 = rng.standard_normal(N)
    b = streamed_matvec(kern, pts, x0)
    d = tmp_path_factory.mktemp("tileh")
    raw = d / "factor_raw.tileh"
    comp = d / "factor_comp.tileh"
    solver.save(raw, compress=False)
    solver.save(comp)  # the keyword's default
    return solver, b, raw, comp


def test_compress_keyword_selects_nothing(factorized):
    _, _, raw, comp = factorized
    assert raw.read_bytes() == comp.read_bytes()


def test_mmap_load_payloads_bit_identical(factorized):
    _, _, raw, _ = factorized
    mem = TileHMatrix.load(raw)
    mapped = TileHMatrix.load(raw, mmap=True)
    mem_arrays = list(_leaf_arrays(mem))
    map_arrays = list(_leaf_arrays(mapped))
    assert len(mem_arrays) == len(map_arrays) > 0
    for a, m in zip(mem_arrays, map_arrays):
        assert np.array_equal(a, np.asarray(m))
        # Stored order must be preserved so BLAS dispatch matches.
        assert a.flags.f_contiguous == m.flags.f_contiguous
        assert a.flags.c_contiguous == m.flags.c_contiguous


def test_mmap_load_payloads_are_memmaps(factorized):
    """Every payload of a mapped load is a read-only view of *one* mapping."""
    _, _, raw, _ = factorized
    mapped = TileHMatrix.load(raw, mmap=True)
    arrays = [a for a in _leaf_arrays(mapped) if a.size]
    backing = {id(_backing(a)) for a in arrays}
    assert len(backing) == 1 and isinstance(_backing(arrays[0]), mmap.mmap)
    assert not any(a.flags.writeable for a in arrays)
    # A plain load owns its bytes: one writable buffer, no mapping.
    plain = [a for a in _leaf_arrays(TileHMatrix.load(raw)) if a.size]
    assert len({id(_backing(a)) for a in plain}) == 1
    assert isinstance(_backing(plain[0]), np.ndarray)
    assert all(a.flags.writeable for a in plain)


def test_mmap_solve_matches_in_memory_solve(factorized):
    solver, b, raw, _ = factorized
    assert np.array_equal(TileHMatrix.load(raw, mmap=True).solve(b), solver.solve(b))


def test_compress_round_trip_identical(factorized):
    _, b, raw, comp = factorized
    x_raw = TileHMatrix.load(raw).solve(b)
    x_comp = TileHMatrix.load(comp).solve(b)
    assert np.array_equal(x_raw, x_comp)


# -- the equivalence matrix ------------------------------------------------------

CASES = {
    "d-lu": ("laplace", "lu", 1e-6),
    "z-lu": ("helmholtz", "lu", 1e-6),
    "d-cholesky": ("exponential", "cholesky", 1e-8),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request, tmp_path_factory):
    """``(method, unfactorised, its archive, factorised, its archive, panel)``."""
    kernel, method, eps = CASES[request.param]
    pts = cylinder_cloud(N)
    kern = make_kernel(kernel, pts)
    cfg = TileHConfig(nb=NB, eps=eps, leaf_size=48)
    d = tmp_path_factory.mktemp(request.param)
    plain = TileHMatrix.build(kern, pts, cfg)
    plain_path = plain.save(d / "assembled.tileh")
    factor = TileHMatrix.build(kern, pts, cfg)
    factor.factorize(method=method)
    factor_path = factor.save(d / "factor.tileh")
    rng = np.random.default_rng(7)
    panel = rng.standard_normal((N, 7))
    if np.dtype(plain.desc.super.dtype).kind == "c":
        panel = panel + 1j * rng.standard_normal((N, 7))
    return method, plain, plain_path, factor, factor_path, np.asfortranarray(panel)


@pytest.mark.parametrize("mmap_", [False, True], ids=["read", "mapped"])
class TestEquivalence:
    def test_factor_solves_to_the_saved_bits(self, case, mmap_):
        _, _, _, factor, path, panel = case
        loaded = TileHMatrix.load(path, mmap=mmap_)
        assert loaded.factorized
        assert np.array_equal(loaded.solve(panel[:, 0]), factor.solve(panel[:, 0]))
        assert np.array_equal(loaded.solve(panel), factor.solve(panel))

    def test_assembled_matrix_applies_to_the_saved_bits(self, case, mmap_):
        _, plain, path, _, _, panel = case
        loaded = TileHMatrix.load(path, mmap=mmap_)
        assert not loaded.factorized
        assert np.array_equal(loaded.matvec(panel[:, 0]), plain.matvec(panel[:, 0]))
        assert np.array_equal(loaded.matvec(panel), plain.matvec(panel))

    def test_order_and_alignment_of_every_payload(self, case, mmap_):
        _, _, _, factor, path, _ = case
        loaded = TileHMatrix.load(path, mmap=mmap_)
        saved, got = list(_leaf_arrays(factor)), list(_leaf_arrays(loaded))
        assert len(saved) == len(got) > 0
        assert any(a.flags.f_contiguous and not a.flags.c_contiguous for a in saved)
        for a, m in zip(saved, got):
            assert a.dtype == m.dtype and a.shape == m.shape
            assert (a.flags.c_contiguous, a.flags.f_contiguous) == (
                m.flags.c_contiguous, m.flags.f_contiguous)
            assert m.ctypes.data % 64 == 0 or m.size == 0
            assert np.array_equal(a, m)

    def test_read_load_factorizes_in_place_mapped_is_read_only(self, case, mmap_):
        method, _, path, factor, _, panel = case
        loaded = TileHMatrix.load(path, mmap=mmap_)
        if mmap_:
            assert not any(a.flags.writeable for a in _leaf_arrays(loaded) if a.size)
            with pytest.raises(ValueError, match="read-only"):
                next(a for a in _leaf_arrays(loaded) if a.size)[...] = 0
        else:
            loaded.factorize(method=method)
            assert np.array_equal(loaded.solve(panel), factor.solve(panel))


# -- overlapping loads -----------------------------------------------------------


def _overlapping_loads(path, mmap_, reference, b, threads=2, loads=25):
    """``threads`` x ``loads`` concurrent loads of one archive; every one must
    succeed and solve to ``reference``."""
    errors, start = [], threading.Barrier(threads)

    def worker():
        try:
            start.wait(timeout=30)
            for _ in range(loads):
                x = TileHMatrix.load(path, mmap=mmap_).solve(b)
                if not np.array_equal(x, reference):
                    errors.append("bits differ")
        except BaseException as exc:  # reported below, on the test's thread
            errors.append(repr(exc))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=300)
        assert not any(t.is_alive() for t in pool)
    finally:
        sys.setswitchinterval(old)
    assert not errors, errors[:3]


@pytest.mark.parametrize("mmap_", [False, True], ids=["read", "mapped"])
def test_overlapping_loads_of_one_archive(factorized, mmap_):
    solver, b, raw, _ = factorized
    _overlapping_loads(raw, mmap_, solver.solve(b), b)
