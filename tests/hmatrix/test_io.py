"""Unit tests for H-matrix / Tile-H persistence (the one-blob container)."""

import json

import numpy as np
import pytest

from repro.core import TileHConfig, TileHMatrix, tiled_getrf_tasks, tiled_solve
from repro.geometry import (
    assemble_dense,
    cylinder_cloud,
    helmholtz_kernel,
    laplace_kernel,
    make_kernel,
)
from repro.hmatrix import io as hio
from repro.hmatrix import (
    AssemblyConfig,
    StrongAdmissibility,
    assemble_hmatrix,
    build_block_cluster_tree,
    build_cluster_tree,
    hgetrf,
    hlu_solve,
    load_hmatrix,
    load_tile_h,
    load_tile_h_meta,
    save_hmatrix,
    save_tile_h,
)

from .legacy_npz import write_legacy_npz

N = 400


@pytest.fixture(scope="module")
def hmat():
    pts = cylinder_cloud(N)
    kern = laplace_kernel(pts)
    ct = build_cluster_tree(pts, leaf_size=32)
    bt = build_block_cluster_tree(ct, ct, StrongAdmissibility())
    h = assemble_hmatrix(kern, pts, bt, AssemblyConfig(eps=1e-7))
    return pts, kern, ct, h


class TestSaveLoadHMatrix:
    def test_bitexact_roundtrip(self, hmat, tmp_path):
        _, _, ct, h = hmat
        p = save_hmatrix(h, ct, tmp_path / "h.tileh")
        h2, ct2 = load_hmatrix(p)
        assert np.array_equal(h2.to_dense(), h.to_dense())
        assert np.array_equal(ct2.perm, ct.perm)

    def test_structure_preserved(self, hmat, tmp_path):
        _, _, ct, h = hmat
        h2, _ = load_hmatrix(save_hmatrix(h, ct, tmp_path / "h.tileh"))
        assert h2.leaf_count() == h.leaf_count()
        assert h2.max_rank() == h.max_rank()
        assert h2.storage() == h.storage()
        assert h2.depth() == h.depth()

    def test_loaded_matrix_factorizes(self, hmat, tmp_path):
        pts, kern, ct, h = hmat
        h2, ct2 = load_hmatrix(save_hmatrix(h, ct, tmp_path / "h.tileh"))
        dense = assemble_dense(kern, pts)[np.ix_(ct2.perm, ct2.perm)]
        hgetrf(h2, 1e-7)
        x0 = np.random.default_rng(0).standard_normal(N)
        x = hlu_solve(h2, dense @ x0)
        assert np.linalg.norm(x - x0) <= 1e-4 * np.linalg.norm(x0)

    def test_complex_roundtrip(self, tmp_path):
        pts = cylinder_cloud(250)
        kern = helmholtz_kernel(pts)
        ct = build_cluster_tree(pts, leaf_size=24)
        bt = build_block_cluster_tree(ct, ct, StrongAdmissibility())
        h = assemble_hmatrix(kern, pts, bt, AssemblyConfig(eps=1e-6))
        h2, _ = load_hmatrix(save_hmatrix(h, ct, tmp_path / "hz.tileh"))
        assert h2.dtype == np.complex128
        assert np.array_equal(h2.to_dense(), h.to_dense())

    def test_creates_parent_dirs(self, hmat, tmp_path):
        _, _, ct, h = hmat
        p = save_hmatrix(h, ct, tmp_path / "deep" / "dir" / "h.tileh")
        assert p.exists()


class TestSaveLoadTileH:
    @pytest.fixture(scope="class")
    def tile_problem(self):
        pts = cylinder_cloud(N)
        kern = laplace_kernel(pts)
        a = TileHMatrix.build(kern, pts, TileHConfig(nb=100, eps=1e-7, leaf_size=32))
        dense = assemble_dense(kern, pts)
        return pts, kern, a, dense

    def test_bitexact_roundtrip(self, tile_problem, tmp_path):
        _, _, a, _ = tile_problem
        desc2 = load_tile_h(save_tile_h(a.desc, tmp_path / "t.tileh"))
        assert np.array_equal(desc2.to_dense(), a.desc.to_dense())
        assert desc2.nt == a.nt
        assert desc2.nb == a.desc.nb
        assert desc2.eps == a.desc.eps
        assert np.array_equal(desc2.perm, a.desc.perm)

    def test_tile_formats_preserved(self, tile_problem, tmp_path):
        _, _, a, _ = tile_problem
        desc2 = load_tile_h(save_tile_h(a.desc, tmp_path / "t.tileh"))
        assert desc2.format_counts() == a.desc.format_counts()

    def test_loaded_descriptor_solves(self, tile_problem, tmp_path):
        _, _, a, dense = tile_problem
        desc2 = load_tile_h(save_tile_h(a.desc, tmp_path / "t.tileh"))
        tiled_getrf_tasks(desc2)
        x0 = np.random.default_rng(1).standard_normal(N)
        x = tiled_solve(desc2, dense @ x0)
        assert np.linalg.norm(x - x0) <= 1e-4 * np.linalg.norm(x0)

    def test_tile_slices_preserved(self, tile_problem, tmp_path):
        _, _, a, _ = tile_problem
        desc2 = load_tile_h(save_tile_h(a.desc, tmp_path / "t.tileh"))
        for i in range(a.nt):
            assert desc2.tile_slice(i) == a.desc.tile_slice(i)


class TestFactorizedPersistence:
    """Factorized archives reload to a bit-identically solvable matrix."""

    def _build(self, kernel_name, method="lu", n=N):
        pts = cylinder_cloud(n)
        kern = make_kernel(kernel_name, pts)
        a = TileHMatrix.build(kern, pts, TileHConfig(nb=100, eps=1e-7, leaf_size=32))
        a.factorize(method=method)
        return a

    @pytest.mark.parametrize("kernel_name", ["laplace", "helmholtz"])
    def test_lu_roundtrip_bitexact_solve(self, kernel_name, tmp_path):
        a = self._build(kernel_name)
        a.save(tmp_path / "f.tileh")
        a2 = TileHMatrix.load(tmp_path / "f.tileh")
        assert a2.factorized
        rng = np.random.default_rng(0)
        b = rng.standard_normal(N)
        if kernel_name == "helmholtz":
            b = b + 1j * rng.standard_normal(N)
        assert np.array_equal(a2.solve(b), a.solve(b))

    def test_cholesky_roundtrip_bitexact_solve(self, tmp_path):
        from repro.geometry import exponential_kernel

        pts = cylinder_cloud(N)
        a = TileHMatrix.build(
            exponential_kernel(pts), pts, TileHConfig(nb=100, eps=1e-8, leaf_size=32)
        )
        a.factorize(method="cholesky")
        a.save(tmp_path / "c.tileh")
        a2 = TileHMatrix.load(tmp_path / "c.tileh")
        b = np.random.default_rng(1).standard_normal(N)
        assert np.array_equal(a2.solve(b), a.solve(b))

    def test_panel_solve_bitexact_after_load(self, tmp_path):
        a = self._build("laplace")
        a.save(tmp_path / "f.tileh")
        a2 = TileHMatrix.load(tmp_path / "f.tileh")
        b = np.random.default_rng(2).standard_normal((N, 6))
        assert np.array_equal(a2.solve(b), a.solve(b))

    def test_meta_records_factorization(self, tmp_path):
        a = self._build("laplace")
        a.save(tmp_path / "f.tileh")
        meta = load_tile_h_meta(tmp_path / "f.tileh")
        assert meta["factorized"] is True
        assert meta["method"] == "lu"
        assert meta["n"] == N
        assert meta["config"]["nb"] == 100

    def test_unfactorized_meta(self, tmp_path):
        pts = cylinder_cloud(N)
        a = TileHMatrix.build(
            laplace_kernel(pts), pts, TileHConfig(nb=100, eps=1e-7, leaf_size=32)
        )
        a.save(tmp_path / "u.tileh")
        meta = load_tile_h_meta(tmp_path / "u.tileh")
        assert meta["factorized"] is False
        assert meta["method"] is None
        a2 = TileHMatrix.load(tmp_path / "u.tileh")
        assert not a2.factorized
        a2.factorize()
        a.factorize()
        b = np.random.default_rng(3).standard_normal(N)
        assert np.array_equal(a2.solve(b), a.solve(b))

    def test_config_restored(self, tmp_path):
        a = self._build("laplace")
        a.save(tmp_path / "f.tileh")
        a2 = TileHMatrix.load(tmp_path / "f.tileh")
        assert a2.config.nb == a.config.nb
        assert a2.config.eps == a.config.eps
        assert a2.config.leaf_size == a.config.leaf_size


# -- helpers that take a container apart ---------------------------------------


def _split(p):
    """``(header dict, payload bytes)`` of a v3 container."""
    raw = p.read_bytes()
    hlen = int.from_bytes(raw[8:16], "little")
    return json.loads(raw[16 : 16 + hlen]), raw[-(-(16 + hlen) // hio._PAGE) * hio._PAGE :]


def _join(p, header, payload):
    blob = json.dumps(header).encode()
    head = hio._MAGIC + len(blob).to_bytes(8, "little") + blob
    p.write_bytes(head + bytes(-len(head) % hio._PAGE) + payload)


def _rewrite(p, mutate):
    """Re-save ``p`` through the writer after ``mutate(header, arrays)``: a
    well-formed container whose *content* is wrong."""
    header, arrays = hio._open_archive(p)
    mutate(header, arrays)
    hio._write_archive(p, header, arrays)


def _small(tmp_path, name="t.tileh", **cfg):
    pts = cylinder_cloud(N)
    a = TileHMatrix.build(
        laplace_kernel(pts), pts, TileHConfig(nb=100, eps=1e-7, leaf_size=32, **cfg)
    )
    return a, save_tile_h(a.desc, tmp_path / name)


class TestArchiveValidation:
    """Corrupt or mismatched archives fail loudly, not with numpy tracebacks."""

    def _archive(self, tmp_path):
        return _small(tmp_path)[1]

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_tile_h(tmp_path / "nope.tileh")

    def test_truncated_file(self, tmp_path):
        p = self._archive(tmp_path)
        data = p.read_bytes()
        p.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="cannot read Tile-H archive"):
            load_tile_h(p)

    def test_not_an_archive(self, tmp_path):
        p = tmp_path / "junk.tileh"
        p.write_bytes(b"this is not a zip file")
        with pytest.raises(ValueError, match="cannot read Tile-H archive"):
            load_tile_h(p)

    def test_missing_keys(self, tmp_path):
        # A legacy zip that is not a Tile-H save ...
        p = tmp_path / "partial.npz"
        np.savez(p, n=np.int64(N))
        with pytest.raises(ValueError, match="missing keys"):
            load_tile_h(p)
        # ... and a v3 container that is an H-matrix, not a Tile-H descriptor.
        pts = cylinder_cloud(60)
        ct = build_cluster_tree(pts, leaf_size=32)
        bt = build_block_cluster_tree(ct, ct, StrongAdmissibility())
        h = assemble_hmatrix(laplace_kernel(pts), pts, bt, AssemblyConfig(eps=1e-4))
        with pytest.raises(ValueError, match="missing keys"):
            load_tile_h(save_hmatrix(h, ct, tmp_path / "h.tileh"))

    def test_missing_tile_payload(self, tmp_path):
        p = self._archive(tmp_path)
        _rewrite(p, lambda h, a: a.pop(next(k for k in a if k.startswith("t0_0_full_"))))
        with pytest.raises(ValueError, match="missing payload"):
            load_tile_h(p)

    def test_inconsistent_sizes(self, tmp_path):
        p = self._archive(tmp_path)
        _rewrite(p, lambda h, a: a.update(perm=a["perm"][: N // 2]))
        with pytest.raises(ValueError, match="permutation length"):
            load_tile_h(p)

    def test_wrong_meta_file(self, tmp_path):
        p = tmp_path / "junk.tileh"
        p.write_bytes(b"x" * 40)
        with pytest.raises(ValueError):
            load_tile_h_meta(p)


def _victim(header):
    """A non-empty dense payload's table entry."""
    return next(v for k, v in header["arrays"].items() if "_full_" in k)


def _cut(where):
    def corrupt(p):
        raw = p.read_bytes()
        hlen = int.from_bytes(raw[8:16], "little")
        p.write_bytes(raw[: {"header": 16 + hlen // 2, "payload": len(raw) - 1000}[where]])

    return corrupt


def _bytes_at(offset, data):
    def corrupt(p):
        raw = bytearray(p.read_bytes())
        raw[offset : offset + len(data)] = data
        p.write_bytes(bytes(raw))

    return corrupt


def _table(mutate):
    def corrupt(p):
        header, payload = _split(p)
        mutate(header)
        _join(p, header, payload)

    return corrupt


def _set(index, value):
    return _table(lambda h: _victim(h).__setitem__(index, value))


CORRUPTIONS = {
    "bad-magic": _bytes_at(0, b"\x93TILEX\r\n"),
    "header-length-past-eof": _bytes_at(8, (1 << 40).to_bytes(8, "little")),
    "non-json-header": _bytes_at(16, b"\xff" * 64),
    "header-not-an-object": lambda p: _join(p, [1, 2, 3], _split(p)[1]),
    "cut-inside-header": _cut("header"),
    "cut-inside-payload": _cut("payload"),
    "payload-size-not-an-int": _table(lambda h: h.update(payload_bytes=str(h["payload_bytes"]))),
    "entry-out-of-range": _table(lambda h: _victim(h).__setitem__(3, h["payload_bytes"])),
    "entry-misaligned": _table(lambda h: _victim(h).__setitem__(3, _victim(h)[3] + 8)),
    "entry-negative-offset": _set(3, -64),
    "entry-unknown-dtype": _set(0, "<f4"),
    "entry-object-dtype": _set(0, "|O"),
    "entry-bad-order": _set(2, "K"),
    "entry-negative-shape": _set(1, [-1, 3]),
    "entry-overflowing-shape": _set(1, [1 << 62, 1 << 62]),
    "entry-huge-empty-shape": _set(1, [0, 1 << 62]),
    "entry-float-shape": _set(1, [3.0, 3]),
    "entry-too-short": _table(lambda h: _victim(h).pop()),
    "missing-tile": _table(
        lambda h: [h["arrays"].pop(k) for k in list(h["arrays"]) if k.startswith("t1_0_")]
    ),
    "missing-tree": _table(lambda h: h["arrays"].pop("tree_level")),
    "wrong-perm-length": _table(lambda h: h["arrays"]["perm"].__setitem__(1, [N // 2])),
    "missing-nt": _table(lambda h: h.pop("nt")),
    "nt-not-a-number": _table(lambda h: h.update(nt="four")),
}


class TestContainerCorruption:
    """Every way the container can be wrong is a ``ValueError`` naming the
    archive — in both load modes, before any payload view exists."""

    @pytest.fixture(scope="class")
    def pristine(self, tmp_path_factory):
        return _small(tmp_path_factory.mktemp("pristine"))[1].read_bytes()

    @pytest.mark.parametrize("mmap", [False, True], ids=["read", "mapped"])
    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_corruption_is_a_value_error(self, pristine, case, mmap, tmp_path):
        p = tmp_path / f"{case}.tileh"
        p.write_bytes(pristine)
        load_tile_h(p, mmap=mmap)  # the pristine copy loads
        CORRUPTIONS[case](p)
        with pytest.raises(ValueError, match=f"Tile-H archive .*{case}.tileh"):
            load_tile_h(p, mmap=mmap)

    def test_flipped_payload_byte_fails_the_crc(self, pristine, tmp_path):
        p = tmp_path / "flipped.tileh"
        raw = bytearray(pristine)
        raw[-1000] ^= 0x01
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="cannot read Tile-H archive .*CRC-32"):
            load_tile_h(p)
        # A mapped load touches no payload byte, so it cannot checksum them:
        # it checks structure only (documented in repro.hmatrix.io).
        load_tile_h(p, mmap=True)

    def test_meta_needs_only_the_header(self, pristine, tmp_path):
        p = tmp_path / "meta.tileh"
        raw = bytearray(pristine)
        raw[-1000] ^= 0x01
        p.write_bytes(bytes(raw))
        meta = load_tile_h_meta(p)
        assert (meta["n"], meta["nb"], meta["format_version"]) == (N, 100, 3)

    def test_unsupported_dtype_is_refused_on_save(self, tmp_path):
        with pytest.raises(ValueError, match="dtype float32"):
            hio._write_archive(tmp_path / "f4.tileh", {}, {"x": np.zeros(3, np.float32)})
        assert list(tmp_path.iterdir()) == []


class TestAtomicPublish:
    """Archives appear whole or not at all (temp file + ``os.replace``)."""

    @staticmethod
    def _failing_open(monkeypatch, after):
        """Make the writer's file fail on its ``after``-th write."""
        real_open = open

        class Failing:
            def __init__(self, f):
                self.f, self.left = f, after

            def write(self, data):
                self.left -= 1
                if self.left < 0:
                    raise OSError(28, "No space left on device")
                return self.f.write(data)

            def writelines(self, lines):
                for line in lines:
                    self.write(line)

            def __getattr__(self, name):
                return getattr(self.f, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

        def opener(path, mode="r", *a, **kw):
            f = real_open(path, mode, *a, **kw)
            return Failing(f) if "x" in mode else f

        monkeypatch.setattr(hio, "open", opener, raising=False)

    def test_failed_first_write_leaves_nothing(self, tmp_path, monkeypatch):
        a, p = _small(tmp_path / "src")
        self._failing_open(monkeypatch, after=20)
        target = tmp_path / "out" / "t.tileh"
        with pytest.raises(OSError):
            save_tile_h(a.desc, target)
        assert list(target.parent.iterdir()) == []

    def test_failed_rewrite_keeps_the_old_archive(self, tmp_path, monkeypatch):
        a, p = _small(tmp_path)
        before = p.read_bytes()
        self._failing_open(monkeypatch, after=20)
        with pytest.raises(OSError):
            save_tile_h(a.desc, p)
        assert [q.name for q in tmp_path.iterdir()] == [p.name]
        assert p.read_bytes() == before

    def test_save_writes_exactly_the_path_given(self, tmp_path):
        """No suffix is appended (``np.savez`` used to add ``.npz``)."""
        a, p = _small(tmp_path, name="factor.bin")
        assert [q.name for q in tmp_path.iterdir()] == ["factor.bin"]
        assert np.array_equal(load_tile_h(p).to_dense(), a.desc.to_dense())


class TestLegacyNpz:
    """v1/v2 ``.npz`` archives stay readable: in memory, never mapped."""

    @pytest.fixture(scope="class")
    def factor(self):
        pts = cylinder_cloud(N)
        a = TileHMatrix.build(
            laplace_kernel(pts), pts, TileHConfig(nb=100, eps=1e-7, leaf_size=32)
        )
        a.factorize()
        return a, np.random.default_rng(4).standard_normal((N, 3))

    @pytest.mark.parametrize("compressed", [False, True], ids=["stored", "deflated"])
    @pytest.mark.parametrize("mmap", [False, True], ids=["read", "mapped"])
    def test_v2_factor_solves_bit_identically(self, factor, compressed, mmap, tmp_path):
        a, b = factor
        p = write_legacy_npz(a, tmp_path / "v2.npz", compressed=compressed)
        a2 = TileHMatrix.load(p, mmap=mmap)
        assert a2.factorized and a2.config == a.config
        assert np.array_equal(a2.solve(b), a.solve(b))
        assert np.array_equal(a2.solve(b[:, 0]), a.solve(b[:, 0]))
        meta = load_tile_h_meta(p)
        assert meta["format_version"] == 2 and meta["method"] == "lu"
        assert meta["n"] == N and meta["config"]["nb"] == 100

    def test_v1_archive_reports_unfactorized(self, tmp_path):
        a, _ = _small(tmp_path)
        p = write_legacy_npz(a, tmp_path / "v1.npz", version=1)
        meta = load_tile_h_meta(p)
        assert meta["format_version"] == 1 and meta["factorized"] is False
        assert meta["method"] is None and meta["config"] == {}
        a2 = TileHMatrix.load(p)
        assert not a2.factorized and a2.config.nb == 100
        x = np.random.default_rng(5).standard_normal(N)
        assert np.array_equal(a2.matvec(x), a.matvec(x))

    def test_truncated_legacy_archive(self, factor, tmp_path):
        p = write_legacy_npz(factor[0], tmp_path / "cut.npz")
        p.write_bytes(p.read_bytes()[:5000])
        with pytest.raises(ValueError, match="cannot read Tile-H archive"):
            TileHMatrix.load(p)
