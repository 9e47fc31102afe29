"""Unit tests for H-matrix / Tile-H persistence (the one-blob container)."""

import json
import re
import threading

import numpy as np
import pytest

from repro.core import TileHConfig, TileHMatrix, build_tile_h, tiled_getrf_tasks, tiled_solve
from repro.geometry import (
    assemble_dense,
    cylinder_cloud,
    helmholtz_kernel,
    laplace_kernel,
    make_kernel,
)
from repro.hmatrix import io as hio
from repro.hmatrix import BoundingBox, hgetrf, hlu_solve, load_tile_h, read_tile_h, save_tile_h
from repro.service import FactorizationStore

N = 400


@pytest.fixture(scope="module")
def hmat():
    """A global H-matrix: the one-tile (``nb = n``) Tile-H descriptor."""
    pts = cylinder_cloud(N)
    kern = laplace_kernel(pts)
    return pts, kern, build_tile_h(kern, pts, nb=N, eps=1e-7, leaf_size=32)


def _round_trip(desc, path):
    """``(h, tree)`` of the one-tile ``desc`` and of its saved and loaded copy."""
    assert desc.nt == 1
    loaded = load_tile_h(save_tile_h(desc, path))
    return [(d.super.get_blktile(0, 0).mat, d.root) for d in (desc, loaded)]


class TestSaveLoadHMatrix:
    """A global H-matrix is saved and loaded as a one-tile Tile-H archive."""

    def test_bitexact_roundtrip(self, hmat, tmp_path):
        (h, ct), (h2, ct2) = _round_trip(hmat[2], tmp_path / "h.tileh")
        assert np.array_equal(h2.to_dense(), h.to_dense())
        assert np.array_equal(ct2.perm, ct.perm)

    def test_structure_preserved(self, hmat, tmp_path):
        (h, _), (h2, _) = _round_trip(hmat[2], tmp_path / "h.tileh")
        assert h2.leaf_count() == h.leaf_count()
        assert h2.max_rank() == h.max_rank()
        assert h2.storage() == h.storage()
        assert h2.depth() == h.depth()

    def test_bounding_boxes_match_the_per_node_reference(self, hmat, tmp_path):
        """One gather + ``reduceat`` gives every box the per-node min/max gives."""
        (_, ct), (_, ct2) = _round_trip(hmat[2], tmp_path / "h.tileh")
        pairs = list(zip(ct.nodes(), ct2.nodes()))
        assert len(pairs) == len(list(ct.nodes())) == len(list(ct2.nodes()))
        for a, b in pairs:
            ref = BoundingBox.of(ct2.points[ct2.perm[b.start : b.stop]])
            assert (a.start, a.stop, a.level) == (b.start, b.stop, b.level)
            assert np.array_equal(b.bbox.lo, ref.lo) and np.array_equal(b.bbox.hi, ref.hi)
            assert np.array_equal(b.bbox.lo, a.bbox.lo) and np.array_equal(b.bbox.hi, a.bbox.hi)

    def test_loaded_matrix_factorizes(self, hmat, tmp_path):
        pts, kern, desc = hmat
        _, (h2, ct2) = _round_trip(desc, tmp_path / "h.tileh")
        dense = assemble_dense(kern, pts)[np.ix_(ct2.perm, ct2.perm)]
        hgetrf(h2, 1e-7)
        x0 = np.random.default_rng(0).standard_normal(N)
        x = hlu_solve(h2, dense @ x0)
        assert np.linalg.norm(x - x0) <= 1e-4 * np.linalg.norm(x0)

    def test_complex_roundtrip(self, tmp_path):
        pts = cylinder_cloud(250)
        desc = build_tile_h(helmholtz_kernel(pts), pts, nb=250, eps=1e-6, leaf_size=24)
        (h, _), (h2, _) = _round_trip(desc, tmp_path / "hz.tileh")
        assert h2.dtype == np.complex128
        assert np.array_equal(h2.to_dense(), h.to_dense())

    def test_creates_parent_dirs(self, hmat, tmp_path):
        p = save_tile_h(hmat[2], tmp_path / "deep" / "dir" / "h.tileh")
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
        meta = read_tile_h(tmp_path / "f.tileh")[1]
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
        meta = read_tile_h(tmp_path / "u.tileh")[1]
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
    """``(header dict, payload bytes)`` of a container."""
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
    header, arrays, verify = hio._open_archive(p)
    verify()  # the checksum thread reads the buffer that ``mutate`` may write
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
        # A container without the tile clusters is not a Tile-H save.
        p = self._archive(tmp_path)
        _rewrite(p, lambda h, a: a.pop("tile_cluster_idx"))
        with pytest.raises(ValueError, match="missing keys .*tile_cluster_idx"):
            load_tile_h(p)

    def test_missing_tile_payload(self, tmp_path):
        p = self._archive(tmp_path)
        _rewrite(p, lambda h, a: a.pop("leaf_f8"))
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
            read_tile_h(p)


def _victim(header):
    """The table entry of the flat array that holds the dense payloads."""
    return header["arrays"]["leaf_f8"]


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


def _content(mutate):
    """Rewrite the arrays through the writer (the CRC-32 still matches), so the
    node-table checks, not the checksum, must catch ``mutate(arrays)``."""
    return lambda p: _rewrite(p, lambda h, a: mutate(a))


def _dense_leaf(a):
    """Node-table row of a dense leaf with a non-empty payload in ``leaf_f8``."""
    t = a["nodes"]
    return int(np.flatnonzero((t[:, hio._KIND] == 0) & (t[:, hio._P0] == 0))[0])


def _cell(row, column, value):
    """Set node-table cell (``row(arrays)``, ``column``) to ``value(arrays, old)``."""
    def mutate(a):
        r = row(a)
        a["nodes"][r, column] = value(a, a["nodes"][r, column])
    return _content(mutate)


def _drop_last_tile(a):
    a["nodes"] = a["nodes"][: a["tile_start"][-2]]
    a["tile_start"] = a["tile_start"][:-1]


def _move_first_tile_end(a):
    a["tile_start"][1] += 1


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
    "missing-tile": _content(_drop_last_tile),
    "missing-nodes": _table(lambda h: h["arrays"].pop("nodes")),
    "node-offset-past-flat": _cell(_dense_leaf, hio._P0 + 1, lambda a, v: len(a["leaf_f8"]) + 8),
    "node-offset-misaligned": _cell(_dense_leaf, hio._P0 + 1, lambda a, v: v + 1),
    "node-unknown-kind": _cell(_dense_leaf, hio._KIND, lambda a, v: 7),
    "node-cluster-out-of-range": _cell(lambda a: 0, 1, lambda a, v: len(a["tree_start"])),
    "node-table-row-count": _content(lambda a: a.update(nodes=a["nodes"][:-1])),
    "node-table-columns": _content(lambda a: a.update(nodes=a["nodes"][:, :-1])),
    "tile-start-disagrees": _content(_move_first_tile_end),
    "leaf-shape-vs-clusters": _cell(_dense_leaf, hio._P0 + 4, lambda a, v: v + 1),
    "missing-tree": _table(lambda h: h["arrays"].pop("tree_level")),
    "wrong-perm-length": _table(lambda h: h["arrays"]["perm"].__setitem__(1, [N // 2])),
    "tree-wrong-dtype": _table(lambda h: h["arrays"]["tree_start"].__setitem__(0, "<f8")),
    "missing-nt": _table(lambda h: h.pop("nt")),
    "nt-not-a-number": _table(lambda h: h.update(nt="four")),
}
#: The check that must catch a node-table case (the message names it).
CAUGHT_BY = {
    "missing-tile": "does not split",
    "missing-nodes": "missing keys",
    "node-offset-past-flat": "outside its flat array",
    "node-offset-misaligned": "misaligned",
    "node-unknown-kind": "unknown kind code",
    "node-cluster-out-of-range": "outside the [0-9]+-node tree",
    "node-table-row-count": "does not split",
    "node-table-columns": "is not \\(n, 16\\) int64",
    "tile-start-disagrees": "child grids do not make one pre-order tree",
    "leaf-shape-vs-clusters": "shape disagrees with its clusters",
}


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """The bytes of a well-formed archive."""
    return _small(tmp_path_factory.mktemp("pristine"))[1].read_bytes()


class TestContainerCorruption:
    """Every way the container can be wrong is a ``ValueError`` naming the
    archive — in both load modes, before any payload view exists."""

    @pytest.mark.parametrize("mmap", [False, True], ids=["read", "mapped"])
    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_corruption_is_a_value_error(self, pristine, case, mmap, tmp_path):
        p = tmp_path / f"{case}.tileh"
        p.write_bytes(pristine)
        load_tile_h(p, mmap=mmap)  # the pristine copy loads
        CORRUPTIONS[case](p)
        before = set(threading.enumerate())
        why = CAUGHT_BY.get(case, "")
        with pytest.raises(ValueError, match=f"Tile-H archive .*{case}.tileh: .*{why}"):
            load_tile_h(p, mmap=mmap)
        assert set(threading.enumerate()) <= before, "a checksum thread outlived the load"

    def test_flipped_payload_byte_fails_the_crc(self, pristine, tmp_path):
        p = tmp_path / "flipped.tileh"
        raw = bytearray(pristine)
        raw[-1000] ^= 0x01
        p.write_bytes(bytes(raw))
        before = set(threading.enumerate())
        with pytest.raises(ValueError, match="cannot read Tile-H archive .*CRC-32"):
            load_tile_h(p)
        assert set(threading.enumerate()) <= before
        # A mapped load touches no payload byte, so it cannot checksum them:
        # it checks structure only (documented in repro.hmatrix.io).
        load_tile_h(p, mmap=True)

    def test_bad_crc_outranks_the_structure_error_it_caused(self, pristine, tmp_path):
        """Bytes changed under an unchanged CRC-32: a read load blames the
        checksum, a mapped load (no checksum) the node table."""
        p = tmp_path / "kind.tileh"
        p.write_bytes(pristine)
        header, arrays, verify = hio._open_archive(p)
        verify()
        row = _dense_leaf(arrays)
        base = len(pristine) - header["payload_bytes"]
        at = base + header["arrays"]["nodes"][3] + row * hio._NCOLS * 8
        del arrays
        _bytes_at(at, (7).to_bytes(8, "little"))(p)
        before = set(threading.enumerate())
        with pytest.raises(ValueError, match="CRC-32") as err:
            load_tile_h(p)
        assert "unknown kind code" in str(err.value.__context__)
        assert set(threading.enumerate()) <= before
        with pytest.raises(ValueError, match="unknown kind code"):
            load_tile_h(p, mmap=True)

    def test_unsupported_dtype_is_refused_on_save(self, tmp_path):
        with pytest.raises(ValueError, match="dtype float32"):
            hio._write_archive(tmp_path / "f4.tileh", {}, {"x": np.zeros(3, np.float32)})
        assert list(tmp_path.iterdir()) == []


class TestFlatLayout:
    """v4 stores a fixed set of arrays, whatever the leaf count; a one-tile
    archive without its tree or node arrays is the typed error."""

    def test_the_table_does_not_grow_with_the_leaves(self, tmp_path):
        names, leaves = [], []
        for n in (512, 1024):
            pts = cylinder_cloud(n)
            a = TileHMatrix.build(
                laplace_kernel(pts), pts, TileHConfig(nb=128, eps=1e-6, leaf_size=32)
            )
            header, _ = _split(save_tile_h(a.desc, tmp_path / f"{n}.tileh"))
            names.append(sorted(header["arrays"]))
            leaves.append(sum(len(list(t.mat.leaves())) for t in a.desc.super.tiles))
        assert leaves[0] < leaves[1]
        assert names[0] == names[1]
        assert not [k for k in names[0] if re.search(r"^t\d+_\d+_|_\d+$", k)]

    @pytest.mark.parametrize("drop", ["tree_level", "nodes", "tile_start"])
    def test_a_one_tile_archive_needs_its_arrays(self, hmat, drop, tmp_path):
        p = save_tile_h(hmat[2], tmp_path / "h.tileh")
        _rewrite(p, lambda header, a: a.pop(drop))
        with pytest.raises(ValueError, match=f"Tile-H archive .*h.tileh: missing keys .*{drop}"):
            load_tile_h(p)


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


def _version(value):
    """Rewrite the header's ``format_version`` to ``value`` (``None``: drop it)."""
    def rewrite(header):
        header.pop("format_version")
        if value is not None:
            header["format_version"] = value

    return _table(rewrite)


def _as_zip(p):
    """The archive's arrays, rewritten by ``np.savez`` (the v1/v2 layout)."""
    header, arrays, verify = hio._open_archive(p)
    verify()
    with open(p, "wb") as f:
        np.savez(f, **arrays, format_version=np.array([2]), nt=np.array([header["nt"]]))


#: An archive of another format version, made from a v4 one, and the version
#: the refusal must name.
OTHER_VERSIONS = {
    "v3": (_version(3), "3"),
    "v1": (_version(1), "1"),
    "no-version": (_version(None), "(missing)"),
    "npz-zip": (_as_zip, "1 or 2 (a .npz zip)"),
}
LOADERS = {
    "TileHMatrix.load": TileHMatrix.load,
    "load_tile_h-read": load_tile_h,
    "load_tile_h-mapped": lambda p: load_tile_h(p, mmap=True),
    "FactorizationStore.get": lambda p: FactorizationStore(p.parent, mmap=True).get(p.stem),
}


class TestOtherFormatVersions:
    """Only v4 is read: every loader refuses an older archive with one
    ``ValueError`` naming the file and its version."""

    @pytest.mark.parametrize("loader", sorted(LOADERS))
    @pytest.mark.parametrize("version", sorted(OTHER_VERSIONS))
    def test_is_refused_by_every_loader(self, pristine, version, loader, tmp_path):
        p = tmp_path / f"{version}.tileh"
        p.write_bytes(pristine)
        assert LOADERS[loader](p) is not None  # the v4 original loads
        rewrite, named = OTHER_VERSIONS[version]
        rewrite(p)
        with pytest.raises(ValueError) as err:
            LOADERS[loader](p)
        assert str(err.value) == (
            f"cannot read Tile-H archive {p}: format_version {named} is not 4; an archive "
            "written before v4 must be rebuilt (build_factorize, then save)")
