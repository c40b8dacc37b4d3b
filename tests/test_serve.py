"""Tests for the serving subsystem: snapshots, the scene store, the
batching query server, and their CLI entry points."""

import json
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.__main__ import main
from repro.core.allpairs import DistanceIndex
from repro.core.api import ShortestPathIndex
from repro.core.query import QueryStructure
from repro.errors import QueryError, SnapshotError
from repro.obs.registry import MetricsRegistry
from repro.pram import PRAM
from repro.serve import (
    QueryServer,
    Request,
    SceneStore,
    is_snapshot,
    load,
    read_header,
    save,
)
from repro.serve.publish import SnapshotPublisher
from repro.serve.snapshot import (
    RAW_MAGIC,
    SNAPSHOT_VERSION,
    _write_raw,
    _export_arrays,
    load_arrays,
    read_header as read_snapshot_header,
)
from repro.workloads.generators import (
    random_container_polygon,
    random_disjoint_rects,
    random_free_points,
)
from repro.workloads.requests import random_request_stream, scene_endpoints


def _rewrite_header(path, **changes):
    """Rewrite a snapshot with some header keys changed (corruption helper)."""
    header, arrays = load_arrays(path)
    header = dict(header, **changes)
    header.pop("toc")
    # copies: the file is rewritten under its own mappings
    arrays = {k: np.array(v) for k, v in arrays.items() if v is not None}
    with open(path, "wb") as fh:
        _write_raw(fh, header, arrays)


def _legacy_npz(path, idx, version: int) -> None:
    """Hand-write a v1/v2-style npz artifact (the retired container)."""
    arrays = idx.index.export_arrays()
    header = {"format": "repro-snapshot", "version": version}
    arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez_compressed(fh, **arrays)


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("engine", ["parallel", "sequential"])
    @pytest.mark.parametrize("seed", [1, 5])
    def test_lengths_and_paths_survive(self, tmp_path, engine, seed):
        rects = random_disjoint_rects(14, seed=seed)
        idx = ShortestPathIndex.build(rects, engine=engine)
        loaded = load(save(idx, tmp_path / "s.rsp"))
        assert loaded.engine == engine
        assert loaded.rects == idx.rects
        vs = idx.vertices()
        assert loaded.vertices() == vs
        vpairs = [(vs[i], vs[-1 - i]) for i in range(0, len(vs), 3)]
        free = random_free_points(rects, 8, seed=seed + 1)
        apairs = [(free[i], free[-1 - i]) for i in range(4)]
        mixed = [(free[0], vs[2]), (vs[3], free[1])]
        for pairs in (vpairs, apairs, mixed):
            assert np.array_equal(idx.lengths(pairs), loaded.lengths(pairs))
        for p, q in vpairs[:4] + mixed:
            got = loaded.shortest_path(p, q)
            assert got == idx.shortest_path(p, q)
            # the reported polyline really has the reported length
            total = sum(
                abs(a[0] - b[0]) + abs(a[1] - b[1]) for a, b in zip(got, got[1:])
            )
            assert total == idx.length(p, q)

    def test_container_polygon_round_trip(self, tmp_path):
        rects = random_disjoint_rects(8, seed=4)
        poly = random_container_polygon(rects, seed=2)
        idx = ShortestPathIndex.build(rects, container=poly)
        loaded = load(save(idx, tmp_path / "c.rsp"))
        assert loaded.container is not None
        assert loaded.container.loop == idx.container.loop
        # pocket-rect vertices sit outside P; only in-container vertices
        # are legal query endpoints
        vs = [v for v in idx.vertices() if poly.contains(v)]
        pairs = [(vs[i], vs[-1 - i]) for i in range(0, len(vs), 5)]
        assert np.array_equal(idx.lengths(pairs), loaded.lengths(pairs))
        far = (10_000, 10_000)
        with pytest.raises(QueryError):
            loaded.length(vs[0], far)

    def test_extra_points_round_trip(self, tmp_path):
        rects = random_disjoint_rects(10, seed=6)
        extra = random_free_points(rects, 3, seed=7)
        idx = ShortestPathIndex.build(rects, extra_points=extra)
        loaded = load(save(idx, tmp_path / "e.rsp"))
        for p in extra:
            assert loaded.index.has_point(p)
        assert loaded.length(extra[0], extra[1]) == idx.length(extra[0], extra[1])

    def test_snapshot_without_query_structure(self, tmp_path):
        rects = random_disjoint_rects(9, seed=8)
        idx = ShortestPathIndex.build(rects)
        loaded = load(save(idx, tmp_path / "nq.rsp", include_query=False))
        free = random_free_points(rects, 2, seed=9)
        # §6.4 structure is rebuilt on demand rather than reloaded
        assert loaded.length(free[0], free[1]) == idx.length(free[0], free[1])

    def test_header_metadata(self, tmp_path):
        rects = random_disjoint_rects(7, seed=3)
        idx = ShortestPathIndex.build(rects)
        path = save(idx, tmp_path / "h.rsp")
        header = read_header(path)
        assert header["version"] == SNAPSHOT_VERSION
        assert header["engine"] == "parallel"
        assert header["n_rects"] == 7
        assert header["n_points"] == len(idx.index)
        assert header["build_time"] == idx.pram.time
        assert is_snapshot(path)
        loaded = load(path)
        assert loaded.snapshot_meta["matrix_sha256"] == header["matrix_sha256"]

    def test_api_save_load_delegates(self, tmp_path):
        rects = random_disjoint_rects(6, seed=11)
        idx = ShortestPathIndex.build(rects)
        idx.save(tmp_path / "d.rsp")
        loaded = ShortestPathIndex.load(tmp_path / "d.rsp")
        vs = idx.vertices()
        assert loaded.length(vs[0], vs[-1]) == idx.length(vs[0], vs[-1])


class TestSnapshotFormatV2:
    """Polygon members round-trip; the retired npz artifacts (formats
    v1/v2) are refused with a one-line request to re-snapshot."""

    def _polygon_scene(self, seed=0):
        from repro.workloads.generators import random_polygon_scene

        return random_polygon_scene(n_polygons=2, n_rects=2, seed=seed)

    @pytest.mark.parametrize("engine", ["parallel", "sequential"])
    def test_polygon_scene_round_trip_byte_identical(self, tmp_path, engine):
        obstacles = self._polygon_scene(3)
        idx = ShortestPathIndex.build(obstacles, engine=engine)
        loaded = load(save(idx, tmp_path / "p.rsp"))
        # the distance matrix survives byte-identically
        assert idx.index.matrix.tobytes() == loaded.index.matrix.tobytes()
        assert loaded.rects == idx.rects
        assert [p.loop for p in loaded.polygons] == [p.loop for p in idx.polygons]
        assert loaded.seams == idx.seams
        # solid semantics survive: seam points rejected, queries answered
        seam = idx.seams[0]
        with pytest.raises(QueryError):
            loaded.length((seam.x, (seam.ylo + seam.yhi) // 2), idx.vertices()[0])
        vs = idx.vertices()
        pairs = [(vs[i], vs[-1 - i]) for i in range(0, len(vs), 5)]
        assert np.array_equal(idx.lengths(pairs), loaded.lengths(pairs))
        p, q = vs[0], vs[-1]
        assert loaded.shortest_path(p, q) == idx.shortest_path(p, q)

    def test_polygon_header_and_members(self, tmp_path):
        obstacles = self._polygon_scene(4)
        idx = ShortestPathIndex.build(obstacles)
        path = save(idx, tmp_path / "p2.rsp")
        header = read_header(path)
        assert header["version"] == SNAPSHOT_VERSION
        assert header["n_polygons"] == 2
        # polygon scenes never persist §6.4 forests (corner-graph fallback)
        assert header["has_query_structure"] is False
        assert {"poly_offsets", "poly_vertices"} <= set(header["toc"])
        assert "qs_parents" not in header["toc"]

    def test_rect_scene_still_exports_query_structure(self, tmp_path):
        idx = ShortestPathIndex.build(random_disjoint_rects(6, seed=13))
        path = save(idx, tmp_path / "r.rsp")
        header = read_header(path)
        assert header["version"] == SNAPSHOT_VERSION
        assert header["n_polygons"] == 0
        assert header["has_query_structure"] is True

    def test_v1_artifact_asks_for_a_resnapshot(self, tmp_path):
        idx = ShortestPathIndex.build(random_disjoint_rects(7, seed=5))
        path = tmp_path / "old.rsp"
        _legacy_npz(path, idx, 1)
        assert not is_snapshot(path)
        err = str(pytest.raises(SnapshotError, load, path).value)
        assert "re-snapshot" in err and "\n" not in err

    def test_unknown_future_version_rejected(self, tmp_path):
        idx = ShortestPathIndex.build(random_disjoint_rects(5, seed=1))
        path = save(idx, tmp_path / "f.rsp")
        _rewrite_header(path, version=99)
        err = str(pytest.raises(SnapshotError, load, path).value)
        assert "version" in err and "re-snapshot" not in err

    def test_npz_claiming_raw_version_rejected(self, tmp_path):
        # the npz container is never read, whatever version it claims
        idx = ShortestPathIndex.build(random_disjoint_rects(5, seed=2))
        path = tmp_path / "m.rsp"
        _legacy_npz(path, idx, SNAPSHOT_VERSION)
        with pytest.raises(SnapshotError, match="re-snapshot"):
            load(path)

    def test_store_and_server_accept_polygon_scenes(self, tmp_path):
        obstacles = self._polygon_scene(6)
        store = SceneStore()
        store.add_scene("poly", obstacles)
        idx = store.get("poly")
        verts, free = scene_endpoints(idx, k_free=8, seed=1)
        assert free, "seam filtering must leave usable free points"
        reqs = random_request_stream({"poly": (verts, free)}, 40, seed=2)
        server = QueryServer(store)
        results = server.submit(reqs)
        singles = [server.submit([r])[0] for r in reqs]
        assert results == singles


class TestSnapshotRejection:
    """Corrupt or mismatched artifacts surface as SnapshotError."""

    @pytest.fixture()
    def snap(self, tmp_path):
        idx = ShortestPathIndex.build(random_disjoint_rects(6, seed=2))
        return save(idx, tmp_path / "x.rsp")

    def test_garbage_file(self, tmp_path):
        bad = tmp_path / "junk.rsp"
        bad.write_bytes(b"this is not an archive at all")
        assert not is_snapshot(bad)
        with pytest.raises(SnapshotError):
            load(bad)

    def test_truncated_archive(self, snap):
        data = snap.read_bytes()
        snap.write_bytes(data[: len(data) // 2])
        with pytest.raises(SnapshotError):
            load(snap)

    def test_version_mismatch(self, snap, tmp_path):
        old = tmp_path / "old.rsp"
        old.write_bytes(snap.read_bytes())
        _rewrite_header(snap, version=SNAPSHOT_VERSION + 1)
        with pytest.raises(SnapshotError, match="version"):
            load(snap)
        # the float64 v4 files before it ask for a re-snapshot
        _rewrite_header(old, version=SNAPSHOT_VERSION - 1)
        with pytest.raises(SnapshotError, match="re-snapshot"):
            load(old)

    def test_wrong_format_name(self, snap):
        _rewrite_header(snap, format="other-artifact")
        assert not is_snapshot(snap)
        with pytest.raises(SnapshotError):
            load(snap)

    def test_tampered_matrix_fails_checksum(self, snap):
        header, arrays = load_arrays(snap)
        matrix = np.array(arrays["matrix"])
        matrix[0, -1] += 1
        header.pop("toc")
        arrays = {k: np.array(v) for k, v in arrays.items() if v is not None}
        with open(snap, "wb") as fh:
            _write_raw(fh, header, dict(arrays, matrix=matrix))
        with pytest.raises(SnapshotError, match="checksum"):
            load(snap)

    def test_matrix_dtype_must_match_the_header(self, snap):
        _rewrite_header(snap, matrix_dtype="float64")
        with pytest.raises(SnapshotError, match="header says"):
            load(snap)

    def test_missing_header(self, tmp_path):
        bad = tmp_path / "noheader.rsp"
        bad.write_bytes(RAW_MAGIC + (0).to_bytes(8, "little"))
        with pytest.raises(SnapshotError, match="header"):
            load(bad)

    def test_bare_npy_file(self, tmp_path):
        bad = tmp_path / "plain.rsp"
        np.save(bad.open("wb"), np.zeros((3, 3)))
        assert not is_snapshot(bad)
        with pytest.raises(SnapshotError):
            load(bad)

    def test_no_stale_tmp_after_save(self, tmp_path):
        idx = ShortestPathIndex.build(random_disjoint_rects(4, seed=1))
        save(idx, tmp_path / "a.rsp")
        assert [p.name for p in tmp_path.iterdir()] == ["a.rsp"]


class TestSnapshotFormatV3:
    """The raw (mmap-friendly) layout: round trip, zero-copy load, and
    rejection of corrupt/truncated/future-versioned artifacts."""

    @pytest.fixture()
    def built(self):
        rects = random_disjoint_rects(8, seed=3)
        return rects, ShortestPathIndex.build(rects)

    def test_default_save_is_raw_v5(self, tmp_path, built):
        _, idx = built
        path = save(idx, tmp_path / "r.rsp")
        assert path.read_bytes()[: len(RAW_MAGIC)] == RAW_MAGIC
        header = read_snapshot_header(path)
        assert header["version"] == SNAPSHOT_VERSION == 5
        assert header["matrix_dtype"] == idx.index.matrix.dtype.name == "float32"
        assert header["toc"]["matrix"]["dtype"] == "<f4"
        assert set(header["toc"]) >= {"points", "matrix", "rects", "container"}
        assert is_snapshot(path)

    def test_load_is_mmap_backed_and_read_only(self, tmp_path, built):
        rects, idx = built
        loaded = load(save(idx, tmp_path / "r.rsp"))
        mat = loaded.index.matrix
        assert not mat.flags.owndata  # a view onto the file mapping
        assert isinstance(mat.base, np.memmap) or isinstance(mat, np.memmap)
        with pytest.raises((ValueError, OSError)):
            mat[0, 0] = 1.0
        vs = idx.vertices()
        pairs = [(vs[i], vs[-1 - i]) for i in range(0, len(vs), 3)]
        assert idx.lengths(pairs).tobytes() == loaded.lengths(pairs).tobytes()

    def test_future_raw_version_rejected(self, tmp_path, built):
        _, idx = built
        arrays, include_query = _export_arrays(idx, True)
        header = {
            "format": "repro-snapshot",
            "version": SNAPSHOT_VERSION + 1,
            "engine": "parallel",
            "matrix_sha256": "0" * 64,
        }
        path = tmp_path / "future.rsp"
        with open(path, "wb") as fh:
            _write_raw(fh, header, arrays)
        with pytest.raises(SnapshotError, match="version"):
            load(path)
        err = str(pytest.raises(SnapshotError, read_snapshot_header, path).value)
        assert "\n" not in err  # one-line rejection

    def test_truncated_raw_artifact(self, tmp_path, built):
        _, idx = built
        path = save(idx, tmp_path / "t.rsp")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(SnapshotError, match="truncat"):
            load(path)

    def test_truncated_raw_header(self, tmp_path):
        bad = tmp_path / "h.rsp"
        bad.write_bytes(RAW_MAGIC + (10_000).to_bytes(8, "little") + b"{}")
        with pytest.raises(SnapshotError):
            load(bad)
        assert not is_snapshot(bad)

    def test_raw_magic_with_garbage_header(self, tmp_path):
        junk = b"not json at all!"
        bad = tmp_path / "g.rsp"
        bad.write_bytes(RAW_MAGIC + len(junk).to_bytes(8, "little") + junk)
        with pytest.raises(SnapshotError, match="header"):
            load(bad)

    def test_negative_toc_offset_rejected(self, tmp_path, built):
        """Regression: a corrupt TOC must not silently map header bytes
        as array data — offsets outside the payload raise SnapshotError."""
        _, idx = built
        arrays, _ = _export_arrays(idx, True)
        header = {
            "format": "repro-snapshot",
            "version": SNAPSHOT_VERSION,
            "engine": "parallel",
            "matrix_sha256": "0" * 64,
        }
        path = tmp_path / "neg.rsp"
        with open(path, "wb") as fh:
            _write_raw(fh, header, arrays)
        good = read_snapshot_header(path)
        good["toc"]["points"]["offset"] = -64
        import struct as _struct

        hbytes = json.dumps(good, sort_keys=True).encode()
        body = path.read_bytes()
        old_hlen = int.from_bytes(body[8:16], "little")
        old_base = (16 + old_hlen + 63) // 64 * 64
        new_base = (16 + len(hbytes) + 63) // 64 * 64
        rebuilt = (
            body[:8]
            + _struct.pack("<Q", len(hbytes))
            + hbytes
            + b"\0" * (new_base - 16 - len(hbytes))
            + body[old_base:]
        )
        path.write_bytes(rebuilt)
        with pytest.raises(SnapshotError, match="outside the payload"):
            load(path)

    def test_bitflip_in_matrix_fails_checksum(self, tmp_path, built):
        _, idx = built
        path = save(idx, tmp_path / "c.rsp")
        header = read_snapshot_header(path)
        hlen = int.from_bytes(path.read_bytes()[8:16], "little")
        base = (16 + hlen + 63) // 64 * 64
        off = base + header["toc"]["matrix"]["offset"] + 8
        raw = bytearray(path.read_bytes())
        raw[off] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="checksum"):
            load(path)

    def test_container_and_query_structure_round_trip(self, tmp_path):
        rects = random_disjoint_rects(8, seed=4)
        poly = random_container_polygon(rects, seed=2)
        idx = ShortestPathIndex.build(rects, container=poly)
        loaded = load(save(idx, tmp_path / "c.rsp"))
        assert loaded.container.loop == idx.container.loop
        header, arrays = load_arrays(tmp_path / "c.rsp")
        assert arrays["qs_parents"] is not None
        free = [v for v in random_free_points(rects, 6, seed=5) if poly.contains(v)]
        for i in range(0, len(free) - 1, 2):
            assert loaded.length(free[i], free[i + 1]) == idx.length(
                free[i], free[i + 1]
            )

    def test_matrix_digest_hashes_the_buffer_in_place(self, tmp_path):
        """Every load and every publish checksums the matrix; the digest
        must hash it in place, not allocate a copy of it."""
        import hashlib
        import tracemalloc

        from repro.serve.snapshot import _matrix_digest

        m = np.arange(512 * 512, dtype=np.float64).reshape(512, 512)
        want = hashlib.sha256(m.tobytes()).hexdigest()
        tracemalloc.start()
        try:
            got = _matrix_digest(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < m.nbytes // 16
        # the same digest through a read-only file mapping
        path = tmp_path / "m.bin"
        m.tofile(path)
        mapped = np.memmap(path, mode="r", dtype=np.float64, shape=m.shape)
        assert _matrix_digest(mapped) == want

    def test_save_streams_arrays_to_the_file(self, tmp_path):
        """A raw save writes each array's buffer straight to the file:
        peak Python allocation stays far below the matrix, and the bytes
        equal the in-memory layout built the long way round."""
        import struct
        import tracemalloc

        from repro.serve.snapshot import RAW_ALIGN, _base_header, _export_arrays

        # 192 rects: the float32 matrix (768 points, 2.4 MB) stays past 1 MiB
        idx = ShortestPathIndex.build(random_disjoint_rects(192, seed=5))
        save(idx, tmp_path / "warm.rsp")  # builds the lazy query structure
        tracemalloc.start()
        try:
            path = save(idx, tmp_path / "s.rsp")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        matrix_bytes = idx.index.matrix.nbytes
        assert matrix_bytes > 1 << 20
        assert peak < matrix_bytes // 4, (peak, matrix_bytes)

        def align(n):
            return (n + RAW_ALIGN - 1) // RAW_ALIGN * RAW_ALIGN

        arrays, include_query = _export_arrays(idx, True)
        header = dict(_base_header(idx, include_query, arrays["matrix"]),
                      version=SNAPSHOT_VERSION)
        toc, rel = {}, 0
        for name in sorted(arrays):
            arr = np.ascontiguousarray(arrays[name])
            toc[name] = {"dtype": arr.dtype.str, "shape": list(arr.shape),
                         "offset": rel, "nbytes": arr.nbytes}
            rel = align(rel + arr.nbytes)
        hbytes = json.dumps(dict(header, toc=toc), sort_keys=True).encode()
        base = align(16 + len(hbytes))
        want = bytearray(base + rel)
        want[:16 + len(hbytes)] = RAW_MAGIC + struct.pack("<Q", len(hbytes)) + hbytes
        for name in sorted(arrays):
            off = base + toc[name]["offset"]
            want[off:off + toc[name]["nbytes"]] = np.ascontiguousarray(arrays[name]).tobytes()
        assert path.read_bytes() == bytes(want)


class TestExportImportHooks:
    def test_distance_index_array_round_trip(self):
        rects = random_disjoint_rects(8, seed=1)
        idx = ShortestPathIndex.build(rects)
        arrays = idx.index.export_arrays()
        again = DistanceIndex.from_arrays(arrays["points"], arrays["matrix"])
        assert again.points == idx.index.points
        p, q = idx.index.points[0], idx.index.points[-1]
        assert again.length(p, q) == idx.index.length(p, q)

    def test_from_arrays_validates_shapes(self):
        with pytest.raises(QueryError):
            DistanceIndex.from_arrays(np.zeros((3, 3)), np.zeros((3, 3)))
        with pytest.raises(QueryError):
            DistanceIndex.from_arrays(np.zeros((3, 2)), np.zeros((2, 2)))

    def test_query_structure_parents_round_trip(self):
        rects = random_disjoint_rects(10, seed=2)
        idx = ShortestPathIndex.build(rects)
        qs = idx.query
        parents = qs.export_world_parents()
        assert parents.shape == (4, len(rects))
        qs2 = QueryStructure(rects, idx.index, PRAM(), world_parents=parents)
        free = random_free_points(rects, 6, seed=3)
        for i in range(0, len(free) - 1, 2):
            assert qs2.length(free[i], free[i + 1]) == qs.length(free[i], free[i + 1])

    def test_query_structure_parents_shape_check(self):
        rects = random_disjoint_rects(5, seed=2)
        idx = ShortestPathIndex.build(rects)
        with pytest.raises(QueryError):
            QueryStructure(
                rects, idx.index, PRAM(), world_parents=np.zeros((4, 99), dtype=int)
            )


class TestSceneStore:
    def test_unknown_scene(self):
        store = SceneStore()
        with pytest.raises(QueryError, match="unknown scene"):
            store.get("nope")

    def test_duplicate_registration(self):
        store = SceneStore()
        store.add_scene("a", random_disjoint_rects(4, seed=1))
        with pytest.raises(QueryError, match="already registered"):
            store.add_scene("a", random_disjoint_rects(4, seed=2))

    def test_lazy_build_and_hit_stats(self):
        store = SceneStore()
        store.add_scene("a", random_disjoint_rects(5, seed=1))
        assert store.stats()["resident"] == 0
        idx1 = store.get("a")
        idx2 = store.get("a")
        assert idx1 is idx2
        s = store.stats()
        assert (s["misses"], s["hits"], s["builds"]) == (1, 1, 1)

    def test_snapshot_backed_scene(self, tmp_path):
        rects = random_disjoint_rects(6, seed=4)
        idx = ShortestPathIndex.build(rects)
        path = save(idx, tmp_path / "s.rsp")
        store = SceneStore()
        store.add_snapshot("s", path)
        got = store.get("s")
        assert got.rects == rects
        assert store.stats()["loads"] == 1

    def test_recently_used_scene_survives(self):
        store = SceneStore()
        store.add_scene("a", random_disjoint_rects(4, seed=1))
        store.add_scene("b", random_disjoint_rects(4, seed=2))
        store.get("a")
        store.get("b")
        assert sorted(store.resident()) == ["a", "b"]

    def test_get_never_returns_none_under_eviction_pressure(self):
        # replace_source drops a scene's index, the one way an index
        # leaves the store; hammering get() from several threads while
        # another thread keeps dropping both scenes must still always
        # yield a real index (the lost-race branch re-materializes)
        store = SceneStore()
        store.add_scene("a", random_disjoint_rects(3, seed=1))
        store.add_scene("b", random_disjoint_rects(3, seed=2))
        rebuilt = {
            n: ShortestPathIndex.build(random_disjoint_rects(3, seed=s))
            for n, s in (("a", 1), ("b", 2))
        }
        bad = []
        done = threading.Event()

        def worker(name):
            for _ in range(25):
                if store.get(name) is None:  # pragma: no cover - the bug
                    bad.append(name)

        def dropper():
            while not done.is_set():
                for n, idx in rebuilt.items():
                    store.replace_source(n, lambda idx=idx: idx)

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in ("a", "b") * 3
        ]
        drop = threading.Thread(target=dropper)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            drop.start()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            done.set()
            sys.setswitchinterval(old)
        drop.join(timeout=10)
        assert not any(t.is_alive() for t in threads + [drop])
        assert not bad

    def test_slow_reader_never_loses_its_scene(self):
        """A reader's reference is its pin: a reader thread holding
        generation N of a file-mapped snapshot keeps exact answers while
        the store swaps and re-sources the scene and the publisher
        unlinks generation N's file."""
        idx = ShortestPathIndex.build(random_disjoint_rects(6, seed=1))
        vs = idx.vertices()
        pairs = [(vs[i], vs[-1 - i]) for i in range(len(vs) // 2)]
        want = idx.lengths(pairs).tobytes()
        got: list = []
        reading, stop = threading.Event(), threading.Event()
        with SnapshotPublisher() as pub:
            store = SceneStore()
            first = pub.publish("s", idx)
            store.add_snapshot("s", first)
            assert isinstance(store.get("s").index.matrix.base, np.memmap)

            def reader():
                held = store.get("s")
                while not stop.is_set():
                    got.append(held.lengths(pairs).tobytes())
                    reading.set()
                    time.sleep(0.001)
                got.append(held.lengths(pairs).tobytes())

            t = threading.Thread(target=reader)
            t.start()
            assert reading.wait(10)
            for k in range(8):
                nxt = ShortestPathIndex.build(random_disjoint_rects(6, seed=10 + k))
                path = pub.republish("s", nxt)
                if k % 2:
                    store.swap("s", load(path))
                else:
                    store.replace_source("s", lambda path=path: load(path))
                cur = store.get("s")
                pub.release_retired("s")
                assert store.generation("s") == k + 1
                assert cur.lengths(pairs[:1]).tobytes() == nxt.lengths(pairs[:1]).tobytes()
            assert not os.path.exists(first)
            n_during = len(got)
        stop.set()
        t.join(timeout=10)
        assert not t.is_alive()
        assert n_during > 1 and len(got) > n_during
        assert all(g == want for g in got)

    def test_concurrent_get_builds_once(self):
        calls = []
        barrier = threading.Barrier(8)

        def builder():
            calls.append(1)
            return ShortestPathIndex.build(random_disjoint_rects(6, seed=3))

        store = SceneStore()
        store.add_builder("shared", builder)
        results = [None] * 8

        def worker(k):
            barrier.wait()
            results[k] = store.get("shared")

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 1
        assert all(r is results[0] for r in results)


class TestQueryServer:
    @pytest.fixture()
    def served(self):
        rects_a = random_disjoint_rects(8, seed=1)
        rects_b = random_disjoint_rects(6, seed=2)
        store = SceneStore()
        store.add_scene("a", rects_a)
        store.add_scene("b", rects_b)
        return QueryServer(store, registry=MetricsRegistry()), store

    def test_mixed_batch_order_and_values(self, served):
        server, store = served
        ia, ib = store.get("a"), store.get("b")
        va, vb = ia.vertices(), ib.vertices()
        reqs = [
            Request("a", va[0], va[-1]),
            Request("b", vb[1], vb[-2]),
            Request("a", va[2], va[-3], op="path"),
            ("b", vb[0], vb[-1]),
            ("a", va[1], va[-2], "length"),
        ]
        out = server.submit(reqs)
        assert out[0] == ia.length(va[0], va[-1])
        assert out[1] == ib.length(vb[1], vb[-2])
        assert out[2] == ia.shortest_path(va[2], va[-3])
        assert out[3] == ib.length(vb[0], vb[-1])
        assert out[4] == ia.length(va[1], va[-2])
        stats = server.stats()
        assert stats["requests"] == 5
        assert stats["batches"] == 1
        # (a, length) and (b, length) hold two requests, (a, path) one
        assert stats["group_size_hist"] == {"1": 1, "2": 2}
        # batch-size histogram: one observation of a 5-request batch
        assert stats["batch_size_hist"] == {"5-8": 1}

    def test_stats_are_views_of_the_registry(self):
        store = SceneStore()
        store.add_scene("a", random_disjoint_rects(6, seed=1))
        reg = MetricsRegistry()
        server = QueryServer(store, registry=reg)
        va = store.get("a").vertices()
        server.lengths("a", [(va[0], va[-1])] * 10)
        server.submit([("a", va[1], va[-2])])
        total = reg.counter("repro.query.requests", "", labels=("verb",)).total()
        assert server.stats()["requests"] == 11 == total
        assert server.stats()["batches"] == 1

    def test_batch_size_histogram_buckets(self, served):
        server, store = served
        va = store.get("a").vertices()
        for size in (1, 2, 3, 9):
            server.submit([("a", va[0], va[-1])] * size)
        hist = server.stats()["batch_size_hist"]
        assert hist == {"1": 1, "2": 1, "3-4": 1, "9-16": 1}

    def test_coalesced_matches_per_request(self, served):
        server, store = served
        endpoints = {n: scene_endpoints(store.get(n), seed=4) for n in ("a", "b")}
        reqs = random_request_stream(endpoints, 60, seed=9)
        batched = server.submit(reqs)
        singly = [server.submit([r])[0] for r in reqs]
        assert batched == singly

    def test_convenience_calls(self, served):
        server, store = served
        ia = store.get("a")
        va = ia.vertices()
        assert server.length("a", va[0], va[-1]) == ia.length(va[0], va[-1])
        got = server.lengths("a", [(va[0], va[-1]), (va[1], va[-2])])
        assert got.tolist() == [ia.length(va[0], va[-1]), ia.length(va[1], va[-2])]
        assert server.shortest_path("a", va[0], va[-1]) == ia.shortest_path(
            va[0], va[-1]
        )

    def test_bad_requests(self, served):
        server, _ = served
        with pytest.raises(QueryError):
            server.submit([("a", (0, 0), (1, 1), "teleport")])
        with pytest.raises(QueryError):
            server.submit(["nonsense"])
        with pytest.raises(QueryError, match="unknown scene"):
            server.submit([("ghost", (0, 0), (1, 1))])

    def test_empty_batch(self, served):
        server, _ = served
        assert server.submit([]) == []

    def test_threaded_submissions(self, served):
        server, store = served
        ia = store.get("a")
        va = ia.vertices()
        want = ia.length(va[0], va[-1])
        errors = []

        def worker():
            try:
                for _ in range(20):
                    assert server.submit([("a", va[0], va[-1])]) == [want]
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert server.stats()["requests"] == 120


class TestRequestStream:
    def test_deterministic_and_well_formed(self):
        rects = random_disjoint_rects(8, seed=1)
        idx = ShortestPathIndex.build(rects)
        endpoints = {"s": scene_endpoints(idx, seed=2)}
        a = random_request_stream(endpoints, 100, seed=3)
        b = random_request_stream(endpoints, 100, seed=3)
        c = random_request_stream(endpoints, 100, seed=4)
        assert a == b
        assert a != c
        assert len(a) == 100
        assert {r.scene for r in a} == {"s"}
        assert {r.op for r in a} <= {"length", "path"}
        verts, free = endpoints["s"]
        arb = [r for r in a if r.p in free or r.q in free]
        assert arb  # the default mix exercises §6.4

    def test_empty_inputs(self):
        assert random_request_stream({}, 10) == []
        rects = random_disjoint_rects(4, seed=1)
        idx = ShortestPathIndex.build(rects)
        assert random_request_stream({"s": scene_endpoints(idx)}, 0) == []


class TestServeCLI:
    @pytest.fixture()
    def scene_file(self, tmp_path):
        rects = random_disjoint_rects(8, seed=1)
        path = tmp_path / "scene.json"
        path.write_text(
            json.dumps({"rects": [[r.xlo, r.ylo, r.xhi, r.yhi] for r in rects]})
        )
        free = random_free_points(rects, 2, seed=2)
        return path, free

    def test_snapshot_then_query(self, tmp_path, scene_file, capsys):
        path, (p, q) = scene_file
        rsp = tmp_path / "scene.rsp"
        assert main(["snapshot", str(path), str(rsp)]) == 0
        assert rsp.exists()
        assert main(["query", str(rsp), f"{p[0]},{p[1]}", f"{q[0]},{q[1]}", "--path"]) == 0
        out, err = capsys.readouterr()
        assert "length = " in out
        assert "path   =" in out
        assert "rebuilding" not in err  # no rebuild hint on the snapshot path

    def test_query_json_prints_rebuild_hint(self, scene_file, capsys):
        path, (p, q) = scene_file
        assert main(["query", str(path), f"{p[0]},{p[1]}", f"{q[0]},{q[1]}"]) == 0
        out, err = capsys.readouterr()
        assert "length = " in out
        assert "snapshot" in err

    def test_query_matches_between_json_and_snapshot(self, tmp_path, scene_file, capsys):
        path, (p, q) = scene_file
        rsp = tmp_path / "scene.rsp"
        main(["snapshot", str(path), str(rsp)])
        capsys.readouterr()
        main(["query", str(path), f"{p[0]},{p[1]}", f"{q[0]},{q[1]}"])
        from_json = capsys.readouterr().out
        main(["query", str(rsp), f"{p[0]},{p[1]}", f"{q[0]},{q[1]}"])
        from_snap = capsys.readouterr().out
        assert from_json == from_snap

    def test_overlapping_scene_one_line_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"rects": [[0, 0, 10, 10], [5, 5, 15, 15]]}))
        with pytest.raises(SystemExit) as exc:
            main(["query", str(bad), "0,0", "1,1"])
        msg = str(exc.value)
        assert "overlap" in msg
        assert "\n" not in msg.strip()

    def test_degenerate_rect_one_line_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"rects": [[0, 0, 0, 10]]}))
        with pytest.raises(SystemExit, match="invalid scene"):
            main(["bench-info", str(bad)])

    def test_corrupt_snapshot_one_line_error(self, tmp_path):
        bad = tmp_path / "bad.rsp"
        bad.write_bytes(b"garbage")
        with pytest.raises(SystemExit, match="snapshot"):
            main(["query", str(bad), "0,0", "1,1"])

    def test_missing_snapshot_one_line_error(self, tmp_path):
        missing = str(tmp_path / "nope.rsp")
        with pytest.raises(SystemExit, match="nope.rsp"):
            main(["query", missing, "0,0", "1,1"])
        with pytest.raises(SystemExit, match="nope.rsp"):
            main(["serve-bench", missing, "--requests", "1"])

    def test_serve_bench_reports_percentiles_and_histogram(
        self, tmp_path, scene_file, capsys
    ):
        path, _ = scene_file
        assert main(["serve-bench", str(path), "--requests", "40", "--batch", "8"]) == 0
        out = capsys.readouterr().out
        # percentiles, not mean-only
        for token in ("p50", "p95", "p99"):
            assert token in out
        assert "batch-size histogram:" in out
        assert "batch_size_hist" in out  # server stats line carries the key

    def test_serve_bench_record_and_replay(self, tmp_path, scene_file, capsys):
        path, _ = scene_file
        rsp = tmp_path / "scene.rsp"
        main(["snapshot", str(path), str(rsp)])
        wl = tmp_path / "wl.json"
        assert (
            main(
                [
                    "serve-bench",
                    str(rsp),
                    str(path),
                    "--requests",
                    "50",
                    "--batch",
                    "16",
                    "--record",
                    str(wl),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "per-request:" in out and "coalesced:" in out
        assert wl.exists()
        assert main(["serve-bench", str(rsp), str(path), "--workload", str(wl)]) == 0
        out = capsys.readouterr().out
        assert "50 requests" in out
