"""Scene publishing tests: the front-end writes snapshot files into a
private ``rsp-<pid>-<hex>`` directory (in ``/dev/shm`` where it exists)
and workers map them read-only.  Covered here: publish/load equality
under both ``fork`` and ``spawn``, one file per published index, release
and close removing files, reaping the directory of a SIGKILLed
publisher, and the store's loading of mapped files (one load per file,
quarantine shared by aliases)."""

import asyncio
import json
import multiprocessing as mp
import os
import signal

import numpy as np
import pytest

from repro.cluster.worker import register_scene
from repro.core.api import ShortestPathIndex
from repro.errors import ClusterError, ReproError
from repro.serve import publish
from repro.serve.publish import SnapshotPublisher, list_published
from repro.serve.snapshot import load, read_header, save
from repro.serve.store import SceneStore
from repro.workloads.generators import (
    random_disjoint_rects,
    random_polygon_scene,
)


# -- leak fixture -------------------------------------------------------
@pytest.fixture(autouse=True)
def no_leaked_publishers():
    """Every test must leave the publish root exactly as it found it."""
    before = set(list_published())
    yield
    leaked = set(list_published()) - before
    assert not leaked, f"leaked publisher directories: {sorted(leaked)}"


def _probe_child(path, pairs, queue):
    """Child-process probe (module-level for spawn picklability): load
    the published file, answer, exit — never unlink."""
    from repro.serve.snapshot import load as load_child

    idx = load_child(path)
    queue.put(np.asarray(idx.lengths(pairs)).tobytes())


def _sample_pairs(idx, stride=3):
    vs = idx.vertices()
    return [(vs[i], vs[-1 - i]) for i in range(0, len(vs), stride)]


def _files(pub):
    return sorted(os.listdir(pub.dir))


class TestPublishAttach:
    def test_zero_copy_read_only_attach(self):
        idx = ShortestPathIndex.build(random_disjoint_rects(8, seed=1))
        with SnapshotPublisher() as pub:
            path = pub.publish("s", idx)
            assert os.path.dirname(path) == str(pub.dir)
            assert pub.dir.parent == publish.ROOT
            att = load(path)
            mat = att.index.matrix
            assert not mat.flags.owndata  # a view of the file mapping
            assert not mat.flags.writeable
            with pytest.raises((ValueError, OSError)):
                mat[0, 0] = 1.0
            pairs = _sample_pairs(idx)
            assert idx.lengths(pairs).tobytes() == att.lengths(pairs).tobytes()

    def test_manifest_is_json_plain(self, tmp_path):
        """The worker specs the front-end hands out survive the wire and
        spawn pickling: plain snapshot specs, one per scene."""
        from repro.cluster.frontend import ClusterFrontend

        rects = random_disjoint_rects(5, seed=2)
        idx = ShortestPathIndex.build(rects)
        snap = save(idx, tmp_path / "s.rsp")
        fe = ClusterFrontend(
            {"built": {"index": idx},
             "file": {"snapshot": str(snap), "obstacles": rects}},
            workers=1,
        )
        try:
            specs = fe._prepare_specs()
            json.loads(json.dumps(specs))
            assert {s["kind"] for s in specs} == {"snapshot"}
            by_name = {s["name"]: s for s in specs}
            assert by_name["file"]["path"] == str(snap)  # handed out as is
            assert "scene" in by_name["file"]  # the rebuild fallback
            assert os.path.dirname(by_name["built"]["path"]) == str(fe.publisher.dir)
        finally:
            fe.publisher.close()
        assert snap.exists()  # an operator's file is never removed

    def test_publish_duplicate_scene_rejected(self):
        idx = ShortestPathIndex.build(random_disjoint_rects(4, seed=3))
        with SnapshotPublisher() as pub:
            pub.publish("s", idx)
            with pytest.raises(ClusterError, match="already published"):
                pub.publish("s", idx)

    def test_release_unlinks_segment(self):
        idx = ShortestPathIndex.build(random_disjoint_rects(4, seed=4))
        pub = SnapshotPublisher()
        path = pub.publish("s", idx)
        assert os.path.exists(path)
        pub.release("s")
        assert not os.path.exists(path)
        with pytest.raises(ClusterError, match="not published"):
            pub.path("s")
        pub.close()
        assert not pub.dir.exists()

    def test_attach_after_unlink_is_one_line_error(self):
        idx = ShortestPathIndex.build(random_disjoint_rects(4, seed=5))
        pub = SnapshotPublisher()
        path = pub.publish("s", idx)
        pub.close()
        store = SceneStore()
        register_scene(store, {"name": "s", "kind": "snapshot", "path": path})
        with pytest.raises(FileNotFoundError) as exc:
            store.get("s")
        assert "\n" not in str(exc.value)

    def test_bad_manifest_rejected(self):
        """Only snapshot specs exist; any other kind (``shm``, ``build``)
        is refused with one line."""
        for kind in ("shm", "build"):
            with pytest.raises(ReproError, match="unknown scene spec kind"):
                register_scene(SceneStore(), {"name": "s", "kind": kind})

    def test_close_is_idempotent(self):
        idx = ShortestPathIndex.build(random_disjoint_rects(4, seed=6))
        pub = SnapshotPublisher()
        pub.publish("s", idx)
        pub.close()
        pub.close()
        assert not pub.dir.exists()
        with pytest.raises(ClusterError, match="closed"):
            pub.publish("t", idx)

    def test_same_index_shares_one_refcounted_segment(self):
        """Publishing one built index under many scene names writes one
        file (this is the bench_cluster RSS sweep's shape); the file is
        unlinked only when the last name is released."""
        idx = ShortestPathIndex.build(random_disjoint_rects(6, seed=21))
        pairs = _sample_pairs(idx)
        pub = SnapshotPublisher()
        paths = [pub.publish(f"c{i}", idx) for i in range(3)]
        assert len(set(paths)) == 1
        assert len(_files(pub)) == 1
        att = load(paths[2])
        assert idx.lengths(pairs).tobytes() == att.lengths(pairs).tobytes()
        pub.release("c0")
        pub.release("c1")
        assert len(_files(pub)) == 1  # still one name left
        pub.release("c2")
        assert _files(pub) == []
        # a fresh publish after full release writes a fresh file
        pub.publish("again", idx)
        assert len(_files(pub)) == 1
        pub.close()

    def test_distinct_indexes_get_distinct_segments(self):
        a = ShortestPathIndex.build(random_disjoint_rects(4, seed=22))
        b = ShortestPathIndex.build(random_disjoint_rects(4, seed=23))
        with SnapshotPublisher() as pub:
            assert pub.publish("a", a) != pub.publish("b", b)
            assert len(_files(pub)) == 2

    def test_publish_snapshot_raw_and_npz(self, tmp_path):
        """An operator's snapshot file is handed out as it is — no copy
        in the publish directory, never removed.  A retired npz artifact
        is handed out too, and its load asks for a re-snapshot."""
        idx = ShortestPathIndex.build(random_disjoint_rects(7, seed=7))
        raw = save(idx, tmp_path / "r.rsp")
        npz = tmp_path / "n.rsp"
        header = json.dumps({"format": "repro-snapshot", "version": 2}).encode()
        with open(npz, "wb") as fh:
            np.savez_compressed(fh, header=np.frombuffer(header, dtype=np.uint8),
                                **idx.index.export_arrays())
        pairs = _sample_pairs(idx)
        with SnapshotPublisher() as pub:
            assert pub.publish_file("raw", raw) == str(raw)
            att = load(pub.path("raw"))
            assert idx.lengths(pairs).tobytes() == att.lengths(pairs).tobytes()
            assert pub.publish_file("npz", npz) == str(npz)
            with pytest.raises(ReproError, match="re-snapshot"):
                load(pub.path("npz"))
            assert _files(pub) == []
            with pytest.raises(ClusterError, match="cannot publish"):
                pub.publish_file("missing", tmp_path / "missing.rsp")
            pub.release("raw")
        assert raw.exists() and npz.exists()

    def test_polygon_scene_attach_keeps_solid_semantics(self):
        obstacles = random_polygon_scene(2, 2, seed=8)
        idx = ShortestPathIndex.build(obstacles)
        with SnapshotPublisher() as pub:
            att = load(pub.publish("p", idx))
            assert att.seams == idx.seams
            pairs = _sample_pairs(idx, stride=5)
            assert idx.lengths(pairs).tobytes() == att.lengths(pairs).tobytes()
            from repro.errors import QueryError

            # a strictly interior seam point must still be rejected
            tall = [s for s in idx.seams if s.yhi - s.ylo >= 2]
            assert tall, "scene generator produced no seam with interior room"
            seam = tall[0]
            with pytest.raises(QueryError):
                att.length((seam.x, (seam.ylo + seam.yhi) // 2), idx.vertices()[0])


class TestChildProcesses:
    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_child_attach_byte_identical(self, method):
        """The crosscheck the cluster relies on: a worker that maps the
        published file answers byte-for-byte what the in-process index
        answers, under both start methods."""
        idx = ShortestPathIndex.build(random_disjoint_rects(9, seed=10))
        pairs = _sample_pairs(idx)
        with SnapshotPublisher() as pub:
            path = pub.publish("s", idx)
            ctx = mp.get_context(method)
            queue = ctx.Queue()
            proc = ctx.Process(target=_probe_child, args=(path, pairs, queue))
            proc.start()
            got = queue.get(timeout=60)
            proc.join(timeout=60)
            assert proc.exitcode == 0
            assert got == np.asarray(idx.lengths(pairs)).tobytes()

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_many_children_share_one_segment(self, method):
        idx = ShortestPathIndex.build(random_disjoint_rects(6, seed=11))
        pairs = _sample_pairs(idx)
        want = np.asarray(idx.lengths(pairs)).tobytes()
        with SnapshotPublisher() as pub:
            path = pub.publish("s", idx)
            ctx = mp.get_context(method)
            queue = ctx.Queue()
            procs = [
                ctx.Process(target=_probe_child, args=(path, pairs, queue))
                for _ in range(3)
            ]
            for p in procs:
                p.start()
            results = [queue.get(timeout=60) for _ in procs]
            for p in procs:
                p.join(timeout=60)
                assert p.exitcode == 0
            assert all(r == want for r in results)
            # exactly one file despite three readers
            assert len(_files(pub)) == 1

    def test_fuzz_scene_crosscheck(self):
        """Mixed rect+polygon fuzz scenes: answers from the published file
        equal the in-process ShortestPathIndex exactly (lengths are
        bit-identical doubles, not approximately equal)."""
        for seed in (1, 2):
            obstacles = random_polygon_scene(1, 3, seed=seed)
            idx = ShortestPathIndex.build(obstacles)
            pairs = _sample_pairs(idx, stride=4)
            with SnapshotPublisher() as pub:
                path = pub.publish(f"f{seed}", idx)
                ctx = mp.get_context("fork")
                queue = ctx.Queue()
                proc = ctx.Process(target=_probe_child, args=(path, pairs, queue))
                proc.start()
                got = queue.get(timeout=60)
                proc.join(timeout=60)
                assert got == np.asarray(idx.lengths(pairs)).tobytes()


def _publish_and_wait(queue):
    pub = SnapshotPublisher()
    pub.publish("s", ShortestPathIndex.build(random_disjoint_rects(4, seed=31)))
    queue.put(pub.dir.name)
    signal.pause()


class TestLifecycle:
    def test_sigkilled_publisher_directory_is_reaped(self):
        """A front-end killed with SIGKILL cannot close its publisher; the
        next publisher on the machine removes the dead pid's directory."""
        ctx = mp.get_context("fork")
        queue = ctx.Queue()
        proc = ctx.Process(target=_publish_and_wait, args=(queue,))
        proc.start()
        name = queue.get(timeout=60)
        assert name.startswith(f"rsp-{proc.pid}-")
        assert name in list_published()
        os.kill(proc.pid, signal.SIGKILL)
        proc.join(timeout=60)
        with SnapshotPublisher():
            assert not [
                e for e in list_published() if e.startswith(f"rsp-{proc.pid}-")
            ]

    def test_live_publisher_directory_is_not_reaped(self):
        with SnapshotPublisher() as first:
            with SnapshotPublisher() as second:
                assert first.dir.exists() and second.dir != first.dir

    def test_rollover_unlinks_retired_file_after_acks(self):
        """Cluster-level: after an update every live worker acked, only
        the current generation's file is left in the publish directory."""
        from repro.cluster.frontend import ClusterFrontend
        from repro.cluster.loadgen import _rpc
        from repro.scene import SceneDelta

        rects = random_disjoint_rects(8, seed=12)

        async def run():
            async with ClusterFrontend({"a": {"obstacles": rects}}, workers=2) as fe:
                before = _files(fe.publisher)
                reader, writer = await asyncio.open_connection(fe.host, fe.port)
                res = await _rpc(reader, writer, {
                    "id": 1, "op": "update", "scene": "a",
                    "delta": SceneDelta.delete(rects[0]).to_dict(),
                })
                writer.close()
                assert res["ok"], res
                after = _files(fe.publisher)
                assert len(before) == len(after) == 1 and before != after
                return fe.publisher.dir

        assert not asyncio.run(run()).exists()


class TestStoreIntegration:
    def test_aliases_of_one_file_share_one_load(self):
        """Eight names published for one index are one file; a worker
        store loads and maps it once, not once per name."""
        idx = ShortestPathIndex.build(random_disjoint_rects(6, seed=14))
        pairs = _sample_pairs(idx)
        with SnapshotPublisher() as pub:
            store = SceneStore()
            paths = {pub.publish(f"c{i}", idx) for i in range(8)}
            assert len(paths) == 1
            (path,) = paths
            for i in range(8):
                register_scene(store, {"name": f"c{i}", "kind": "snapshot",
                                       "path": path})

            def mappings():
                if not os.path.exists("/proc/self/maps"):
                    return None
                with open("/proc/self/maps") as fh:
                    return sum(1 for line in fh if line.rstrip().endswith(str(path)))

            got = [store.get("c0")]
            one = mappings()
            got += [store.get(f"c{i}") for i in range(1, 8)]
            assert all(g is got[0] for g in got)
            assert store.stats()["loads"] == 1
            assert mappings() == one  # the seven aliases mapped nothing new
            assert got[0].lengths(pairs).tobytes() == idx.lengths(pairs).tobytes()

    def test_corrupt_file_quarantines_once_for_every_alias(self, tmp_path):
        """A corrupt file shared by two names is quarantined once, and
        each name falls back to its own rebuild."""
        rects = random_disjoint_rects(6, seed=15)
        idx = ShortestPathIndex.build(rects)
        path = save(idx, tmp_path / "s.rsp")
        data = bytearray(path.read_bytes())
        base = (16 + int.from_bytes(data[8:16], "little") + 63) // 64 * 64
        data[base + read_header(path)["toc"]["matrix"]["offset"] + 8] ^= 0xFF
        path.write_bytes(bytes(data))  # a bit flip the checksum catches
        store = SceneStore()
        for name in ("a", "b"):
            store.add_snapshot(name, path, fallback=lambda: ShortestPathIndex.build(rects))
        pairs = _sample_pairs(idx)
        for name in ("a", "b"):
            got = store.get(name)
            assert got.lengths(pairs).tobytes() == idx.lengths(pairs).tobytes()
        quarantined = sorted(p.name for p in tmp_path.iterdir())
        assert quarantined == ["s.rsp.quarantined"]
        st = store.stats()
        assert st["quarantined_scenes"] == ["a", "b"]
        assert st["loads"] == 0

    def test_concurrent_aliases_load_the_file_once(self):
        """Aliases share one materialization lock: sixteen threads asking
        for eight names of one file at once still load it once."""
        import sys
        import threading

        idx = ShortestPathIndex.build(random_disjoint_rects(6, seed=16))
        with SnapshotPublisher() as pub:
            path = pub.publish("c0", idx)
            store = SceneStore()
            for i in range(8):
                store.add_snapshot(f"c{i}", path)
            barrier = threading.Barrier(16)
            got = [None] * 16

            def worker(k):
                barrier.wait(timeout=10)
                got[k] = store.get(f"c{k % 8}")

            old = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=worker, args=(k,)) for k in range(16)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
            finally:
                sys.setswitchinterval(old)
            assert not any(t.is_alive() for t in threads)
            assert all(g is got[0] for g in got)
            assert store.stats()["loads"] == 1
