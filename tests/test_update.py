"""Incremental scene updates and zero-downtime rollover.

Three layers under test:

* engine — ``update_index`` repairs must be **byte-identical** to a cold
  rebuild of the mutated scene (root point order, exact integer matrix
  bytes, reported polylines) while actually reusing subtree work;
* store — ``SceneStore.swap``/``replace_source`` generations: atomic
  publish, an old generation kept alive by its reader's reference and by
  nothing else, collision-safe snapshot quarantine;
* cluster — the ``update`` protocol verb rolls a live 2-worker cluster
  to the next generation with no stale answers, including while a worker
  is being killed and respawned mid-rollover.
"""

import asyncio
import os
import signal
import time
import weakref

import numpy as np
import pytest

from repro.core.crosscheck import check_update
from repro.errors import GeometryError, QueryError
from repro.pipeline import StageCache, build_index, update_index
from repro.scene import Scene, SceneDelta
from repro.serve import SceneStore
from repro.serve.snapshot import quarantine
from repro.workloads import random_disjoint_rects


def _roomy_cache() -> StageCache:
    # the default process cache (64 entries / 32 MB) cannot hold every
    # subtree entry of a mid-sized scene; reuse tests need headroom
    return StageCache(max_entries=8192, max_bytes=512 << 20)


def _scene(n: int, seed: int) -> Scene:
    return Scene.from_obstacles(random_disjoint_rects(n, seed=seed))


def _assert_byte_identical(repaired, cold):
    assert list(repaired.index.points) == list(cold.index.points)
    ma = np.asarray(repaired.index.matrix)
    mb = np.asarray(cold.index.matrix)
    assert ma.tobytes() == mb.tobytes()


class TestUpdateIndex:
    def test_delete_repair_is_byte_identical_and_reuses(self):
        scene = _scene(32, seed=5)
        cache = _roomy_cache()
        idx = build_index(scene, cache=cache, incremental=True)
        victim = scene.rects[len(scene.rects) // 2]
        repaired = update_index(idx, SceneDelta.delete(victim), cache=cache)
        cold = build_index(repaired.scene, cache=StageCache(64, 256 << 20))
        _assert_byte_identical(repaired, cold)
        rep = repaired.provenance["repair"]
        assert rep["ops"] == "0 inserts, 1 deletes"
        assert rep["old_scene_hash"] == scene.content_hash()
        assert rep["new_scene_hash"] == repaired.scene.content_hash()
        assert rep["reused_entries"] > 0
        assert 0.0 < rep["reused_fraction"] <= 1.0

    def test_insert_repair_is_byte_identical(self):
        scene = _scene(24, seed=9)
        cache = _roomy_cache()
        idx = build_index(scene, cache=cache, incremental=True)
        victim = scene.rects[3]
        mid = update_index(idx, SceneDelta.delete(victim), cache=cache)
        back = update_index(mid, SceneDelta.insert(victim), cache=cache)
        cold = build_index(back.scene, cache=StageCache(64, 256 << 20))
        _assert_byte_identical(back, cold)

    def test_paths_match_cold_rebuild(self):
        scene = _scene(20, seed=2)
        cache = _roomy_cache()
        idx = build_index(scene, cache=cache, incremental=True)
        repaired = update_index(idx, SceneDelta.delete(scene.rects[7]), cache=cache)
        cold = build_index(repaired.scene, cache=StageCache(64, 256 << 20))
        pts = repaired.index.points
        ma = np.asarray(repaired.index.matrix)
        checked = 0
        for i in range(0, len(pts), 7):
            j = len(pts) - 1 - i
            if j <= i or not np.isfinite(ma[i, j]):
                continue
            p, q = pts[i], pts[j]
            assert repaired.shortest_path(p, q) == cold.shortest_path(p, q)
            assert repaired.length(p, q) == cold.length(p, q)
            checked += 1
        assert checked >= 3

    def test_update_requires_attached_scene(self):
        scene = _scene(6, seed=1)
        idx = build_index(scene)
        idx.scene = None
        with pytest.raises(QueryError, match="no attached scene"):
            update_index(idx, SceneDelta.delete(scene.rects[0]))

    def test_update_rejects_non_delta(self):
        idx = build_index(_scene(6, seed=1))
        with pytest.raises(QueryError, match="SceneDelta"):
            update_index(idx, {"op": "delete"})

    def test_delete_missing_obstacle_is_one_line_error(self):
        scene = _scene(6, seed=3)
        idx = build_index(scene, cache=_roomy_cache(), incremental=True)
        from repro.geometry.primitives import Rect

        ghost = Rect(10**6, 10**6, 10**6 + 1, 10**6 + 1)
        with pytest.raises(GeometryError, match="not in the scene"):
            update_index(idx, SceneDelta.delete(ghost))

    def test_insert_duplicate_obstacle_is_one_line_error(self):
        scene = _scene(6, seed=3)
        idx = build_index(scene, cache=_roomy_cache(), incremental=True)
        with pytest.raises(GeometryError, match="already in the scene"):
            update_index(idx, SceneDelta.insert(scene.rects[0]))

    def test_modified_scene_never_reuses_parent_hashes(self):
        # satellite regression: apply_delta rebuilds from scratch, so a
        # repaired index can never inherit the parent's memoized hashes
        # or its content-addressed solve artifact
        scene = _scene(16, seed=4)
        edited = scene.apply_delta(SceneDelta.delete(scene.rects[0]))
        assert edited.content_hash() != scene.content_hash()
        assert edited.geometry_hash() != scene.geometry_hash()
        cache = _roomy_cache()
        idx = build_index(scene, cache=cache, incremental=True)
        repaired = update_index(idx, SceneDelta.delete(scene.rects[0]), cache=cache)
        # the full-scene solve artifact is keyed by the NEW content hash:
        # the parent's entry must not have satisfied it
        assert not repaired.provenance["repair"]["solve_cached"]
        for st in repaired.provenance["stages"]:
            if st["name"] == "solve":
                assert not st["cached"]

    def test_differential_fuzz_quick(self):
        # tier-1 slice of `repro fuzz --updates`; CI runs the 100+ scene
        # sweep with the same checker
        for seed in range(6):
            n = 10 + 4 * (seed % 3)
            problems = check_update(
                list(random_disjoint_rects(n, seed=seed)), n_edits=3, seed=seed
            )
            assert problems == [], problems

    def test_differential_fuzz_covers_grid_engine(self):
        problems = check_update(
            list(random_disjoint_rects(10, seed=11)),
            n_edits=2,
            seed=11,
            engines=("parallel", "sequential", "grid"),
        )
        assert problems == [], problems


class TestSceneStoreGenerations:
    def _idx(self, n=6, seed=1):
        return build_index(_scene(n, seed=seed))

    def test_swap_publishes_atomically(self):
        store = SceneStore()
        store.add_builder("s", lambda: self._idx(seed=1))
        old = store.get("s")
        assert store.generation("s") == 0
        new = self._idx(seed=2)
        gen = store.swap("s", new)
        assert gen == 1 and store.generation("s") == 1
        assert store.get("s") is new
        assert store.stats()["swaps"] == 1

    def _assert_freed_once_dropped(self, store, roll):
        """Hold the current index, ``roll`` the scene, check the held
        index still answers exactly, drop it, and check nothing else
        kept it alive (reference counting frees it, no collector pass)."""
        store.add_builder("s", lambda: self._idx(seed=1))
        old = store.get("s")
        vs = old.vertices()
        pairs = [(vs[0], vs[-1]), (vs[1], vs[-2])]
        want = old.lengths(pairs).tobytes()
        roll()
        assert store.get("s") is not old
        assert old.lengths(pairs).tobytes() == want
        ref = weakref.ref(old)
        del old
        assert ref() is None

    def test_pinned_old_generation_survives_swap(self):
        """A reader's reference is its pin: the generation it holds stays
        exact across a swap, and once it drops the index the store has
        retained nothing of it."""
        store = SceneStore()
        self._assert_freed_once_dropped(
            store, lambda: store.swap("s", self._idx(seed=2))
        )

    def test_replace_source_is_lazy(self):
        store = SceneStore()
        built = []

        def builder():
            built.append(1)
            return self._idx(seed=3)

        store.add_builder("s", lambda: self._idx(seed=1))
        store.get("s")
        gen = store.replace_source("s", builder)
        assert gen == 1
        assert built == []  # nothing materialized yet
        assert "s" not in store.resident()
        store.get("s")
        assert built == [1]

    def test_replace_source_retires_pinned_resident(self):
        store = SceneStore()
        self._assert_freed_once_dropped(
            store, lambda: store.replace_source("s", lambda: self._idx(seed=4))
        )

    def test_swap_registers_unknown_scene(self):
        store = SceneStore()
        idx = self._idx(seed=5)
        gen = store.swap("fresh", idx)
        assert gen == 1 and store.get("fresh") is idx


class TestQuarantine:
    def test_collision_safe_suffixes(self, tmp_path):
        p = tmp_path / "campus.rsp"
        p.write_bytes(b"corrupt-1")
        first = quarantine(p)
        assert first is not None and first.name == "campus.rsp.quarantined"
        p.write_bytes(b"corrupt-2")
        second = quarantine(p)
        assert second is not None and second.name == "campus.rsp.quarantined.1"
        p.write_bytes(b"corrupt-3")
        third = quarantine(p)
        assert third is not None and third.name == "campus.rsp.quarantined.2"
        assert first.read_bytes() == b"corrupt-1"
        assert second.read_bytes() == b"corrupt-2"
        assert not p.exists()


class TestShmRollover:
    def test_republish_bumps_generation_and_retires_old(self):
        """A rollover writes the next generation to a new file; the old
        file is unlinked only by release_retired, and a worker mapping
        taken before the unlink still answers the old generation."""
        from repro.serve.publish import SnapshotPublisher
        from repro.serve.snapshot import load

        scene = _scene(8, seed=6)
        idx0 = build_index(scene)
        edited = scene.apply_delta(SceneDelta.delete(scene.rects[0]))
        idx1 = build_index(edited)
        vs = idx0.vertices()
        pairs = [(vs[i], vs[-1 - i]) for i in range(0, len(vs), 3)]
        with SnapshotPublisher() as pub:
            p0 = pub.publish("s", idx0)
            a0 = load(p0)  # a reader on the old generation
            p1 = pub.republish("s", idx1)
            assert p1 != p0 and pub.path("s") == p1
            a1 = load(p1)
            assert np.asarray(a1.index.matrix).tobytes() == np.asarray(
                idx1.index.matrix
            ).tobytes()
            assert os.path.exists(p0)  # retired, not yet released
            assert pub.release_retired("s") == 1
            assert not os.path.exists(p0) and os.path.exists(p1)
            assert pub.release_retired("s") == 0
            # the mapping outlives the unlink (POSIX semantics)
            assert np.asarray(a0.index.matrix).tobytes() == np.asarray(
                idx0.index.matrix
            ).tobytes()
            assert a0.lengths(pairs).tobytes() == idx0.lengths(pairs).tobytes()


async def _rpc(host, port, *msgs, timeout=60.0):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        from repro.cluster.protocol import read_frame, write_frame

        for m in msgs:
            await write_frame(writer, m)
        return [await asyncio.wait_for(read_frame(reader), timeout) for _ in msgs]
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class TestClusterUpdate:
    def test_rollover_answers_new_generation_exactly(self):
        from repro.cluster.frontend import ClusterFrontend

        rects = random_disjoint_rects(16, seed=3)

        async def run():
            async with ClusterFrontend(
                {"demo": {"obstacles": rects}}, workers=2
            ) as fe:
                (desc,) = await _rpc(
                    fe.host, fe.port, {"id": 1, "op": "describe", "scene": "demo"}
                )
                assert desc["ok"] and desc["result"]["generation"] == 0
                scene0 = Scene.from_dict(desc["result"]["scene"])
                victim = rects[8]
                scene1 = scene0.apply_delta(SceneDelta.delete(victim))
                idx0 = build_index(scene0, cache=StageCache(64, 1 << 28))
                idx1 = build_index(scene1, cache=StageCache(64, 1 << 28))
                pairs = [
                    [[r.xlo, r.ylo], [rects[12].xhi, rects[12].yhi]]
                    for r in (rects[0], rects[4])
                ]
                q = {"id": 2, "op": "lengths", "scene": "demo", "pairs": pairs}
                (r0,) = await _rpc(fe.host, fe.port, q)
                assert r0["result"] == [
                    idx0.length(tuple(p), tuple(qq)) for p, qq in pairs
                ]
                (up,) = await _rpc(
                    fe.host,
                    fe.port,
                    {
                        "id": 3,
                        "op": "update",
                        "scene": "demo",
                        "delta": SceneDelta.delete(victim).to_dict(),
                    },
                )
                assert up["ok"], up
                res = up["result"]
                assert res["generation"] == 1
                assert res["scene_hash"] == scene1.content_hash()
                assert res["repair"]["reused_entries"] > 0
                # post-ack queries are strictly after the linearization
                # point: they must answer the NEW generation exactly
                (r1,) = await _rpc(fe.host, fe.port, dict(q, id=4))
                assert r1["result"] == [
                    idx1.length(tuple(p), tuple(qq)) for p, qq in pairs
                ]
                (sc,) = await _rpc(fe.host, fe.port, {"id": 5, "op": "scenes"})
                assert sc["result"]["generations"] == {"demo": 1}
                assert sc["result"]["updatable"] == ["demo"]

        asyncio.run(run())

    def test_bad_delta_leaves_generation_unchanged(self):
        from repro.cluster.frontend import ClusterFrontend
        from repro.geometry.primitives import Rect

        rects = random_disjoint_rects(8, seed=7)

        async def run():
            async with ClusterFrontend(
                {"demo": {"obstacles": rects}}, workers=1
            ) as fe:
                ghost = Rect(10**6, 10**6, 10**6 + 2, 10**6 + 2)
                bad, unknown, sc = await _rpc(
                    fe.host,
                    fe.port,
                    {
                        "id": 1,
                        "op": "update",
                        "scene": "demo",
                        "delta": SceneDelta.delete(ghost).to_dict(),
                    },
                    {
                        "id": 2,
                        "op": "update",
                        "scene": "nope",
                        "delta": SceneDelta.delete(ghost).to_dict(),
                    },
                    {"id": 3, "op": "scenes"},
                )
                assert not bad["ok"] and "not in the scene" in bad["error"]
                assert not unknown["ok"]
                assert sc["result"]["generations"] == {"demo": 0}

        asyncio.run(run())

    def test_rollover_survives_worker_kill(self):
        # chaos case: SIGKILL one worker, roll over while the slot is
        # down, and require the respawned worker to serve the NEW
        # generation (it reads the updated spec list on start)
        from repro.cluster.frontend import ClusterFrontend

        rects = random_disjoint_rects(12, seed=13)

        async def run():
            async with ClusterFrontend(
                {"demo": {"obstacles": rects}}, workers=2
            ) as fe:
                victim = rects[5]
                scene0 = Scene.from_obstacles(rects)
                scene1 = scene0.apply_delta(SceneDelta.delete(victim))
                idx1 = build_index(scene1, cache=StageCache(64, 1 << 28))
                os.kill(fe.workers[0].proc.pid, signal.SIGKILL)
                (up,) = await _rpc(
                    fe.host,
                    fe.port,
                    {
                        "id": 1,
                        "op": "update",
                        "scene": "demo",
                        "delta": SceneDelta.delete(victim).to_dict(),
                    },
                )
                assert up["ok"], up
                assert up["result"]["generation"] == 1
                # wait for the supervisor to bring the slot back
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    (h,) = await _rpc(fe.host, fe.port, {"id": 2, "op": "health"})
                    if h["result"]["workers_alive"] == 2:
                        break
                    await asyncio.sleep(0.1)
                else:
                    pytest.fail("killed worker never respawned")
                # every queryable pair must answer from the new scene —
                # whichever worker (survivor or respawn) picks it up
                pairs = [
                    [[r.xlo, r.ylo], [rects[9].xhi, rects[9].yhi]]
                    for r in (rects[0], rects[2])
                ]
                for _ in range(6):
                    (r,) = await _rpc(
                        fe.host,
                        fe.port,
                        {"id": 3, "op": "lengths", "scene": "demo", "pairs": pairs},
                    )
                    assert r["ok"], r
                    assert r["result"] == [
                        idx1.length(tuple(p), tuple(q)) for p, q in pairs
                    ]

        asyncio.run(run())
