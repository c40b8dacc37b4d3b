"""The staged build pipeline: scene layer, engine registry, stage cache,
and provenance — the contract behind ``ShortestPathIndex.build``.

Locks the refactor invariants:

* one authoritative scene parse/validate path (CLI and cluster worker
  specs produce *identical* one-line error messages);
* stage-cache semantics (same scene under a second engine reuses the
  geometry stages; same engine reuses everything; simulated PRAM costs
  replay identically on cache hits);
* provenance round-trips through ``.rsp`` snapshots and stays backward
  compatible with pre-provenance headers;
* a toy engine registered at runtime is first-class end-to-end (API,
  snapshot, CLI ``--engine``).
"""

import json

import numpy as np
import pytest

from repro.__main__ import main
from repro.core.api import ShortestPathIndex
from repro.core.crosscheck import check_scene
from repro.errors import EngineError, GeometryError
from repro.geometry.primitives import Rect
from repro.pipeline import (
    StageCache,
    build_index,
    engine_names,
    get_engine,
    register_engine,
    unregister_engine,
)
from repro.scene import Scene
from repro.workloads.generators import random_disjoint_rects, random_polygon_scene

RECTS = [Rect(2, 2, 4, 8), Rect(6, 0, 9, 5)]


def scene_of(rects=None, **kw):
    return Scene.from_obstacles(rects if rects is not None else RECTS, **kw)


def stage_flags(idx):
    return {st["name"]: st["cached"] for st in idx.provenance["stages"]}


# ----------------------------------------------------------------------
class TestEngineRegistry:
    def test_builtin_engines_registered(self):
        assert {"parallel", "sequential", "grid"} <= set(engine_names())

    def test_unknown_engine_one_line_error_lists_registered(self):
        with pytest.raises(EngineError) as exc:
            get_engine("quantum")
        msg = str(exc.value)
        assert "unknown engine 'quantum'" in msg
        for name in engine_names():
            assert name in msg
        assert "\n" not in msg

    def test_unknown_engine_is_a_value_error(self):
        # pre-registry callers caught ValueError from the string if/elif
        with pytest.raises(ValueError):
            ShortestPathIndex.build([Rect(0, 0, 1, 1)], engine="quantum")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(EngineError, match="already registered"):
            register_engine("grid")(lambda *a: None)

    def test_unregister_unknown_engine(self):
        with pytest.raises(EngineError, match="unknown engine"):
            unregister_engine("nope")

    def test_toy_engine_end_to_end(self, tmp_path):
        grid = get_engine("grid")

        @register_engine("toy", description="grid in a funny hat")
        def _toy(dec, graph, pram, leaf_size):
            return grid.solve(dec, graph, pram, leaf_size)

        try:
            assert "toy" in engine_names()
            idx = ShortestPathIndex.build(RECTS, engine="toy")
            ref = ShortestPathIndex.build(RECTS, engine="parallel")
            assert idx.engine == "toy"
            assert idx.provenance["engine"] == "toy"
            assert list(idx.index.points) == list(ref.index.points)
            assert np.array_equal(idx.index.matrix, ref.index.matrix)
            # snapshots carry the engine name and provenance through
            snap = tmp_path / "toy.rsp"
            idx.save(snap)
            loaded = ShortestPathIndex.load(snap)
            assert loaded.engine == "toy"
            assert loaded.provenance["engine"] == "toy"
            # the CLI picks the new engine up from the registry
            scene = tmp_path / "scene.json"
            scene.write_text(json.dumps({"rects": [[2, 2, 4, 8], [6, 0, 9, 5]]}))
            assert main(["plan", str(scene), "--engine", "toy"]) == 0
        finally:
            unregister_engine("toy")
        assert "toy" not in engine_names()

    def test_reregistered_engine_never_serves_stale_cache(self):
        cache = StageCache()
        grid = get_engine("grid")

        @register_engine("versioned")
        def _v1(dec, graph, pram, leaf_size):
            return grid.solve(dec, graph, pram, leaf_size)

        try:
            a = build_index(scene_of(), engine="versioned", cache=cache)
        finally:
            unregister_engine("versioned")

        @register_engine("versioned")
        def _v2(dec, graph, pram, leaf_size):
            from repro.core.allpairs import DistanceIndex

            idx = grid.solve(dec, graph, pram, leaf_size)
            return DistanceIndex(idx.points, np.asarray(idx.matrix) + 1000.0)

        try:
            b = build_index(scene_of(), engine="versioned", cache=cache)
        finally:
            unregister_engine("versioned")
        assert not stage_flags(b)["solve"]  # v2 really ran
        assert b.index.matrix[0, 1] == a.index.matrix[0, 1] + 1000.0

    def test_obstacle_free_scene_with_extras_round_trips(self):
        s = Scene.from_obstacles([], extra_points=[(0, 0), (5, 5)])
        back = Scene.from_dict(json.loads(json.dumps(s.to_dict())))
        assert back == s
        idx = build_index(back, engine="parallel", cache=StageCache())
        assert idx.index.length((0, 0), (5, 5)) == 10
        with pytest.raises(GeometryError, match="no obstacles"):
            Scene.from_dict({"version": 2, "rects": [], "polygons": []})

    def test_grid_engine_agrees_on_polygon_scene(self):
        obstacles = random_polygon_scene(1, 2, seed=3)
        assert check_scene(
            obstacles, seed=3, engines=("parallel", "sequential", "grid")
        ) == []


# ----------------------------------------------------------------------
class TestStageCache:
    def test_second_engine_reuses_geometry_stages(self):
        cache = StageCache()
        idx_a = build_index(scene_of(), engine="parallel", cache=cache)
        idx_b = build_index(scene_of(), engine="sequential", cache=cache)
        assert stage_flags(idx_a) == {
            "decompose": False, "graph": False, "solve": False,
            "query-structures": False,
        }
        flags = stage_flags(idx_b)
        assert flags["decompose"] and flags["graph"]  # geometry reused
        assert not flags["solve"]  # a different engine must solve anew
        stats = cache.stats()
        assert stats["misses"]["decompose"] == 1
        assert stats["misses"]["graph"] == 1
        assert stats["hits"]["decompose"] == 1
        assert stats["misses"]["solve"] == 2
        # both engines agree on the answers, of course
        assert np.array_equal(
            idx_a.index.submatrix(idx_a.index.points),
            idx_b.index.submatrix(idx_a.index.points),
        )

    def test_same_engine_rebuild_is_fully_cached_and_identical(self):
        cache = StageCache()
        cold = build_index(scene_of(), engine="parallel", cache=cache)
        warm = build_index(scene_of(), engine="parallel", cache=cache)
        flags = stage_flags(warm)
        assert flags["decompose"] and flags["graph"] and flags["solve"]
        assert np.array_equal(cold.index.matrix, warm.index.matrix)
        assert list(cold.index.points) == list(warm.index.points)
        # simulated costs replay exactly on the cache hit
        assert cold.build_stats() == warm.build_stats()

    def test_extra_points_rekey_graph_but_not_decompose(self):
        cache = StageCache()
        build_index(scene_of(), engine="sequential", cache=cache)
        idx = build_index(
            scene_of(extra_points=[(0, 0)]), engine="sequential", cache=cache
        )
        flags = stage_flags(idx)
        assert flags["decompose"]  # geometry alone keys the decompose stage
        assert not flags["graph"]  # extras change the point universe
        assert idx.index.has_point((0, 0))

    def test_extra_point_coinciding_with_a_vertex_still_builds(self):
        v = RECTS[0].sw  # an obstacle corner registered again as an extra
        for engine in ("parallel", "sequential", "grid"):
            idx = ShortestPathIndex.build(RECTS, extra_points=[v], engine=engine)
            assert idx.index.has_point(v)

    def test_conflict_detecting_pram_bypasses_the_cache(self):
        from repro.pram.machine import PRAM

        cache = StageCache()
        build_index(scene_of(), engine="sequential", cache=cache)
        audit = build_index(
            scene_of(),
            engine="sequential",
            pram=PRAM("audit", detect_conflicts=True),
            cache=cache,
        )
        assert not stage_flags(audit)["solve"]  # the engine really ran

    def test_disabled_cache_never_hits(self):
        cache = StageCache(max_entries=0)
        build_index(scene_of(), engine="sequential", cache=cache)
        idx = build_index(scene_of(), engine="sequential", cache=cache)
        assert not any(stage_flags(idx).values())

    def test_lru_eviction_bounds_entries(self):
        cache = StageCache(max_entries=2)
        for seed in range(4):
            build_index(
                scene_of(random_disjoint_rects(4, seed=seed)),
                engine="sequential",
                cache=cache,
            )
        assert cache.stats()["entries"] <= 2

    def test_oversized_artifact_does_not_flush_cache(self):
        class Blob:
            def __init__(self, n):
                self.n = n

            def nbytes(self):
                return self.n

        cache = StageCache(max_entries=8, max_bytes=100)
        for i in range(5):
            cache.put(("solve", f"k{i}"), Blob(10), 10)
        cache.put(("solve", "huge"), Blob(1000), 1000)  # over budget alone
        stats = cache.stats()
        assert stats["entries"] == 5  # the small entries survive
        assert cache.get(("solve", "huge")) is None
        assert cache.get(("solve", "k0")) is not None

    def test_extra_points_round_trip_through_dict(self):
        a = scene_of(extra_points=[(0, 0), (11, 7)])
        b = Scene.from_dict(json.loads(json.dumps(a.to_dict())))
        assert b.extra_points == ((0, 0), (11, 7))
        assert b == a
        assert a.content_hash() == b.content_hash()
        # non-integer extras survive the JSON boundary exactly too
        f = scene_of(extra_points=[(2.5, 1)])
        g = Scene.from_dict(json.loads(json.dumps(f.to_dict())))
        assert g.extra_points == ((2.5, 1),)
        assert g.content_hash() == f.content_hash()
        with pytest.raises(GeometryError, match="schema v1"):
            Scene.from_dict({"rects": [[0, 0, 1, 1]], "extra_points": [[5, 5]]})
        with pytest.raises(GeometryError, match="bad extra point list"):
            Scene.from_dict(
                {"version": 2, "rects": [[0, 0, 1, 1]], "extra_points": [["x", 5]]}
            )
        # non-finite coordinates get the one-line rejection, not a traceback
        for bad in (float("inf"), float("nan"), True):
            with pytest.raises(GeometryError, match="bad extra point list"):
                Scene.from_dict(
                    {"version": 2, "rects": [[0, 0, 1, 1]],
                     "extra_points": [[bad, 0]]}
                )
        # huge integer coordinates stay exact (no float round trip)
        big = 2**60 + 1
        s = Scene.from_dict(
            {"version": 2, "rects": [[0, 0, 1, 1]], "extra_points": [[big, 0]]}
        )
        assert s.extra_points == ((big, 0),)

    def test_export_arrays_keeps_huge_integer_points_exact(self):
        from repro.core.allpairs import DistanceIndex

        big = 2**60 + 1
        pts = [(0, 0), (big, 2)]
        idx = DistanceIndex(pts, np.zeros((2, 2)))
        out = idx.export_arrays()
        assert out["points"].dtype == np.int64
        assert out["points"][1, 0] == big
        back = DistanceIndex.from_arrays(out["points"], out["matrix"])
        assert back.has_point((big, 2))

    def test_cached_matrix_is_frozen_against_aliasing(self):
        cache = StageCache()
        a = build_index(scene_of(), engine="sequential", cache=cache)
        with pytest.raises(ValueError):  # numpy rejects writes, loudly
            a.index.matrix[0, 1] = 0.0
        b = build_index(scene_of(), engine="sequential", cache=cache)
        assert np.array_equal(a.index.matrix, b.index.matrix)

    def test_non_integer_extras_are_preserved_verbatim(self):
        s = Scene.from_obstacles(RECTS, extra_points=[(2.5, 1)])
        assert s.extra_points == ((2.5, 1),)
        s.content_hash()  # hashable despite the float coordinate
        idx = ShortestPathIndex.build(RECTS, extra_points=[(2.5, 1)])
        assert idx.index.has_point((2.5, 1))
        # parallel and sequential index the exact point and agree, and
        # single lookups return the same fractional value as the batch
        seq = ShortestPathIndex.build(RECTS, extra_points=[(2.5, 1)],
                                      engine="sequential")
        assert seq.index.submatrix([(2, 2)], [(2.5, 1)])[0, 0] == 1.5
        assert idx.index.submatrix([(2, 2)], [(2.5, 1)])[0, 0] == 1.5
        assert idx.index.length((2, 2), (2.5, 1)) == 1.5
        assert idx.length((2, 2), (4, 2)) == 2  # integer domain stays int
        assert isinstance(idx.length((2, 2), (4, 2)), int)
        # ...but the integer-exact grid engine must refuse, not truncate
        with pytest.raises(GeometryError, match="integer coordinates"):
            ShortestPathIndex.build(RECTS, extra_points=[(2.5, 1)], engine="grid")

    def test_non_integer_extras_survive_snapshots(self, tmp_path):
        from repro.serve.snapshot import load, save

        idx = ShortestPathIndex.build(RECTS, extra_points=[(2.5, 1)])
        snap = tmp_path / "f.rsp"
        save(idx, snap)
        loaded = load(snap)
        assert loaded.index.has_point((2.5, 1))
        assert not loaded.index.has_point((2.5, 2))
        assert np.array_equal(loaded.index.matrix, idx.index.matrix)
        # integer-only scenes keep the compact int64 point payload
        plain = ShortestPathIndex.build(RECTS)
        assert plain.index.export_arrays()["points"].dtype == np.int64
        assert idx.index.export_arrays()["points"].dtype == np.float64

    def test_scene_hashes(self):
        a = scene_of()
        b = Scene.from_dict(json.loads(json.dumps(a.to_dict())))
        assert a.content_hash() == b.content_hash()
        assert a.geometry_hash() == scene_of(extra_points=[(0, 0)]).geometry_hash()
        assert a.content_hash() != scene_of(extra_points=[(0, 0)]).content_hash()
        assert a.content_hash() != scene_of([Rect(0, 0, 1, 1)]).content_hash()

    def test_numpy_scalar_extras_hash_exactly(self):
        # two huge np.int64 extras one apart must not collapse through
        # float64 into the same hash (the cache would alias their solves)
        big = 2**60
        h1 = scene_of(extra_points=[(np.int64(big), 5)]).content_hash()
        h2 = scene_of(extra_points=[(np.int64(big + 1), 5)]).content_hash()
        assert h1 != h2
        # and a numpy int hashes like the equal python int
        assert h1 == scene_of(extra_points=[(big, 5)]).content_hash()

    def test_float_coordinate_rects_hash_like_int_rects(self):
        a = Scene.from_obstacles([Rect(2.0, 2.0, 4.0, 8.0)])
        b = Scene.from_obstacles([Rect(2, 2, 4, 8)])
        assert a == b
        assert a.geometry_hash() == b.geometry_hash()
        assert a.content_hash() == b.content_hash()
        # integral floats also survive the wire (to_dict emits ints)
        assert Scene.from_dict(json.loads(json.dumps(a.to_dict()))) == b

    def test_fractional_obstacle_coordinates_rejected(self):
        # fractional rects made the seed engines silently DISAGREE
        # (parallel returned sub-metric d((0,0),(2.5,0)) = 2 for corners
        # 2.5 apart); the canonical door now rejects them loudly
        rects = [Rect(0, 0, 2.5, 2), Rect(4, 0, 6, 2)]
        with pytest.raises(GeometryError, match="must be integers"):
            Scene.from_obstacles(rects)
        with pytest.raises(GeometryError, match="must be integers"):
            ShortestPathIndex.build(rects)

    def test_v1_scene_with_stray_empty_extras_key_still_loads(self):
        s = Scene.from_dict({"rects": [[0, 0, 1, 1]], "extra_points": []})
        assert s.extra_points == ()
        with pytest.raises(GeometryError, match="schema v1"):
            Scene.from_dict({"rects": [[0, 0, 1, 1]], "extra_points": [[5, 5]]})

    def test_api_extras_validated_at_the_door(self):
        # non-numeric / non-finite extras fail with one line right away,
        # never a deep ValueError from the hash or an engine — and every
        # accepted Scene can save/load round-trip
        for bad in ("x", float("inf"), float("nan"), True, None):
            with pytest.raises(GeometryError, match="bad extra point list"):
                Scene.from_obstacles(RECTS, extra_points=[(bad, 0)])
        # integral values normalize to exact ints; fractions are kept
        s = Scene.from_obstacles(RECTS, extra_points=[(2.0, 1), (2.5, 1)])
        assert s.extra_points == ((2, 1), (2.5, 1))
        assert all(isinstance(s.extra_points[0][k], int) for k in (0, 1))
        assert Scene.from_dict(json.loads(json.dumps(s.to_dict()))) == s

    def test_to_dict_is_json_safe_for_numpy_scalars(self):
        s = Scene.from_obstacles(
            [Rect(np.int64(0), np.int64(0), np.int64(2), np.int64(2))],
            extra_points=[(np.int64(5), np.int64(5))],
        )
        wire = json.loads(json.dumps(s.to_dict()))
        assert Scene.from_dict(wire) == s

    def test_from_dict_rejects_fractional_geometry_and_string_extras(self):
        # both doors of the scene layer agree: fractional obstacle
        # coordinates are rejected (never truncated) ...
        with pytest.raises(GeometryError, match="bad rect row"):
            Scene.from_dict({"rects": [[0, 0, 2, 2.5]]})
        with pytest.raises(GeometryError, match="bad container loop"):
            Scene.from_dict(
                {"version": 2, "rects": [[0, 0, 1, 1]],
                 "container": [[-1, -1], [5.5, -1], [5.5, 5], [-1, 5]]}
            )
        # ... and string extras fail like the programmatic door
        with pytest.raises(GeometryError, match="bad extra point list"):
            Scene.from_dict(
                {"version": 2, "rects": [[0, 0, 1, 1]],
                 "extra_points": [["5", "6.5"]]}
            )
        # digit-string rect rows stay accepted (legacy int() behavior)
        s = Scene.from_dict({"rects": [["0", "0", "2", "2"]]})
        assert s.obstacles == (Rect(0, 0, 2, 2),)

    def test_nonfinite_extras_rejected_for_every_engine(self):
        # Scene.from_obstacles is the door; the grid engine's own gate
        # stays as defense-in-depth for directly constructed artifacts
        for engine in ("parallel", "sequential", "grid"):
            for bad in (float("inf"), float("nan")):
                with pytest.raises(GeometryError, match="bad extra point list"):
                    ShortestPathIndex.build(
                        RECTS, extra_points=[(bad, 0)], engine=engine
                    )

    def test_integral_float_extras_hash_stably_across_round_trip(self):
        # (2.0, 3) == (2, 3) as scene content, so the hash — the stage
        # cache key — must agree across the to_dict/from_dict boundary
        a = scene_of(extra_points=[(2.0, 3)])
        b = Scene.from_dict(json.loads(json.dumps(a.to_dict())))
        assert b == a
        assert a.content_hash() == b.content_hash()
        assert a.content_hash() == scene_of(extra_points=[(2, 3)]).content_hash()

    def test_export_arrays_rejects_beyond_int64(self):
        from repro.core.allpairs import DistanceIndex
        from repro.errors import QueryError

        idx = DistanceIndex([(2**70, 0), (0, 1)], np.zeros((2, 2)))
        with pytest.raises(QueryError, match="int64"):
            idx.export_arrays()
        # mixed huge-int + float coordinates cannot be float64-exact:
        # refuse loudly instead of silently moving the integer point
        mixed = DistanceIndex([(2**60 + 1, 0), (0.5, 1)], np.zeros((2, 2)))
        with pytest.raises(QueryError, match="float64"):
            mixed.export_arrays()

    def test_cli_grid_engine_rejection_is_one_line(self, tmp_path):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({
            "version": 2, "rects": [[2, 2, 4, 8]], "extra_points": [[2.5, 0]],
        }))
        for argv in (
            ["plan", str(scene), "--engine", "grid"],
            ["bench-info", str(scene), "--engine", "grid"],
            ["snapshot", str(scene), str(tmp_path / "o.rsp"), "--engine", "grid"],
            ["query", str(scene), "0,0", "5,5", "--engine", "grid"],
        ):
            with pytest.raises(SystemExit, match="integer coordinates") as exc:
                main(argv)
            assert "\n" not in str(exc.value).strip()

    def test_check_scene_reports_vertex_mismatch_with_grid_engine(self):
        # a broken engine whose point set differs must be *reported*, not
        # crash the fuzz loop with a KeyError in the grid fast path
        from repro.pipeline import get_engine

        grid = get_engine("grid")

        @register_engine("missing-point", description="drops a vertex")
        def _bad(dec, graph, pram, leaf_size):
            from repro.core.allpairs import DistanceIndex

            idx = grid.solve(dec, graph, pram, leaf_size)
            return DistanceIndex(idx.points[:-1], idx.matrix[:-1, :-1])

        try:
            problems = check_scene(
                RECTS, engines=("missing-point", "grid"), n_paths=0, n_arbitrary=0
            )
        finally:
            unregister_engine("missing-point")
        assert problems and "vertex sets differ" in problems[0]


# ----------------------------------------------------------------------
class TestProvenance:
    def test_every_build_reports_all_stages(self):
        idx = ShortestPathIndex.build(RECTS)
        names = [st["name"] for st in idx.provenance["stages"]]
        assert names == ["decompose", "graph", "solve", "query-structures"]
        solve = idx.provenance["stages"][2]
        assert solve["pram_time"] == idx.pram.time
        assert solve["pram_work"] == idx.pram.work

    def test_provenance_round_trips_through_snapshot(self, tmp_path):
        from repro.serve.snapshot import load, read_header, save

        idx = ShortestPathIndex.build(RECTS, engine="sequential")
        snap = tmp_path / "s.rsp"
        save(idx, snap)
        header = read_header(snap)
        assert header["provenance"]["engine"] == "sequential"
        loaded = load(snap)
        assert loaded.provenance == idx.provenance

    def test_pre_provenance_snapshot_still_loads(self, tmp_path):
        from repro.serve.snapshot import load, read_header, save

        idx = ShortestPathIndex.build(RECTS)
        idx.provenance = None  # simulate an index from an older build path
        snap = tmp_path / "old.rsp"
        save(idx, snap)
        assert "provenance" not in read_header(snap)
        loaded = load(snap)
        assert loaded.provenance is None
        assert loaded.length(RECTS[0].sw, RECTS[1].ne) == idx.length(
            RECTS[0].sw, RECTS[1].ne
        )

    def test_bench_info_requires_provenance_when_asked(self, tmp_path, capsys):
        from repro.serve.snapshot import save

        idx = ShortestPathIndex.build(RECTS)
        with_prov = tmp_path / "new.rsp"
        save(idx, with_prov)
        assert main(["bench-info", str(with_prov), "--require-provenance"]) == 0
        assert "solve" in capsys.readouterr().out
        idx.provenance = None
        without = tmp_path / "old.rsp"
        save(idx, without)
        assert main(["bench-info", str(without)]) == 0
        assert main(["bench-info", str(without), "--require-provenance"]) == 1

    def test_bench_info_require_provenance_rejects_json_scenes(self, tmp_path):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({"rects": [[0, 0, 2, 2]]}))
        with pytest.raises(SystemExit, match="applies to .rsp snapshots"):
            main(["bench-info", str(scene), "--require-provenance"])


# ----------------------------------------------------------------------
class TestSceneLayer:
    def test_bad_rect_row_message_identical_everywhere(self, tmp_path):
        bad = {"rects": [[0, 0, "x", 10]]}
        with pytest.raises(GeometryError) as api_exc:
            Scene.from_dict(bad)
        # a cluster worker's rebuild fallback goes through the same parser
        from repro.cluster.worker import register_scene
        from repro.serve.store import SceneStore

        with pytest.raises(GeometryError) as worker_exc:
            register_scene(
                SceneStore(),
                {"name": "a", "kind": "snapshot", "path": str(tmp_path / "a.rsp"),
                 "scene": bad},
            )
        assert str(worker_exc.value) == str(api_exc.value)
        # and the CLI prints the same message behind its one-line prefix
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(SystemExit) as cli_exc:
            main(["query", str(path), "0,0", "1,1"])
        assert str(cli_exc.value) == f"{path}: invalid scene: {api_exc.value}"

    def test_overlap_message_identical_cli_and_api(self, tmp_path):
        rows = [[0, 0, 10, 10], [5, 5, 15, 15]]
        with pytest.raises(GeometryError) as api_exc:
            Scene.from_dict({"rects": rows}).validate()
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"rects": rows}))
        with pytest.raises(SystemExit) as cli_exc:
            main(["bench-info", str(path)])
        assert str(cli_exc.value) == f"{path}: invalid scene: {api_exc.value}"
        assert "overlap" in str(api_exc.value)

    def test_scene_describe(self):
        obstacles = random_polygon_scene(1, 2, seed=1)
        s = Scene.from_obstacles(obstacles, extra_points=[(0, 0)])
        assert s.describe() == "2 rects, 1 polygons, no container, 1 extra points"

    def test_validate_returns_self(self):
        s = scene_of()
        assert s.validate() is s


# ----------------------------------------------------------------------
class TestConsumersBuildThroughPipeline:
    def test_scene_store_shares_stage_cache(self):
        from repro.serve.store import SceneStore

        cache = StageCache()
        store = SceneStore(stage_cache=cache)
        rects = random_disjoint_rects(5, seed=9)
        store.add_scene("par", rects, engine="parallel")
        store.add_scene("seq", rects, engine="sequential")
        a = store.get("par")
        b = store.get("seq")
        assert a.provenance["engine"] == "parallel"
        assert b.provenance["engine"] == "sequential"
        stats = cache.stats()
        # one geometry decomposition served both materializations
        assert stats["misses"]["decompose"] == 1
        assert stats["hits"]["decompose"] == 1
        assert np.array_equal(
            a.index.submatrix(a.index.points), b.index.submatrix(a.index.points)
        )

    def test_worker_build_spec_round_trips_scene_schema(self, tmp_path):
        """A worker's rebuild fallback (used when its snapshot is corrupt)
        builds from the spec's scene dict with the spec's engine."""
        from repro.cluster.worker import _WorkerState

        rects = random_disjoint_rects(5, seed=4)
        corrupt = tmp_path / "a.rsp"
        corrupt.write_bytes(b"not a snapshot")
        spec = {
            "name": "a",
            "kind": "snapshot",
            "path": str(corrupt),
            "scene": Scene.from_obstacles(rects).to_dict(),
            "engine": "sequential",
        }
        state = _WorkerState(0, [spec], {})
        idx = state.store.get("a")
        assert idx.engine == "sequential"
        assert idx.provenance["engine"] == "sequential"
        assert state.store.stats()["quarantined_scenes"] == ["a"]

    def test_cli_plan_json(self, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({"rects": [[2, 2, 4, 8], [6, 0, 9, 5]]}))
        assert main(["plan", str(scene), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "parallel"
        assert [st["name"] for st in payload["stages"]] == [
            "decompose", "graph", "solve", "query-structures",
        ]
        assert all(not st["cached"] for st in payload["stages"])

    def test_cli_plan_text(self, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({"rects": [[2, 2, 4, 8], [6, 0, 9, 5]]}))
        assert main(["plan", str(scene), "--engine", "grid"]) == 0
        out = capsys.readouterr().out
        assert "solve[grid]" in out
        for token in ("decompose", "graph", "query-structures", "registered engines"):
            assert token in out

    def test_cli_snapshot_forwards_scene_extra_points(self, tmp_path):
        from repro.serve.snapshot import load

        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({
            "version": 2, "rects": [[2, 2, 4, 8], [6, 0, 9, 5]],
            "extra_points": [[0, 0], [2.5, 1]],
        }))
        rsp = tmp_path / "scene.rsp"
        assert main(["snapshot", str(scene), str(rsp)]) == 0
        loaded = load(rsp)
        assert loaded.index.has_point((0, 0))
        assert loaded.index.has_point((2.5, 1))

    def test_cli_fuzz_accepts_engine(self, capsys):
        assert main(["fuzz", "--scenes", "1", "--seed", "3", "--engine", "grid"]) == 0
        assert "0 failure(s)" in capsys.readouterr().out

    def test_cli_query_accepts_grid_engine(self, tmp_path, capsys):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({"rects": [[2, 2, 4, 8], [6, 0, 9, 5]]}))
        assert main(["query", str(scene), "0,0", "10,9"]) == 0
        want = capsys.readouterr().out
        assert main(["query", str(scene), "0,0", "10,9", "--engine", "grid"]) == 0
        assert capsys.readouterr().out == want
