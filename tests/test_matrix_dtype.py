"""One matrix dtype per build: float32 where it is exact, float64 otherwise.

:func:`repro.core.allpairs.matrix_dtype` picks float32 when every
coordinate is an integer and three times the scene's distance bound
stays below 2²⁴.  Under test: the rule itself, that every engine, the
pool, the subtree cache, the snapshot and the query paths keep that one
dtype, and that a float32 build answers exactly what a float64 build of
the same scene answers — byte for byte once widened.
"""

import hashlib

import numpy as np
import pytest

from repro.core import allpairs, sequential
from repro.core.allpairs import DistanceIndex, matrix_dtype
from repro.core.baseline import GridOracle
from repro.core.crosscheck import FUZZ_JOBS
from repro.errors import QueryError
from repro.geometry.primitives import Rect
from repro.monge.multiply import minplus_auto, minplus_monge, minplus_naive
from repro.monge.smawk import smawk_row_minima_array
from repro.pipeline import StageCache, build_index, update_index
from repro.scene import Scene, SceneDelta
from repro.serve.snapshot import load, load_arrays, save
from repro.workloads.generators import (
    random_container_polygon,
    random_disjoint_rects,
    random_free_points,
    random_polygon_scene,
)

F32, F64 = np.dtype(np.float32), np.dtype(np.float64)


def _no_cache() -> StageCache:
    return StageCache(max_entries=0)


def _bound(rects, points=()) -> int:
    xs = [c for r in rects for c in (r.xlo, r.xhi)] + [p[0] for p in points]
    ys = [c for r in rects for c in (r.ylo, r.yhi)] + [p[1] for p in points]
    semi = max(xs) - min(xs) + max(ys) - min(ys)
    return semi + sum(2 * (r.xhi - r.xlo + r.yhi - r.ylo) for r in rects)


def _scaled(rects, k: int) -> list[Rect]:
    return [Rect(r.xlo * k, r.ylo * k, r.xhi * k, r.yhi * k) for r in rects]


def _float64_build(scene: Scene):
    """The float64 build of ``scene`` whatever its coordinates: the
    reference a float32 build must reproduce."""
    f64 = lambda *args, **kwargs: F64  # noqa: E731
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(allpairs, "matrix_dtype", f64)
        mp.setattr(sequential, "matrix_dtype", f64)
        return build_index(scene, cache=_no_cache())


def _fuzz_mix(count: int):
    """The scene kinds ``repro fuzz`` draws: small and deeper rect
    scenes, polygon scenes, and container scenes."""
    for i in range(count):
        kind = i % 4
        if kind == 0:
            yield list(random_disjoint_rects(10, seed=i)), None
        elif kind == 1:
            yield list(random_disjoint_rects(18, seed=i)), None
        elif kind == 2:
            yield random_polygon_scene(2, 3, seed=i), None
        else:
            rects = list(random_disjoint_rects(8, seed=i))
            yield rects, random_container_polygon(rects, seed=i)


# ----------------------------------------------------------------------
class TestRule:
    def test_integer_scene_is_float32(self):
        rects = random_disjoint_rects(20, seed=1)
        assert matrix_dtype(rects) == F32
        assert matrix_dtype(rects, [(np.int64(3), 4), (5.0, 6)]) == F32
        assert matrix_dtype([], []) == F32

    def test_non_integral_coordinate_is_float64(self):
        rects = random_disjoint_rects(20, seed=1)
        assert matrix_dtype(rects, [(2.5, 1)]) == F64
        assert matrix_dtype([Rect(0, 0, 1.5, 1)]) == F64

    def test_fractional_seam_is_float64(self):
        class Seam:
            x, ylo, yhi = 1, 0.5, 2

        assert matrix_dtype([Rect(0, 0, 2, 2)], seams=[Seam()]) == F64

    def test_the_bound_is_three_distances_below_2_to_24(self):
        # one 1×h rect: bound = (1 + h) + 2·(1 + h) = 3·(1 + h)
        h = (1 << 24) // 9 - 1
        under = [Rect(0, 0, 1, h)]
        assert 3 * _bound(under) < 1 << 24
        assert matrix_dtype(under) == F32
        over = [Rect(0, 0, 1, h + 1)]
        assert 3 * _bound(over) >= 1 << 24
        assert matrix_dtype(over) == F64

    def test_points_widen_the_box(self):
        rects = [Rect(0, 0, 2, 2)]
        assert matrix_dtype(rects, [(0, 1 << 23)]) == F64
        # absolute position alone does not matter, only extents
        far = [Rect(1 << 40, 1 << 40, (1 << 40) + 2, (1 << 40) + 2)]
        assert matrix_dtype(far) == F32


# ----------------------------------------------------------------------
class TestBuilds:
    @pytest.mark.parametrize("engine", ["parallel", "parallel-mp", "sequential", "grid"])
    def test_integer_scenes_build_float32(self, engine):
        for obstacles, container in _fuzz_mix(4):
            scene = Scene.from_obstacles(obstacles, container=container)
            idx = build_index(scene, engine=engine, cache=_no_cache(), jobs=FUZZ_JOBS)
            assert idx.index.matrix.dtype == F32, (engine, container)

    @pytest.mark.parametrize("engine", ["parallel", "parallel-mp", "sequential"])
    def test_fractional_extra_point_builds_float64(self, engine):
        rects = random_disjoint_rects(12, seed=3)
        extra = [(x + 0.5, y) for x, y in random_free_points(rects, 2, seed=4)]
        scene = Scene.from_obstacles(rects, extra_points=extra)
        idx = build_index(scene, engine=engine, cache=_no_cache(), jobs=FUZZ_JOBS)
        assert idx.index.matrix.dtype == F64

    def test_coordinates_past_the_bound_build_float64(self):
        base = random_disjoint_rects(12, seed=5)
        k = (1 << 24) // (3 * _bound(base)) + 1
        rects = _scaled(base, k)
        assert 3 * _bound(rects) >= 1 << 24
        idx = build_index(Scene.from_obstacles(rects), cache=_no_cache())
        assert idx.index.matrix.dtype == F64
        pts = idx.vertices()
        want = GridOracle(rects, pts).dist_matrix(pts)
        assert np.array_equal(idx.index.matrix, want)

    def test_fuzz_mix_equals_the_float64_build(self):
        """The differential fuzz mix: every float32 matrix, widened, is
        byte-identical to the float64 build of the same scene."""
        for obstacles, container in _fuzz_mix(25):
            scene = Scene.from_obstacles(obstacles, container=container)
            ref = _float64_build(scene)
            got = build_index(scene, cache=_no_cache())
            assert ref.index.matrix.dtype == F64
            assert got.index.matrix.dtype == F32
            assert got.vertices() == ref.vertices()
            assert got.index.matrix.astype(F64).tobytes() == ref.index.matrix.tobytes()

    def test_near_the_bound_float32_stays_exact(self):
        """Distances in the millions, just under the bound: still equal
        to float64, which a float32 sum past 2²⁴ would not be."""
        base = random_disjoint_rects(14, seed=9)
        k = ((1 << 24) - 1) // (3 * _bound(base))
        rects = _scaled(base, k)
        assert 3 * _bound(rects) < 1 << 24 <= 3 * _bound(_scaled(base, k + 1))
        scene = Scene.from_obstacles(rects)
        ref = _float64_build(scene)
        got = build_index(scene, cache=_no_cache())
        assert got.index.matrix.dtype == F32
        finite = np.isfinite(ref.index.matrix)
        assert ref.index.matrix[finite].max() > 1 << 20
        assert got.index.matrix.astype(F64).tobytes() == ref.index.matrix.tobytes()

    @pytest.mark.parametrize("fractional", [False, True])
    def test_parallel_mp_is_bytewise_at_the_same_dtype(self, fractional):
        rects = random_disjoint_rects(40, seed=11)
        extra = random_free_points(rects, 3, seed=12)
        if fractional:
            extra = [(x + 0.25, y) for x, y in extra]
        scene = Scene.from_obstacles(rects, extra_points=extra)
        sp = build_index(scene, engine="parallel", cache=_no_cache())
        mp = build_index(scene, engine="parallel-mp", cache=_no_cache(), jobs=FUZZ_JOBS)
        assert mp.provenance["pool"]["tasks"] > 0
        assert sp.index.matrix.dtype == mp.index.matrix.dtype == (F64 if fractional else F32)
        assert sp.vertices() == mp.vertices()
        assert sp.index.matrix.tobytes() == mp.index.matrix.tobytes()


# ----------------------------------------------------------------------
class TestRepair:
    def test_walk_whose_insert_crosses_the_bound(self):
        """delete, insert a far obstacle (float32 → float64), delete it
        (back to float32), then a float32 delete/insert: every repair is
        byte-identical to a cold build, no step reuses a subtree entry of
        the other dtype, and every cached entry holds its key's dtype."""
        rects = list(random_disjoint_rects(40, seed=3))
        far = Rect(0, 1 << 23, 4, (1 << 23) + 4)
        assert matrix_dtype(rects) == F32 and matrix_dtype(rects + [far]) == F64
        cache = StageCache(max_entries=8192, max_bytes=512 << 20)
        idx = build_index(Scene.from_obstacles(rects), cache=cache, incremental=True)
        steps = [
            (SceneDelta.delete(rects[5]), F32),
            (SceneDelta.insert(far), F64),
            (SceneDelta.insert(rects[5]), F64),
            (SceneDelta.delete(far), F32),
            (SceneDelta.delete(rects[9]), F32),
            (SceneDelta.insert(rects[9]), F32),
        ]
        for k, (delta, dtype) in enumerate(steps):
            idx = update_index(idx, delta, cache=cache)
            cold = build_index(idx.scene, cache=_no_cache())
            assert idx.index.matrix.dtype == cold.index.matrix.dtype == dtype, k
            assert idx.vertices() == cold.vertices()
            assert idx.index.matrix.tobytes() == cold.index.matrix.tobytes(), k
            # every cached subtree holds the dtype its key names, patched
            # entries included
            for key, entry in cache._data.items():
                if key[:2] == ("solve", "sub"):
                    assert entry.matrix.dtype.name == key[2][-1], key[2]
            sub = idx.provenance["subtree"]
            if k == 1:  # the first float64 build: nothing of float32 reused
                assert sub["hits"] == sub["patches"] == sub["delta_conquers"] == 0
            if k == 3:  # back under the bound: float32 entries serve again
                assert sub["hits"] > 0
            if k == 4:  # float32 entries grown by the patch stay float32
                assert sub["patches"] > 0


# ----------------------------------------------------------------------
class TestQueriesAndSnapshots:
    @pytest.mark.parametrize("polygons", [False, True])
    def test_fractional_query_points_match_float64(self, tmp_path, polygons):
        obstacles = (
            random_polygon_scene(2, 3, seed=4) if polygons
            else list(random_disjoint_rects(16, seed=4))
        )
        scene = Scene.from_obstacles(obstacles)
        ref = _float64_build(scene)
        got = build_index(scene, cache=_no_cache())
        assert (got.index.matrix.dtype, ref.index.matrix.dtype) == (F32, F64)
        loaded = load(save(got, tmp_path / "s.rsp"))
        rects = ref.rects
        free = [
            (x + dx, y + dy)
            for (x, y), (dx, dy) in zip(
                random_free_points(rects, 8, seed=6),
                [(0.1, 0.0), (0.0, 0.7), (0.3, 0.3), (0.5, 0.0)] * 2,
            )
        ]
        free = [p for p in free if not _inside(ref, p)]
        assert len(free) >= 4
        verts = ref.vertices()
        pairs = list(zip(free, free[1:])) + [(free[0], verts[3]), (verts[5], free[-1])]
        for idx in (got, loaded):
            for p, q in pairs:
                a, b = idx.length(p, q), ref.length(p, q)
                assert a == b and type(a) is type(b), (p, q, a, b)
                assert not isinstance(a, np.floating)
                assert _path_or_error(idx, p, q) == _path_or_error(ref, p, q)
            got_l, ref_l = idx.lengths(pairs), ref.lengths(pairs)
            assert got_l.dtype == F64 and np.array_equal(got_l, ref_l)

    def test_snapshot_keeps_the_stored_dtype(self, tmp_path):
        idx = build_index(Scene.from_obstacles(random_disjoint_rects(30, seed=8)))
        path = save(idx, tmp_path / "f.rsp")
        header, arrays = load_arrays(path)
        assert header["matrix_dtype"] == "float32"
        assert isinstance(arrays["matrix"], np.memmap)
        assert header["matrix_sha256"] == hashlib.sha256(
            idx.index.matrix.tobytes()
        ).hexdigest()
        loaded = load(path)
        mat = loaded.index.matrix
        assert mat.dtype == F32 and (isinstance(mat, np.memmap) or isinstance(mat.base, np.memmap))
        assert mat.tobytes() == idx.index.matrix.tobytes()
        # the file holds 4-byte entries: half of what float64 would take
        assert header["toc"]["matrix"]["nbytes"] == 4 * len(idx.vertices()) ** 2

    def test_from_arrays_keeps_float32_without_a_copy(self, tmp_path):
        m = np.arange(9, dtype=np.float32).reshape(3, 3)
        path = tmp_path / "m.bin"
        m.tofile(path)
        mapped = np.memmap(path, mode="r", dtype=np.float32, shape=(3, 3))
        pts = np.array([[0, 0], [1, 0], [2, 0]])
        idx = DistanceIndex.from_arrays(pts, mapped)
        assert idx.matrix.dtype == F32 and idx.matrix.base is mapped


def _path_or_error(idx, p, q):
    """The reported polyline, or the one-line error when path assembly
    gives up (it can, for some fractional endpoints, in either dtype)."""
    try:
        return idx.shortest_path(p, q)
    except QueryError as exc:
        return str(exc)


def _inside(idx, p) -> bool:
    try:
        idx._check_inside(p)
    except Exception:  # noqa: BLE001 - any rejection means unusable
        return True
    return False


# ----------------------------------------------------------------------
class TestKernels:
    @pytest.fixture()
    def blocks(self):
        rng = np.random.default_rng(0)
        # a Monge right factor: |x_k - y_j| over sorted xs, ys
        xs, ys = np.sort(rng.integers(0, 50, 9)), np.sort(rng.integers(0, 50, 7))
        b = np.abs(xs[:, None] - ys[None, :]).astype(np.float32)
        a = rng.integers(0, 30, size=(6, 9)).astype(np.float32)
        a[2, :4] = np.inf
        return a, b

    def test_float32_in_float32_out(self, blocks):
        a, b = blocks
        for fn in (minplus_naive, minplus_monge, minplus_auto):
            out = fn(a, b)
            assert out.dtype == F32, fn.__name__
            assert np.array_equal(out, minplus_naive(a.astype(F64), b.astype(F64)))
        assert minplus_monge(a, b, engine="callable").dtype == F32
        assert np.array_equal(
            smawk_row_minima_array(a, b),
            smawk_row_minima_array(a.astype(F64), b.astype(F64)),
        )

    def test_mixed_operands_widen(self, blocks):
        a, b = blocks
        assert minplus_naive(a.astype(F64), b).dtype == F64
        assert minplus_monge(a, b.astype(F64)).dtype == F64
