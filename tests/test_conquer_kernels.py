"""The conquer kernels against slow references kept here.

* the vectorised projection table (``allpairs._projection_table``) against
  the per-point ``RayShooter.shoot`` loop it replaced, on every call a
  build makes (random scenes, polygon scenes with seams) and on a hand-made
  scene of grazing and near-boundary views;
* the projection specials (``ParallelEngine._apply_projection_specials``),
  which run cases (i)/(ii) on non-integral points only, against the loop
  that runs them on every point: byte-identical on every call of random,
  fractional-extra and polygon builds and of ``update_index`` walks;
* the batched staircase line ranges against a brute force over the
  chain's segments and rays;
* ``minplus_naive`` against a triple loop, including the degenerate
  shapes, and its peak temporary memory;
* the flat-index array SMAWK against the callable SMAWK and the brute
  force row minima on conquer-shaped blocks.
"""

import math
import random
import tracemalloc

import numpy as np
import pytest

from repro.core import allpairs
from repro.core.allpairs import ParallelEngine
from repro.errors import GeometryError
from repro.geometry.decompose import seams_block_v_segment
from repro.geometry.primitives import Rect, dist
from repro.geometry.rayshoot import RayShooter
from repro.geometry.staircase import Staircase
from repro.monge.multiply import _SLAB_CELLS, minplus_monge, minplus_naive
from repro.monge.smawk import (
    brute_force_row_minima,
    smawk_row_minima,
    smawk_row_minima_array,
)
from repro.pipeline import StageCache, build_index, update_index
from repro.pram import PRAM
from repro.scene import Scene, SceneDelta
from repro.workloads.generators import (
    random_disjoint_rects,
    random_free_points,
    random_polygon_scene,
)

INF = math.inf
_RAYS = {"W": (-1, 0), "E": (1, 0), "N": (0, 1), "S": (0, -1)}


# -- references ----------------------------------------------------------
def _ref_range(chain: Staircase, c, vertical: bool):
    """(min, max) of the other coordinate over every chain segment and end
    ray meeting the line at ``c`` (x = c when ``vertical``), else None."""
    ax = 0 if vertical else 1
    vals = []
    segs = list(zip(chain.pts, chain.pts[1:])) or [(chain.pts[0], chain.pts[0])]
    for a, b in segs:
        if a[ax] == b[ax] == c:
            vals += [a[1 - ax], b[1 - ax]]
        elif a[ax] != b[ax] and min(a[ax], b[ax]) <= c <= max(a[ax], b[ax]):
            vals.append(a[1 - ax])
    for e, d in ((chain.pts[0], chain.left_dir), (chain.pts[-1], chain.right_dir)):
        if d is None:
            continue
        vec = _RAYS[d]
        if vec[ax] == 0 and e[ax] == c:
            vals += [e[1 - ax], vec[1 - ax] * INF]
        elif vec[ax] != 0 and (c - e[ax]) * vec[ax] >= 0:
            vals.append(e[1 - ax])
    return (min(vals), max(vals)) if vals else None


def _ref_crossings(chain: Staircase, p, k: int):
    """The crossing points of the line through ``p`` (vertical for k=0)."""
    rng = _ref_range(chain, p[k], k == 0)
    if rng is None:
        return []
    lo, hi = rng
    ys = [v for v in (lo, hi) if math.isfinite(v) and v == int(v)]
    if len(ys) == 2 and ys[0] == ys[1]:
        ys = ys[:1]
    return [(p[0], int(v)) if k == 0 else (int(v), p[1]) for v in ys]


def _reference_table(points, chain, rects, seams=()):
    """The per-point loop the vectorised table replaced: nearest crossing,
    then one ``RayShooter.shoot`` toward it."""
    shooter = RayShooter(rects)
    tarr = np.zeros((len(points), 2))
    varr = np.full((len(points), 2), INF)
    sign = 1 if chain.increasing else -1
    for i, p in enumerate(points):
        for k in (0, 1):
            crossings = _ref_crossings(chain, p, k)
            if not crossings:
                continue
            z = min(crossings, key=lambda c: dist(p, c))
            tarr[i, k] = z[0] + sign * z[1]
            d = dist(p, z)
            if d == 0:
                varr[i, k] = 0.0
                continue
            if k == 0 and seams and seams_block_v_segment(seams, p[0], p[1], z[1]):
                continue
            if p[0] == z[0]:
                direction = "N" if z[1] > p[1] else "S"
            else:
                direction = "E" if z[0] > p[0] else "W"
            hit = shooter.shoot(p, direction)
            if hit is None or dist(p, hit.point) >= d:
                varr[i, k] = float(d)
    return tarr, varr


@pytest.fixture
def checked_tables(monkeypatch):
    """Check every ``_projection_table`` call a build makes against the
    reference; yields ``(points, seams)`` counts of the checked calls."""
    real = allpairs._projection_table
    seen = []

    def checked(points, chain, boxes, seams=()):
        got = real(points, chain, boxes, seams)
        rects = [Rect(*(int(v) for v in row)) for row in boxes]
        t_ref, v_ref = _reference_table(points, chain, rects, seams)
        assert np.array_equal(got.t, t_ref)
        assert np.array_equal(got.val, v_ref)
        seen.append((len(points), len(seams)))
        return got

    monkeypatch.setattr(allpairs, "_projection_table", checked)
    return seen


# -- projection table ----------------------------------------------------
class TestProjectionTable:
    @pytest.mark.parametrize("n,seed", [(12, 0), (24, 1), (40, 2), (64, 3)])
    def test_random_scenes(self, checked_tables, n, seed):
        rects = random_disjoint_rects(n, seed=seed)
        extra = random_free_points(rects, 4, seed=seed)
        ParallelEngine(rects, extra_points=extra).build()
        assert sum(m for m, _ in checked_tables) > 4 * n

    @pytest.mark.parametrize("seed", range(6))
    def test_polygon_scenes_with_seams(self, checked_tables, seed):
        obstacles = random_polygon_scene(n_polygons=4, n_rects=30, seed=seed)
        build_index(Scene.from_obstacles(obstacles), engine="parallel",
                    cache=StageCache(max_entries=0))
        assert any(m and n_seams for m, n_seams in checked_tables)

    def test_grazing_and_near_boundary_views(self):
        # chain: the x-axis up to x=10, then north; the upper side is NW
        chain = Staircase(((0, 0), (10, 0), (10, 10)), True, "W", "N")
        box = Rect(2, 3, 4, 5)
        pts = [
            (2, 8),  # vertical view grazes the box's left edge: clear
            (3, 8),  # straight through the box: blocked
            (3, 5),  # starts on the near (top) boundary: blocked at 0
            (3, 3),  # starts on the far (bottom) boundary: clear
            (4, 5),  # a corner, grazing the right edge: clear
            (5, 0),  # on the chain: distance 0
            (1, 4),  # horizontal view east runs into the box: blocked
            (1, 3),  # grazes the box's bottom edge: clear
            (2, 4),  # starts on the box's near (left) edge: blocked at 0
            (10, 4),  # on the chain's vertical run
            (2.5, 7),  # a fractional extra point
        ]
        boxes = np.array([[box.xlo, box.ylo, box.xhi, box.yhi]], dtype=float)
        got = allpairs._projection_table(pts, chain, boxes)
        t_ref, v_ref = _reference_table(pts, chain, [box])
        assert np.array_equal(got.t, t_ref)
        assert np.array_equal(got.val, v_ref)
        vertical = got.val[:, 0].tolist()
        assert vertical[:6] == [8.0, INF, INF, 3.0, 5.0, 0.0]
        horizontal = got.val[6:9, 1].tolist()
        assert horizontal == [INF, 9.0, INF]

    def test_ties_take_the_lower_crossing(self):
        chain = Staircase(((0, 0), (10, 0), (10, 10), (20, 10)), True, "S", "N")
        pts = [(10, 5), (5, 0)]  # midway along a vertical / horizontal run
        got = allpairs._projection_table(pts, chain, np.zeros((0, 4)))
        t_ref, v_ref = _reference_table(pts, chain, [])
        assert np.array_equal(got.t, t_ref) and np.array_equal(got.val, v_ref)
        assert got.t[0, 0] == 10 and got.t[1, 1] == 0  # (10, 0) and (0, 0)

    def test_no_points(self):
        chain = Staircase(((0, 0), (4, 0)), True, "W", "E")
        got = allpairs._projection_table([], chain, np.zeros((0, 4)))
        assert got.t.shape == got.val.shape == (0, 2)


# -- projection specials ---------------------------------------------------
def _reference_specials(cross, rows_u, rows_l, chain, zs, DU, DL, sub_rects, seams):
    """The specials loop with cases (i)/(ii) on every point."""
    boxes = np.array(
        [(r.xlo, r.ylo, r.xhi, r.yhi) for r in sub_rects], dtype=float
    ).reshape(-1, 4)
    su = allpairs._projection_table(rows_u, chain, boxes, seams=seams)
    sl = allpairs._projection_table(rows_l, chain, boxes, seams=seams)
    t = np.array([allpairs._arc_pos(z, chain.increasing) for z in zs], dtype=float)
    nz = len(zs)
    for spec, dz, out in ((su, DL, cross), (sl, DU.T, cross.T)):
        for k in range(2):
            if np.isinf(spec.val[:, k]).all():
                continue
            pos = np.searchsorted(t, spec.t[:, k])
            for nb in (np.clip(pos - 1, 0, nz - 1), np.clip(pos, 0, nz - 1)):
                base = spec.val[:, k] + np.abs(spec.t[:, k] - t[nb])
                np.minimum(out, base[:, None] + dz[nb, :], out=out)
    for k in range(su.t.shape[1]):
        for l in range(sl.t.shape[1]):
            cand = (
                su.val[:, k][:, None]
                + np.abs(su.t[:, k][:, None] - sl.t[:, l][None, :])
                + sl.val[:, l][None, :]
            )
            np.minimum(cross, cand, out=cross)
    return cross


@pytest.fixture
def checked_specials(monkeypatch):
    """Check every specials call against the reference loop; yields one
    flag per checked call: whether it had a non-integral point."""
    real = ParallelEngine._apply_projection_specials
    seen = []

    def checked(self, cross, rows_u, rows_l, chain, zs, DU, DL, sub_rects, pram):
        want = _reference_specials(
            cross.copy(), rows_u, rows_l, chain, zs, DU, DL, sub_rects, self.seams
        )
        got = real(self, cross, rows_u, rows_l, chain, zs, DU, DL, sub_rects, pram)
        assert got.tobytes() == want.tobytes()
        seen.append(any(v != int(v) for p in rows_u + rows_l for v in p))
        return got

    monkeypatch.setattr(ParallelEngine, "_apply_projection_specials", checked)
    return seen


def _fractional_extras(rects, k, seed, off=0.3):
    """Free points moved ``off`` off the integer grid.  A non-dyadic
    offset makes the float sums inexact, which is where cases (i)/(ii)
    can still win by a rounding step: skipping them for these points
    changes matrix bytes, so the comparison below would see it."""
    rng = random.Random(seed)
    out = []
    for x, y in random_free_points(rects, k, seed=seed):
        q = (x + off, y) if rng.random() < 0.5 else (x, y - off)
        if not any(r.contains_interior(q) for r in rects):
            out.append(q)
    return out


class TestProjectionSpecials:
    @pytest.mark.parametrize("n,seed", [(12, 0), (24, 1), (40, 2), (64, 3)])
    def test_random_scenes(self, checked_specials, n, seed):
        rects = random_disjoint_rects(n, seed=seed)
        ParallelEngine(rects, extra_points=random_free_points(rects, 4, seed=seed)).build()
        assert checked_specials and not any(checked_specials)

    @pytest.mark.parametrize("n,seed,off", [(12, 5, 0.5), (30, 6, 0.3), (48, 7, 0.1)])
    def test_fractional_extra_points(self, checked_specials, n, seed, off):
        rects = random_disjoint_rects(n, seed=seed)
        extra = _fractional_extras(rects, 16, seed, off)
        assert extra
        ParallelEngine(rects, extra_points=extra).build()
        assert any(checked_specials)

    @pytest.mark.parametrize("seed", range(4))
    def test_polygon_scenes_with_seams(self, checked_specials, seed):
        obstacles = random_polygon_scene(n_polygons=4, n_rects=30, seed=seed)
        build_index(Scene.from_obstacles(obstacles), engine="parallel",
                    cache=StageCache(max_entries=0))
        assert checked_specials

    @pytest.mark.parametrize("seed", range(3))
    def test_update_walks(self, checked_specials, monkeypatch, seed):
        # deletes take the delta conquer, which calls the same method
        real = ParallelEngine._try_delta_conquer
        deltas = []

        def counted(self, *args, **kwargs):
            out = real(self, *args, **kwargs)
            deltas.append(out is not None)
            return out

        monkeypatch.setattr(ParallelEngine, "_try_delta_conquer", counted)
        rects = random_disjoint_rects(40, seed=20 + seed)
        idx = build_index(Scene.from_obstacles(rects), engine="parallel",
                          incremental=True, cache=StageCache())
        rng = random.Random(seed)
        for _ in range(6):
            victim = rng.choice(list(idx.scene.rects))
            idx = update_index(idx, SceneDelta.delete(victim))
        idx = update_index(idx, SceneDelta.insert(victim))
        cold = build_index(idx.scene, engine="parallel", cache=StageCache(max_entries=0))
        assert idx.index.matrix.tobytes() == cold.index.matrix.tobytes()
        assert checked_specials and any(deltas)


# -- staircase line ranges -------------------------------------------------
def _random_chain(rng):
    inc = bool(rng.random() < 0.5)
    x, y = (int(v) for v in rng.integers(-5, 6, 2))
    pts = [(x, y)]
    for _ in range(int(rng.integers(0, 7))):
        if rng.random() < 0.5:
            x += int(rng.integers(0, 4))
        else:
            y += int(rng.integers(0, 4)) * (1 if inc else -1)
        pts.append((x, y))
    left = [None, "W", "S" if inc else "N"][int(rng.integers(0, 3))]
    right = [None, "E", "N" if inc else "S"][int(rng.integers(0, 3))]
    return Staircase(tuple(pts), inc, left, right)


def test_line_ranges_match_brute_force():
    rng = np.random.default_rng(5)
    qs = [v / 2 for v in range(-20, 40)]
    for _ in range(400):
        chain = _random_chain(rng)
        for vertical in (True, False):
            lo, hi = chain._line_ranges(vertical, np.array(qs))
            for q, a, b in zip(qs, lo, hi):
                ref = _ref_range(chain, q, vertical)
                assert (ref is None) == bool(np.isnan(a)), (chain, vertical, q)
                if ref is not None:
                    assert (a, b) == ref
        for q in range(-10, 20):
            assert chain.y_range_at_x(q) == _ref_range(chain, q, True)
            assert chain.x_range_at_y(q) == _ref_range(chain, q, False)
            assert chain.crossings_with_vline(q) == _ref_crossings(chain, (q, 0), 0)
            assert chain.crossings_with_hline(q) == _ref_crossings(chain, (0, q), 1)


def test_sides_of_matches_side_of():
    rng = np.random.default_rng(6)
    pts = [(x / 2, y / 2) for x in range(-24, 44, 3) for y in range(-30, 44, 3)]
    checked = 0
    for _ in range(400):
        chain = _random_chain(rng)
        if not chain.unbounded:
            with pytest.raises(GeometryError):
                chain.sides_of(pts)
            continue
        assert chain.sides_of(pts).tolist() == [chain.side_of(p) for p in pts]
        checked += 1
    assert checked > 100


# -- naive (min,+) ---------------------------------------------------------
def _triple_loop(a, b):
    al, inner = a.shape
    bc = b.shape[1]
    out = np.full((al, bc), INF)
    for i in range(al):
        for j in range(bc):
            for k in range(inner):
                out[i, j] = min(out[i, j], a[i, k] + b[k, j])
    return out


class TestMinplusNaive:
    @pytest.mark.parametrize(
        "al,inner,bc",
        [(3, 0, 4), (0, 5, 3), (4, 5, 0), (0, 0, 0), (1, 7, 1), (2, 3000, 3),
         (5, 9, 6), (40, 3, 35), (300, 2, 250)],
    )
    def test_matches_triple_loop(self, al, inner, bc):
        rng = np.random.default_rng(al * 1000 + inner * 10 + bc)
        a = rng.integers(0, 60, (al, inner)).astype(float)
        b = rng.integers(0, 60, (inner, bc)).astype(float)
        if al * inner:
            a[rng.random((al, inner)) < 0.2] = INF
            a[0, :] = INF  # an all-∞ row
        if inner * bc:
            b[:, -1] = INF  # an all-∞ column
        got = minplus_naive(a, b, PRAM())
        assert got.shape == (al, bc)
        if inner <= 9 or al * bc <= 6:
            ref = _triple_loop(a, b)
        else:
            ref = (a[:, :, None] + b[None, :, :]).min(axis=1)
        assert np.array_equal(got, ref)
        if al and bc:
            assert np.isinf(got[0]).all()

    def test_accepts_views(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 50, (30, 20)).astype(float)
        b = rng.integers(0, 50, (20, 30)).astype(float)
        assert np.array_equal(
            minplus_naive(a.T, b.T, PRAM()), _triple_loop(a.T.copy(), b.T.copy())
        )

    @pytest.mark.parametrize("al,inner,bc", [(300, 40, 300), (4, 5000, 4), (60, 200, 60)])
    def test_peak_temporary_is_bounded(self, al, inner, bc):
        rng = np.random.default_rng(2)
        a = rng.random((al, inner))
        b = rng.random((inner, bc))
        out_bytes = al * bc * 8
        tracemalloc.start()
        try:
            minplus_naive(a, b, PRAM())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the output, one cache-sized slab, one reduction buffer and
        # numpy's own ufunc iteration buffers
        assert peak <= 2 * out_bytes + max(out_bytes, 8 * _SLAB_CELLS) + 256 * 1024


# -- flat-index SMAWK ------------------------------------------------------
def _monge(rows, cols, rng):
    xs = np.sort(rng.integers(0, 4 * rows + 1, rows))
    ys = np.sort(rng.integers(0, 4 * cols + 1, cols))
    return np.abs(xs[:, None] - ys[None, :]).astype(float)


@pytest.mark.parametrize(
    "al,inner,bc", [(1, 1, 1), (7, 1, 5), (112, 43, 4), (9, 30, 2), (20, 12, 40), (3, 60, 17)]
)
def test_flat_smawk_matches_references(al, inner, bc):
    rng = np.random.default_rng(al + inner + bc)
    b = _monge(inner, bc, rng)
    a = rng.integers(0, 80, (al, inner)).astype(float)
    arg = smawk_row_minima_array(a, b)
    rows, cols = list(range(bc)), list(range(inner))
    for i in range(al):
        def entry(j, k, row=a[i]):
            return row[k] + b[k, j]

        want = brute_force_row_minima(rows, cols, entry)  # leftmost argmins
        assert [int(k) for k in arg[i]] == [want[j] for j in rows]
        ref = smawk_row_minima(rows, cols, entry)  # may pick another tie
        assert [entry(j, ref[j]) for j in rows] == [entry(j, want[j]) for j in rows]
    got = minplus_monge(a, b, PRAM())
    assert np.array_equal(got, _triple_loop(a, b))
