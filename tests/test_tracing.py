"""Tests for path tracing (Lemma 6, Lemma 12) and trace combination."""

import pytest

from repro.core.tracing import (
    MODES,
    TraceForests,
    _resume_corner,
    combine_traces,
    trace_heading,
)
from repro.errors import GeometryError
from repro.geometry.primitives import Rect, dist
from repro.geometry.rayshoot import brute_force_shoot
from repro.geometry.staircase import Staircase
from repro.pram import PRAM
from repro.workloads.generators import random_disjoint_rects, random_free_points


def path_is_clear(points, ray_dir, rects):
    stair_ok = True
    for a, b in zip(points, points[1:]):
        for r in rects:
            if a[1] == b[1] and r.blocks_h_segment(a[1], a[0], b[0]):
                stair_ok = False
            if a[0] == b[0] and r.blocks_v_segment(a[0], a[1], b[1]):
                stair_ok = False
    # final ray
    x, y = points[-1]
    for r in rects:
        if ray_dir == "N" and r.xlo < x < r.xhi and r.ylo >= y:
            stair_ok = False
        if ray_dir == "S" and r.xlo < x < r.xhi and r.yhi <= y:
            stair_ok = False
        if ray_dir == "E" and r.ylo < y < r.yhi and r.xlo >= x:
            stair_ok = False
        if ray_dir == "W" and r.ylo < y < r.yhi and r.xhi <= x:
            stair_ok = False
    return stair_ok


class TestTrace:
    def test_free_plane_is_straight_ray(self):
        forests = TraceForests([Rect(100, 100, 101, 101)], PRAM())
        tp = forests.trace((0, 0), "NE", PRAM())
        assert tp.points == [(0, 0)]
        assert tp.ray_dir == "N"

    def test_single_detour(self):
        rects = [Rect(-2, 4, 3, 7)]
        forests = TraceForests(rects, PRAM())
        tp = forests.trace((0, 0), "NE", PRAM())
        assert tp.points == [(0, 0), (0, 4), (3, 4)]
        assert tp.ray_dir == "N"

    def test_nw_detours_west(self):
        rects = [Rect(-2, 4, 3, 7)]
        forests = TraceForests(rects, PRAM())
        tp = forests.trace((0, 0), "NW", PRAM())
        assert tp.points == [(0, 0), (0, 4), (-2, 4)]

    def test_ws_mode(self):
        rects = [Rect(-6, -3, -4, 2)]
        forests = TraceForests(rects, PRAM())
        tp = forests.trace((0, 0), "WS", PRAM())
        # heading west at y=0 hits the right edge, slides south to (−4,−3)
        assert tp.points == [(0, 0), (-4, 0), (-4, -3)]
        assert tp.ray_dir == "W"

    def test_cannot_trace_from_interior(self):
        forests = TraceForests([Rect(0, 0, 4, 4)], PRAM())
        with pytest.raises(GeometryError):
            forests.trace((2, 2), "NE", PRAM())

    def test_unknown_mode(self):
        forests = TraceForests([Rect(0, 0, 1, 1)], PRAM())
        with pytest.raises(GeometryError):
            forests.trace((5, 5), "XX", PRAM())

    @pytest.mark.parametrize("mode", list(MODES))
    def test_paths_clear_and_monotone_random(self, mode):
        rects = random_disjoint_rects(40, seed=17)
        forests = TraceForests(rects, PRAM())
        for p in random_free_points(rects, 25, seed=23):
            tp = forests.trace(p, mode, PRAM())
            assert path_is_clear(tp.points, tp.ray_dir, rects), (p, mode)
            # monotone in both axes
            xs = [q[0] for q in tp.points]
            ys = [q[1] for q in tp.points]
            assert xs == sorted(xs) or xs == sorted(xs, reverse=True)
            assert ys == sorted(ys) or ys == sorted(ys, reverse=True)
            assert tp.size <= 2 * len(rects) + 2

    def test_forest_parents_consistent_with_traces(self):
        rects = random_disjoint_rects(30, seed=31)
        forests = TraceForests(rects, PRAM())
        parents = forests.parents("NE")
        for i, r in enumerate(rects):
            tp = forests.trace((r.xhi, r.ylo), "NE", PRAM())
            # first obstacle the resumed path hits is the forest parent
            if parents[i] is None:
                assert len(tp.points) == 1
            else:
                hit_rect = rects[parents[i]]
                assert tp.points[1][1] == hit_rect.ylo

    def test_parents_shot_on_first_use_match_brute_force(self):
        # forests fill in lazily: a trace, then the full list, then traces
        # again must all agree with one brute-force shot per obstacle
        rects = random_disjoint_rects(40, seed=8)
        forests = TraceForests(rects, PRAM())
        p = random_free_points(rects, 1, seed=8)[0]
        first = {mode: forests.trace(p, mode, PRAM()).points for mode in MODES}
        for mode, (primary, detour) in MODES.items():
            want = []
            for r in rects:
                hit = brute_force_shoot(rects, _resume_corner(r, primary, detour), primary)
                want.append(None if hit is None else hit.rect_index)
            assert forests.parents(mode) == want
            assert forests.trace(p, mode, PRAM()).points == first[mode]

    def test_pram_charges_do_not_depend_on_use(self):
        # Lemma 6's accounting charges every forest at construction,
        # whether or not a parent is ever computed
        rects = random_disjoint_rects(25, seed=4)
        idle, used = PRAM(), PRAM()
        TraceForests(rects, idle)
        forests = TraceForests(rects, used)
        assert (used.time, used.work, used.max_ops) == (idle.time, idle.work, idle.max_ops)
        for mode in MODES:
            forests.parents(mode)
        assert (used.time, used.work, used.max_ops) == (idle.time, idle.work, idle.max_ops)

    def test_separator_builds_only_the_shooters_it_follows(self):
        from repro.core.separator import staircase_separator

        rects = random_disjoint_rects(64, seed=2)
        forests = TraceForests(rects, PRAM())
        staircase_separator(rects, PRAM(), forests=forests)
        # two traces: two primary directions, not all four
        assert len(forests.shooter._shooters) == 2

    def test_all_vertex_paths(self):
        rects = random_disjoint_rects(12, seed=3)
        forests = TraceForests(rects, PRAM())
        paths = forests.all_vertex_paths("SW", PRAM())
        assert len(paths) == 4 * len(rects)
        for v, tp in paths.items():
            assert tp.origin == v


class TestLemma12SingleCrossing:
    """X(p) paths cross a clear staircase at most once (Lemma 12)."""

    @pytest.mark.parametrize("mode", ["NE", "SW", "WN", "ES"])
    def test_crossings_bounded(self, mode):
        rects = random_disjoint_rects(35, seed=41)
        forests = TraceForests(rects, PRAM())
        # a clear staircase: another traced separator shape
        from repro.core.separator import staircase_separator

        sep = staircase_separator(rects, PRAM(), forests).staircase
        for p in random_free_points(rects, 15, seed=47):
            tp = forests.trace(p, mode, PRAM())
            sides = []
            for q in tp.points:
                s = sep.side_of(q)
                if not sides or (s != 0 and s != sides[-1]):
                    if s != 0:
                        sides.append(s)
            # strictly-alternating side sequence has at most one flip
            flips = sum(1 for a, b in zip(sides, sides[1:]) if a != b)
            assert flips <= 1, (p, mode, sides)


class TestHeadingAndCombine:
    def test_headings(self):
        assert trace_heading("NE") == "NE"
        assert trace_heading("EN") == "NE"
        assert trace_heading("WS") == "SW"
        assert trace_heading("SE") == "SE"
        assert trace_heading("NW") == "NW"

    def test_combine_increasing(self):
        rects = [Rect(2, 2, 4, 4), Rect(-5, -5, -3, -2)]
        forests = TraceForests(rects, PRAM())
        ne = forests.trace((0, 0), "NE", PRAM())
        sw = forests.trace((0, 0), "SW", PRAM())
        sep = combine_traces(ne, sw)
        assert isinstance(sep, Staircase)
        assert sep.unbounded and sep.increasing
        assert sep.is_clear(rects)

    def test_combine_decreasing(self):
        rects = [Rect(2, -5, 4, -2), Rect(-5, 2, -2, 5)]
        forests = TraceForests(rects, PRAM())
        se = forests.trace((0, 0), "SE", PRAM())
        nw = forests.trace((0, 0), "NW", PRAM())
        sep = combine_traces(se, nw)
        assert sep.unbounded and not sep.increasing
        assert sep.is_clear(rects)

    def test_combine_rejects_same_heading(self):
        forests = TraceForests([Rect(10, 10, 11, 11)], PRAM())
        a = forests.trace((0, 0), "NE", PRAM())
        b = forests.trace((0, 0), "EN", PRAM())
        with pytest.raises(GeometryError):
            combine_traces(a, b)

    def test_combine_rejects_different_origin(self):
        forests = TraceForests([Rect(10, 10, 11, 11)], PRAM())
        a = forests.trace((0, 0), "NE", PRAM())
        b = forests.trace((1, 0), "SW", PRAM())
        with pytest.raises(GeometryError):
            combine_traces(a, b)

    def test_combined_length_is_l1_along_chain(self):
        rects = random_disjoint_rects(20, seed=5)
        forests = TraceForests(rects, PRAM())
        from repro.core.separator import staircase_separator

        sep = staircase_separator(rects, PRAM(), forests).staircase
        pts = sep.pts
        assert sep.arc_dist(pts[0], pts[-1]) == dist(pts[0], pts[-1])
