"""End-to-end integration tests across subsystems and at larger sizes."""

import numpy as np
import pytest

from repro.core.allpairs import ParallelEngine
from repro.core.api import ShortestPathIndex
from repro.core.baseline import GridOracle, path_is_clear, path_length
from repro.core.implicit import ImplicitBoundaryStructure
from repro.core.sequential import SequentialEngine
from repro.pram import PRAM, brent_time
from repro.workloads.generators import (
    random_disjoint_rects,
    random_free_points,
    staircase_container,
)


class TestLargeAgreement:
    def test_engines_agree_n60(self):
        rects = random_disjoint_rects(60, seed=1)
        seq = SequentialEngine(rects).build()
        par = ParallelEngine(rects, [], PRAM(), leaf_size=6).build()
        assert (par.submatrix(seq.points) == seq.matrix).all()

    def test_oracle_spot_check_n60(self):
        rects = random_disjoint_rects(60, seed=2)
        seq = SequentialEngine(rects).build()
        oracle = GridOracle(rects, seq.points)
        for i in (0, 40, 111, 200):
            p = seq.points[i]
            for j in (5, 77, 150):
                q = seq.points[j]
                assert seq.matrix[i, j] == oracle.dist(p, q)

    def test_determinism(self):
        rects = random_disjoint_rects(30, seed=3)
        a = ParallelEngine(rects, [], PRAM(), leaf_size=5).build()
        b = ParallelEngine(rects, [], PRAM(), leaf_size=5).build()
        assert a.points == b.points
        assert (a.matrix == b.matrix).all()

    def test_leaf_size_does_not_change_answers(self):
        rects = random_disjoint_rects(28, seed=4)
        idx4 = ParallelEngine(rects, [], PRAM(), leaf_size=4).build()
        idx10 = ParallelEngine(rects, [], PRAM(), leaf_size=10).build()
        assert (idx4.submatrix(idx10.points) == idx10.matrix).all()


class TestScalingShape:
    def test_work_scales_subcubically(self):
        """Doubling n multiplies work by < 8 (strictly subcubic; the
        measured exponent is ~2.7, see benchmarks/results/E3_allpairs_build.txt)."""
        works = []
        for n in (24, 48):
            pram = PRAM()
            ParallelEngine(random_disjoint_rects(n, seed=7), [], pram, leaf_size=6).build()
            works.append(pram.work)
        assert works[1] / works[0] < 8.0

    def test_time_scales_polylog(self):
        """Simulated parallel time tracks Θ(log² n): quadrupling n grows T
        by (log 64 / log 16)² ≈ 2.25, nowhere near 4."""
        times = []
        for n in (16, 64):
            pram = PRAM()
            ParallelEngine(random_disjoint_rects(n, seed=8), [], pram, leaf_size=6).build()
            times.append(pram.time)
        assert times[1] < 3.5 * times[0]

    def test_brent_consistency(self):
        pram = PRAM()
        ParallelEngine(random_disjoint_rects(20, seed=9), [], pram, leaf_size=5).build()
        t1 = brent_time(pram.work, pram.time, 1)
        tinf = brent_time(pram.work, pram.time, 10**12)
        assert t1 >= pram.work
        assert tinf <= pram.time + 1


class TestFullStackRoundtrip:
    def test_facade_with_everything(self):
        rects = random_disjoint_rects(22, seed=10)
        idx = ShortestPathIndex.build(rects, engine="parallel")
        free = random_free_points(rects, 6, seed=11)
        oracle = GridOracle(rects, free + idx.vertices())
        # arbitrary lengths
        for i in range(0, len(free) - 1, 2):
            assert idx.length(free[i], free[i + 1]) == oracle.dist(free[i], free[i + 1])
        # vertex paths
        vs = idx.vertices()
        path = idx.shortest_path(vs[0], vs[-1])
        assert path_length(path) == idx.length(vs[0], vs[-1])
        assert path_is_clear(path, rects)
        # arbitrary paths
        p, q = free[0], free[1]
        path2 = idx.shortest_path(p, q)
        assert path_length(path2) == idx.length(p, q)
        assert path_is_clear(path2, rects)

    def test_implicit_structure_against_facade(self):
        rects = random_disjoint_rects(10, seed=12)
        poly = staircase_container(rects, steps=12, margin=25)
        implicit = ImplicitBoundaryStructure(poly, rects, PRAM())
        gates = poly.vertices_loop()[::9]
        verts = [rects[0].sw, rects[5].ne]
        oracle = GridOracle(rects, gates + verts)
        for g in gates[:8]:
            for v in verts:
                assert implicit.length(g, v) == oracle.dist(g, v)

    def test_sequential_and_parallel_same_facade_answers(self):
        rects = random_disjoint_rects(16, seed=13)
        a = ShortestPathIndex.build(rects, engine="parallel")
        b = ShortestPathIndex.build(rects, engine="sequential")
        for p in a.vertices()[:8]:
            for q in a.vertices()[-8:]:
                assert a.length(p, q) == b.length(p, q)


class TestStatsShape:
    def test_interface_growth_is_tame(self):
        """The additive-interface argument: max |S_v| stays O(n)."""
        n = 64
        engine = ParallelEngine(random_disjoint_rects(n, seed=14), [], PRAM(), leaf_size=6)
        engine.build()
        assert engine.stats.max_interface <= 30 * n

    def test_matrix_is_finite_everywhere(self):
        rects = random_disjoint_rects(40, seed=15)
        idx = ParallelEngine(rects, [], PRAM(), leaf_size=6).build()
        assert np.isfinite(idx.matrix).all()
