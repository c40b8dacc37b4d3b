"""The sequential O(n²) all-pairs builder (§9 of the paper).

For a source ``v``, every shortest path to a target is monotone in x or in
y ([11], restated in §8–§9).  The paper therefore builds, per source, four
directed acyclic graphs — one per monotone family — whose edges hop from
the two endpoints ``u₁, u₂`` of the obstacle edge hit by each target's
backward ray, and relaxes them in topological (coordinate) order.  Summed
over ``O(n)`` sources this is ``O(n²)`` after an ``O(n log n)``
preprocessing of ray hits and sorted orders.

We implement the single *east* case (x-monotone, source on the left) and
obtain the other three families by running it in reflected worlds, the
same way the paper waves at "the other cases are handled similarly":

=========  ======================  ==========================
world      transform               covers paths heading
=========  ======================  ==========================
east       identity                x-monotone, source left
west       flip x                  x-monotone, source right
north      transpose               y-monotone, source below
south      transpose ∘ flip y      y-monotone, source above
=========  ======================  ==========================

Any finite value the DAG produces is the length of a realisable path, so
taking the minimum over the four worlds is always sound; for at least one
world the paper's region argument makes it exact.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.allpairs import DistanceIndex, matrix_dtype
from repro.core.tracing import TraceForests, TracedPath
from repro.errors import GeometryError
from repro.geometry.primitives import (
    Point,
    Rect,
    Transform,
    dist,
    validate_disjoint,
)
from repro.geometry.rayshoot import Hit, RayShooter
from repro.pram.machine import PRAM

INF = float("inf")

_WORLD_TRANSFORMS = (
    Transform(),  # east
    Transform(sx=-1),  # west
    Transform(swap=True),  # north: (x,y) -> (y,x)
    Transform(sx=1, sy=-1, swap=True),  # south: (x,y) -> (-y, x)
)


@dataclass
class _Barrier:
    """``NE(v) ∪ SE(v)`` as x-at-y pieces, queryable during a y-merge."""

    ys: list[float]  # piece lower bounds, ascending (first = -inf)
    xs: list[int]  # piece x values (crossing of a horizontal line)

    def x_at(self, y: int) -> float:
        i = bisect_right(self.ys, y) - 1
        x = self.xs[i]
        # boundary y may be covered by the neighbouring piece too; the
        # barrier crossing relevant to a ray from the east is the rightmost
        if i + 1 < len(self.ys) and self.ys[i + 1] == y:
            x = max(x, self.xs[i + 1])
        return x


def _build_barrier(ne: TracedPath, se: TracedPath) -> _Barrier:
    """Piecewise x(y) of the barrier, ascending in y, covering all y."""
    pieces: list[tuple[float, int]] = []  # (y_low, x) ascending
    # SE path descends: walk it from the bottom (deep south) upward
    se_pts = se.points
    pieces.append((-math.inf, se_pts[-1][0]))  # terminal S-ray
    for a, b in zip(reversed(se_pts[1:]), reversed(se_pts[:-1])):
        # b is above a in the reversed walk when the segment is vertical
        if a[0] == b[0] and a[1] != b[1]:
            lo, hi = min(a[1], b[1]), max(a[1], b[1])
            pieces.append((lo, a[0]))
            del hi
    ne_pts = ne.points
    for a, b in zip(ne_pts, ne_pts[1:]):
        if a[0] == b[0] and a[1] != b[1]:
            pieces.append((min(a[1], b[1]), a[0]))
    pieces.append((ne_pts[-1][1], ne_pts[-1][0]))  # terminal N-ray
    pieces.sort(key=lambda t: (t[0], t[1]))
    ys = [p[0] for p in pieces]
    xs = [p[1] for p in pieces]
    return _Barrier(ys, xs)


class _World:
    """Preprocessed structures for one of the four reflected worlds."""

    def __init__(self, t: Transform, points: Sequence[Point], rects: Sequence[Rect]):
        self.t = t
        self.rects = t.apply_rects(list(rects))
        self.points = [t.apply(p) for p in points]
        self.shooter = RayShooter(self.rects)
        self.forests = TraceForests(self.rects)
        self.west_hits: list[Optional[Hit]] = [
            self.shooter.shoot(p, "W") for p in self.points
        ]
        self.order_x = sorted(range(len(self.points)), key=lambda i: self.points[i])
        self.order_y = sorted(
            range(len(self.points)), key=lambda i: (self.points[i][1], self.points[i][0])
        )
        self.point_id = {p: i for i, p in enumerate(self.points)}

    def case_east(self, vid: int, out: np.ndarray) -> None:
        """Relax the x-monotone (source-left) DAG from source ``vid`` into
        ``out`` (global-id indexed), taking minima with existing values."""
        v = self.points[vid]
        ne = self.forests.trace(v, "NE")
        se = self.forests.trace(v, "SE")
        barrier = _build_barrier(ne, se)
        n = len(self.points)
        dist_w = np.full(n, INF)
        dist_w[vid] = 0.0
        vx = v[0]
        for i in self.order_x:
            if i == vid:
                continue
            w = self.points[i]
            if w[0] < vx:
                continue
            bx = barrier.x_at(w[1])
            if bx > w[0]:
                continue  # w is strictly left of the barrier: другой case
            hit = self.west_hits[i]
            if hit is None or hit.point[0] < bx or (hit.point[0] == bx == w[0]):
                # the backward ray meets the barrier first: straight shot
                dist_w[i] = dist(v, w)
                continue
            u1, u2 = hit.edge
            best = INF
            for u in (u1, u2):
                uid = self.point_id.get(u)
                if uid is not None and dist_w[uid] < INF:
                    cand = dist_w[uid] + dist(u, w)
                    if cand < best:
                        best = cand
            dist_w[i] = best
        np.minimum(out, dist_w, out=out)


class SequentialEngine:
    """§9: the V_R-to-V_R length matrix in O(n²) sequential time."""

    def __init__(
        self,
        rects: Sequence[Rect],
        extra_points: Sequence[Point] = (),
        validate: bool = True,
        seams: Sequence = (),
    ) -> None:
        self.rects = list(rects)
        if validate:
            validate_disjoint(self.rects)
        self.seams = list(seams)
        pts: dict[Point, None] = {}
        for r in self.rects:
            for v in r.vertices:
                pts.setdefault(v, None)
        for p in extra_points:
            if any(r.contains_interior(p) for r in self.rects) or any(
                s.contains_open(p) for s in self.seams
            ):
                raise GeometryError(f"extra point {p} is inside an obstacle")
            pts.setdefault(p, None)
        self.points: list[Point] = list(pts)
        self._point_set = frozenset(self.points)
        self.dtype = matrix_dtype(self.rects, self.points, self.seams)
        # The four-world monotone-DAG machinery is specified for disjoint
        # *rectangles* only: its hop and straight-shot realisability
        # arguments run paths along whole obstacle edges, which may overlap
        # the interior seams of a decomposed polygon.  With seams present
        # we substitute the [11]-style repeated single-source sweep over
        # the seam-aware Hanan grid — the sequential comparator the paper's
        # §1 credits — and keep the DAG for pure-rectangle scenes.
        self.worlds = (
            []
            if self.seams
            else [_World(t, self.points, self.rects) for t in _WORLD_TRANSFORMS]
        )
        self._oracle: Optional["GridOracle"] = None

    # ------------------------------------------------------------------
    def _seam_oracle(self) -> "GridOracle":
        from repro.core.baseline import GridOracle

        if self._oracle is None:
            self._oracle = GridOracle(self.rects, self.points, seams=self.seams)
        return self._oracle

    def single_source(self, source: Point) -> np.ndarray:
        """Distances from one registered point to all points (O(n))."""
        if source not in self._point_set:
            raise GeometryError(f"{source} is not a registered point")
        if self.seams:
            return self._seam_oracle().dist_matrix([source], self.points)[0]
        out = np.full(len(self.points), INF)
        for world in self.worlds:
            vid = world.point_id.get(world.t.apply(source))
            if vid is None:
                raise GeometryError(f"{source} is not a registered point")
            world.case_east(vid, out)
        out[self.points.index(source)] = 0.0
        return out

    def build(self, pram: Optional[PRAM] = None) -> DistanceIndex:
        """All-pairs matrix (one DAG sweep per source per world, or one
        seam-aware Dijkstra per source on polygon scenes)."""
        n = len(self.points)
        if self.seams:
            from repro.core.baseline import repeated_single_source_matrix

            mat = repeated_single_source_matrix(
                self.rects, self.points, oracle=self._seam_oracle()
            ).astype(self.dtype, copy=False)
        else:
            mat = np.full((n, n), INF, dtype=self.dtype)
            for i, p in enumerate(self.points):
                mat[i, :] = self.single_source(p)
            # the metric is symmetric; keep the smaller direction (the two
            # are equal for exact sweeps, but this also hardens against
            # region edge-cases at zero cost)
            np.minimum(mat, mat.T, out=mat)
        if pram is not None:
            pram.charge(time=n, work=n * n, width=n)
        return DistanceIndex(self.points, mat)


def build_sequential_index(
    rects: Sequence[Rect], extra_points: Sequence[Point] = ()
) -> DistanceIndex:
    """Convenience wrapper for the §9 engine."""
    return SequentialEngine(rects, extra_points).build()
