"""Axis-parallel first-hit ray shooting among disjoint rectangles.

This is the workhorse behind the trapezoidal decompositions of [4] that the
paper uses for path tracing (Lemma 6), for the planar subdivisions ``H₁,
H₂`` that answer arbitrary-point queries in §6.4, and for the ``Hit(e)``
sets of §8–§9.  A static segment tree over the x (resp. y) coordinate slabs
stores, per node, the sorted bottom (resp. top/left/right) edge positions of
the rectangles spanning it; a query walks one root-to-leaf path and takes
the best bisect over ``O(log n)`` sorted lists, i.e. ``O(log² n)`` per shot
after ``O(n log n)`` preprocessing — the same preprocessing/query trade the
paper gets from [4] (its point-location queries are ``O(log n)``; the extra
log factor here is irrelevant to every bound we measure and is noted in
DESIGN.md).

Obstacle *interiors* are opaque; boundaries are not.  A ray starting on the
near boundary of a rectangle hits it at distance zero; a ray grazing along
an edge (query coordinate equal to ``xlo``/``xhi``) does not hit.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import GeometryError
from repro.geometry.primitives import Point, Rect, Transform

_DIR_TRANSFORMS = {
    "N": Transform(),
    "S": Transform(sy=-1),
    "E": Transform(sx=1, sy=1, swap=True),
    "W": Transform(sx=-1, sy=1, swap=True),
}

# Which rectangle edge a ray travelling in each direction hits first.
_HIT_EDGE = {"N": "bottom", "S": "top", "E": "left", "W": "right"}


@dataclass(frozen=True, slots=True)
class Hit:
    """Result of a ray shot: the obstacle index, the point where the ray
    lands on its boundary, and the two endpoints of the edge that was hit
    (the ``u₁, u₂`` of §8–§9)."""

    rect_index: int
    point: Point
    edge: tuple[Point, Point]


class _NorthShooter:
    """First bottom-edge strictly-interior hit for rays going +y."""

    __slots__ = ("_xs", "_size", "_nodes")

    def __init__(self, rects: Sequence[Rect]) -> None:
        xs = sorted({r.xlo for r in rects} | {r.xhi for r in rects})
        self._xs = xs
        nslots = 2 * len(xs) + 1
        size = 1
        while size < nslots:
            size <<= 1
        self._size = size
        nodes: list[list[tuple[int, int]]] = [[] for _ in range(2 * size)]
        for idx, r in enumerate(rects):
            i = bisect_left(xs, r.xlo)
            j = bisect_left(xs, r.xhi)
            lo, hi = 2 * i + 2, 2 * j + 1  # open x-interval -> slot range [lo, hi)
            lo += size
            hi += size
            item = (r.ylo, idx)
            while lo < hi:
                if lo & 1:
                    nodes[lo].append(item)
                    lo += 1
                if hi & 1:
                    hi -= 1
                    nodes[hi].append(item)
                lo >>= 1
                hi >>= 1
        for lst in nodes:
            lst.sort()
        self._nodes = nodes

    def query(self, x: int, y: int) -> Optional[tuple[int, int]]:
        """Lowest ``(ylo, rect_index)`` with ``ylo >= y`` among rectangles
        whose open x-extent contains ``x``; None if the ray escapes."""
        xs = self._xs
        i = bisect_left(xs, x)
        slot = 2 * i + 1 if i < len(xs) and xs[i] == x else 2 * i
        node = slot + self._size
        best: Optional[tuple[int, int]] = None
        while node >= 1:
            lst = self._nodes[node]
            k = bisect_left(lst, (y, -1))
            if k < len(lst) and (best is None or lst[k] < best):
                best = lst[k]
            node >>= 1
        return best


class RayShooter:
    """Four-direction first-hit queries against a fixed obstacle set."""

    def __init__(self, rects: Sequence[Rect]) -> None:
        self.rects = list(rects)
        # one segment tree per direction, built on that direction's first shot
        self._shooters: dict[str, _NorthShooter] = {}

    def shoot(self, p: Point, direction: str) -> Optional[Hit]:
        """First obstacle hit by the ray from ``p`` in ``direction``.

        ``p`` must not lie strictly inside an obstacle (the paper never
        shoots from inside one); shots from a boundary point toward the
        interior report the same obstacle at distance zero.
        """
        try:
            t = _DIR_TRANSFORMS[direction]
        except KeyError:
            raise GeometryError(f"unknown direction {direction!r}") from None
        shooter = self._shooters.get(direction)
        if shooter is None:
            shooter = self._shooters[direction] = _NorthShooter(t.apply_rects(self.rects))
        qx, qy = t.apply(p)
        res = shooter.query(qx, qy)
        if res is None:
            return None
        ylo, idx = res
        hit_world: Point = (qx, ylo)
        hit = t.inverse().apply(hit_world)
        r = self.rects[idx]
        edge = _edge_of(r, _HIT_EDGE[direction])
        return Hit(rect_index=idx, point=hit, edge=edge)


def _edge_of(r: Rect, which: str) -> tuple[Point, Point]:
    if which == "bottom":
        return (r.sw, r.se)
    if which == "top":
        return (r.nw, r.ne)
    if which == "left":
        return (r.sw, r.nw)
    return (r.se, r.ne)


def brute_force_shoot(rects: Sequence[Rect], p: Point, direction: str) -> Optional[Hit]:
    """O(n) reference implementation used by the tests."""
    x, y = p
    best: Optional[tuple[int, int]] = None
    for idx, r in enumerate(rects):
        if direction == "N" and r.xlo < x < r.xhi and r.ylo >= y:
            cand = (r.ylo, idx)
        elif direction == "S" and r.xlo < x < r.xhi and r.yhi <= y:
            cand = (-r.yhi, idx)
        elif direction == "E" and r.ylo < y < r.yhi and r.xlo >= x:
            cand = (r.xlo, idx)
        elif direction == "W" and r.ylo < y < r.yhi and r.xhi <= x:
            cand = (-r.xhi, idx)
        else:
            continue
        if best is None or cand < best:
            best = cand
    if best is None:
        return None
    idx = best[1]
    r = rects[idx]
    if direction == "N":
        pt: Point = (x, r.ylo)
    elif direction == "S":
        pt = (x, r.yhi)
    elif direction == "E":
        pt = (r.xlo, y)
    else:
        pt = (r.xhi, y)
    return Hit(idx, pt, _edge_of(r, _HIT_EDGE[direction]))
