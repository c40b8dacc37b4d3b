"""Staircases: monotone rectilinear chains (§2 of the paper).

A *staircase* is a convex path — monotone with respect to both axes.  The
paper uses bounded staircases (portions of envelope boundaries, separators
clipped to a region) and unbounded ones (``MAX_XY`` frontiers, separators,
``XY(p)`` paths extended to infinity).

Representation: the finite corner chain ``pts`` ordered by *non-decreasing
x* plus two optional semi-infinite rays attached to the chain ends
(``left_dir`` ∈ {W, N, S}, ``right_dir`` ∈ {E, N, S}).  All side tests,
crossing computations and clipping are implemented once here and reused by
the separator theorem, the conquer steps and the §7 chunk machinery.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.errors import GeometryError
from repro.geometry.primitives import Point, Rect, Transform, dist

NEG = -math.inf
POS = math.inf

_RAY_VECTOR = {"W": (-1, 0), "E": (1, 0), "N": (0, 1), "S": (0, -1)}


def _dedupe(pts: Sequence[Point]) -> list[Point]:
    out: list[Point] = []
    for p in pts:
        if not out or out[-1] != p:
            out.append(p)
    return out


def _drop_collinear(pts: list[Point]) -> list[Point]:
    """Remove interior points that lie on a straight run."""
    if len(pts) < 3:
        return pts
    out = [pts[0]]
    for p in pts[1:-1]:
        out.append(p)
        if len(out) >= 3:
            b, m, c = out[-3], out[-2], out[-1]
            if (b[0] == m[0] == c[0]) or (b[1] == m[1] == c[1]):
                del out[-2]
    out.append(pts[-1])
    if len(out) >= 3:
        b, m, c = out[-3], out[-2], out[-1]
        if (b[0] == m[0] == c[0]) or (b[1] == m[1] == c[1]):
            del out[-2]
    return out


@dataclass(frozen=True)
class Staircase:
    """A monotone rectilinear chain, optionally unbounded at either end.

    ``increasing`` is True when y rises with x along the chain.  For chains
    with no y extent (a horizontal run) either label is geometrically valid
    and the constructor defaults to increasing; for chains with no x extent
    (a vertical line, which arises as a degenerate separator) the label
    fixes which side is called "above".
    """

    pts: tuple[Point, ...]
    increasing: bool = True
    left_dir: Optional[str] = None  # 'W' | 'N' | 'S' | None
    right_dir: Optional[str] = None  # 'E' | 'N' | 'S' | None
    _xs: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pts = tuple(_drop_collinear(_dedupe(self.pts)))
        object.__setattr__(self, "pts", pts)
        if not pts:
            raise GeometryError("staircase needs at least one point")
        self._validate()
        object.__setattr__(self, "_xs", tuple(p[0] for p in pts))

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        pts = self.pts
        sgn = 1 if self.increasing else -1
        for a, b in zip(pts, pts[1:]):
            if a[0] != b[0] and a[1] != b[1]:
                raise GeometryError(f"non-rectilinear step {a} -> {b}")
            if b[0] < a[0]:
                raise GeometryError(f"x not monotone at {a} -> {b}")
            if sgn * (b[1] - a[1]) < 0:
                raise GeometryError(
                    f"y not monotone ({'increasing' if self.increasing else 'decreasing'})"
                    f" at {a} -> {b}"
                )
        if self.left_dir is not None:
            allowed = {"W", "S"} if self.increasing else {"W", "N"}
            if self.left_dir not in allowed:
                raise GeometryError(f"bad left ray {self.left_dir}")
        if self.right_dir is not None:
            allowed = {"E", "N"} if self.increasing else {"E", "S"}
            if self.right_dir not in allowed:
                raise GeometryError(f"bad right ray {self.right_dir}")

    # ------------------------------------------------------------------
    @property
    def unbounded(self) -> bool:
        return self.left_dir is not None and self.right_dir is not None

    @property
    def num_segments(self) -> int:
        n = len(self.pts) - 1
        n += self.left_dir is not None
        n += self.right_dir is not None
        return n

    def endpoints(self) -> tuple[Point, Point]:
        return self.pts[0], self.pts[-1]

    # ------------------------------------------------------------------
    def y_range_at_x(self, x: int) -> Optional[tuple[float, float]]:
        """The (min y, max y) of the staircase on the vertical line at ``x``,
        or None when the line misses the staircase entirely."""
        pts, xs = self.pts, self._xs
        x0, x1 = xs[0], xs[-1]
        if x < x0:
            if self.left_dir == "W":
                y = pts[0][1]
                return (y, y)
            return None
        if x > x1:
            if self.right_dir == "E":
                y = pts[-1][1]
                return (y, y)
            return None
        lo = bisect_left(xs, x)
        hi = bisect_right(xs, x)
        ys: list[float] = [pts[i][1] for i in range(lo, hi)]
        if lo > 0 and xs[lo - 1] < x:  # inside horizontal segment pts[lo-1] -> pts[lo]
            ys.append(pts[lo - 1][1])
        if not ys:  # x strictly inside a horizontal segment
            ys = [pts[lo - 1][1]]
        ymin: float = min(ys)
        ymax: float = max(ys)
        if x == x0 and self.left_dir == "S":
            ymin = NEG
        if x == x0 and self.left_dir == "N":
            ymax = POS
        if x == x1 and self.right_dir == "S":
            ymin = NEG
        if x == x1 and self.right_dir == "N":
            ymax = POS
        if x == x0 and self.left_dir == "W":
            pass  # ray is horizontal; chain y already included
        return (ymin, ymax)

    def x_range_at_y(self, y: int) -> Optional[tuple[float, float]]:
        """Symmetric to :meth:`y_range_at_x` (horizontal line)."""
        lo, hi = self._line_ranges(False, np.array([y], dtype=float))
        return None if np.isnan(lo[0]) else (float(lo[0]), float(hi[0]))

    @cached_property
    def _corners(self) -> np.ndarray:
        return np.array(self.pts, dtype=float).reshape(-1, 2)

    def _line_ranges(self, vertical: bool, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`y_range_at_x` (``vertical``) or
        :meth:`x_range_at_y`: the (min, max) of the chain's other
        coordinate on each line ``q``, NaN where the line misses it.

        The corners are sorted along the line-crossing axis ``a`` (x for
        vertical lines, y for horizontal ones), so the corners on a line
        are one ``searchsorted`` run, and a line between two corners
        crosses the segment joining them.  An end ray parallel to ``a``
        carries the end corner's other coordinate past the chain's end; a
        perpendicular one makes the range unbounded on the end corner's
        own line."""
        ax = 0 if vertical else 1
        pts = self._corners
        ends = [self.left_dir, self.right_dir]
        if not vertical and not self.increasing:
            pts = pts[::-1]
            ends.reverse()
        a, b = pts[:, ax], pts[:, 1 - ax]
        lo = np.searchsorted(a, q, "left")
        hi = np.searchsorted(a, q, "right")
        on = hi > lo
        b0 = b[np.where(on, lo, lo - 1).clip(0, len(a) - 1)]
        b1 = b[np.where(on, hi - 1, lo - 1).clip(0, len(a) - 1)]
        rmin, rmax = np.minimum(b0, b1), np.maximum(b0, b1)
        for d, end, beyond in ((ends[0], a[0], q < a[0]), (ends[1], a[-1], q > a[-1])):
            vec = _RAY_VECTOR.get(d, (0, 0))
            if not vec[ax]:  # no ray continues past this end
                rmin[beyond] = rmax[beyond] = np.nan
            if vec[1 - ax] < 0:
                rmin[q == end] = NEG
            elif vec[1 - ax] > 0:
                rmax[q == end] = POS
        return rmin, rmax

    def line_crossings(self, vertical: bool, coords) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`crossings_with_vline` (``vertical``) or
        :meth:`crossings_with_hline`: per line, the other coordinate of
        the lower and of the upper crossing point, NaN where absent."""
        rmin, rmax = self._line_ranges(vertical, np.asarray(coords, dtype=float))
        keep_lo = np.isfinite(rmin) & (rmin == np.floor(rmin))
        keep_hi = np.isfinite(rmax) & (rmax == np.floor(rmax)) & (rmax != rmin)
        return np.where(keep_lo, rmin, np.nan), np.where(keep_hi, rmax, np.nan)

    # ------------------------------------------------------------------
    def side_of(self, p: Point) -> int:
        """+1 when ``p`` is strictly on the upper side, -1 strictly lower,
        0 on the staircase.

        For an increasing staircase the upper side is the NW region; for a
        decreasing one it is the NE region.  The staircase must be unbounded
        (every separator and frontier is) so the two sides are well defined
        for every point of the plane.
        """
        return int(self.sides_of([p])[0])

    def sides_of(self, points: Sequence[Point]) -> np.ndarray:
        """Batched :meth:`side_of`: one :meth:`_line_ranges` pass over the
        points' vertical lines."""
        if not self.unbounded:
            raise GeometryError("side_of requires an unbounded staircase")
        p = np.array(points, dtype=float).reshape(-1, 2)
        lo, hi = self._line_ranges(True, p[:, 0])
        out = (p[:, 1] > hi).astype(np.int64) - (p[:, 1] < lo)
        miss = np.isnan(lo)
        out[miss] = np.where(
            p[miss, 0] < self._xs[0], self._side_beyond(True), self._side_beyond(False)
        )
        return out

    def _side_beyond(self, west: bool) -> int:
        """The side of a point whose vertical line misses the chain: it
        lies beyond a vertical end ray, strictly west or east of
        everything.  West of a south ray (east of a north one) is the
        upper side of an increasing chain; west of a north ray (east of a
        south one) is the lower side of a decreasing one."""
        if not self.unbounded:
            raise GeometryError("side_of requires an unbounded staircase")
        if west:
            d = self.left_dir
            return (1 if d == "S" else -1) if self.increasing else (-1 if d == "N" else 1)
        d = self.right_dir
        return (-1 if d == "N" else 1) if self.increasing else (1 if d == "S" else -1)

    def _contains_bounded(self, p: Point) -> bool:
        x, y = p
        pts = self.pts
        for a, b in zip(pts, pts[1:]):
            if a[0] == b[0] == x and min(a[1], b[1]) <= y <= max(a[1], b[1]):
                return True
            if a[1] == b[1] == y and min(a[0], b[0]) <= x <= max(a[0], b[0]):
                return True
        return len(pts) == 1 and pts[0] == p

    def side_of_rect(self, r: Rect) -> int:
        """Which side a rectangle lies on, assuming the staircase does not
        cross its interior: the side of its center (0 never returned for a
        full-dimensional rect whose interior is clear of the staircase)."""
        cx2, cy2 = r.center2
        s = self._side_of_scaled(cx2, cy2)
        if s != 0:
            return s
        # Center exactly on the chain can only happen when the chain runs
        # along the rectangle's boundary degenerately; classify by a corner.
        for corner in r.vertices:
            s = self.side_of(corner)
            if s != 0:
                return s
        raise GeometryError(f"cannot classify rect {r!r} against staircase")

    def _side_of_scaled(self, x2: int, y2: int) -> int:
        """Side test for the half-integral point (x2/2, y2/2)."""
        if x2 % 2 == 0:
            rng = self.y_range_at_x(x2 // 2)
        else:
            lo = self.y_range_at_x((x2 - 1) // 2)
            hi = self.y_range_at_x((x2 + 1) // 2)
            if lo is None and hi is None:
                rng = None
            elif lo is None:
                rng = hi
            elif hi is None:
                rng = lo
            else:
                # between two columns: the chain's y there is the overlap
                rng = (min(lo[0], hi[0]), max(lo[1], hi[1]))
        if rng is None:
            return self._side_beyond(x2 < 2 * self._xs[0])
        ymin, ymax = rng
        if y2 > 2 * ymax:
            return 1
        if y2 < 2 * ymin:
            return -1
        return 0

    # ------------------------------------------------------------------
    def is_clear(self, rects: Iterable[Rect]) -> bool:
        """True when no segment of the staircase meets any rect interior.

        O(m·n): used by tests and debug assertions, not by the engines.
        """
        segs = list(zip(self.pts, self.pts[1:]))
        rays: list[tuple[Point, str]] = []
        if self.left_dir:
            rays.append((self.pts[0], self.left_dir))
        if self.right_dir:
            rays.append((self.pts[-1], self.right_dir))
        for r in rects:
            for a, b in segs:
                if a[1] == b[1]:
                    if r.blocks_h_segment(a[1], a[0], b[0]):
                        return False
                else:
                    if r.blocks_v_segment(a[0], a[1], b[1]):
                        return False
            for origin, d in rays:
                dx, dy = _RAY_VECTOR[d]
                if dx != 0:
                    x2 = POS if dx > 0 else NEG
                    if r.ylo < origin[1] < r.yhi:
                        lo, hi = (origin[0], x2) if dx > 0 else (x2, origin[0])
                        if max(lo, r.xlo) < min(hi, r.xhi):  # type: ignore[arg-type]
                            return False
                else:
                    y2 = POS if dy > 0 else NEG
                    if r.xlo < origin[0] < r.xhi:
                        lo, hi = (origin[1], y2) if dy > 0 else (y2, origin[1])
                        if max(lo, r.ylo) < min(hi, r.yhi):  # type: ignore[arg-type]
                            return False
        return True

    # ------------------------------------------------------------------
    def crossings_with_vline(self, x: int) -> list[Point]:
        """Integral points where the vertical line at ``x`` meets the chain
        (endpoints of the meeting segment; 1 or 2 points, possibly none)."""
        lo, hi = self.line_crossings(True, [x])
        return [(x, int(y)) for y in (lo[0], hi[0]) if y == y]

    def crossings_with_hline(self, y: int) -> list[Point]:
        lo, hi = self.line_crossings(False, [y])
        return [(int(x), y) for x in (lo[0], hi[0]) if x == x]

    def clip_points_to_bbox(
        self, xlo: int, ylo: int, xhi: int, yhi: int
    ) -> list[Point]:
        """Corner points of the chain inside the closed box."""
        return [
            p
            for p in self.pts
            if xlo <= p[0] <= xhi and ylo <= p[1] <= yhi
        ]

    # ------------------------------------------------------------------
    def arc_dist(self, p: Point, q: Point) -> int:
        """Length along the staircase between two of its points.

        A staircase is monotone in both axes, so the along-chain distance
        *is* the L1 distance (this is the "staircases are shortest paths"
        fact of §2 that the single-intersection shortcut argument uses)."""
        return dist(p, q)

    def subchain(self, p: Point, q: Point) -> list[Point]:
        """Corner list of the portion of the chain between two on-chain
        points, inclusive, ordered from ``p`` to ``q``."""
        a, b = (p, q) if (p[0], p[1]) <= (q[0], q[1]) else (q, p)
        lo = min(a[0], b[0])
        hi = max(a[0], b[0])
        mid = [pt for pt in self.pts if lo <= pt[0] <= hi]
        chain = _drop_collinear(_dedupe([a] + [m for m in mid if self._between(a, m, b)] + [b]))
        if chain[0] != p:
            chain.reverse()
        return chain

    def _between(self, a: Point, m: Point, b: Point) -> bool:
        if self.increasing:
            return a[1] <= m[1] <= b[1] or b[1] <= m[1] <= a[1]
        return min(a[1], b[1]) <= m[1] <= max(a[1], b[1])

    # ------------------------------------------------------------------
    def transform(self, t: Transform) -> "Staircase":
        """Map through a symmetry; re-canonicalise orientation and rays."""
        newpts = [t.apply(p) for p in self.pts]
        ldir = _map_dir(self.left_dir, t)
        rdir = _map_dir(self.right_dir, t)
        if len(newpts) > 1 and (
            newpts[0][0] > newpts[-1][0]
            or (newpts[0][0] == newpts[-1][0] and _dir_is_left(rdir))
        ):
            newpts.reverse()
            ldir, rdir = rdir, ldir
        elif len(newpts) == 1 and _dir_is_left(rdir) and not _dir_is_left(ldir):
            ldir, rdir = rdir, ldir
        inc = _infer_increasing(newpts, ldir, rdir, self.increasing, t)
        return Staircase(tuple(newpts), inc, ldir, rdir)

    def __iter__(self):
        return iter(self.pts)

    def __len__(self) -> int:
        return len(self.pts)


def _map_dir(d: Optional[str], t: Transform) -> Optional[str]:
    if d is None:
        return None
    vx, vy = _RAY_VECTOR[d]
    vx, vy = t.sx * vx, t.sy * vy
    if t.swap:
        vx, vy = vy, vx
    for name, vec in _RAY_VECTOR.items():
        if vec == (vx, vy):
            return name
    raise AssertionError


def _dir_is_left(d: Optional[str]) -> bool:
    return d == "W"


def _infer_increasing(
    pts: list[Point],
    ldir: Optional[str],
    rdir: Optional[str],
    old_inc: bool,
    t: Transform,
) -> bool:
    for a, b in zip(pts, pts[1:]):
        if b[1] > a[1]:
            return True
        if b[1] < a[1]:
            return False
    # No y extent in the chain; infer from rays, else from the transform's
    # effect on the original label.
    if ldir == "S" or rdir == "N":
        return True
    if ldir == "N" or rdir == "S":
        return False
    flips = (t.sx < 0) != (t.sy < 0)
    return old_inc != flips
