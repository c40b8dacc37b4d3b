"""Path tracing: the eight ``XY(p)``/``YX(p)`` paths (§3, Lemma 6, Fig. 5).

An ``XY(p)`` path starts at ``p``, travels in its *primary* direction
whenever it can, and slides along obstacle boundaries in its *detour*
direction to get around them.  The paper computes all eight families as
forests (parent pointers from obstacle to obstacle through trapezoidal
segments) and extracts explicit paths with the Euler-tour technique; we
build the same forests on top of :class:`RayShooter` and meter the
extraction with the paper's cost profile.

Key invariant (Lemma 12, proved here as a test property): an ``X(p)`` path
crosses any clear staircase at most once, because one of its two segment
classes runs along obstacle boundaries.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import GeometryError
from repro.geometry.primitives import Point, Rect
from repro.geometry.rayshoot import RayShooter
from repro.geometry.staircase import Staircase
from repro.pram.machine import PRAM, ambient

#: mode name -> (primary direction, detour direction)
MODES: dict[str, tuple[str, str]] = {
    "NE": ("N", "E"),
    "NW": ("N", "W"),
    "SE": ("S", "E"),
    "SW": ("S", "W"),
    "EN": ("E", "N"),
    "ES": ("E", "S"),
    "WN": ("W", "N"),
    "WS": ("W", "S"),
}

#: a forest parent not yet computed (``None`` means "escapes")
_UNSHOT = -1


def _resume_corner(r: Rect, primary: str, detour: str) -> Point:
    """Corner of ``r`` where the path resumes its primary direction: the
    endpoint, extreme in the detour direction, of the face the path hit."""
    if primary == "N":
        return (r.xhi, r.ylo) if detour == "E" else (r.xlo, r.ylo)
    if primary == "S":
        return (r.xhi, r.yhi) if detour == "E" else (r.xlo, r.yhi)
    if primary == "E":
        return (r.xlo, r.yhi) if detour == "N" else (r.xlo, r.ylo)
    if primary == "W":
        return (r.xhi, r.yhi) if detour == "N" else (r.xhi, r.ylo)
    raise GeometryError(f"bad primary {primary!r}")


class TracedPath:
    """An explicit ``X(p)`` path: finite corners plus the escape ray.

    ``points`` starts at the origin ``p``; ``ray_dir`` is the direction of
    the final semi-infinite segment (always the mode's primary direction).
    """

    __slots__ = ("mode", "points", "ray_dir")

    def __init__(self, mode: str, points: list[Point], ray_dir: str) -> None:
        self.mode = mode
        self.points = points
        self.ray_dir = ray_dir

    @property
    def origin(self) -> Point:
        return self.points[0]

    @property
    def size(self) -> int:
        """Number of segments, counting the final ray."""
        return len(self.points)  # len-1 finite segments + 1 ray

    def __repr__(self) -> str:  # pragma: no cover
        return f"TracedPath({self.mode}, {self.points[:3]}...x{len(self.points)})"


class TraceForests:
    """The eight tracing forests over one obstacle set (Lemma 6).

    ``parents(mode)[i]`` is the obstacle the path runs into after rounding
    obstacle ``i`` (None when it escapes to infinity) — the forest the
    paper builds from the trapezoidal decomposition of [4].
    """

    def __init__(self, rects: Sequence[Rect], pram: Optional[PRAM] = None) -> None:
        pram = pram or ambient()
        self.rects = list(rects)
        n = len(self.rects)
        self.shooter = RayShooter(self.rects)
        # segment-tree construction: O(log n) time, O(n log n) work
        pram.charge(time=pram.log2ceil(n or 1), work=4 * n * pram.log2ceil(n or 1), width=4 * n)
        # one ray shot per obstacle and mode (charged here, as Lemma 6
        # builds every forest); a parent is shot on first use, so a
        # caller that follows two traces pays for those paths only
        self._parents: dict[str, list[Optional[int]]] = {}
        for mode in MODES:
            pram.step(n)
            self._parents[mode] = [_UNSHOT] * n

    def _parent(self, mode: str, i: int) -> Optional[int]:
        row = self._parents[mode]
        cur = row[i]
        if cur == _UNSHOT:
            primary, detour = MODES[mode]
            hit = self.shooter.shoot(_resume_corner(self.rects[i], primary, detour), primary)
            cur = row[i] = None if hit is None else hit.rect_index
        return cur

    def parents(self, mode: str) -> list[Optional[int]]:
        return [self._parent(mode, i) for i in range(len(self.rects))]

    # ------------------------------------------------------------------
    def trace(self, p: Point, mode: str, pram: Optional[PRAM] = None) -> TracedPath:
        """The explicit ``mode(p)`` path.

        Executed by chasing forest parents (each obstacle is visited at
        most once — the detour coordinate is strictly monotone); metered as
        the paper's Euler-tour extraction: O(log n) time, O(|path|) work.
        """
        pram = pram or ambient()
        try:
            primary, detour = MODES[mode]
        except KeyError:
            raise GeometryError(f"unknown trace mode {mode!r}") from None
        if any(r.contains_interior(p) for r in self.rects):
            raise GeometryError(f"cannot trace from {p}: inside an obstacle")
        pts: list[Point] = [p]
        # one ray shot attaches p to the forest; the rest of the path is the
        # root chain of parent pointers (Lemma 6's Euler-tour extraction)
        hit = self.shooter.shoot(p, primary)
        axis = 0 if primary in ("N", "S") else 1
        cur: Optional[int] = None if hit is None else hit.rect_index
        prev_corner: Point = p
        guard = 0
        while cur is not None:
            guard += 1
            if guard > len(self.rects) + 1:  # pragma: no cover
                raise GeometryError("tracing failed to terminate")
            r = self.rects[cur]
            corner = _resume_corner(r, primary, detour)
            entry = _entry_point(prev_corner, corner, axis)
            if entry != pts[-1]:
                pts.append(entry)
            if corner != pts[-1]:
                pts.append(corner)
            prev_corner = corner
            cur = self._parent(mode, cur)
        pram.charge(time=pram.log2ceil(len(self.rects) or 1), work=max(1, len(pts)))
        return TracedPath(mode, pts, primary)

    def all_vertex_paths(self, mode: str, pram: Optional[PRAM] = None) -> dict[Point, TracedPath]:
        """Explicit paths from every obstacle vertex — the §6.1
        pre-processing (O(n²) work in the worst case, as in the paper)."""
        out: dict[Point, TracedPath] = {}
        for r in self.rects:
            for v in r.vertices:
                if v not in out:
                    out[v] = self.trace(v, mode, pram)
        return out


def _entry_point(prev_corner: Point, corner: Point, axis: int) -> Point:
    """Where the primary run from ``prev_corner`` meets the obstacle whose
    resume corner is ``corner``: it shares ``axis`` with the start and the
    other coordinate with the obstacle face (= the corner)."""
    if axis == 0:  # vertical primary: keep x, adopt the face's y
        return (prev_corner[0], corner[1])
    return (corner[0], prev_corner[1])


def trace_heading(mode: str) -> str:
    """The quadrant an ``X(p)`` path heads toward: x moves with whichever
    of (primary, detour) is horizontal, y with the vertical one."""
    primary, detour = MODES[mode]
    xd = primary if primary in ("E", "W") else detour
    yd = primary if primary in ("N", "S") else detour
    return yd + xd  # e.g. 'SW', 'NE'


def combine_traces(path_a: TracedPath, path_b: TracedPath) -> Staircase:
    """Glue two opposite-heading traces from a common origin into one
    unbounded staircase (the separator shapes of Theorem 2:
    ``NE(p) ∪ SW(p)``, ``EN(p) ∪ WS(p)`` and their reflections).

    The two traces must head into opposite quadrants: SW+NE gives an
    increasing separator, NW+SE a decreasing one.
    """
    if path_a.origin != path_b.origin:
        raise GeometryError("traces do not share an origin")
    ha, hb = trace_heading(path_a.mode), trace_heading(path_b.mode)
    headings = {ha, hb}
    if headings == {"SW", "NE"}:
        increasing = True
    elif headings == {"NW", "SE"}:
        increasing = False
    else:
        raise GeometryError(f"traces head {ha}/{hb}: not opposite quadrants")
    lo, hi = (path_a, path_b) if ha in ("SW", "NW") else (path_b, path_a)
    chain = list(reversed(lo.points)) + hi.points[1:]
    return Staircase(tuple(chain), increasing, lo.ray_dir, hi.ray_dir)
