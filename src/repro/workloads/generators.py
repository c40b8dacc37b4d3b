"""Random scene generators.

All generators produce pairwise-disjoint rectangles with globally distinct
edge coordinates (the paper's general-position assumption, §1), are fully
deterministic given a seed, and scale the world with ``n`` so that density
stays roughly constant across a sweep — which is what makes the measured
scaling exponents in ``benchmarks/results/`` meaningful.

Modes
-----
``uniform``    rectangles scattered uniformly (the default benchmark load)
``clustered``  a few dense clusters — stresses separator balance
``stacked``    tall skinny towers in rows — stresses the crossing counts of
               Theorem 2's median lines
``aspect``     extreme aspect ratios — stresses tracing and ray shooting
``grid``       perturbed regular grid — the wire-layout workload the paper's
               introduction motivates (circuit macros)
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence

from repro.errors import GeometryError
from repro.geometry.polygon import RectilinearPolygon
from repro.geometry.primitives import Point, Rect, bbox_of_rects

WORKLOAD_MODES = ("uniform", "clustered", "stacked", "aspect", "grid")


class _CoordPool:
    """Hands out globally distinct coordinates near requested values."""

    def __init__(self) -> None:
        self.used_x: set[int] = set()
        self.used_y: set[int] = set()

    def take_x(self, v: int) -> int:
        while v in self.used_x:
            v += 1
        self.used_x.add(v)
        return v

    def take_y(self, v: int) -> int:
        while v in self.used_y:
            v += 1
        self.used_y.add(v)
        return v


def random_disjoint_rects(
    n: int,
    seed: int = 0,
    mode: str = "uniform",
    world: Optional[int] = None,
) -> list[Rect]:
    """Generate ``n`` disjoint rectangles with distinct edge coordinates."""
    if mode not in WORKLOAD_MODES:
        raise GeometryError(f"unknown workload mode {mode!r}")
    rng = random.Random(f"{seed}|{mode}|{n}")  # str seed: stable across processes
    world = world or max(64, 32 * n)
    pool = _CoordPool()
    placed: list[Rect] = []
    grid: dict[tuple[int, int], list[int]] = {}
    cell = max(world // max(1, int(n**0.5) * 2), 4)

    def cells_of(r: Rect) -> Iterable[tuple[int, int]]:
        for cx in range(r.xlo // cell, r.xhi // cell + 1):
            for cy in range(r.ylo // cell, r.yhi // cell + 1):
                yield (cx, cy)

    def collides(r: Rect) -> bool:
        seen: set[int] = set()
        for c in cells_of(r):
            for idx in grid.get(c, ()):
                if idx in seen:
                    continue
                seen.add(idx)
                if r.interiors_intersect(placed[idx]):
                    return True
        return False

    def commit(r: Rect) -> None:
        placed.append(r)
        for c in cells_of(r):
            grid.setdefault(c, []).append(len(placed) - 1)

    centers: list[Point] = []
    if mode == "clustered":
        k = max(2, n // 12)
        centers = [
            (rng.randrange(world // 8, 7 * world // 8), rng.randrange(world // 8, 7 * world // 8))
            for _ in range(k)
        ]
    attempts = 0
    max_attempts = 400 * n + 1000
    side = max(2, world // max(2, int(n**0.5) * 3))
    gi = 0
    gcols = max(1, int(n**0.5))
    while len(placed) < n:
        attempts += 1
        if attempts > max_attempts:
            raise GeometryError(
                f"could not place {n} rects in world {world} after {attempts} tries"
            )
        if mode == "uniform":
            w = rng.randint(1, side)
            h = rng.randint(1, side)
            x = rng.randrange(0, world - w)
            y = rng.randrange(0, world - h)
        elif mode == "clustered":
            cx, cy = rng.choice(centers)
            spread = world // 6
            w = rng.randint(1, max(2, side // 2))
            h = rng.randint(1, max(2, side // 2))
            x = cx + rng.randint(-spread, spread)
            y = cy + rng.randint(-spread, spread)
        elif mode == "stacked":
            w = rng.randint(1, max(2, side // 3))
            h = rng.randint(side, 3 * side)
            x = rng.randrange(0, world - w)
            y = rng.randrange(0, max(1, world - h))
        elif mode == "aspect":
            if rng.random() < 0.5:
                w = rng.randint(side, 4 * side)
                h = rng.randint(1, max(2, side // 4))
            else:
                w = rng.randint(1, max(2, side // 4))
                h = rng.randint(side, 4 * side)
            x = rng.randrange(0, max(1, world - w))
            y = rng.randrange(0, max(1, world - h))
        else:  # grid
            col, row = gi % gcols, gi // gcols
            gi += 1
            pitch = world // (gcols + 1)
            w = rng.randint(pitch // 3, max(pitch // 3 + 1, 2 * pitch // 3))
            h = rng.randint(pitch // 3, max(pitch // 3 + 1, 2 * pitch // 3))
            x = col * pitch + rng.randint(0, pitch // 4)
            y = row * pitch + rng.randint(0, pitch // 4)
        x = max(0, min(x, world - 2))
        y = max(0, min(y, world - 2))
        # distinct-coordinate snapping: x direction then width, same for y
        xlo = pool.take_x(x)
        xhi = pool.take_x(xlo + max(1, w))
        ylo = pool.take_y(y)
        yhi = pool.take_y(ylo + max(1, h))
        r = Rect(xlo, ylo, xhi, yhi)
        if collides(r):
            pool.used_x.discard(xlo)
            pool.used_x.discard(xhi)
            pool.used_y.discard(ylo)
            pool.used_y.discard(yhi)
            continue
        commit(r)
    return placed


def random_free_points(
    rects: Sequence[Rect], k: int, seed: int = 0, margin: int = 5
) -> list[Point]:
    """``k`` distinct points outside all obstacle interiors (query points)."""
    rng = random.Random(f"fp|{seed}|{k}|{len(rects)}")
    xlo, ylo, xhi, yhi = bbox_of_rects(rects) if rects else (0, 0, 64, 64)
    out: list[Point] = []
    seen: set[Point] = set()
    attempts = 0
    while len(out) < k:
        attempts += 1
        if attempts > 10000 * (k + 1):
            raise GeometryError("could not sample free points")
        p = (
            rng.randint(xlo - margin, xhi + margin),
            rng.randint(ylo - margin, yhi + margin),
        )
        if p in seen or any(r.contains_interior(p) for r in rects):
            continue
        seen.add(p)
        out.append(p)
    return out


def random_container_polygon(
    rects: Sequence[Rect], seed: int = 0, margin: int = 6, steps: int = 3
) -> RectilinearPolygon:
    """A random rectilinear *convex* polygon strictly containing the scene.

    Built from unimodal top/bottom boundary walks over the padded bounding
    box, with up to ``steps`` staircase notches per corner.
    """
    rng = random.Random(f"poly|{seed}|{len(rects)}")
    xlo, ylo, xhi, yhi = bbox_of_rects(rects)
    xlo -= margin
    ylo -= margin
    xhi += margin
    yhi += margin
    w = xhi - xlo

    def corner_steps() -> list[tuple[int, int]]:
        k = rng.randint(0, steps)
        xs = sorted(rng.sample(range(1, max(2, w // 4)), min(k, max(1, w // 4 - 1))))
        ys = sorted(rng.sample(range(1, margin), min(len(xs), margin - 1)))
        return list(zip(xs, ys[: len(xs)]))

    # Top boundary, west to east: rises by the NW notches, flat across,
    # falls by the NE notches; bottom is symmetric.  Notches stay within
    # `margin`, so the polygon still contains every obstacle.
    top: list[Point] = [(xlo, yhi - margin + 1)]
    for dx, dy in corner_steps():
        top.append((xlo + dx, top[-1][1]))
        top.append((xlo + dx, yhi - margin + 1 + dy))
    top.append((top[-1][0], yhi))
    top.append((xhi - w // 3, yhi))
    ne: list[Point] = [(xhi, yhi - margin + 1)]
    for dx, dy in corner_steps():
        ne.append((xhi - dx, ne[-1][1]))
        ne.append((xhi - dx, yhi - margin + 1 + dy))
    ne.reverse()
    top.extend([(p[0], p[1]) for p in ne])
    bottom: list[Point] = [(xlo, ylo + margin - 1)]
    for dx, dy in corner_steps():
        bottom.append((xlo + dx, bottom[-1][1]))
        bottom.append((xlo + dx, ylo + margin - 1 - dy))
    bottom.append((bottom[-1][0], ylo))
    bottom.append((xhi - w // 3, ylo))
    se: list[Point] = [(xhi, ylo + margin - 1)]
    for dx, dy in corner_steps():
        se.append((xhi - dx, se[-1][1]))
        se.append((xhi - dx, ylo + margin - 1 - dy))
    se.reverse()
    bottom.extend([(p[0], p[1]) for p in se])
    loop = _loop_from_walks(top, bottom)
    return RectilinearPolygon(loop)


def staircase_container(
    rects: Sequence[Rect], steps: int = 8, margin: int = 12
) -> RectilinearPolygon:
    """A convex container with ~8·steps boundary vertices (for §7's N ≫ n).

    The boundary climbs in unit staircase steps at each corner, staying
    convex (unimodal profiles) and keeping every obstacle strictly inside.
    """
    xlo, ylo, xhi, yhi = bbox_of_rects(rects)
    xlo -= margin
    ylo -= margin
    xhi += margin
    yhi += margin
    w = xhi - xlo
    s = max(1, min(steps, margin - 2, w // 2 - 2))

    def profile(y_flat: int, y_edge: int, rise: int) -> list[Point]:
        """West→east unimodal walk from height y_edge up to y_flat and back."""
        pts: list[Point] = [(xlo, y_edge)]
        x, y = xlo, y_edge
        for _ in range(s):
            x += 1
            pts.append((x, y))
            y += rise
            pts.append((x, y))
        pts.append((xhi - s, y))
        x2, y2 = xhi - s, y
        for _ in range(s):
            x2 += 1
            pts.append((x2, y2))
            y2 -= rise
            pts.append((x2, y2))
        if pts[-1] != (xhi, y_edge):
            pts.append((xhi, y_edge))
        return pts

    top = profile(yhi, yhi - s, rise=1)
    bottom = profile(ylo, ylo + s, rise=-1)
    return RectilinearPolygon(_loop_from_walks(top, bottom))


# ----------------------------------------------------------------------
# polygonal-obstacle generators (decomposed by the engines via
# repro.geometry.decompose; every family exercises different seam shapes)

POLYGON_KINDS = ("staircase", "plus", "spiral", "blob")


def staircase_polygon(
    x0: int = 0, y0: int = 0, steps: int = 3, run: int = 3, rise: int = 3,
    thickness: int = 4,
) -> RectilinearPolygon:
    """An ascending staircase band: ``steps`` treads of ``run × rise``,
    extruded ``thickness`` upward.  Decomposes into one tile per tread
    with a seam at every riser.  ``thickness`` is clamped above ``rise``:
    a band no thicker than its risers pinches into a non-simple loop."""
    thickness = max(max(1, thickness), max(1, rise) + 1)
    lower: list[Point] = [(x0, y0)]
    x, y = x0, y0
    for _ in range(max(1, steps)):
        x += max(1, run)
        lower.append((x, y))
        y += max(1, rise)
        lower.append((x, y))
    x += max(1, run)
    lower.append((x, y))
    upper = [(px, py + max(1, thickness)) for px, py in lower]
    loop = lower + list(reversed(upper))
    return RectilinearPolygon(loop)


def plus_polygon(
    cx: int = 0, cy: int = 0, arm: int = 4, thick: int = 2
) -> RectilinearPolygon:
    """A plus/cross shape centred at ``(cx, cy)``: the classic seam-shortcut
    witness (its decomposition's middle chords must not be traversable)."""
    a, t = max(1, arm), max(1, thick)
    return RectilinearPolygon(
        [
            (cx - t, cy - a), (cx + t, cy - a), (cx + t, cy - t),
            (cx + a, cy - t), (cx + a, cy + t), (cx + t, cy + t),
            (cx + t, cy + a), (cx - t, cy + a), (cx - t, cy + t),
            (cx - a, cy + t), (cx - a, cy - t), (cx - t, cy - t),
        ]
    )


def spiral_polygon(x0: int = 0, y0: int = 0, scale: int = 1) -> RectilinearPolygon:
    """A rectilinear spiral (non-x-monotone, genuinely non-convex): a
    corridor winding ~1.5 turns around a free courtyard."""
    s = max(1, scale)
    rel = [
        (0, 0), (10, 0), (10, 10), (2, 10), (2, 4), (4, 4),
        (4, 8), (8, 8), (8, 2), (0, 2),
    ]
    return RectilinearPolygon([(x0 + s * x, y0 + s * y) for x, y in rel])


def random_blob_polygon(
    seed: int = 0, cols: int = 5, x0: int = 0, y0: int = 0,
    col_w: int = 4, height: int = 9, jitter: int = 3,
) -> RectilinearPolygon:
    """A random orthogonal blob: a histogram with jittered top *and*
    bottom walks (x-monotone, usually non-convex, hole-free by
    construction; consecutive columns always overlap by ≥ 1)."""
    rng = random.Random(f"pblob|{seed}|{cols}|{col_w}|{height}|{jitter}")
    cols = max(2, cols)
    bots = [y0]
    tops = [y0 + max(2, height)]
    for _ in range(cols - 1):
        pb, pt = bots[-1], tops[-1]
        b = pb + rng.randint(-jitter, jitter)
        t = pt + rng.randint(-jitter, jitter)
        # keep the column non-degenerate and overlapping its neighbour
        b = min(b, pt - 1)
        t = max(t, pb + 1)
        if t - b < 2:
            t = b + 2
        bots.append(b)
        tops.append(t)
    xs = [x0 + i * max(2, col_w) for i in range(cols + 1)]
    lower: list[Point] = []
    for i in range(cols):
        lower += [(xs[i], bots[i]), (xs[i + 1], bots[i])]
    upper: list[Point] = []
    for i in range(cols):
        upper += [(xs[i], tops[i]), (xs[i + 1], tops[i])]
    loop = lower + list(reversed(upper))
    # equal neighbouring columns leave duplicate corners; the polygon
    # constructor rejects zero edges, so drop consecutive repeats here
    dedup: list[Point] = []
    for p in loop:
        if not dedup or dedup[-1] != p:
            dedup.append(p)
    return RectilinearPolygon(dedup)


def _make_polygon(kind: str, seed: int) -> RectilinearPolygon:
    rng = random.Random(f"poly|{kind}|{seed}")
    if kind == "staircase":
        return staircase_polygon(
            steps=rng.randint(2, 4), run=rng.randint(2, 4),
            rise=rng.randint(2, 4), thickness=rng.randint(2, 5),
        )
    if kind == "plus":
        t = rng.randint(1, 3)
        return plus_polygon(arm=t + rng.randint(2, 5), thick=t)
    if kind == "spiral":
        return spiral_polygon(scale=rng.randint(1, 2))
    if kind == "blob":
        return random_blob_polygon(
            seed=seed, cols=rng.randint(3, 6), col_w=rng.randint(2, 4),
            height=rng.randint(6, 10), jitter=rng.randint(1, 4),
        )
    raise GeometryError(f"unknown polygon kind {kind!r}")


def _translate_loop(poly: RectilinearPolygon, dx: int, dy: int) -> RectilinearPolygon:
    return RectilinearPolygon([(x + dx, y + dy) for x, y in poly.loop])


def random_polygon_scene(
    n_polygons: int = 2,
    n_rects: int = 3,
    seed: int = 0,
    kinds: Sequence[str] = POLYGON_KINDS,
    world: Optional[int] = None,
    gap: int = 1,
):
    """A mixed obstacle scene: ``n_polygons`` random polygonal obstacles
    plus ``n_rects`` plain rectangles, pairwise disjoint (polygons are
    placed with bbox clearance ``gap``).  Returns the obstacle list in
    placement order — feed it straight to ``ShortestPathIndex.build``."""
    rng = random.Random(f"pscene|{seed}|{n_polygons}|{n_rects}")
    world = world or max(48, 26 * (n_polygons + 1) + 8 * n_rects)
    placed_boxes: list[tuple[int, int, int, int]] = []

    def box_free(b, pad: int) -> bool:
        for o in placed_boxes:
            if (
                b[0] - pad <= o[2]
                and o[0] <= b[2] + pad
                and b[1] - pad <= o[3]
                and o[1] <= b[3] + pad
            ):
                return False
        return True

    obstacles: list = []
    attempts = 0
    while len(obstacles) < n_polygons:
        attempts += 1
        if attempts > 200 * (n_polygons + 1):
            raise GeometryError(f"could not place {n_polygons} polygons")
        proto = _make_polygon(
            kinds[rng.randrange(len(kinds))], seed * 1009 + attempts
        )
        xlo, ylo, xhi, yhi = proto.bbox
        dx = rng.randint(0, max(1, world - (xhi - xlo))) - xlo
        dy = rng.randint(0, max(1, world - (yhi - ylo))) - ylo
        box = (xlo + dx, ylo + dy, xhi + dx, yhi + dy)
        if not box_free(box, gap):
            continue
        placed_boxes.append(box)
        obstacles.append(_translate_loop(proto, dx, dy))
    placed_rects = 0
    while placed_rects < n_rects:
        attempts += 1
        if attempts > 500 * (n_polygons + n_rects + 1):
            raise GeometryError(f"could not place {n_rects} rects")
        w = rng.randint(1, 6)
        h = rng.randint(1, 6)
        x = rng.randint(0, max(1, world - w))
        y = rng.randint(0, max(1, world - h))
        box = (x, y, x + w, y + h)
        if not box_free(box, gap):
            continue
        placed_boxes.append(box)
        obstacles.append(Rect(x, y, x + w, y + h))
        placed_rects += 1
    return obstacles


def _loop_from_walks(top: list[Point], bottom: list[Point]) -> list[Point]:
    """Stitch monotone top/bottom walks into a CCW loop, fixing stair joins."""
    out: list[Point] = []
    for p in bottom:
        if not out or out[-1] != p:
            if out and out[-1][0] != p[0] and out[-1][1] != p[1]:
                out.append((p[0], out[-1][1]))
            out.append(p)
    for p in reversed(top):
        if out[-1] != p:
            if out[-1][0] != p[0] and out[-1][1] != p[1]:
                out.append((out[-1][0], p[1]))
            out.append(p)
    first = out[0]
    if out[-1] != first and out[-1][0] != first[0] and out[-1][1] != first[1]:
        out.append((first[0], out[-1][1]))
    if out[-1] == first:
        out.pop()
    return out
