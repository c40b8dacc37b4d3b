"""Ground-truth oracle and comparison baselines.

``GridOracle`` runs Dijkstra on the Hanan grid — trivially correct, exact
integer arithmetic, and the reference every engine in this repository is
validated against.  It also serves as the ``O(n² log n)``-ish *repeated
single-source* baseline of experiment E6 (the approach the paper's §1
credits to de Rezende–Lee–Wu [11] when applied once per source).
"""

from __future__ import annotations

from collections import OrderedDict
from heapq import heappop, heappush
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.errors import QueryError
from repro.geometry.hanan import HananGraph, hanan_graph
from repro.geometry.primitives import Point, Rect

try:  # scipy is optional: the CSR heapq fallback below is exact too
    from scipy.sparse import csr_matrix as _scipy_csr
    from scipy.sparse.csgraph import dijkstra as _scipy_dijkstra

    _HAVE_SCIPY = True
except ImportError:  # pragma: no cover - exercised only without scipy
    _HAVE_SCIPY = False

INF = float("inf")

#: default bound on the per-oracle SSSP row cache (rows, not bytes); long
#: oracle-validation sweeps touch thousands of sources and must not hold
#: every distance field alive
DEFAULT_CACHE_CAP = 1024


def _csr_sssp(
    indptr: np.ndarray, indices: np.ndarray, weights: np.ndarray, n: int, src: int
) -> np.ndarray:
    """Single-source Dijkstra over CSR arrays (no scipy needed)."""
    dist = np.full(n, INF)
    dist[src] = 0.0
    heap: list[tuple[float, int]] = [(0.0, src)]
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue
        for e in range(indptr[u], indptr[u + 1]):
            v = indices[e]
            nd = d + weights[e]
            if nd < dist[v]:
                dist[v] = nd
                heappush(heap, (nd, v))
    return dist


class GridOracle:
    """Exact shortest-path-length oracle over a fixed scene.

    All query points must be supplied at construction time (they become
    grid lines).  Distances are exact integers; unreachable pairs get
    ``math.inf`` (possible only when obstacles fully enclose a point —
    legal scenes in this library never do, but the oracle stays total).
    """

    def __init__(
        self,
        rects: Sequence[Rect],
        points: Iterable[Point] = (),
        cache_cap: int = DEFAULT_CACHE_CAP,
        seams: Sequence = (),
        container=None,
    ) -> None:
        self.rects = list(rects)
        self.extra = list(points)
        self.seams = list(seams)
        self.container = container
        self.graph: HananGraph = hanan_graph(self.rects, self.extra, seams=self.seams)
        self.cache_cap = max(1, cache_cap)
        self._dist_cache: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._link_masks: Optional[tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    def _cache_put(self, src_id: int, dist: np.ndarray) -> None:
        cache = self._dist_cache
        cache[src_id] = dist
        cache.move_to_end(src_id)
        while len(cache) > self.cache_cap:
            cache.popitem(last=False)

    def _solve_rows(self, src_ids: Sequence[int]) -> dict[int, np.ndarray]:
        """Distance rows for the given sources, batch-solving all misses.

        Cached rows are reused; the misses are solved together — one
        multi-source ``scipy.sparse.csgraph.dijkstra`` over the grid's CSR
        arrays (or the CSR heapq fallback without scipy) — instead of one
        Python-level SSSP per source.
        """
        cache = self._dist_cache
        rows: dict[int, np.ndarray] = {}
        missing: list[int] = []
        for s in dict.fromkeys(src_ids):
            hit = cache.get(s)
            if hit is not None:
                cache.move_to_end(s)
                rows[s] = hit
            else:
                missing.append(s)
        if missing:
            indptr, indices, weights = self.graph.csr()
            n = self.graph.num_nodes
            if _HAVE_SCIPY:
                mat = _scipy_csr((weights, indices, indptr), shape=(n, n))
                block = np.atleast_2d(
                    _scipy_dijkstra(mat, directed=True, indices=missing)
                )
            else:
                block = np.vstack(
                    [_csr_sssp(indptr, indices, weights, n, s) for s in missing]
                )
            for i, s in enumerate(missing):
                # copy: caching a view of `block` would pin the whole
                # (missing × nodes) buffer alive past LRU eviction
                row = np.array(block[i])
                rows[s] = row
                self._cache_put(s, row)
        return rows

    def _sssp_block(self, src_ids: Sequence[int]) -> np.ndarray:
        if not src_ids:
            return np.empty((0, self.graph.num_nodes))
        rows = self._solve_rows(src_ids)
        return np.vstack([rows[s] for s in src_ids])

    def _sssp(self, src_id: int) -> np.ndarray:
        return self._solve_rows([src_id])[src_id]

    # ------------------------------------------------------------------
    def dist(self, p: Point, q: Point) -> float:
        """Exact rectilinear obstacle-avoiding distance between two of the
        registered points."""
        try:
            pid = self.graph.node_id(p)
            qid = self.graph.node_id(q)
        except Exception as exc:  # noqa: BLE001 - reraise with context
            raise QueryError(
                f"oracle can only answer registered points: {exc}"
            ) from exc
        d = self._sssp(pid)[qid]
        return int(d) if d != INF else INF

    def dist_matrix(
        self, points: Sequence[Point], targets: Optional[Sequence[Point]] = None
    ) -> np.ndarray:
        """Distance block ``points × targets`` (all-pairs when ``targets``
        is omitted), built with one batched multi-source Dijkstra."""
        ids = [self.graph.node_id(p) for p in points]
        tids = ids if targets is None else [self.graph.node_id(q) for q in targets]
        return self._sssp_block(ids)[:, tids]

    def path(self, p: Point, q: Point) -> list[Point]:
        """One shortest path as a corner polyline (greedy descent on the
        distance field)."""
        g = self.graph
        pid, qid = g.node_id(p), g.node_id(q)
        dq = self._sssp(qid)
        if dq[pid] == INF:
            raise QueryError(f"{p} and {q} are disconnected")
        nodes = [pid]
        cur = pid
        while cur != qid:
            for v, w in g.neighbors(cur):
                if dq[v] == dq[cur] - w:
                    cur = v
                    break
            else:  # pragma: no cover - would indicate a broken field
                raise QueryError("stuck while descending distance field")
            nodes.append(cur)
        pts = [g.node_point(nid) for nid in nodes]
        return _compress_collinear(pts)

    # -- min-link / bicriteria reference -------------------------------
    # The differential reference for repro.links: independent of the
    # layered DP, this walks (node, incoming-direction) states with
    # scalar Dijkstra / label-correcting loops.  `container` blocks every
    # grid edge with an endpoint outside P — rectilinear convexity makes
    # the endpoint test exact — because grazing outside P can save a
    # bend even though it never saves length.

    def _link_edge_masks(self) -> tuple[np.ndarray, np.ndarray]:
        if self._link_masks is None:
            bh, bv = self.graph.block_h, self.graph.block_v
            if self.container is not None:
                g = self.graph
                inside = np.empty((len(g.ys), len(g.xs)), dtype=bool)
                for yi, y in enumerate(g.ys):
                    for xi, x in enumerate(g.xs):
                        inside[yi, xi] = self.container.contains((x, y))
                bh = bh | ~inside[:, :-1] | ~inside[:, 1:]
                bv = bv | ~inside[:-1, :] | ~inside[1:, :]
            self._link_masks = (bh, bv)
        return self._link_masks

    def _link_neighbors(self, nid: int) -> Iterable[tuple[int, int, int]]:
        """(neighbor id, edge length, direction) triples; direction is
        0 = horizontal, 1 = vertical."""
        bh, bv = self._link_edge_masks()
        g = self.graph
        w = len(g.xs)
        xi, yi = nid % w, nid // w
        xs, ys = g.xs, g.ys
        if xi + 1 < w and not bh[yi, xi]:
            yield nid + 1, xs[xi + 1] - xs[xi], 0
        if xi > 0 and not bh[yi, xi - 1]:
            yield nid - 1, xs[xi] - xs[xi - 1], 0
        if yi + 1 < len(ys) and not bv[yi, xi]:
            yield nid + w, ys[yi + 1] - ys[yi], 1
        if yi > 0 and not bv[yi - 1, xi]:
            yield nid - w, ys[yi] - ys[yi - 1], 1

    def _link_node(self, p: Point) -> int:
        try:
            return self.graph.node_id(p)
        except Exception as exc:  # noqa: BLE001 - reraise with context
            raise QueryError(
                f"oracle can only answer registered points: {exc}"
            ) from exc

    def link_dist(self, p: Point, q: Point) -> tuple[float, float]:
        """``(links, length)`` of the lexicographically optimal path: the
        minimum number of maximal segments, and the minimum length among
        paths achieving it.  ``(inf, inf)`` when disconnected."""
        pid, qid = self._link_node(p), self._link_node(q)
        if pid == qid:
            return (0, 0)
        best: dict[tuple[int, int], tuple[float, float]] = {}
        heap: list[tuple[float, float, int, int]] = []
        for v, w, d in self._link_neighbors(pid):
            key = (1.0, float(w))
            if key < best.get((v, d), (INF, INF)):
                best[(v, d)] = key
                heappush(heap, (*key, v, d))
        while heap:
            segs, length, u, din = heappop(heap)
            if (segs, length) > best.get((u, din), (INF, INF)):
                continue
            for v, w, d in self._link_neighbors(u):
                key = (segs + (d != din), length + w)
                if key < best.get((v, d), (INF, INF)):
                    best[(v, d)] = key
                    heappush(heap, (*key, v, d))
        ans = min(
            best.get((qid, 0), (INF, INF)), best.get((qid, 1), (INF, INF))
        )
        return (int(ans[0]), int(ans[1])) if ans[0] != INF else (INF, INF)

    def link_pareto(self, p: Point, q: Point) -> list[tuple[float, float]]:
        """The full Pareto frontier of ``(length, links)`` pairs p → q,
        sorted by increasing links (strictly decreasing length), via
        label-correcting search over (node, direction) states."""
        pid, qid = self._link_node(p), self._link_node(q)
        if pid == qid:
            return [(0, 0)]
        from collections import deque

        labels: dict[tuple[int, int], list[tuple[float, float]]] = {}

        def insert(state: tuple[int, int], lab: tuple[float, float]) -> bool:
            cur = labels.setdefault(state, [])
            if any(s <= lab[0] and l <= lab[1] for s, l in cur):
                return False
            cur[:] = [c for c in cur if not (lab[0] <= c[0] and lab[1] <= c[1])]
            cur.append(lab)
            return True

        todo: "deque[tuple[tuple[int, int], tuple[float, float]]]" = deque()
        for v, w, d in self._link_neighbors(pid):
            lab = (1.0, float(w))
            if insert((v, d), lab):
                todo.append(((v, d), lab))
        while todo:
            (u, din), (segs, length) = todo.popleft()
            if (segs, length) not in labels.get((u, din), ()):
                continue  # dominated since enqueued
            for v, w, d in self._link_neighbors(u):
                lab = (segs + (d != din), length + w)
                if insert((v, d), lab):
                    todo.append(((v, d), lab))
        merged = list(labels.get((qid, 0), [])) + list(labels.get((qid, 1), []))
        frontier: list[tuple[float, float]] = []
        for segs, length in sorted(merged):
            if not frontier or length < frontier[-1][0]:
                frontier.append((int(length), int(segs)))
        return frontier


def _compress_collinear(pts: list[Point]) -> list[Point]:
    out = [pts[0]]
    for p in pts[1:]:
        if len(out) >= 2 and (
            (out[-2][0] == out[-1][0] == p[0]) or (out[-2][1] == out[-1][1] == p[1])
        ):
            out[-1] = p
        elif out[-1] != p:
            out.append(p)
    return out


def clear_l1_block(
    pts_a: Sequence[Point],
    pts_b: Sequence[Point],
    rects: Sequence[Rect],
    chunk: int = 1 << 22,
    seams: Sequence = (),
    dtype=np.float64,
) -> np.ndarray:
    """``L1(a, b)`` where one of the two extreme L-paths a→b is clear of
    every obstacle interior, ``+∞`` otherwise — fully vectorized.

    The two candidate paths are horizontal-then-vertical and
    vertical-then-horizontal; a degenerate (zero-length) segment never
    blocks.  ``seams`` (interior edges of polygon decompositions) block a
    *vertical* leg that overlaps them collinearly — horizontal legs can
    only cross a seam, which the rectangle tests already catch.  Chunked
    over rows so the temporaries stay bounded.  Coordinates are handled
    in float64; only the lengths are stored in ``dtype``.
    """
    a = np.asarray(pts_a, dtype=np.float64).reshape(-1, 2)
    b = np.asarray(pts_b, dtype=np.float64).reshape(-1, 2)
    na, nb = len(a), len(b)
    out = np.full((na, nb), INF, dtype=dtype)
    if na == 0 or nb == 0:
        return out
    step = max(1, chunk // max(1, nb))
    for lo in range(0, na, step):
        ax = a[lo : lo + step, 0][:, None]
        ay = a[lo : lo + step, 1][:, None]
        bx = b[None, :, 0]
        by = b[None, :, 1]
        xmin = np.minimum(ax, bx)
        xmax = np.maximum(ax, bx)
        ymin = np.minimum(ay, by)
        ymax = np.maximum(ay, by)
        hv_blocked = np.zeros(xmin.shape, dtype=bool)
        vh_blocked = np.zeros(xmin.shape, dtype=bool)
        for r in rects:
            x_span = (xmin < r.xhi) & (r.xlo < xmax)
            y_span = (ymin < r.yhi) & (r.ylo < ymax)
            hv_blocked |= ((r.ylo < ay) & (ay < r.yhi) & x_span) | (
                (r.xlo < bx) & (bx < r.xhi) & y_span
            )
            vh_blocked |= ((r.xlo < ax) & (ax < r.xhi) & y_span) | (
                (r.ylo < by) & (by < r.yhi) & x_span
            )
        for s in seams:
            y_overlap = (ymin < s.yhi) & (s.ylo < ymax)
            # hv: vertical leg at x = bx; vh: vertical leg at x = ax
            hv_blocked |= (bx == s.x) & y_overlap
            vh_blocked |= (ax == s.x) & y_overlap
        block = np.where(
            hv_blocked & vh_blocked, INF, (xmax - xmin) + (ymax - ymin)
        )
        out[lo : lo + step] = block
    return out


def corner_graph_matrix(
    rects: Sequence[Rect],
    points: Sequence[Point],
    seams: Sequence = (),
    dtype=np.float64,
) -> np.ndarray:
    """Exact all-pairs rectilinear distances among ``points`` avoiding
    ``rects``, via the corner graph.

    A taut shortest path decomposes into monotone staircase legs between
    consecutive obstacle-corner contacts, and every clear monotone
    staircase can be pushed to an extreme L-path or split at a corner it
    then touches.  Hence ``d(p, q)`` is the minimum of the direct clear
    L-path and ``min_{u,v ∈ corners} clear(p,u) + D_C(u,v) + clear(v,q)``
    with ``D_C`` the corner-to-corner distances (solved exactly on the
    corner-only Hanan grid by the batched Dijkstra).  Everything is array
    code: two :func:`clear_l1_block` sweeps plus two small (min,+)
    products — the fast leaf brute-force of the parallel engine — in
    ``dtype``.
    """
    from repro.monge.multiply import minplus_naive
    from repro.pram.machine import PRAM

    pts = list(points)
    m = len(pts)
    if not rects and not seams:
        a = np.asarray(pts, dtype=np.float64).reshape(-1, 2)
        return np.abs(a[:, None, :] - a[None, :, :]).sum(axis=2).astype(dtype, copy=False)
    # seam endpoints join the corner set: a taut path around a seam bends
    # there, and foreign seams (other polygons' interiors, threaded in by
    # the parallel engine's leaves) contribute corners the local rectangle
    # set does not know about
    corners = list(
        dict.fromkeys(
            [v for r in rects for v in r.vertices]
            + [e for s in seams for e in s.endpoints]
        )
    )
    d_c = GridOracle(rects, corners, seams=seams).dist_matrix(corners).astype(dtype)
    w = clear_l1_block(pts, corners, rects, seams=seams, dtype=dtype)
    scratch = PRAM("leaf-scratch")
    via = minplus_naive(minplus_naive(w, d_c, scratch), w.T, scratch)
    out = np.minimum(clear_l1_block(pts, pts, rects, seams=seams, dtype=dtype), via)
    np.minimum(out, out.T, out=out)
    if m:
        np.fill_diagonal(out, 0.0)
    return out


def repeated_single_source_matrix(
    rects: Sequence[Rect],
    points: Sequence[Point],
    oracle: Optional[GridOracle] = None,
    seams: Sequence = (),
) -> np.ndarray:
    """The E6 comparison baseline: one Dijkstra per source point.

    Deliberately runs one *per-source* SSSP loop — this is the repeated
    single-source algorithm of [11]/§1 that E6 measures against, not an
    implementation detail: use :meth:`GridOracle.dist_matrix` for the
    batched fast path.
    """
    oracle = oracle or GridOracle(rects, points, seams=seams)
    ids = [oracle.graph.node_id(p) for p in points]
    if not ids:
        return np.empty((0, 0))
    indptr, indices, weights = oracle.graph.csr()
    n = oracle.graph.num_nodes
    rows = [_csr_sssp(indptr, indices, weights, n, s) for s in ids]
    return np.vstack(rows)[:, ids]


def path_length(path: Sequence[Point]) -> int:
    """Length of a rectilinear polyline."""
    total = 0
    for a, b in zip(path, path[1:]):
        if a[0] != b[0] and a[1] != b[1]:
            raise QueryError(f"polyline not rectilinear at {a} -> {b}")
        total += abs(a[0] - b[0]) + abs(a[1] - b[1])
    return total


def path_is_clear(
    path: Sequence[Point], rects: Sequence[Rect], seams: Sequence = ()
) -> bool:
    """True when no polyline segment crosses an obstacle interior.

    With ``seams`` the test is exact for polygonal obstacles too: the
    rectangle interiors plus the open seam segments are precisely the
    polygons' interiors.
    """
    for a, b in zip(path, path[1:]):
        for r in rects:
            if a[1] == b[1]:
                if r.blocks_h_segment(a[1], a[0], b[0]):
                    return False
            else:
                if r.blocks_v_segment(a[0], a[1], b[1]):
                    return False
        if a[0] == b[0]:
            for s in seams:
                if s.blocks_v_segment(a[0], a[1], b[1]):
                    return False
    return True
