"""The parallel all-pairs engine (§5 + §6.3 of the paper, simulated).

Divide-and-conquer on staircase separators (Theorem 2), conquering with
(min,+) products through crossing candidates on the separator — the
Monge-multiply conquer of Theorem 3 / Lemma 5, with the paper's flow
pipeline replaced by explicit interface accumulation (substitution table in
DESIGN.md §2).

Correctness skeleton (mirrors §4's lemma toolkit):

* Each recursion node solves the *free-plane* all-pairs problem among its
  tracked points ``T_v`` avoiding only its own obstacles ``R_v``.
* **Soundness** — for any ``z`` on the clear separator,
  ``D_L(a,z) + D_R(z,b) ≥ dist_{R_v}(a,b)``: an ``R_L``-avoiding path can be
  shortcut along the separator (staircases are L1-geodesics, the paper's
  Containment Lemma 10 argument) into a weakly-left path avoiding all of
  ``R_v``, and symmetrically on the right.
* **Completeness** — some optimal path crosses the separator in one
  connected component (Single Intersection, Lemma 11).  The functions
  ``t ↦ dist_{R_L}(a, Sep(t))`` and ``t ↦ dist_{R_R}(Sep(t), b)`` are
  piecewise linear in arc length with slopes ±1 and kinks only at (a) the
  crossings of Hanan grid lines through obstacle corners with the
  separator, (b) separator corners, and (c) the endpoint's own grid-line
  projections.  Hence the optimal crossing is found by a (min,+) product
  over the O(n_v) core candidates (a)+(b) plus O(1) per-pair candidates
  (c), evaluated directly with a visibility test.

The per-node core candidate set is ``O(n_v)``, so interfaces grow only
additively along a root-leaf path; measured totals are reported in
``benchmarks/results/E3_allpairs_build.txt``.

Executors
---------
The recursion is written once, as generators that ``yield`` a
:class:`Fork` wherever the paper runs independent work side by side: the
two child solves of a node and the chain-grouped column blocks of a
conquer product.  An *executor* drives the generators.
:class:`InlineExecutor` (the ``parallel`` engine) turns every Fork into
one :meth:`PRAM.parallel` call, depth first.
:class:`repro.core.pool.PoolExecutor` (``parallel-mp``) runs the same
Forks on worker processes.  Through two hooks it ships node bodies and
big (min,+) blocks to the workers, then folds their PRAM charges, stats
and chain tags back.  Both give byte-identical matrices.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from types import GeneratorType
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.baseline import GridOracle, clear_l1_block, corner_graph_matrix
from repro.core.separator import staircase_separator
from repro.errors import GeometryError, QueryError
from repro.geometry.decompose import (
    seams_block_v_segment,
    staircase_clear_of_seams,
)
from repro.geometry.primitives import Point, Rect, bbox_of_points, dist, validate_disjoint
from repro.geometry.staircase import Staircase
from repro.monge.matrix import MongeFlag
from repro.monge.multiply import minplus_auto, minplus_monge, minplus_naive
from repro.pram.machine import PRAM, ambient

INF = float("inf")

#: stop recursing below this many obstacles (Theorem 2 guarantees balance
#: only for n ≥ 8; smaller sets are brute-forced on the Hanan grid)
DEFAULT_LEAF_SIZE = 6


def matrix_dtype(
    rects: Sequence[Rect], points: Sequence[Point] = (), seams: Sequence = ()
) -> np.dtype:
    """The matrix dtype of a build: ``float32`` where it is exact, else
    ``float64``.  Every engine, cached subtree, pool transport and
    snapshot of the build uses this one dtype.

    float32 is chosen when every coordinate (obstacles, extra points,
    seams) is an integer and ``3·D < 2²⁴``, with ``D`` the bounding-box
    semi-perimeter of the obstacles and points plus the sum of obstacle
    perimeters.  Why that is exact:

    * ``D`` bounds every finite distance.  Take an L-path from ``p`` to
      ``q`` inside the bounding box (length at most the semi-perimeter).
      For each connected component ``K`` of the union of obstacles that
      it meets, in order, cut the path from its first to its last point
      on ``K`` and walk along the boundary of the face of ``plane − K``
      that holds ``p`` and ``q`` instead: that boundary lies on obstacle
      edges (free to walk), is at most ``Σ_{r∈K} perimeter(r)`` long, and
      the rest of the path never returns to ``K``.  Seams lie inside
      polygons, whose tiles form one component, so the walk crosses none.
      A container's pockets are obstacles of the build, so they count in
      both the box and the sum.
    * Every sum the solve forms has at most three terms, each a stored
      distance or the L1 length between two points of the box (a clear
      L-path, an arc-length difference along a separator, a projection
      view): at most ``3·D < 2²⁴``.  Integers below ``2²⁴`` are exact in
      float32, so every sum, minimum and comparison (the Monge check,
      SMAWK's argmin) agrees with float64, entry for entry.  ``+∞``
      (Lemma 4's padding) is a float32 value too.
    """
    xs = [c for r in rects for c in (r.xlo, r.xhi)] + [p[0] for p in points]
    ys = [c for r in rects for c in (r.ylo, r.yhi)] + [p[1] for p in points]
    coords = xs + ys + [c for s in seams for c in (s.x, s.ylo, s.yhi)]
    if not all(isinstance(c, (int, np.integer)) or float(c).is_integer() for c in coords):
        return np.dtype(np.float64)
    bound = (max(xs) - min(xs) + max(ys) - min(ys)) if xs else 0
    bound += sum(2 * (r.xhi - r.xlo + r.yhi - r.ylo) for r in rects)
    return np.dtype(np.float32 if 3 * bound < 1 << 24 else np.float64)


def exact_length(v) -> float:
    """A matrix entry as a query answer: int for the integer domain,
    exact float for fractional lengths (non-integer extra points), inf
    passed through.  Single lookups and batched gathers must agree, so
    every length accessor normalizes through this one helper."""
    if not np.isfinite(v):
        return float(v)
    i_v = int(v)
    return i_v if i_v == v else float(v)


@dataclass
class BuildStats:
    """Instrumentation for the experiments (E3) and incremental repair."""

    nodes: int = 0
    leaves: int = 0
    max_interface: int = 0
    max_tracked: int = 0
    separator_fallbacks: int = 0
    crossing_candidates: int = 0
    monge_fast_blocks: int = 0
    conquer_pairs: int = 0
    per_level_points: dict = field(default_factory=dict)
    # subtree-cache traffic (incremental builds only; zero otherwise)
    subtree_hits: int = 0
    subtree_patches: int = 0
    subtree_misses: int = 0
    delta_conquers: int = 0
    patched_points: int = 0

    def merge(self, other: dict) -> None:
        """Fold in the stats of a subtree solved elsewhere (``vars()`` of
        another engine's BuildStats): counts add, extremes take the max."""
        for name, theirs in other.items():
            if name == "per_level_points":
                lvl = self.per_level_points
                for depth, n in theirs.items():
                    lvl[depth] = lvl.get(depth, 0) + n
            elif name in ("max_interface", "max_tracked"):
                setattr(self, name, max(getattr(self, name), theirs))
            else:
                setattr(self, name, getattr(self, name) + theirs)


@dataclass
class SubtreeEntry:
    """One cached subtree solve: exact distances of a *sub-scene*.

    The key insight behind incremental repair: a recursion node's matrix
    holds exact rectilinear distances among its tracked points avoiding
    only *its own* obstacle set, so the entry is addressed by the subtree's
    rect multiset alone — the interface handed down by ancestors decides
    which rows exist, never their values.  A later build whose interface
    differs (the usual case after an edit elsewhere) can therefore reuse
    the entry as a submatrix, and missing interface points are appended by
    the exact first-corner-contact patch (:meth:`ParallelEngine._patch_entry`).
    ``chain_sig``/``zs`` record the node's separator so a delete repair can
    prove the divide is unchanged and take the monotone delta conquer.
    """

    pts: list
    index: dict
    matrix: np.ndarray
    chain_sig: Optional[tuple]  # (pts, increasing, left_dir, right_dir)
    zs: Optional[tuple]
    pram_cost: tuple  # (time, work, width) of the original full solve
    lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def nbytes(self) -> int:
        return int(self.matrix.nbytes) + 48 * len(self.pts) + 256


class DistanceIndex:
    """All-pairs length matrix over a fixed point set with O(1) lookups.

    This is the data structure of the paper's abstract: one processor
    obtains any vertex-pair length in constant time.
    """

    def __init__(self, points: Sequence[Point], matrix: np.ndarray) -> None:
        self.points = list(points)
        self.matrix = matrix
        self.index = {p: i for i, p in enumerate(self.points)}

    def length(self, p: Point, q: Point) -> int:
        try:
            i = self.index[p]
            j = self.index[q]
        except KeyError as exc:
            raise QueryError(f"{exc.args[0]} is not an indexed point") from None
        return exact_length(self.matrix[i, j])  # type: ignore[return-value]

    def has_point(self, p: Point) -> bool:
        return p in self.index

    def ids(self, pts: Sequence[Point]) -> np.ndarray:
        """Row/column ids of the given indexed points."""
        try:
            return np.array([self.index[p] for p in pts], dtype=np.intp)
        except KeyError as exc:
            raise QueryError(f"{exc.args[0]} is not an indexed point") from None

    def lengths(self, ps: Sequence[Point], qs: Sequence[Point]) -> np.ndarray:
        """Pairwise lengths ``d(ps[i], qs[i])`` as one vectorized gather."""
        if len(ps) != len(qs):
            raise QueryError(f"pair arrays differ in length: {len(ps)} vs {len(qs)}")
        return self.matrix[self.ids(ps), self.ids(qs)]

    def submatrix(
        self, pts: Sequence[Point], cols: Optional[Sequence[Point]] = None
    ) -> np.ndarray:
        """Distance block ``pts × cols`` (``pts × pts`` when ``cols`` is
        omitted) in one fancy-indexing gather."""
        ids = self.ids(pts)
        cids = ids if cols is None else self.ids(cols)
        return self.matrix[np.ix_(ids, cids)]

    # -- persistence hooks (repro.serve.snapshot) ------------------------
    def export_arrays(self) -> dict[str, np.ndarray]:
        """The index as plain arrays: vertex order ``(n, 2)`` plus the
        matrix.  Together with :meth:`from_arrays` this is the whole
        persistence contract — row/column ``i`` belongs to ``points[i]``.

        Points are int64 when every coordinate is an integer (the normal
        domain — exact at any magnitude, byte-compatible with existing
        snapshots) and float64 otherwise — non-integer extra points are
        indexed verbatim and must not be silently truncated on the way
        to disk (the snapshot TOC records the dtype, so either loads
        back exactly)."""
        pts_list = list(self.points)
        if all(isinstance(c, (int, np.integer)) for p in pts_list for c in p):
            try:
                pts = np.array(pts_list, dtype=np.int64).reshape(len(pts_list), 2)
            except OverflowError:
                raise QueryError(
                    "point coordinates exceed the int64 snapshot range"
                ) from None
        else:
            # float64 must represent every coordinate exactly (a huge
            # integer mixed with one float extra would otherwise round
            # silently); refuse loudly when it cannot
            try:
                exact = all(float(c) == c for p in pts_list for c in p)
            except OverflowError:  # int too large for float at all
                exact = False
            if not exact:
                raise QueryError(
                    "point coordinates cannot be represented exactly in a "
                    "float64 snapshot"
                )
            pts = np.array(pts_list, dtype=np.float64).reshape(len(pts_list), 2)
        return {"points": pts, "matrix": self.matrix}

    @classmethod
    def from_arrays(cls, points: np.ndarray, matrix: np.ndarray) -> "DistanceIndex":
        """Rebuild an index from :meth:`export_arrays` output (no solving).
        The matrix is kept as given, dtype included: a read-only float32
        file mapping stays that mapping, never a widened private copy."""
        pts_arr = np.asarray(points)
        mat = np.asarray(matrix)
        if pts_arr.ndim != 2 or pts_arr.shape[1] != 2:
            raise QueryError(f"points array must be (n, 2), got {pts_arr.shape}")
        n = pts_arr.shape[0]
        if mat.shape != (n, n):
            raise QueryError(
                f"matrix shape {mat.shape} does not match {n} points"
            )
        pts = [(x, y) for x, y in pts_arr.tolist()]
        return cls(pts, mat)

    def __len__(self) -> int:
        return len(self.points)


def _arc_pos(p: Point, increasing: bool) -> int:
    """Arc-length parameter along a monotone staircase (x+y or x−y)."""
    return p[0] + p[1] if increasing else p[0] - p[1]


def _halves(pts, rows_u, rows_l, upper, lower, zs, dtype):
    """What every conquer starts from: the node matrix over ``pts`` (in
    ``dtype``) with each child's same-side block in place (Containment),
    the row/column selections of the two sides in it, and the distance
    blocks upper point → separator (``DU``) and separator → lower point
    (``DL``)."""
    (ptsU, matU), (ptsL, matL) = upper, lower
    iu = {p: i for i, p in enumerate(ptsU)}
    il = {p: i for i, p in enumerate(ptsL)}
    pidx = {p: i for i, p in enumerate(pts)}
    sel_u = [pidx[p] for p in rows_u]
    sel_l = [pidx[p] for p in rows_l]
    out = np.full((len(pts), len(pts)), INF, dtype=dtype)
    out[np.ix_(sel_u, sel_u)] = _block(matU, [iu[p] for p in rows_u])
    out[np.ix_(sel_l, sel_l)] = _block(matL, [il[p] for p in rows_l])
    # points on the separator are rows of both children: keep the smaller
    upper_rows = set(rows_u)
    on = [p for p in rows_l if p in upper_rows]
    out[np.ix_([pidx[p] for p in on], [pidx[p] for p in on])] = np.minimum(
        _block(matU, [iu[p] for p in on]), _block(matL, [il[p] for p in on])
    )
    DU = _block(matU, [iu[p] for p in rows_u], [iu[z] for z in zs])
    DL = _block(matL, [il[z] for z in zs], [il[p] for p in rows_l])
    return out, (sel_u, sel_l), DU, DL


def _block(mat: np.ndarray, rows, cols=None) -> np.ndarray:
    """``mat[rows × cols]`` (``rows × rows`` by default) as two ``take``
    gathers, cheaper than one ``np.ix_`` fancy index."""
    return mat.take(rows, axis=0).take(rows if cols is None else cols, axis=1)


def _join(out: np.ndarray, sel: tuple, cross: np.ndarray) -> np.ndarray:
    """Fold the cross block (updated in place) into both off-diagonal
    blocks of ``out``."""
    sel_u, sel_l = sel
    np.minimum(cross, out[np.ix_(sel_u, sel_l)], out=cross)
    out[np.ix_(sel_u, sel_l)] = cross
    out[np.ix_(sel_l, sel_u)] = cross.T
    np.fill_diagonal(out, 0.0)
    return out


class Fork:
    """Yielded by the recursion: run ``branches`` side by side on child
    machines of ``pram`` (:meth:`PRAM.parallel` semantics); the executor
    sends back the list of branch results.  A branch maps its machine to
    a value or to a recursion generator, which is driven in turn."""

    __slots__ = ("pram", "branches")

    def __init__(self, pram: PRAM, branches: list[Callable[[PRAM], object]]) -> None:
        self.pram = pram
        self.branches = branches


class InlineExecutor:
    """Drives the recursion in this process, depth first: each
    :class:`Fork` is one :meth:`PRAM.parallel` call, branches in order.
    The two hooks are where an executor may move work elsewhere; here
    they keep everything local."""

    def node_task(self, engine, rect_idx, pts, pram, depth):
        """A remote task solving this node's body, or ``None`` to solve
        it here."""
        return None

    def block_job(self, engine: "ParallelEngine", a, b, certify: bool):
        """The Fork branch for one conquer column block ``a ⊗ b``."""
        return lambda m: engine._minplus_block(a, b, certify, m)

    def run(self, gen):
        value = None
        while True:
            try:
                fork = gen.send(value)
            except StopIteration as stop:
                return stop.value
            value = fork.pram.parallel(
                [lambda m, b=b: self._settle(b(m)) for b in fork.branches]
            )

    def _settle(self, result):
        return self.run(result) if isinstance(result, GeneratorType) else result


def minplus_block(a: np.ndarray, b: np.ndarray, certify: bool, pram: PRAM):
    """One conquer column block: ``(a ⊗ b, 1 if it took the Monge path)``.

    A chain-ordered block (``certify``) is certified once through the
    flag — :func:`minplus_monge`'s own check then reads the memoised
    verdict instead of re-paying the O(|Z|·|g|) certification — and takes
    SMAWK when Monge; anything else takes the vectorised naive product."""
    if certify:
        flag = MongeFlag(b)
        pram.charge(time=1, work=flag.array.size, width=flag.array.size)
        if flag.monge():
            return minplus_monge(a, flag, pram), 1
        return minplus_naive(a, flag.array, pram), 0
    return minplus_naive(a, b, pram), 0


class ParallelEngine:
    """Builds the all-pairs structure among obstacle vertices (plus any
    extra points) on the simulated CREW-PRAM.  ``executor`` decides where
    the independent pieces of the recursion run (default: inline); every
    matrix of the build is in ``self.dtype`` (:func:`matrix_dtype`)."""

    def __init__(
        self,
        rects: Sequence[Rect],
        extra_points: Sequence[Point] = (),
        pram: Optional[PRAM] = None,
        leaf_size: int = DEFAULT_LEAF_SIZE,
        validate: bool = True,
        extra_chains: Sequence[Sequence[Point]] = (),
        monge_dispatch: bool = True,
        seams: Sequence = (),
        divide: str = "median",
        subtree_cache=None,
        subtree_salt: tuple = (),
        delta_hint: Optional[tuple] = None,
        executor: Optional[InlineExecutor] = None,
    ) -> None:
        self.rects = list(rects)
        self._executor = executor or InlineExecutor()
        if validate:
            validate_disjoint(self.rects)
        # interior seams of polygon-obstacle decompositions: global blockers
        # threaded into every leaf solve, separator guard and visibility
        # test so the computed metric treats each polygon as solid
        self.seams = list(seams)
        self.extra_points = list(dict.fromkeys(extra_points))
        for chain in extra_chains:
            for p in chain:
                if p not in self.extra_points:
                    self.extra_points.append(p)
        for p in self.extra_points:
            if any(r.contains_interior(p) for r in self.rects) or any(
                s.contains_open(p) for s in self.seams
            ):
                raise GeometryError(f"extra point {p} is inside an obstacle")
        self.pram = pram or ambient()
        self.leaf_size = max(2, leaf_size)
        self.stats = BuildStats()
        # chain provenance: points known to lie, in order, on a common
        # monotone staircase.  This is the paper's boundary-partitioning
        # discipline (Lemmas 1/5): matrix blocks indexed by one chain are
        # Monge and take the SMAWK path in the conquer products.
        self.monge_dispatch = monge_dispatch
        self._chain_tags: dict[Point, tuple[int, int]] = {}
        self._next_chain_id = 0
        for chain in extra_chains:
            cid = self._fresh_chain_id()
            for k, p in enumerate(chain):
                self._chain_tags[p] = (cid, k)
        # incremental-build hooks (see repro.pipeline.update_index):
        # ``divide`` picks the separator pivot rule ("median" keeps the
        # paper's exact behaviour; "stable" snaps it so edits stay local),
        # ``subtree_cache`` is a StageCache-compatible object receiving one
        # entry per recursion node, ``delta_hint`` = ("delete", Rect) when
        # this build repairs a known single-obstacle delete.
        if divide not in ("median", "stable"):
            raise QueryError(f"unknown divide rule {divide!r}")
        self.divide = divide
        self._sub_cache = subtree_cache
        self.dtype = matrix_dtype(self.rects, self.extra_points, self.seams)
        # the dtype is part of every subtree key: an edit that crosses the
        # float32 bound never reuses entries of the other dtype
        self._sub_salt = (*subtree_salt, self.dtype.name)
        self._delta_hint = delta_hint

    def _fresh_chain_id(self) -> int:
        self._next_chain_id += 1
        return self._next_chain_id

    # ------------------------------------------------------------------
    def build(self) -> DistanceIndex:
        """Compute the index; simulated time O(log² n)-ish, see E3."""
        if not self.rects:
            pts = list(self.extra_points)
            m = np.zeros((len(pts), len(pts)), dtype=self.dtype)
            for i, p in enumerate(pts):
                for j, q in enumerate(pts):
                    m[i, j] = dist(p, q)
            return DistanceIndex(pts, m)
        idx = list(range(len(self.rects)))
        pts, mat = self._executor.run(
            self._solve(idx, self.extra_points, self.pram, depth=0)
        )
        return DistanceIndex(pts, mat)

    # ------------------------------------------------------------------
    def _tracked_points(self, rect_idx: list[int], interface: Sequence[Point]) -> list[Point]:
        seen: dict[Point, None] = {}
        for i in rect_idx:
            for v in self.rects[i].vertices:
                seen.setdefault(v, None)
        for p in interface:
            seen.setdefault(p, None)
        return list(seen)

    def _solve(
        self,
        rect_idx: list[int],
        interface: Sequence[Point],
        pram: PRAM,
        depth: int,
    ):
        """One recursion node with its bookkeeping and subtree-cache
        probe; a generator returning ``(pts, matrix)``."""
        self.stats.nodes += 1
        self.stats.max_interface = max(self.stats.max_interface, len(interface))
        pts = self._tracked_points(rect_idx, interface)
        self.stats.max_tracked = max(self.stats.max_tracked, len(pts))
        lvl = self.stats.per_level_points
        lvl[depth] = lvl.get(depth, 0) + len(pts)
        if self._sub_cache is None:
            out, _ = yield from self._solve_node(rect_idx, pts, pram, depth)
            return out
        key = self._subtree_key(rect_idx)
        entry = self._sub_cache.get(key)
        if entry is not None:
            reused = self._reuse_entry(key, entry, rect_idx, pts, pram)
            if reused is not None:
                return reused
        self.stats.subtree_misses += 1
        snap = pram.snapshot()
        out, aux = yield from self._solve_node(rect_idx, pts, pram, depth)
        dt, dw = pram.since(snap)
        self._store_entry(key, out, aux, (dt, dw, pram.max_ops))
        return out

    def _solve_node(
        self,
        rect_idx: list[int],
        pts: list[Point],
        pram: PRAM,
        depth: int,
    ):
        """One recursion node (leaf or divide+conquer), cache-oblivious.

        A generator returning ``((pts, matrix), aux)`` with ``aux`` the separator
        signature ``(chain_sig, zs)`` for internal nodes (``None`` when the
        node was brute-forced as a leaf)."""
        task = self._executor.node_task(self, rect_idx, pts, pram, depth)
        if task is not None:
            return (yield task)
        if len(rect_idx) <= self.leaf_size:
            return self._leaf(rect_idx, pts, pram), None
        sub_rects = [self.rects[i] for i in rect_idx]
        sep = staircase_separator(sub_rects, pram, pivot=self.divide)
        if not sep.upper or not sep.lower:
            self.stats.separator_fallbacks += 1
            return self._leaf(rect_idx, pts, pram), None
        chain = sep.staircase
        if self.seams and not staircase_clear_of_seams(chain, self.seams):
            # a separator running along a seam would place crossing
            # candidates inside a polygon and slide paths through it;
            # the exact leaf solve is always sound
            self.stats.separator_fallbacks += 1
            return self._leaf(rect_idx, pts, pram), None
        zs = self._crossing_candidates(chain, sub_rects, pts, pram)
        if not zs:
            self.stats.separator_fallbacks += 1
            return self._leaf(rect_idx, pts, pram), None
        upper_idx = [rect_idx[i] for i in sep.upper]
        lower_idx = [rect_idx[i] for i in sep.lower]
        pram.step(len(pts))
        side_of = dict(zip(pts, chain.sides_of(pts).tolist()))
        up_iface = list(dict.fromkeys(
            [p for p in pts if side_of[p] >= 0] + zs))
        lo_iface = list(dict.fromkeys(
            [p for p in pts if side_of[p] <= 0] + zs))
        upper, lower = yield Fork(
            pram,
            [
                lambda m, ui=upper_idx, si=up_iface: self._solve(ui, si, m, depth + 1),
                lambda m, li=lower_idx, si=lo_iface: self._solve(li, si, m, depth + 1),
            ],
        )
        chain_sig = (chain.pts, chain.increasing, chain.left_dir, chain.right_dir)
        delta = self._try_delta_conquer(
            pts, side_of, chain, chain_sig, zs, sub_rects, rect_idx,
            upper_idx, lower_idx, upper, lower, pram,
        )
        if delta is not None:
            return delta, (chain_sig, tuple(zs))
        out = yield from self._conquer(
            pts, side_of, chain, zs, sub_rects, upper, lower, pram
        )
        return out, (chain_sig, tuple(zs))

    # -- subtree cache (incremental builds) ----------------------------
    def _subtree_key(self, rect_idx: list[int], extra: Sequence[Rect] = ()) -> tuple:
        rects = [self.rects[i] for i in rect_idx] + list(extra)
        coords = sorted((r.xlo, r.ylo, r.xhi, r.yhi) for r in rects)
        return ("solve", "sub", self._sub_salt, tuple(coords))

    def _old_subtree_key(self, rect_idx: list[int]) -> Optional[tuple]:
        """The key this subtree had *before* the hinted delete (its rect
        multiset plus the removed rect) — where the pre-edit entry lives."""
        if self._delta_hint is None or self._delta_hint[0] != "delete":
            return None
        return self._subtree_key(rect_idx, [self._delta_hint[1]])

    def _reuse_entry(
        self,
        key: tuple,
        entry: SubtreeEntry,
        rect_idx: list[int],
        pts: list[Point],
        pram: PRAM,
    ) -> Optional[tuple[list[Point], np.ndarray]]:
        """Serve this node from a cached sub-scene entry, patching in up to
        a few missing interface points; ``None`` when the entry cannot
        cover the request (the node is then recomputed)."""
        missing = [p for p in pts if p not in entry.index]
        if missing:
            if self.seams or len(missing) > max(16, len(pts) // 4):
                return None
            # exactness of the patch (and of cross-interface reuse in
            # general) rests on integer arithmetic; a fractional point
            # forces the ordinary recompute path
            if not all(
                isinstance(c, int) or float(c).is_integer()
                for p in missing
                for c in p
            ):
                return None
            with entry.lock:
                still_missing = [p for p in pts if p not in entry.index]
                if still_missing:
                    self._patch_entry(key, entry, rect_idx, still_missing, pram)
            self.stats.subtree_patches += 1
            self.stats.patched_points += len(missing)
        else:
            self.stats.subtree_hits += 1
        sel = [entry.index[p] for p in pts]
        mat = entry.matrix[np.ix_(sel, sel)]
        t, w, width = entry.pram_cost
        pram.charge(time=t, work=w, width=width)
        return pts, mat

    def _patch_entry(
        self,
        key: tuple,
        entry: SubtreeEntry,
        rect_idx: list[int],
        missing: list[Point],
        pram: PRAM,
    ) -> None:
        """Append exact rows/columns for ``missing`` to a sub-scene entry.

        First-corner-contact decomposition: a taut path from a new point
        either runs clear along an extreme L-path to its target, or first
        touches some obstacle corner ``c`` — and every corner of the
        sub-scene is already a tracked row of the entry (``_tracked_points``
        always includes all subtree vertices), so
        ``d(x, q) = min(clear_l1(x, q), min_c clear_l1(x, c) + M[c, q])``
        with integer arithmetic throughout: bit-identical to what the full
        recursion would have produced.
        """
        sub = [self.rects[i] for i in rect_idx]
        corners = list(dict.fromkeys(v for r in sub for v in r.vertices))
        cid = [entry.index[c] for c in corners]
        old_pts = entry.pts
        m, k = len(old_pts), len(missing)
        w_xc = clear_l1_block(missing, corners, sub, dtype=self.dtype)  # k x C
        scratch = PRAM(f"{pram.name}/patch")
        # rows vs every stored point (keeps the entry square + canonical)
        via = minplus_naive(w_xc, entry.matrix[cid, :], scratch)  # k x m
        rows = np.minimum(clear_l1_block(missing, old_pts, sub, dtype=self.dtype), via)
        # the new-new block, through the just-computed corner columns
        via_xx = minplus_naive(w_xc, rows[:, cid].T, scratch)
        block = np.minimum(
            clear_l1_block(missing, missing, sub, dtype=self.dtype), via_xx
        )
        np.minimum(block, block.T, out=block)
        np.fill_diagonal(block, 0.0)
        grown = np.full((m + k, m + k), INF, dtype=self.dtype)
        grown[:m, :m] = entry.matrix
        grown[m:, :m] = rows
        grown[:m, m:] = rows.T
        grown[m:, m:] = block
        grown.setflags(write=False)
        entry.matrix = grown
        for p in missing:
            entry.index[p] = len(entry.pts)
            entry.pts.append(p)
        pram.charge(time=scratch.time, work=scratch.work, width=scratch.max_ops)
        if self._sub_cache is not None:
            self._sub_cache.put(key, entry, entry.nbytes())

    def _try_delta_conquer(
        self,
        pts: list[Point],
        side_of: dict[Point, int],
        chain: Staircase,
        chain_sig: tuple,
        zs: list[Point],
        sub_rects: list[Rect],
        rect_idx: list[int],
        upper_idx: list[int],
        lower_idx: list[int],
        upper: tuple[list[Point], np.ndarray],
        lower: tuple[list[Point], np.ndarray],
        pram: PRAM,
    ) -> Optional[tuple[list[Point], np.ndarray]]:
        """The monotone delete conquer: repair a node after one obstacle
        was removed, skipping the full (min,+) cross product.

        Deleting an obstacle only *frees* space, so every pre-edit distance
        is still achievable — the old node matrix is a valid (and usually
        tight) upper bound.  A strictly better path must run through the
        freed region, which lies entirely on the dirty side of the (by
        construction unchanged) separator, so at a core crossing candidate
        it must beat the dirty child's *old* separator distances: only
        columns where those improved can lower any cross pair.  The cross
        block is therefore ``min(old block, DU[:, changed] ⊗ DL[changed, :])``
        plus freshly recomputed per-pair projection specials (visibility can
        open up too).  Preconditions checked here — same separator, old zs
        superset, both old entries present, integral points, no seams —
        fall back to the ordinary full conquer when unmet.
        """
        if self._sub_cache is None or self._delta_hint is None or self.seams:
            return None
        if self._delta_hint[0] != "delete":
            return None
        r = self._delta_hint[1]
        side = chain.side_of_rect(r)
        if side == 0:
            return None
        if not all(
            isinstance(c, int) or float(c).is_integer() for p in pts for c in p
        ):
            return None
        old_entry = self._sub_cache.get(self._old_subtree_key(rect_idx))
        if (
            old_entry is None
            or old_entry.chain_sig != chain_sig
            or old_entry.zs is None
            or not set(zs) <= set(old_entry.zs)
            or any(p not in old_entry.index for p in pts)
        ):
            return None
        dirty_idx = upper_idx if side > 0 else lower_idx
        old_child = self._sub_cache.get(self._old_subtree_key(dirty_idx))
        if old_child is None:
            return None
        rows_u = [p for p in pts if side_of[p] >= 0]
        rows_l = [p for p in pts if side_of[p] <= 0]
        dirty_rows = rows_u if side > 0 else rows_l
        if any(p not in old_child.index for p in dirty_rows) or any(
            z not in old_child.index for z in zs
        ):
            return None
        out, sel, DU, DL = _halves(pts, rows_u, rows_l, upper, lower, zs, self.dtype)
        cross = old_entry.matrix[
            np.ix_(
                [old_entry.index[p] for p in rows_u],
                [old_entry.index[p] for p in rows_l],
            )
        ].copy()
        if side > 0:
            old_D = old_child.matrix[
                np.ix_([old_child.index[p] for p in rows_u],
                       [old_child.index[z] for z in zs])
            ]
            changed = np.flatnonzero((DU < old_D).any(axis=0))
        else:
            old_D = old_child.matrix[
                np.ix_([old_child.index[z] for z in zs],
                       [old_child.index[p] for p in rows_l])
            ]
            changed = np.flatnonzero((DL < old_D).any(axis=1))
        if changed.size:
            imp = minplus_naive(DU[:, changed], DL[changed, :], pram)
            np.minimum(cross, imp, out=cross)
        cross = self._apply_projection_specials(
            cross, rows_u, rows_l, chain, zs, DU, DL, sub_rects, pram
        )
        pram.charge(time=2, work=cross.size + old_D.size, width=cross.size)
        self.stats.delta_conquers += 1
        self.stats.conquer_pairs += len(rows_u) * len(rows_l)
        return pts, _join(out, sel, cross)

    def _store_entry(
        self,
        key: tuple,
        out: tuple[list[Point], np.ndarray],
        aux: Optional[tuple],
        pram_cost: tuple,
    ) -> None:
        pts, mat = out
        mat.setflags(write=False)
        chain_sig, zs = aux if aux is not None else (None, None)
        entry = SubtreeEntry(
            pts=list(pts),
            index={p: i for i, p in enumerate(pts)},
            matrix=mat,
            chain_sig=chain_sig,
            zs=zs,
            pram_cost=tuple(pram_cost),
        )
        self._sub_cache.put(key, entry, entry.nbytes())

    # ------------------------------------------------------------------
    def _leaf(
        self, rect_idx: list[int], pts: list[Point], pram: PRAM
    ) -> tuple[list[Point], np.ndarray]:
        """Base case: solve the few-obstacle subproblem directly.

        Brute-forces the leaf with the vectorized corner graph
        (:func:`repro.core.baseline.corner_graph_matrix`): one batched
        multi-source Dijkstra on the corner-only Hanan grid plus array
        L-path sweeps build the whole ``m × m`` block — no per-pair Python.
        Charged as the honest PRAM equivalent: one independent single-pair
        computation per point pair, each a [11]-style sweep over the ``c``
        leaf obstacles — time ``O(log m + c log c)``, work
        ``O(m² · c log c)``.  With the constant leaf size this keeps the
        global Θ(log² n) time; with ``c = n`` (no recursion) it exposes
        the Θ(n³)-work/Θ(n log n)-time flat solve the paper's recursion
        exists to avoid (ablation E11).
        """
        self.stats.leaves += 1
        sub = [self.rects[i] for i in rect_idx]
        m = len(pts)
        if not sub:
            mat = np.zeros((m, m), dtype=self.dtype)
            for i, p in enumerate(pts):
                for j, q in enumerate(pts):
                    mat[i, j] = dist(p, q)
            pram.step(m * m)
            return pts, mat
        mat = corner_graph_matrix(sub, pts, seams=self.seams, dtype=self.dtype)
        lg = pram.log2ceil(m or 1)
        c = len(sub)
        clogc = max(1, c * max(1, (max(c - 1, 1)).bit_length()))
        pram.charge(time=lg + clogc, work=m * m * clogc, width=m * m)
        return pts, mat

    # ------------------------------------------------------------------
    def _crossing_candidates(
        self,
        chain: Staircase,
        sub_rects: list[Rect],
        pts: list[Point],
        pram: PRAM,
    ) -> list[Point]:
        """Core crossing candidates: obstacle grid-line crossings with the
        separator, plus separator corners (clipped to the scene box)."""
        xlo, ylo, xhi, yhi = bbox_of_points(
            [v for r in sub_rects for v in (r.sw, r.ne)] + list(pts)
        )
        xs_set = {r.xlo for r in sub_rects} | {r.xhi for r in sub_rects}
        ys_set = {r.ylo for r in sub_rects} | {r.yhi for r in sub_rects}
        for s in self.seams:
            # seam endpoints are reflex corners of polygon obstacles: their
            # grid lines carry the extra kinks of the seam-aware distance-
            # to-separator functions, so they must be candidate generators
            xs_set.add(s.x)
            ys_set.update((s.ylo, s.yhi))
        xs = np.array(sorted(xs_set), dtype=float)
        ys = np.array(sorted(ys_set), dtype=float)
        corners = np.array(
            chain.clip_points_to_bbox(xlo, ylo, xhi, yhi), dtype=float
        ).reshape(-1, 2)
        cx, cy = [corners[:, 0]], [corners[:, 1]]
        # each line's lower, then upper crossing
        for y_at in chain.line_crossings(True, xs):
            keep = (ylo <= y_at) & (y_at <= yhi)  # NaN (absent) drops out
            cx.append(xs[keep])
            cy.append(y_at[keep])
        for x_at in chain.line_crossings(False, ys):
            keep = (xlo <= x_at) & (x_at <= xhi)
            cx.append(x_at[keep])
            cy.append(ys[keep])
        cx, cy = np.concatenate(cx), np.concatenate(cy)
        # arc position is one-to-one on the chain: dedupe and order at once
        _, first = np.unique(
            cx + cy if chain.increasing else cx - cy, return_index=True
        )
        zs = [(int(x), int(y)) for x, y in zip(cx[first].tolist(), cy[first].tolist())]
        pram.charge(
            time=pram.log2ceil(len(xs) + len(ys) + 1),
            work=2 * (len(xs) + len(ys)) + len(chain.pts),
            width=len(xs) + len(ys),
        )
        cid = self._fresh_chain_id()
        for k, z in enumerate(zs):
            self._chain_tags.setdefault(z, (cid, k))
        self.stats.crossing_candidates += len(zs)
        return zs

    # ------------------------------------------------------------------
    def _conquer(
        self,
        pts: list[Point],
        side_of: dict[Point, int],
        chain: Staircase,
        zs: list[Point],
        sub_rects: list[Rect],
        upper: tuple[list[Point], np.ndarray],
        lower: tuple[list[Point], np.ndarray],
        pram: PRAM,
    ):
        rows_u = [p for p in pts if side_of[p] >= 0]
        rows_l = [p for p in pts if side_of[p] <= 0]
        self.stats.conquer_pairs += len(rows_u) * len(rows_l)
        out, sel, DU, DL = _halves(pts, rows_u, rows_l, upper, lower, zs, self.dtype)
        # cross pairs through the separator
        cross = yield from self._cross_product(DU, DL, rows_l, pram)
        cross = self._apply_projection_specials(
            cross, rows_u, rows_l, chain, zs, DU, DL, sub_rects, pram
        )
        return pts, _join(out, sel, cross)

    # ------------------------------------------------------------------
    def _cross_product(
        self,
        DU: np.ndarray,
        DL: np.ndarray,
        cols: list[Point],
        pram: PRAM,
    ):
        """(min,+) product ``DU * DL`` with chain-grouped column dispatch
        (a generator: the groups are one :class:`Fork`).

        Columns with a common chain provenance are processed together in
        chain order: the block ``DL[Z × group]`` is then Monge whenever
        Lemma 2's side conditions hold (verified at runtime, O(|Z|·|g|)),
        so those groups take the SMAWK path of Lemma 3.  Ungrouped columns
        (obstacle vertices) fall back to the vectorised naive product —
        the quantified substitution of DESIGN.md §2.
        """
        if not self.monge_dispatch:
            return minplus_naive(DU, DL, pram)
        groups: dict[int, list[int]] = {}
        scattered: list[int] = []
        for j, p in enumerate(cols):
            tag = self._chain_tags.get(p)
            if tag is None:
                scattered.append(j)
            else:
                groups.setdefault(tag[0], []).append(j)
        jobs: list[tuple[list[int], bool]] = []
        for cid, idxs in groups.items():
            idxs.sort(key=lambda j: self._chain_tags[cols[j]][1])
            jobs.append((idxs, True))
        if scattered:
            jobs.append((scattered, False))
        # independent column groups multiply side by side on the PRAM
        blocks = yield Fork(
            pram,
            [
                self._executor.block_job(self, DU, DL[:, idxs], certify)
                for idxs, certify in jobs
            ],
        )
        out = np.full((DU.shape[0], DL.shape[1]), INF, dtype=self.dtype)
        for (idxs, _), block in zip(jobs, blocks):
            out[:, idxs] = block
        return out

    def _minplus_block(self, a, b, certify: bool, pram: PRAM) -> np.ndarray:
        out, fast = minplus_block(a, b, certify, pram)
        self.stats.monge_fast_blocks += fast
        return out

    # ------------------------------------------------------------------
    def _apply_projection_specials(
        self,
        cross: np.ndarray,
        rows_u: list[Point],
        rows_l: list[Point],
        chain: Staircase,
        zs: list[Point],
        DU: np.ndarray,
        DL: np.ndarray,
        sub_rects: list[Rect],
        pram: PRAM,
    ) -> np.ndarray:
        """Per-pair candidates (c): each endpoint's own visible grid-line
        projections onto the separator (see module docstring)."""
        boxes = np.array(
            [(r.xlo, r.ylo, r.xhi, r.yhi) for r in sub_rects], dtype=float
        ).reshape(-1, 4)
        su = _projection_table(rows_u, chain, boxes, seams=self.seams)
        sl = _projection_table(rows_l, chain, boxes, seams=self.seams)
        pram.step(2 * (len(rows_u) + len(rows_l)))
        t = np.array([_arc_pos(z, chain.increasing) for z in zs], dtype=float)
        nz = len(zs)
        # (i) upper special -> neighbouring core z -> lower point, and
        # (ii) its mirror: upper point -> core z -> lower special.  Only a
        # point with a non-integral coordinate can gain: for an integral
        # one, the clear view to its special s and the clear chain from s
        # to z bound D(point, z) by val + |t_s - t_z| exactly (integers in
        # float64), so the core product already holds every such candidate
        for rows, spec, dz, out in (
            (rows_u, su, DL, cross), (rows_l, sl, DU.T, cross.T)
        ):
            p = np.array(rows, dtype=float).reshape(-1, 2)
            frac = np.flatnonzero((p != np.floor(p)).any(axis=1))
            if not frac.size:
                continue
            tt, val, sub = spec.t[frac], spec.val[frac], out[frac]
            for k in range(2):
                if np.isinf(val[:, k]).all():
                    continue
                pos = np.searchsorted(t, tt[:, k])
                for nb in (np.clip(pos - 1, 0, nz - 1), np.clip(pos, 0, nz - 1)):
                    # a blocked special has val = inf, so its row stays inf
                    base = val[:, k] + np.abs(tt[:, k] - t[nb])
                    np.minimum(sub, base[:, None] + dz[nb, :], out=sub)
            out[frac] = sub
        # (iii) upper special -> lower special directly along the chain
        # (float64 in place: arc positions are coordinates, not distances)
        for k in range(su.t.shape[1]):
            for l in range(sl.t.shape[1]):
                cand = np.subtract.outer(su.t[:, k], sl.t[:, l])
                np.abs(cand, out=cand)
                cand += su.val[:, k][:, None]
                cand += sl.val[:, l]
                np.minimum(cross, cand, out=cross)
        pram.charge(time=2, work=cross.size * 12, width=cross.size)
        return cross


@dataclass
class _Specials:
    t: np.ndarray  # (m, 2) arc positions (0 when absent)
    val: np.ndarray  # (m, 2) straight distances (inf when blocked/absent)


#: point × obstacle cells compared at once by :func:`_views_blocked`
_VIEW_CELLS = 1 << 16


def _projection_table(
    points: list[Point],
    chain: Staircase,
    boxes: np.ndarray,
    seams: Sequence = (),
) -> _Specials:
    """For each point: its vertical and horizontal grid-line crossings with
    the separator, with straight L1 distance when the view is clear.

    ``boxes`` holds the node's obstacles as ``(xlo, ylo, xhi, yhi)`` rows.
    Of a line's (up to two) crossings the nearer one is taken, the lower
    on a tie.  A vertical view must additionally clear the polygon seams
    — it could run straight along one (horizontal views can only cross
    seams, which the flanking tiles already block).
    """
    m = len(points)
    tarr = np.zeros((m, 2))
    varr = np.full((m, 2), INF)
    p = np.array(points, dtype=float).reshape(m, 2)
    sign = 1.0 if chain.increasing else -1.0
    for k in (0, 1):  # 0: the vertical line through p, 1: the horizontal
        across, along = p[:, k], p[:, 1 - k]
        lo, hi = chain.line_crossings(k == 0, across)
        z = np.where(np.isnan(hi) | (np.abs(along - lo) <= np.abs(along - hi)), lo, hi)
        found = ~np.isnan(z)
        arc = across + sign * z if k == 0 else z + sign * across
        tarr[found, k] = arc[found]
        d = np.abs(along - z)
        clear = d == 0
        look = np.flatnonzero(d > 0)
        open_ = ~_views_blocked(boxes, k, across[look], along[look], z[look])
        if k == 0 and seams:
            open_ &= np.array([
                not seams_block_v_segment(seams, points[i][0], points[i][1], z[i])
                for i in look
            ], dtype=bool)
        clear[look[open_]] = True
        varr[clear, k] = d[clear]
    return _Specials(tarr, varr)


def _views_blocked(
    boxes: np.ndarray, k: int, across: np.ndarray, start: np.ndarray, stop: np.ndarray
) -> np.ndarray:
    """Whether each axis-parallel view from ``start`` to ``stop`` (along
    y for ``k == 0``, along x for ``k == 1``, at ``across`` on the other
    axis) is cut by an obstacle — exactly when :meth:`RayShooter.shoot`
    from the start toward the stop would land short of it.

    An obstacle cuts the view when its *open* extent across the view
    contains ``across`` (a view grazing an edge is clear) and its near
    edge lies ``g`` ahead with ``0 <= g < |stop - start|`` (a view starting
    on an obstacle's near boundary is cut at distance 0)."""
    lo_a, hi_a = boxes[:, k], boxes[:, k + 2]
    ahead = stop > start
    out = np.zeros(len(start), dtype=bool)
    step = max(1, _VIEW_CELLS // max(1, len(boxes)))
    for r0 in range(0, len(start), step):
        r = slice(r0, r0 + step)
        c, s, fwd = across[r, None], start[r, None], ahead[r, None]
        gap = np.where(fwd, boxes[:, 1 - k] - s, s - boxes[:, 3 - k])
        cut = (lo_a < c) & (c < hi_a) & (gap >= 0)
        cut &= gap < np.abs(stop[r] - start[r])[:, None]
        out[r] = cut.any(axis=1)
    return out


def build_vertex_index(
    rects: Sequence[Rect],
    extra_points: Sequence[Point] = (),
    pram: Optional[PRAM] = None,
    leaf_size: int = DEFAULT_LEAF_SIZE,
) -> DistanceIndex:
    """Convenience wrapper: the §6.3 all-pairs structure in one call."""
    return ParallelEngine(rects, extra_points, pram, leaf_size).build()
