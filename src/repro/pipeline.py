"""``repro.pipeline`` — the staged build pipeline behind every index.

The paper's algorithm is naturally staged, and so is this build::

    scene ──▶ decompose ──▶ graph ──▶ solve[engine] ──▶ query-structures

* **decompose** — expand polygon obstacles into disjoint maximal
  rectangle tiles + interior seams, validate disjointness, check the
  container and append its pocket rectangles.  Engine-independent.
* **graph** — assemble the tracked point universe (every obstacle/tile
  vertex plus the registered extra points) and reject extras inside an
  obstacle.  Engine-independent.
* **solve** — the all-pairs length matrix over those points, by whichever
  engine the :func:`register_engine` registry resolves: the §5/§6
  parallel divide-and-conquer, the §9 sequential DAG sweeps, or the
  grid-Dijkstra baseline (and any third-party engine registered on top).
* **query-structures** — wrap the matrix into a queryable
  :class:`~repro.core.api.ShortestPathIndex` (the §6.4 arbitrary-point
  structure and §8 path reporter stay lazy, exactly as before).

Every stage is timed (wall clock + simulated PRAM cost delta) and the
per-build report travels with the index as ``idx.provenance`` — snapshot
headers persist it, ``python -m repro plan`` prints it.

**Artifact cache.**  Stage outputs are content-addressed by the scene's
hash (:meth:`repro.scene.Scene.content_hash`): the geometry stages are
keyed by geometry alone, the solve stage additionally by engine and leaf
size.  Rebuilding the same scene under a second engine therefore reuses
the cached decompose/graph artifacts, and rebuilding under the same
engine returns the solved matrix without re-running anything.  The
process-global :func:`default_cache` is bounded (LRU over entries and
bytes); pass ``cache=StageCache(max_entries=0)`` to disable caching for
a build, or a private :class:`StageCache` to isolate one.

**Engine registry.**  Registering an engine makes it first-class
everywhere at once — ``ShortestPathIndex.build(engine=...)``, every CLI
``--engine`` flag, the fuzz harness, ``SceneStore``, and cluster
workers::

    from repro.pipeline import register_engine

    @register_engine("mine", description="my exact solver")
    def _solve_mine(dec, graph, pram, leaf_size):
        ...                       # dec.all_rects, dec.seams, graph.points
        return DistanceIndex(points, matrix)

Unknown names fail with one line listing what *is* registered.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.core.allpairs import DEFAULT_LEAF_SIZE, DistanceIndex
from repro.errors import EngineError, GeometryError, QueryError
from repro.geometry.polygon import RectilinearPolygon, pockets_to_rects
from repro.geometry.primitives import Point, Rect, validate_disjoint
from repro.obs.registry import default_registry
from repro.obs.tracing import SpanBuffer, finish, new_trace_id, span
from repro.pram.machine import PRAM
from repro.scene import Scene, SceneDelta

__all__ = [
    "BUILD_SPANS",
    "STAGES",
    "DecomposeArtifact",
    "GraphArtifact",
    "SolveArtifact",
    "StageCache",
    "EngineSpec",
    "register_engine",
    "unregister_engine",
    "get_engine",
    "engine_names",
    "build_index",
    "update_index",
    "default_cache",
]

#: the stage graph, in execution order
STAGES = ("decompose", "graph", "solve", "query-structures")

#: recent per-stage build spans (one trace per build_index call), the
#: build-side analogue of the cluster front-end's request span buffer —
#: ``python -m repro trace --demo`` and ``plan --profile`` read it
BUILD_SPANS = SpanBuffer(512)

#: per-build options that cannot ride the fixed engine signature
#: ``solve(dec, graph, pram, leaf_size)``: worker count for ``parallel-mp``,
#: this build's trace id, and the pool stats the engine reports back for
#: provenance.  Thread-local so concurrent builds with different settings
#: (a QueryServer thread vs. a repair thread) don't bleed into each other.
_BUILD_OPTS = threading.local()


def current_build_trace() -> str:
    """The trace id of the build running on this thread (one is minted
    per ``build_index`` call); per-subtree spans join it so ``plan
    --profile`` can show them under the same build."""
    tid = getattr(_BUILD_OPTS, "trace", None)
    if tid is None:
        tid = new_trace_id()
        _BUILD_OPTS.trace = tid
    return tid


# ----------------------------------------------------------------------
# stage artifacts
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DecomposeArtifact:
    """Output of the ``decompose`` stage (engine-independent geometry)."""

    plain: tuple  # plain Rect obstacles, input order
    polygons: tuple  # RectilinearPolygon obstacles, input order
    all_rects: tuple  # engine rects: tiles in place + container pockets
    seams: tuple  # interior seams of the polygon decompositions
    container: Optional[RectilinearPolygon]

    def nbytes(self) -> int:
        return 64 * (len(self.all_rects) + len(self.seams)) + 256


@dataclass(frozen=True)
class GraphArtifact:
    """Output of the ``graph`` stage: the tracked point universe."""

    points: tuple  # obstacle/tile/pocket vertices + extras, deduped
    extras: tuple = ()  # the registered extra points, verbatim (a point
    # coinciding with a tile vertex is still listed here — engines take
    # extras as given, exactly as the pre-pipeline build did)

    def nbytes(self) -> int:
        return 32 * (len(self.points) + len(self.extras)) + 128


@dataclass(frozen=True)
class SolveArtifact:
    """Output of one engine's ``solve`` stage, plus its simulated cost
    (replayed onto the caller's PRAM on a cache hit, so ``build_stats``
    reports the same numbers whether the matrix was computed or reused)."""

    points: tuple
    matrix: np.ndarray
    pram_time: int
    pram_work: int
    pram_width: int

    def nbytes(self) -> int:
        return int(self.matrix.nbytes) + 32 * len(self.points)


# ----------------------------------------------------------------------
# the stage cache
# ----------------------------------------------------------------------
class StageCache:
    """Thread-safe content-addressed LRU cache of stage artifacts.

    Keys are tuples whose first element is the stage name; values carry a
    ``nbytes()`` estimate used for the byte bound.  ``max_entries=0``
    disables the cache (every ``get`` misses, ``put`` is a no-op).
    """

    def __init__(self, max_entries: int = 32, max_bytes: int = 256 << 20) -> None:
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._data: "OrderedDict[tuple, object]" = OrderedDict()
        self._nbytes: dict[tuple, int] = {}
        self._lock = threading.Lock()
        self.hits: dict[str, int] = {}
        self.misses: dict[str, int] = {}

    def get(self, key: tuple):
        stage = key[0]
        with self._lock:
            val = self._data.get(key)
            if val is None:
                self.misses[stage] = self.misses.get(stage, 0) + 1
                return None
            self._data.move_to_end(key)
            self.hits[stage] = self.hits.get(stage, 0) + 1
            return val

    def put(self, key: tuple, value, nbytes: int = 0) -> None:
        if self.max_entries <= 0:
            return
        nbytes = int(nbytes)
        if nbytes > self.max_bytes:
            # an artifact that alone exceeds the budget is simply not
            # cached — evicting everything else to fail anyway would
            # flush every other scene's artifacts for nothing
            return
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            self._nbytes[key] = nbytes
            total = sum(self._nbytes.values())
            # the just-inserted entry is MRU and fits the byte budget by
            # itself, so it is never the one popped here
            while len(self._data) > 1 and (
                len(self._data) > self.max_entries or total > self.max_bytes
            ):
                old, _ = self._data.popitem(last=False)
                total -= self._nbytes.pop(old, 0)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self._nbytes.clear()

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._data),
                "bytes": sum(self._nbytes.values()),
                "hits": dict(self.hits),
                "misses": dict(self.misses),
            }


#: the process-default cache is deliberately small on bytes: geometry
#: artifacts are tiny, and a solve matrix bigger than the budget is
#: simply not cached (see :meth:`StageCache.put`), so the default cache
#: can extend matrix lifetimes by at most this bound — it must not
#: silently dwarf a ``SceneStore(max_bytes=...)`` residency budget
_DEFAULT_CACHE = StageCache(max_entries=64, max_bytes=32 << 20)


def default_cache() -> StageCache:
    """The process-global stage cache (shared by ``ShortestPathIndex.build``,
    ``SceneStore``, and the cluster front-end, so one scene's geometry is
    decomposed once per process no matter how many engines solve it).
    Bounded to 64 entries / 32 MB; give a ``SceneStore`` its own
    :class:`StageCache` (or a disabled one) to control the budget."""
    return _DEFAULT_CACHE


# ----------------------------------------------------------------------
# the engine registry
# ----------------------------------------------------------------------
#: an engine's solve hook: ``(decompose artifact, graph artifact,
#: PRAM, leaf_size) -> DistanceIndex``
SolveFn = Callable[[DecomposeArtifact, GraphArtifact, PRAM, int], DistanceIndex]


@dataclass(frozen=True)
class EngineSpec:
    name: str
    solve: SolveFn
    description: str = ""
    #: registration generation — part of the solve cache key, so
    #: re-registering a name (unregister + register, or replace=True)
    #: can never be served a previous implementation's cached matrix
    gen: int = 0


_ENGINES: dict[str, EngineSpec] = {}
_REG_LOCK = threading.Lock()
_REG_GEN = 0


def register_engine(
    name: str, *, description: str = "", replace: bool = False
) -> Callable[[SolveFn], SolveFn]:
    """Decorator: register ``fn`` as the solve stage of engine ``name``."""

    def deco(fn: SolveFn) -> SolveFn:
        global _REG_GEN
        with _REG_LOCK:
            if name in _ENGINES and not replace:
                raise EngineError(f"engine {name!r} is already registered")
            _REG_GEN += 1
            _ENGINES[name] = EngineSpec(name, fn, description, gen=_REG_GEN)
        return fn

    return deco


def unregister_engine(name: str) -> None:
    with _REG_LOCK:
        if name not in _ENGINES:
            raise EngineError(_unknown_engine_msg(name))
        del _ENGINES[name]


def get_engine(name: str) -> EngineSpec:
    """The registered engine, or a one-line error naming what exists."""
    spec = _ENGINES.get(name)
    if spec is None:
        raise EngineError(_unknown_engine_msg(name))
    return spec


def engine_names() -> list[str]:
    return sorted(_ENGINES)


def _unknown_engine_msg(name) -> str:
    known = ", ".join(sorted(_ENGINES)) or "<none>"
    return f"unknown engine {name!r} (registered: {known})"


# ----------------------------------------------------------------------
# stages
# ----------------------------------------------------------------------
def _decompose(scene: Scene) -> DecomposeArtifact:
    from repro.core.api import _obstacle_rect_groups, split_obstacles

    plain, polygons, all_rects, seams = split_obstacles(scene.obstacles)
    validate_disjoint(all_rects)
    container = scene.container
    if container is not None:
        # deliberately NOT Scene.validate's GeometryError: the build API
        # has always raised QueryError naming the whole obstacle here
        # (validate names the offending decomposition rect instead, the
        # more useful message at the file-validation door)
        for obs, rs in zip(scene.obstacles, _obstacle_rect_groups(scene.obstacles)):
            for r in rs:
                if not container.contains_rect(r):
                    raise QueryError(f"obstacle {obs} is not inside the container")
        all_rects = all_rects + pockets_to_rects(container)
    return DecomposeArtifact(
        tuple(plain), tuple(polygons), tuple(all_rects), tuple(seams), container
    )


def _graph(scene: Scene, dec: DecomposeArtifact) -> GraphArtifact:
    pts: dict[Point, None] = {}
    for r in dec.all_rects:
        for v in r.vertices:
            pts.setdefault(v, None)
    for p in scene.extra_points:
        # the paper engines repeat this exact check in their constructors
        # (they are public API, constructible without the pipeline); this
        # copy is the gate for engines without one, e.g. "grid"
        if any(r.contains_interior(p) for r in dec.all_rects) or any(
            s.contains_open(p) for s in dec.seams
        ):
            raise GeometryError(f"extra point {p} is inside an obstacle")
        pts.setdefault(p, None)
    return GraphArtifact(tuple(pts), tuple(scene.extra_points))


def _paper_engine(dec, graph, pram, leaf_size, engine, **kwargs):
    """The §5/§6 :class:`~repro.core.allpairs.ParallelEngine` with the
    executor ``engine`` names: inline for ``parallel``; a worker pool for
    ``parallel-mp``, which stays inline when ``jobs`` is 1 (one worker
    buys only IPC) or the pool cannot start (sandboxed /dev/shm, fork
    limits — the reason lands in provenance)."""
    from repro.core.allpairs import ParallelEngine

    executor = None
    if engine == "parallel-mp":
        from repro.core import pool

        jobs = getattr(_BUILD_OPTS, "jobs", None) or pool.default_jobs()
        stats = pool.pool_stats()
        if jobs > 1:
            try:
                executor = pool.PoolExecutor(pool.get_pool(jobs), jobs)
                stats = executor.stats
            except Exception as exc:  # pragma: no cover - host-dependent
                stats["pool_error"] = f"{type(exc).__name__}: {exc}"
        _BUILD_OPTS.pool_stats = stats
    return ParallelEngine(
        dec.all_rects,
        list(graph.extras),
        pram,
        leaf_size=leaf_size,
        validate=False,
        seams=dec.seams,
        executor=executor,
        **kwargs,
    )


def _solve_paper(engine: str) -> SolveFn:
    def solve(dec, graph, pram, leaf_size):
        return _paper_engine(dec, graph, pram, leaf_size, engine).build()

    return solve


register_engine(
    "parallel",
    description="§5/§6 divide-and-conquer on staircase separators (simulated PRAM)",
)(_solve_paper("parallel"))
register_engine(
    "parallel-mp",
    description="the §5/§6 divide-and-conquer with leaves, separator subtrees "
    "and (min,+) conquer blocks run on a real multiprocessing worker pool "
    "(byte-identical to 'parallel')",
)(_solve_paper("parallel-mp"))


@register_engine(
    "sequential",
    description="§9 monotone-DAG sweeps (O(n²) sequential)",
)
def _solve_sequential(
    dec: DecomposeArtifact, graph: GraphArtifact, pram: PRAM, leaf_size: int
) -> DistanceIndex:
    from repro.core.sequential import SequentialEngine

    return SequentialEngine(
        dec.all_rects, list(graph.extras), validate=False, seams=dec.seams
    ).build(pram)


@register_engine(
    "grid",
    description="batched multi-source Dijkstra on the seam-aware Hanan grid "
    "(the differential baseline as a first-class engine)",
)
def _solve_grid(
    dec: DecomposeArtifact, graph: GraphArtifact, pram: PRAM, leaf_size: int
) -> DistanceIndex:
    from repro.core.baseline import GridOracle

    pts = list(graph.points)
    for p in pts:
        # the Hanan-grid machinery is integer-exact only; the paper
        # engines index non-integer extras verbatim, but this one must
        # refuse rather than quietly return a wrong (truncated) metric
        try:
            integral = int(p[0]) == p[0] and int(p[1]) == p[1]
        except (OverflowError, ValueError):  # inf/nan coordinates
            integral = False
        if not integral:
            raise GeometryError(
                f"the grid engine requires integer coordinates, got point {p}"
            )
    mat = GridOracle(dec.all_rects, pts, seams=dec.seams).dist_matrix(pts)
    n = len(pts)
    lg = max(1, max(n - 1, 1).bit_length())
    # the honest sequential comparator cost ([11]/E6): one SSSP per source
    pram.charge(time=n * lg, work=n * n * lg, width=n)
    return DistanceIndex(pts, np.asarray(mat, dtype=float))


# ----------------------------------------------------------------------
# the pipeline driver
# ----------------------------------------------------------------------
def build_index(
    scene: Scene,
    engine: str = "parallel",
    pram: Optional[PRAM] = None,
    leaf_size: int = DEFAULT_LEAF_SIZE,
    cache: Optional[StageCache] = None,
    incremental: bool = False,
    delta_hint: Optional[tuple] = None,
    jobs: Optional[int] = None,
):
    """Run the full stage pipeline over ``scene`` and return a queryable
    :class:`~repro.core.api.ShortestPathIndex` with ``idx.provenance``
    describing what ran, what was cached, and what each stage cost.

    This is what ``ShortestPathIndex.build`` now is underneath; call it
    directly to control the cache or to pass a prebuilt :class:`Scene`.

    ``incremental=True`` makes the parallel engine's solve repairable: the
    separator pivot switches to the edit-stable rule and every recursion
    node deposits its sub-scene matrix into ``cache`` under a geometry
    key, so a later build of a slightly different scene (see
    :func:`update_index`) re-solves only the subtrees the edit actually
    dirtied.  Answers are byte-identical either way — both pivot rules
    compute the same exact integer distances over the same root point
    set — so the solve artifact is shared with non-incremental builds.
    ``delta_hint = ("delete", rect)`` additionally unlocks the monotone
    delta conquer at dirty nodes.  Engines other than ``parallel`` /
    ``parallel-mp``, CREW audits, and scenes with non-integer extra
    points fall back to the ordinary solve (still correct, no subtree
    reuse).

    ``jobs`` sizes the ``parallel-mp`` engine's worker pool (default:
    the visible cores, capped at 8; ignored by other engines).
    """
    from repro.core.api import ShortestPathIndex

    spec = get_engine(engine)  # fail before any work on a bad name
    cache = default_cache() if cache is None else cache
    pram = pram or PRAM("build")
    stages: list[dict] = []
    geo_hash = scene.geometry_hash()
    full_hash = scene.content_hash()
    _BUILD_OPTS.jobs = jobs
    _BUILD_OPTS.pool_stats = None
    _BUILD_OPTS.trace = new_trace_id()
    try:
        return _build_index_inner(
            scene, engine, pram, leaf_size, cache, incremental, delta_hint,
            spec, stages, geo_hash, full_hash, ShortestPathIndex,
        )
    finally:
        _BUILD_OPTS.jobs = None
        _BUILD_OPTS.pool_stats = None
        _BUILD_OPTS.trace = None


def _build_index_inner(
    scene, engine, pram, leaf_size, cache, incremental, delta_hint,
    spec, stages, geo_hash, full_hash, ShortestPathIndex,
):

    dec, _ = _run_stage(
        stages, "decompose", cache, ("decompose", geo_hash), lambda: _decompose(scene)
    )
    graph, _ = _run_stage(
        stages, "graph", cache, ("graph", full_hash), lambda: _graph(scene, dec)
    )

    inc_ok = (
        incremental
        and engine in ("parallel", "parallel-mp")
        and not pram.detect_conflicts
        and cache.max_entries > 0
        and all(_is_integral_point(p) for p in scene.extra_points)
    )
    t0 = time.perf_counter()
    solve_key = ("solve", full_hash, engine, spec.gen, leaf_size)
    # a CREW-conflict audit exists to *run* the engine under write
    # tracing; answering it from the cache would pass the audit vacuously
    art = None if pram.detect_conflicts else cache.get(solve_key)
    cached = art is not None
    sub_stats: Optional[dict] = None
    if not cached:
        child = PRAM(f"{pram.name}/solve[{engine}]", pram.detect_conflicts)
        if inc_ok:
            index, sub_stats = _solve_parallel_incremental(
                dec, graph, child, leaf_size, cache, delta_hint, engine
            )
        else:
            index = spec.solve(dec, graph, child, leaf_size)
        # the matrix may be aliased by every later build of this scene (a
        # cache hit shares the ndarray, it does not copy): freeze it so an
        # in-place edit through one index cannot corrupt the others
        index.matrix.setflags(write=False)
        art = SolveArtifact(
            tuple(index.points), index.matrix, child.time, child.work, child.max_ops
        )
        cache.put(solve_key, art, art.nbytes())
    pram.charge(time=art.pram_time, work=art.pram_work, width=art.pram_width)
    index = DistanceIndex(list(art.points), art.matrix)
    stages.append(
        _timing("solve", time.perf_counter() - t0, art.pram_time, art.pram_work, cached)
    )

    t0 = time.perf_counter()
    idx = ShortestPathIndex(
        list(dec.all_rects),
        index,
        pram,
        dec.container,
        engine,
        polygons=dec.polygons,
        seams=dec.seams,
    )
    stages.append(_timing("query-structures", time.perf_counter() - t0, 0, 0, False))
    idx.provenance = {
        "engine": engine,
        "scene_hash": full_hash,
        "leaf_size": leaf_size,
        "n_points": len(index),
        "n_rects": len(dec.all_rects),
        "stages": stages,
        "incremental": bool(inc_ok),
    }
    if sub_stats is not None:
        idx.provenance["subtree"] = sub_stats
    pool_stats = getattr(_BUILD_OPTS, "pool_stats", None)
    if engine == "parallel-mp":
        # a cached solve never touched the pool; say so instead of
        # omitting the section (callers key off its presence)
        idx.provenance["pool"] = pool_stats or {"cached": True}
    # the update path needs the source scene and the cache the subtree
    # entries live in; both ride on the index (scene is immutable, the
    # cache reference adds no lifetime beyond the process default)
    idx.scene = scene
    idx.build_cache = cache
    _record_build_profile(stages, engine)
    return idx


def _is_integral_point(p) -> bool:
    try:
        return all(int(c) == c for c in p)
    except (OverflowError, ValueError):  # inf/nan coordinates
        return False


def _solve_parallel_incremental(
    dec: DecomposeArtifact,
    graph: GraphArtifact,
    pram: PRAM,
    leaf_size: int,
    cache: StageCache,
    delta_hint: Optional[tuple],
    engine: str,
):
    """The parallel solve with subtree caching on (see ``build_index``)."""
    # anything that changes a node's *values* for a fixed rect multiset
    # must be part of the subtree salt, or two configurations would trade
    # entries: leaf size (recursion shape), pivot rule, and the seam set
    # (seams alter the metric but are invisible to the rect-coordinate key)
    # — deliberately NOT the engine: parallel and parallel-mp deposit
    # byte-identical matrices, so they share one entry population
    salt = (
        "v1",
        leaf_size,
        tuple(sorted((s.x, s.ylo, s.yhi) for s in dec.seams)),
    )
    eng = _paper_engine(
        dec, graph, pram, leaf_size, engine,
        divide="stable",
        subtree_cache=cache,
        subtree_salt=salt,
        delta_hint=delta_hint,
    )
    index = eng.build()
    s = eng.stats
    return index, {
        "hits": s.subtree_hits,
        "patches": s.subtree_patches,
        "misses": s.subtree_misses,
        "delta_conquers": s.delta_conquers,
        "patched_points": s.patched_points,
    }


def update_index(
    idx,
    delta: SceneDelta,
    pram: Optional[PRAM] = None,
    cache: Optional[StageCache] = None,
):
    """Apply a :class:`~repro.scene.SceneDelta` to an index's scene and
    return a fresh index for the mutated scene, re-solving only what the
    edit dirtied.

    The diff unit is the content-addressed :class:`StageCache`: geometry
    stages re-key themselves under the new scene hash, untouched separator
    subtrees are served from their geometry-keyed entries (deposited by
    ``build_index(..., incremental=True)``), and a single-rectangle delete
    takes the monotone delta conquer at the dirtied nodes.  The repaired
    index answers **byte-identically** to a cold rebuild of the mutated
    scene — reuse is value-exact, never approximate — so callers choose
    between ``update_index`` and a rebuild on cost alone.

    ``idx.provenance["repair"]`` reports what happened: the ops applied,
    old/new scene hashes, wall time, and the reused/recomputed subtree
    entry counts (``reused_fraction`` is the cache's share of the solve
    recursion).  Defaults come from the source index: same engine, same
    leaf size, same stage cache.
    """
    scene = getattr(idx, "scene", None)
    if scene is None:
        raise QueryError(
            "index has no attached scene; build it via build_index()/"
            "ShortestPathIndex.build before calling update_index"
        )
    if not isinstance(delta, SceneDelta):
        raise QueryError(f"update_index needs a SceneDelta, got {type(delta).__name__}")
    prov = getattr(idx, "provenance", None) or {}
    engine = prov.get("engine", "parallel")
    leaf_size = prov.get("leaf_size", DEFAULT_LEAF_SIZE)
    if cache is None:
        cache = getattr(idx, "build_cache", None) or default_cache()
    new_scene = scene.apply_delta(delta)
    hint: Optional[tuple] = None
    if len(delta.ops) == 1 and delta.ops[0][0] == "delete" and isinstance(
        delta.ops[0][1], Rect
    ):
        hint = ("delete", delta.ops[0][1])
    t0 = time.perf_counter()
    new_idx = build_index(
        new_scene,
        engine,
        pram,
        leaf_size,
        cache,
        incremental=True,
        delta_hint=hint,
    )
    wall = time.perf_counter() - t0
    sub = new_idx.provenance.get("subtree") or {}
    reused = sub.get("hits", 0) + sub.get("patches", 0) + 2 * sub.get("delta_conquers", 0)
    recomputed = sub.get("misses", 0)
    total = reused + recomputed
    solve_cached = any(
        st["name"] == "solve" and st["cached"] for st in new_idx.provenance["stages"]
    )
    new_idx.provenance["repair"] = {
        "ops": delta.describe(),
        "old_scene_hash": scene.content_hash(),
        "new_scene_hash": new_scene.content_hash(),
        "wall_s": float(wall),
        "reused_entries": reused,
        "recomputed_entries": recomputed,
        "reused_fraction": (reused / total) if total else 1.0,
        "solve_cached": solve_cached,
    }
    _record_repair(new_idx.provenance["repair"], engine, wall)
    return new_idx


def _record_repair(repair: dict, engine: str, wall: float) -> None:
    reg = default_registry()
    reg.counter(
        "repro.update.repairs", "incremental index repairs", labels=["engine"]
    ).inc(engine=engine)
    reg.counter(
        "repro.update.reused_entries",
        "subtree cache entries reused by repairs", labels=["engine"],
    ).inc(repair["reused_entries"], engine=engine)
    reg.counter(
        "repro.update.recomputed_entries",
        "subtree entries recomputed by repairs", labels=["engine"],
    ).inc(repair["recomputed_entries"], engine=engine)
    sp = span(
        "update.repair",
        new_trace_id(),
        t0=time.time() - wall,
        engine=engine,
        ops=repair["ops"],
        reused=repair["reused_entries"],
        recomputed=repair["recomputed_entries"],
    )
    finish(sp, time.time())
    BUILD_SPANS.add(sp)


def _run_stage(
    stages: list, name: str, cache: StageCache, key: tuple, builder: Callable
):
    t0 = time.perf_counter()
    art = cache.get(key)
    cached = art is not None
    if not cached:
        art = builder()
        cache.put(key, art, art.nbytes())
    stages.append(_timing(name, time.perf_counter() - t0, 0, 0, cached))
    return art, cached


def _record_build_profile(stages: list, engine: str) -> None:
    """Emit one build's per-stage profile through the observability layer:
    counters in the process-default registry (wall vs simulated PRAM cost,
    per stage and engine, cache hits split out) plus one span per stage in
    :data:`BUILD_SPANS` for Chrome-trace export."""
    reg = default_registry()
    runs = reg.counter(
        "repro.pipeline.stage_runs", "pipeline stage executions",
        labels=["stage", "engine", "cached"],
    )
    wall = reg.counter(
        "repro.pipeline.stage_wall_seconds", "cumulative stage wall time",
        labels=["stage", "engine"],
    )
    ptime = reg.counter(
        "repro.pipeline.stage_pram_time", "cumulative simulated PRAM time",
        labels=["stage", "engine"],
    )
    pwork = reg.counter(
        "repro.pipeline.stage_pram_work", "cumulative simulated PRAM work",
        labels=["stage", "engine"],
    )
    # join the trace the build minted (per-subtree spans of a parallel-mp
    # solve are already on it), so one trace id covers the whole build
    trace_id = current_build_trace()
    t0 = time.time() - sum(st["wall_s"] for st in stages)
    for st in stages:
        name = st["name"]
        runs.inc(stage=name, engine=engine, cached=str(st["cached"]).lower())
        wall.inc(st["wall_s"], stage=name, engine=engine)
        ptime.inc(st["pram_time"], stage=name, engine=engine)
        pwork.inc(st["pram_work"], stage=name, engine=engine)
        sp = span(
            f"build.{name}",
            trace_id,
            t0=t0,
            engine=engine,
            cached=st["cached"],
            pram_time=st["pram_time"],
            pram_work=st["pram_work"],
        )
        finish(sp, t0 + st["wall_s"])
        BUILD_SPANS.add(sp)
        t0 += st["wall_s"]


def _timing(name: str, wall_s: float, pram_time: int, pram_work: int, cached: bool) -> dict:
    return {
        "name": name,
        "wall_s": float(wall_s),
        "pram_time": int(pram_time),
        "pram_work": int(pram_work),
        "cached": bool(cached),
    }


def format_plan(provenance: dict) -> str:
    """A human-readable stage table of one build's provenance."""
    lines = [
        f"{'stage':<18} {'wall':>10} {'PRAM T':>10} {'PRAM W':>14}  cached",
        f"{'-' * 18} {'-' * 10} {'-' * 10} {'-' * 14}  ------",
    ]
    for st in provenance.get("stages", []):
        lines.append(
            f"{st['name']:<18} {st['wall_s']:>9.4f}s {st['pram_time']:>10,} "
            f"{st['pram_work']:>14,}  {'yes' if st['cached'] else 'no'}"
        )
    total = sum(st["wall_s"] for st in provenance.get("stages", []))
    lines.append(f"{'total':<18} {total:>9.4f}s")
    return "\n".join(lines)
