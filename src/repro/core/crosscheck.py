"""Cross-engine differential checking: the safety net behind polygon
obstacles (and every later change to the engines).

One scene is solved three independent ways —

* ``parallel``   — the §5/§6 divide-and-conquer on staircase separators,
* ``sequential`` — the §9 monotone-DAG sweeps (pure-rect scenes) or the
  [11]-style per-source Dijkstra (polygon scenes),
* ``baseline``   — batched multi-source Dijkstra on the seam-aware Hanan
  grid (:class:`~repro.core.baseline.GridOracle`),

and the three vertex matrices must agree entry-for-entry.  A sample of
reported polylines must additionally be *valid*: rectilinear, endpoint-
correct, clear of every obstacle interior (polygon interiors included,
via their decomposition rects + seams), inside the container, and exactly
as long as the reported length.

:func:`check_scene` returns a list of human-readable problems (empty =
agreement); :func:`shrink_scene` greedily drops obstacles while the check
still fails, so a 200-scene fuzz run hands back a minimal replayable JSON
counterexample instead of a haystack.  ``python -m repro fuzz`` and
``tests/test_fuzz_polygons.py`` both drive these entry points.
"""

from __future__ import annotations

import random
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.api import Obstacle, ShortestPathIndex, split_obstacles
from repro.core.baseline import GridOracle, path_is_clear, path_length
from repro.errors import ReproError
from repro.geometry.polygon import RectilinearPolygon

__all__ = [
    "check_links",
    "check_scene",
    "check_update",
    "shrink_scene",
    "validate_path",
]


def validate_path(
    idx: ShortestPathIndex,
    path: Sequence,
    p,
    q,
    expected_len: float,
    expected_bends: Optional[int] = None,
) -> list[str]:
    """Problems with one reported polyline (empty list = valid).

    Bend counting is structural: the polyline is normalized first
    (duplicate vertices dropped, collinear runs merged), so a path that
    pads itself with spurious vertices can neither hide a bend nor fake
    one.  ``expected_bends`` makes the count an assertion — the link
    query family's witnesses are validated with it.
    """
    from repro.links.solver import count_bends, normalize_polyline

    problems: list[str] = []
    if not path or path[0] != tuple(p) or path[-1] != tuple(q):
        problems.append(f"path endpoints {path[:1]}...{path[-1:]} != ({p}, {q})")
        return problems
    for a, b in zip(path, path[1:]):
        if a[0] != b[0] and a[1] != b[1]:
            problems.append(f"non-rectilinear path segment {a} -> {b}")
            return problems
    if not path_is_clear(path, idx.rects, seams=idx.seams):
        problems.append(f"path {p} -> {q} crosses an obstacle interior")
    container = getattr(idx, "container", None)
    if container is not None and any(not container.contains(pt) for pt in path):
        problems.append(f"path {p} -> {q} leaves the container")
    got = path_length(path)
    if got != expected_len:
        problems.append(
            f"path {p} -> {q} has length {got}, reported {expected_len}"
        )
    if expected_bends is not None:
        bends = count_bends(path)
        if bends != expected_bends:
            problems.append(
                f"path {p} -> {q} has {bends} bend(s) "
                f"(normalized {normalize_polyline(list(path))}), "
                f"reported {expected_bends}"
            )
    return problems


def _matrix_diff(name_a: str, ma, pts_a, name_b: str, mb, pts_b) -> list[str]:
    """Compare two vertex matrices over possibly differently-ordered points."""
    if set(pts_a) != set(pts_b):
        only_a = sorted(set(pts_a) - set(pts_b))[:3]
        only_b = sorted(set(pts_b) - set(pts_a))[:3]
        return [
            f"{name_a}/{name_b} vertex sets differ "
            f"({name_a} extra {only_a}, {name_b} extra {only_b})"
        ]
    order = [pts_b.index(p) for p in pts_a]
    mb2 = np.asarray(mb)[np.ix_(order, order)]
    ma = np.asarray(ma)
    both_inf = np.isinf(ma) & np.isinf(mb2)
    mismatch = ~both_inf & (ma != mb2)
    if not mismatch.any():
        return []
    i, j = map(int, np.argwhere(mismatch)[0])
    return [
        f"{name_a} vs {name_b}: d({pts_a[i]}, {pts_a[j]}) = "
        f"{ma[i, j]} vs {mb2[i, j]} ({int(mismatch.sum())} mismatching pairs)"
    ]


#: the engines every scene is cross-checked with by default; ``fuzz
#: --engine`` (and callers) may extend this with any registered engine.
#: ``parallel-mp`` rides along so the multicore dispatch is fuzzed
#: against the single-process engines on every scene — and, beyond the
#: value-equality below, it is held to *byte* identity with ``parallel``
DEFAULT_ENGINES = ("parallel", "sequential", "parallel-mp")

#: pool size for every ``parallel-mp`` build here — fixed at 2, not the
#: host's core count, so a 1-core runner still fuzzes the real pool
#: executor instead of the inline one (ignored by the other engines)
FUZZ_JOBS = 2


def check_scene(
    obstacles: Sequence[Obstacle],
    container: Optional[RectilinearPolygon] = None,
    extra_points: Sequence = (),
    n_paths: int = 6,
    n_arbitrary: int = 4,
    seed: int = 0,
    engines: Sequence[str] = DEFAULT_ENGINES,
) -> list[str]:
    """Differentially check one scene; returns problems (empty = agree).

    ``engines`` names the registered engines to build and compare (the
    first is the reference the baseline oracle and arbitrary-point
    queries are checked against).
    """
    rng = random.Random(f"xcheck|{seed}")
    engines = list(dict.fromkeys(engines)) or list(DEFAULT_ENGINES)
    idxs: dict[str, ShortestPathIndex] = {}
    try:
        for name in engines:
            idxs[name] = ShortestPathIndex.build(
                obstacles, extra_points=extra_points, engine=name,
                container=container, jobs=FUZZ_JOBS,
            )
    except ReproError as exc:
        return [f"build failed: {exc}"]
    ref = engines[0]
    idx_ref = idxs[ref]
    pts = idx_ref.index.points
    problems = []
    dtypes = {name: idx.index.matrix.dtype.name for name, idx in idxs.items()}
    if len(set(dtypes.values())) > 1:
        # one matrix dtype per build, whichever engine solved it
        problems.append(f"engines disagree on the matrix dtype: {dtypes}")
    if "parallel" in idxs and "parallel-mp" in idxs:
        # the pool engine promises more than value equality: the same
        # floats in the same order, bit for bit, at the same PRAM cost
        sp, mp = idxs["parallel"].index, idxs["parallel-mp"].index
        if list(sp.points) != list(mp.points):
            problems.append("parallel/parallel-mp point orders differ")
        elif sp.matrix.tobytes() != mp.matrix.tobytes():
            problems.append(
                "parallel and parallel-mp matrices are not byte-identical"
            )
        if idxs["parallel"].build_stats() != idxs["parallel-mp"].build_stats():
            problems.append("parallel and parallel-mp simulated PRAM costs differ")
    for name in engines[1:]:
        problems += _matrix_diff(
            ref, idx_ref.index.matrix, pts,
            name, idxs[name].index.matrix, idxs[name].index.points,
        )
    _, _, _, seams = split_obstacles(obstacles)
    if "grid" in engines:
        # the grid engine IS the baseline oracle computation; when it is
        # the reference its matrix simply *is* the baseline, and when it
        # is a comparison engine the diff above already checked ref
        # against it — either way, rerunning the full Hanan-grid
        # Dijkstra here would double the most expensive step of every
        # fuzz scene for zero extra coverage.  A vertex-set mismatch was
        # recorded by _matrix_diff above; report it rather than KeyError
        # on the reindex below
        if problems:
            return problems
        grid_idx = idxs["grid"].index
        order = [grid_idx.index[p] for p in pts]
        base = np.asarray(grid_idx.matrix)[np.ix_(order, order)]
    else:
        base = GridOracle(idx_ref.rects, pts, seams=seams).dist_matrix(pts)
        problems += _matrix_diff(
            ref, idx_ref.index.matrix, pts, "baseline", base, pts
        )
    if problems:
        return problems
    # sampled path reports must realise the agreed lengths exactly; only
    # queryable vertices qualify (container-pocket corners sit outside P)
    def queryable(p) -> bool:
        try:
            idx_ref._check_inside(p)
        except ReproError:
            return False
        return True

    qpts = [i for i in range(len(pts)) if queryable(pts[i])]
    finite_pairs = [
        (pts[i], pts[j])
        for i in qpts
        for j in qpts
        if i < j and np.isfinite(base[i, j])
    ]
    rng.shuffle(finite_pairs)
    for p, q in finite_pairs[:n_paths]:
        for name, idx in idxs.items():
            try:
                path = idx.shortest_path(p, q)
            except ReproError as exc:
                problems.append(f"{name} path {p} -> {q} failed: {exc}")
                continue
            problems += [
                f"{name}: {msg}"
                for msg in validate_path(idx, path, p, q, idx.length(p, q))
            ]
    # arbitrary-point queries against the oracle
    free = _free_points(idx_ref, n_arbitrary, rng)
    if free and qpts:
        arb_oracle = GridOracle(idx_ref.rects, list(pts) + free, seams=seams)
        for p in free:
            q = pts[qpts[rng.randrange(len(qpts))]]
            want = arb_oracle.dist(p, q)
            try:
                got = idx_ref.length(p, q)
            except ReproError as exc:
                problems.append(f"arbitrary length {p} -> {q} failed: {exc}")
                continue
            if got != want:
                problems.append(
                    f"arbitrary query d({p}, {q}) = {got}, oracle says {want}"
                )
    return problems


def check_links(
    obstacles: Sequence[Obstacle],
    container: Optional[RectilinearPolygon] = None,
    extra_points: Sequence = (),
    n_pairs: int = 5,
    n_arbitrary: int = 2,
    seed: int = 0,
    engines: Sequence[str] = DEFAULT_ENGINES,
) -> list[str]:
    """Differentially check the min-link / bicriteria query family.

    Every engine's answers (``min_links`` and the witness-free Pareto
    frontier) must byte-agree with each other and with the independent
    grid reference (:meth:`GridOracle.link_dist` / ``link_pareto``); the
    reference engine's witness paths must be valid polylines realising
    exactly the claimed (length, bends); frontiers must be non-dominated
    by construction (strictly increasing bends, strictly decreasing
    lengths) and end at the engines' agreed shortest-path length.
    Arbitrary (off-grid) endpoints are probed too.  Returns problems
    (empty = agreement).
    """
    rng = random.Random(f"linkcheck|{seed}")
    engines = list(dict.fromkeys(engines)) or list(DEFAULT_ENGINES)
    idxs: dict[str, ShortestPathIndex] = {}
    try:
        for name in engines:
            idxs[name] = ShortestPathIndex.build(
                obstacles, extra_points=extra_points, engine=name,
                container=container, jobs=FUZZ_JOBS,
            )
    except ReproError as exc:
        return [f"build failed: {exc}"]
    idx_ref = idxs[engines[0]]
    pts = idx_ref.index.points

    def queryable(p) -> bool:
        try:
            idx_ref._check_inside(p)
        except ReproError:
            return False
        return True

    qpts = [p for p in pts if queryable(p)]
    if len(qpts) < 2:
        return []
    pairs = [tuple(rng.sample(qpts, 2)) for _ in range(n_pairs)]
    free = _free_points(idx_ref, n_arbitrary, rng)
    pairs += [(f, qpts[rng.randrange(len(qpts))]) for f in free]
    oracle = GridOracle(
        idx_ref.rects,
        list(pts) + free,
        seams=idx_ref.seams,
        container=container,
    )
    problems: list[str] = []
    for p, q in pairs:
        want_links, want_len = oracle.link_dist(p, q)
        want_frontier = [
            (length, max(k - 1, 0)) for length, k in oracle.link_pareto(p, q)
        ]
        for name, idx in idxs.items():
            try:
                got_links = idx.min_links(p, q)
                frontier = idx.bicriteria(p, q, with_paths=(name == engines[0]))
            except ReproError as exc:
                problems.append(f"{name}: link query {p} -> {q} failed: {exc}")
                continue
            if got_links != want_links:
                problems.append(
                    f"{name}: min_links({p}, {q}) = {got_links}, "
                    f"grid reference says {want_links}"
                )
            got_frontier = [(length, bends) for length, bends, _ in frontier]
            if got_frontier != want_frontier:
                problems.append(
                    f"{name}: pareto({p}, {q}) = {got_frontier}, "
                    f"grid reference says {want_frontier}"
                )
                continue
            head_links = 0 if p == q else frontier[0][1] + 1
            if frontier and got_links != head_links:
                problems.append(
                    f"{name}: min_links({p}, {q}) = {got_links} does not "
                    f"match the frontier head {frontier[0][:2]}"
                )
            # the frontier's length endpoint ties bends to the agreed
            # length metric
            if frontier and frontier[-1][0] != idx.length(p, q):
                problems.append(
                    f"{name}: pareto({p}, {q}) ends at length "
                    f"{frontier[-1][0]}, length() says {idx.length(p, q)}"
                )
            for i, (length, bends, path) in enumerate(frontier):
                if i and not (
                    bends > frontier[i - 1][1] and length < frontier[i - 1][0]
                ):
                    problems.append(
                        f"{name}: pareto({p}, {q}) point {i} "
                        f"{(length, bends)} is dominated by "
                        f"{frontier[i - 1][:2]}"
                    )
                if path is not None:
                    problems += [
                        f"{name}: pareto witness {i}: {msg}"
                        for msg in validate_path(
                            idx, path, p, q, length, expected_bends=bends
                        )
                    ]
        if problems:
            break  # one failing pair is enough to shrink on
    return problems


def _diff_repair(repaired, cold, n_paths: int, rng: random.Random, label: str) -> list[str]:
    """Problems where a repaired index is not byte-identical to a cold
    rebuild of the same scene (empty = identical points, matrix, paths)."""
    pa = repaired.index.points
    pb = cold.index.points
    if list(pa) != list(pb):
        return [f"{label}: repaired/cold root point order differs"]
    ma = np.asarray(repaired.index.matrix)
    mb = np.asarray(cold.index.matrix)
    if ma.tobytes() != mb.tobytes():
        mismatch = ~((np.isinf(ma) & np.isinf(mb)) | (ma == mb))
        if mismatch.any():
            i, j = map(int, np.argwhere(mismatch)[0])
            return [
                f"{label}: d({pa[i]}, {pa[j]}) repaired {ma[i, j]} != cold "
                f"{mb[i, j]} ({int(mismatch.sum())} mismatching pairs)"
            ]
        return [f"{label}: matrices equal but not byte-identical (dtype/layout)"]
    problems: list[str] = []

    def queryable(p) -> bool:
        try:
            repaired._check_inside(p)
        except ReproError:
            return False
        return True

    qpts = [i for i in range(len(pa)) if queryable(pa[i])]
    pairs = [
        (pa[i], pa[j])
        for i in qpts
        for j in qpts
        if i < j and np.isfinite(ma[i, j])
    ]
    rng.shuffle(pairs)
    for p, q in pairs[:n_paths]:
        try:
            path_r = repaired.shortest_path(p, q)
            path_c = cold.shortest_path(p, q)
        except ReproError as exc:
            problems.append(f"{label}: path {p} -> {q} failed: {exc}")
            continue
        if path_r != path_c:
            problems.append(
                f"{label}: path {p} -> {q} differs: repaired {path_r} "
                f"vs cold {path_c}"
            )
        problems += [
            f"{label}: {msg}"
            for msg in validate_path(repaired, path_r, p, q, repaired.length(p, q))
        ]
    return problems


def check_update(
    obstacles: Sequence[Obstacle],
    container: Optional[RectilinearPolygon] = None,
    n_edits: int = 3,
    n_paths: int = 4,
    seed: int = 0,
    engines: Sequence[str] = DEFAULT_ENGINES,
) -> list[str]:
    """Differentially check incremental repair on one scene.

    Seeds an incremental index, then random-walks ``n_edits`` obstacle
    deletes/re-inserts through :func:`repro.pipeline.update_index`.  After
    every edit the repaired index must be **byte-identical** to a cold
    rebuild of the same mutated scene — same root point order, same exact
    integer matrix bytes, same reported polylines — and every engine in
    ``engines`` must agree with it on the vertex matrix.  Returns problems
    (empty = agreement); the walk stops at the first failing edit.
    """
    from repro.pipeline import StageCache, build_index, update_index
    from repro.scene import Scene, SceneDelta

    rng = random.Random(f"upcheck|{seed}")
    try:
        scene = Scene.from_obstacles(obstacles, container=container)
    except ReproError as exc:
        return [f"scene construction failed: {exc}"]
    # roomy private cache: the default cache cannot hold every subtree
    # entry of even a mid-sized scene, and eviction would just turn reuse
    # checks into rebuild checks
    cache = StageCache(max_entries=8192, max_bytes=512 << 20)
    try:
        idx = build_index(scene, engine="parallel", cache=cache, incremental=True)
    except ReproError as exc:
        return [f"seed build failed: {exc}"]
    removed: list[Obstacle] = []
    for step in range(n_edits):
        cur = list(idx.scene.rects) + list(idx.scene.polygons)
        if removed and (len(cur) <= 1 or rng.random() < 0.5):
            ob = removed.pop(rng.randrange(len(removed)))
            delta = SceneDelta.insert(ob)
            label = f"edit {step} (insert back)"
        elif len(cur) > 1:
            ob = cur[rng.randrange(len(cur))]
            removed.append(ob)
            delta = SceneDelta.delete(ob)
            label = f"edit {step} (delete)"
        else:
            break
        try:
            idx = update_index(idx, delta, cache=cache)
        except ReproError as exc:
            return [f"{label}: update_index failed: {exc}"]
        try:
            cold = build_index(
                idx.scene, engine="parallel",
                cache=StageCache(max_entries=64, max_bytes=256 << 20),
            )
        except ReproError as exc:
            return [f"{label}: cold rebuild failed: {exc}"]
        problems = _diff_repair(idx, cold, n_paths, rng, label)
        for name in engines:
            if name == "parallel":
                continue
            try:
                other = build_index(
                    idx.scene, engine=name, jobs=FUZZ_JOBS,
                    cache=StageCache(max_entries=64, max_bytes=256 << 20),
                )
            except ReproError as exc:
                problems.append(f"{label}: {name} build failed: {exc}")
                continue
            problems += [
                f"{label}: {msg}"
                for msg in _matrix_diff(
                    "repaired", idx.index.matrix, idx.index.points,
                    name, other.index.matrix, other.index.points,
                )
            ]
        if problems:
            return problems
    return []


def _free_points(idx: ShortestPathIndex, k: int, rng: random.Random) -> list:
    xlo = min(r.xlo for r in idx.rects) - 2
    ylo = min(r.ylo for r in idx.rects) - 2
    xhi = max(r.xhi for r in idx.rects) + 2
    yhi = max(r.yhi for r in idx.rects) + 2
    out: list = []
    for _ in range(40 * (k + 1)):
        if len(out) >= k:
            break
        p = (rng.randint(xlo, xhi), rng.randint(ylo, yhi))
        try:
            idx._check_inside(p)
        except ReproError:
            continue
        if p not in out:
            out.append(p)
    return out


def shrink_scene(
    obstacles: Sequence[Obstacle],
    container: Optional[RectilinearPolygon],
    fails: Callable[[Sequence[Obstacle], Optional[RectilinearPolygon]], bool],
    budget: int = 40,
) -> tuple[list[Obstacle], Optional[RectilinearPolygon]]:
    """Greedy delta-shrink: drop obstacles (then the container) while the
    scene keeps failing; ``budget`` caps the number of re-checks."""
    cur = list(obstacles)
    cur_container = container
    spent = 0
    changed = True
    while changed and spent < budget:
        changed = False
        for i in range(len(cur) - 1, -1, -1):
            if len(cur) <= 1 or spent >= budget:
                break
            cand = cur[:i] + cur[i + 1 :]
            spent += 1
            try:
                if fails(cand, cur_container):
                    cur = cand
                    changed = True
            except ReproError:
                continue
        if cur_container is not None and spent < budget:
            spent += 1
            try:
                if fails(cur, None):
                    cur_container = None
                    changed = True
            except ReproError:
                pass
    return cur, cur_container
