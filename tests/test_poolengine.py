"""The multicore build engine (``parallel-mp``) and its worker pool.

The contract under test is strict: dispatching separator subtrees and
(min,+) conquer blocks to worker processes must change *nothing*
observable about the answer — matrices byte-identical to the single
process ``parallel`` engine, identical simulated PRAM totals, identical
recursion statistics, and subtree-cache deposits a later incremental
repair can reuse interchangeably.  The pool itself must fail loudly and
clean (a dead worker is a one-line ``EngineError``, never a hang, and
never an orphaned process), under ``fork`` and ``spawn`` alike.
"""

import os
import subprocess
import time

import numpy as np
import pytest

from repro.core.allpairs import ParallelEngine
from repro.core.pool import (
    PoolExecutor,
    WorkerPool,
    default_jobs,
    get_pool,
    shutdown_pool,
)
from repro.errors import EngineError
from repro.geometry.primitives import Rect
from repro.pipeline import StageCache, build_index, update_index
from repro.pram.machine import PRAM
from repro.scene import Scene, SceneDelta
from repro.serve.publish import list_published
from repro.workloads.generators import random_disjoint_rects, random_polygon_scene


def _rect_scene(n, seed):
    return Scene(tuple(random_disjoint_rects(n, seed=seed)))


@pytest.fixture(autouse=True)
def _pool_hygiene():
    """Every test starts and ends with no module pool and no ``rsp-``
    publisher directory."""
    shutdown_pool()
    yield
    shutdown_pool()
    assert list_published() == []


# ----------------------------------------------------------------------
# byte identity with the single-process engine
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n,seed", [(12, 0), (40, 7), (90, 3)])
def test_cold_build_byte_identical(n, seed):
    scene = _rect_scene(n, seed)
    a = build_index(scene, engine="parallel", cache=StageCache(max_entries=0))
    b = build_index(
        scene, engine="parallel-mp", jobs=2, cache=StageCache(max_entries=0)
    )
    assert list(a.index.points) == list(b.index.points)
    assert a.index.matrix.tobytes() == b.index.matrix.tobytes()
    assert (a.pram.time, a.pram.work, a.pram.max_ops) == (
        b.pram.time, b.pram.work, b.pram.max_ops,
    )
    assert b.provenance["pool"]["workers"] == 2
    assert b.provenance["pool"]["tasks"] > 0


def test_polygon_scene_byte_identical():
    obstacles = random_polygon_scene(n_polygons=2, n_rects=4, seed=11)
    scene = Scene.from_obstacles(obstacles)
    a = build_index(scene, engine="parallel", cache=StageCache(max_entries=0))
    b = build_index(
        scene, engine="parallel-mp", jobs=2, cache=StageCache(max_entries=0)
    )
    assert a.index.matrix.tobytes() == b.index.matrix.tobytes()


def test_engine_stats_match_single_process():
    """Worker-side recursion stats merge into the same totals the
    single-process engine reports (nothing double counted, nothing
    dropped)."""
    scene = _rect_scene(40, 7)
    p1, p2 = PRAM("sp"), PRAM("mp")
    e1 = ParallelEngine(list(scene.obstacles), [], p1, validate=False)
    i1 = e1.build()
    executor = PoolExecutor(get_pool(2), 2)
    e2 = ParallelEngine(
        list(scene.obstacles), [], p2, validate=False, executor=executor
    )
    i2 = e2.build()
    assert i1.matrix.tobytes() == i2.matrix.tobytes()
    s1, s2 = vars(e1.stats), vars(e2.stats)
    assert s1 == s2
    assert (p1.time, p1.work, p1.max_ops) == (p2.time, p2.work, p2.max_ops)
    assert executor.stats["tasks"] > 0
    assert executor.stats["subtree_tasks"] > 0


def test_incremental_repair_byte_identical():
    rects = list(random_disjoint_rects(40, seed=7))
    scene = Scene(tuple(rects))
    cache = StageCache(max_entries=256, max_bytes=64 << 20)
    idx0 = build_index(
        scene, engine="parallel-mp", jobs=2, incremental=True, cache=cache
    )
    idx1 = update_index(idx0, SceneDelta.delete(rects[20]))
    cold = build_index(
        Scene(tuple(r for r in rects if r != rects[20])),
        engine="parallel",
        cache=StageCache(max_entries=0),
    )
    assert idx1.index.matrix.tobytes() == cold.index.matrix.tobytes()
    assert idx1.provenance["engine"] == "parallel-mp"
    assert "pool" in idx1.provenance


def test_subtree_deposits_interchangeable_with_parallel():
    """A repair seeded by a parallel-mp build reuses exactly as much as
    one seeded by parallel — the engines share one subtree-entry
    population, entry for entry and byte for byte, inline or pooled."""
    rects = list(random_disjoint_rects(40, seed=7))
    scene = Scene(tuple(rects))
    runs = [("parallel", None), ("parallel-mp", 1), ("parallel-mp", 2)]
    seeded, reports = [], []
    for engine, jobs in runs:
        cache = StageCache(max_entries=256, max_bytes=64 << 20)
        idx0 = build_index(
            scene, engine=engine, jobs=jobs, incremental=True, cache=cache
        )
        st = cache.stats()
        seeded.append((st["entries"], st["bytes"], st["misses"].get("solve")))
        idx1 = update_index(idx0, SceneDelta.delete(rects[20]))
        reports.append(idx1.provenance["subtree"])
    assert seeded[1] == seeded[0], runs[1]
    assert seeded[2] == seeded[0], runs[2]
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_jobs_one_runs_inline():
    """``jobs=1`` is the honest single-core baseline: no pool, no worker
    processes, same bytes."""
    scene = _rect_scene(20, 1)
    a = build_index(scene, engine="parallel", cache=StageCache(max_entries=0))
    b = build_index(
        scene, engine="parallel-mp", jobs=1, cache=StageCache(max_entries=0)
    )
    assert a.index.matrix.tobytes() == b.index.matrix.tobytes()
    assert b.provenance["pool"]["inline"] is True
    assert b.provenance["pool"]["workers"] == 0


def test_mp_build_is_deterministic():
    """Two parallel-mp builds of the same scene are byte-identical to
    each other (result-arrival order must not leak into the answer)."""
    scene = _rect_scene(40, 5)
    mats = [
        build_index(
            scene, engine="parallel-mp", jobs=2, cache=StageCache(max_entries=0)
        ).index.matrix.tobytes()
        for _ in range(2)
    ]
    assert mats[0] == mats[1]


class _ShuffledPool:
    """A stand-in pool that runs each task in-process when its result is
    asked for, finishing outstanding tasks in a seeded random order."""

    closed = False

    def __init__(self, seed):
        import random
        import threading

        self._rng = random.Random(seed)
        self._lock = threading.RLock()
        self._tasks = {}
        self._ids = iter(range(1, 1 << 30))

    def exclusive(self):
        return self._lock

    def submit(self, fn, payload, kind="task"):
        tid = next(self._ids)
        self._tasks[tid] = (fn, payload)
        return tid

    def next_result(self):
        from repro.core.pool import _resolve

        tid = self._rng.choice(sorted(self._tasks))
        fn, payload = self._tasks.pop(tid)
        body, arrays = _resolve(fn)(payload)
        return tid, 0.0, body, arrays

    def abandon(self):
        self._tasks.clear()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_any_arrival_order_gives_the_inline_result(seed):
    """Whatever order workers finish in, the pool executor computes
    exactly what the inline executor does: matrix bytes, PRAM totals,
    recursion stats (Monge block counts included), and — with a subtree
    cache — the same cache population."""
    rects = list(random_disjoint_rects(60, seed=11))
    for cached in (False, True):
        runs = []
        for executor in (None, PoolExecutor(_ShuffledPool(seed), 2)):
            pram = PRAM("t")
            cache = StageCache(max_entries=512, max_bytes=64 << 20) if cached else None
            eng = ParallelEngine(
                rects, [], pram, validate=False, executor=executor,
                divide="stable" if cached else "median", subtree_cache=cache,
            )
            mat = eng.build().matrix.tobytes()
            pop = cache.stats()["entries"] if cached else None
            runs.append((mat, (pram.time, pram.work, pram.max_ops), vars(eng.stats), pop))
        assert runs[0] == runs[1], f"cached={cached}"
        assert executor.stats["tasks"] > 0


# ----------------------------------------------------------------------
# pool lifecycle
# ----------------------------------------------------------------------
def test_worker_crash_is_one_line_error_and_clean_shutdown():
    pool = WorkerPool(2)
    pids = [p.pid for p in pool._workers]
    pool.submit("repro.core.pool:_solve_task", {}, kind="__crash__")
    with pytest.raises(EngineError) as ei:
        # the crash task never produces a result; liveness polling must
        # turn the dead worker into an error, not a hang
        pool.next_result()
    msg = str(ei.value)
    assert "\n" not in msg
    assert "died" in msg
    assert pool.closed
    assert list_published() == []
    deadline = time.time() + 5
    while time.time() < deadline:
        alive = [pid for pid in pids if _pid_alive(pid)]
        if not alive:
            break
        time.sleep(0.05)
    assert not alive, f"worker processes leaked: {alive}"


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    # a zombie still answers signal 0; check the process table state
    try:
        out = subprocess.run(
            ["ps", "-o", "stat=", "-p", str(pid)],
            capture_output=True, text=True,
        ).stdout.strip()
    except OSError:
        return True
    return bool(out) and not out.startswith("Z")


def test_build_recovers_after_pool_crash():
    """A crashed pool closes; the next build gets a fresh one from
    get_pool and succeeds."""
    pool = get_pool(2)
    pool.submit("repro.core.pool:_solve_task", {}, kind="__crash__")
    with pytest.raises(EngineError):
        pool.next_result()
    assert pool.closed
    scene = _rect_scene(20, 2)
    idx = build_index(
        scene, engine="parallel-mp", jobs=2, cache=StageCache(max_entries=0)
    )
    ref = build_index(scene, engine="parallel", cache=StageCache(max_entries=0))
    assert idx.index.matrix.tobytes() == ref.index.matrix.tobytes()


def test_get_pool_reuses_and_resizes():
    p2 = get_pool(2)
    assert get_pool(2) is p2
    p3 = get_pool(3)
    assert p3 is not p2
    assert p2.closed and not p3.closed
    assert p3.jobs == 3


def test_engine_error_when_pool_unavailable_degrades_inline(monkeypatch):
    """If the pool cannot start at all, the build degrades to the inline
    solve (same bytes) and records why."""
    import repro.core.pool as poolmod

    def boom(jobs):
        raise OSError("no processes for you")

    monkeypatch.setattr(poolmod, "get_pool", boom)
    scene = _rect_scene(16, 4)
    idx = build_index(
        scene, engine="parallel-mp", jobs=2, cache=StageCache(max_entries=0)
    )
    ref = build_index(scene, engine="parallel", cache=StageCache(max_entries=0))
    assert idx.index.matrix.tobytes() == ref.index.matrix.tobytes()
    assert "OSError" in idx.provenance["pool"]["pool_error"]
    assert idx.provenance["pool"]["inline"] is True


def test_pool_counters_flow_through_registry():
    from repro.obs.registry import default_registry

    scene = _rect_scene(40, 9)
    build_index(scene, engine="parallel-mp", jobs=2, cache=StageCache(max_entries=0))
    snap = default_registry().snapshot()
    assert "repro.build.pool.tasks" in snap
    assert "repro.build.pool.workers_spawned" in snap
    total = sum(s["value"] for s in snap["repro.build.pool.tasks"]["series"])
    assert total > 0


def test_results_come_back_through_the_pipe():
    """Every result, matrix included, travels through the result queue;
    the transport counter books all of it under ``pipe``."""
    from repro.obs.registry import default_registry

    def result_bytes():
        fam = default_registry().snapshot().get("repro.build.pool.result_bytes")
        out = {}
        for series in (fam or {}).get("series", []):
            out[series["labels"]["transport"]] = series["value"]
        return out

    before = result_bytes()
    idx = build_index(
        _rect_scene(40, 7), engine="parallel-mp", jobs=2,
        cache=StageCache(max_entries=0),
    )
    after = result_bytes()
    assert set(after) == {"pipe"}
    moved = after["pipe"] - before.get("pipe", 0.0)
    assert moved >= idx.provenance["pool"]["leaf_tasks"] * 8


def test_spawn_pool_byte_identical_and_leaves_no_child():
    """The pool under ``spawn`` (macOS's default start method) builds
    exactly what inline ``parallel`` builds — matrix bytes, point order,
    PRAM totals — and its shutdown leaves no worker behind.  (``spawn``
    itself starts multiprocessing's per-interpreter resource tracker,
    which is not a pool process and is not counted.)"""
    import multiprocessing

    rects = list(random_disjoint_rects(40, seed=7))
    p1, p2 = PRAM("inline"), PRAM("spawn")
    i1 = ParallelEngine(rects, [], p1, validate=False).build()
    pool = WorkerPool(2, start_method="spawn")
    try:
        executor = PoolExecutor(pool, 2)
        i2 = ParallelEngine(rects, [], p2, validate=False, executor=executor).build()
        pids = [p.pid for p in pool._workers]
    finally:
        pool.shutdown()
    assert executor.stats["tasks"] > 0
    assert list(i1.points) == list(i2.points)
    assert i1.matrix.tobytes() == i2.matrix.tobytes()
    assert (p1.time, p1.work, p1.max_ops) == (p2.time, p2.work, p2.max_ops)
    assert not [pid for pid in pids if _pid_alive(pid)]
    assert multiprocessing.active_children() == []


def test_default_jobs_bounded():
    j = default_jobs()
    assert 1 <= j <= 8


# ----------------------------------------------------------------------
# worker-side handlers, driven inline (subprocess code is invisible to
# coverage; the handlers are plain functions, so exercise them here too)
# ----------------------------------------------------------------------
def test_worker_main_inline_roundtrip():
    import queue

    from repro.core.pool import _worker_main

    tasks, results = queue.Queue(), queue.Queue()
    rects = list(random_disjoint_rects(8, seed=0))
    ctx = {
        "rects": rects, "seams": (), "leaf_size": 6,
        "monge_dispatch": True, "divide": "median",
    }
    pts = list(dict.fromkeys(v for r in rects for v in r.vertices))
    tasks.put({
        "id": 1, "kind": "leaf", "fn": "repro.core.pool:_solve_task",
        "payload": {
            "ctx": ctx, "rect_idx": list(range(len(rects))), "pts": pts,
            "depth": 0, "tags": {}, "next_chain_id": 0,
        },
    })
    tasks.put({
        "id": 2, "kind": "task", "fn": "repro.core.pool:_resolve",
        "payload": {},  # _resolve() called with a dict explodes → error path
    })
    tasks.put(None)
    _worker_main(tasks, results)
    status, tid, wall, result, arrays = results.get_nowait()
    assert (status, tid) == ("ok", 1)
    assert arrays["matrix"].shape == (len(pts), len(pts))
    assert result["pram"][1] > 0  # leaf work was charged worker-side
    status, tid, _, msg, detail = results.get_nowait()
    assert (status, tid) == ("error", 2)
    assert "\n" not in msg and detail  # one-line error + full traceback


def test_task_minplus_inline_matches_direct_product():
    from repro.core.pool import _block_task
    from repro.monge.multiply import minplus_naive

    rng = np.random.default_rng(0)
    a = rng.integers(0, 20, size=(6, 5)).astype(np.float64)
    b = rng.integers(0, 20, size=(5, 7)).astype(np.float64)
    body, arrays = _block_task({"a": a, "b": b, "certify": False})
    ref = minplus_naive(a, b, PRAM("ref"))
    assert np.array_equal(arrays["matrix"], ref)
    assert body["fast"] == 0
    body2, arrays2 = _block_task({"a": a, "b": b, "certify": True})
    assert np.array_equal(arrays2["matrix"], ref)  # naive/monge agree
