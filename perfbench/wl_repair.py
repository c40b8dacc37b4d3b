"""Workload ``repair``: seeded edit streams through ``update_index``.

Set-up is one ``incremental=True`` build of each stream's base scene on
one shared private ``StageCache`` (repeated ``SETUPS`` times; the last
set is kept).  The timed ops take the streams' edits round-robin; each
stream alternates deleting a random current obstacle and inserting a
fresh held-back one, repaired from that stream's previous index, so
subtree reuse and the delete delta conquer do the work.  Several base
scenes per run keep one scene's shape from deciding the run's figures.
Every repaired index is checked against ``GridOracle`` rows; every
``COLD_EVERY``-th one must also be byte-identical to a cold rebuild of
its scene.  Peak RSS is read after the first ``RSS_OPS`` edits, which
every run makes, so it does not grow with the number of edits a run
fits into its time.
"""

from __future__ import annotations

import hashlib
import random
import time

import numpy as np

import inputs
from common import e2e_metrics, latency_summary, self_peak_rss_mb
from layers import repair_layers, solve_check, solve_layers
from tracer import Tracer, solve_targets

SETUPS = 3
#: shared cache bound: it keeps the process small; the cache fills it
#: after some 50 edits, when the least recently used entries (mostly
#: subtrees of scenes the streams have moved past) start to go
CACHE_MB = 256
#: edits before peak RSS is read; the cache is well below its bound
#: then (the fill is in the run's info line)
RSS_OPS = 24
#: sampled oracle sources per repaired index
SOURCES = 4
COLD_EVERY = 8


def setup(seed: int):
    """Seed builds; returns the last set of indexes (one per stream) and
    each set's seconds."""
    from repro.pipeline import StageCache, build_index
    from repro.scene import Scene

    scenes = [
        Scene.from_obstacles(inputs.repair_scene(seed, s)[0])
        for s in range(inputs.REPAIR_STREAMS)
    ]
    times = []
    idxs = None
    for _ in range(SETUPS):
        idxs = None  # drop the previous seed builds and their cache first
        cache = StageCache(max_entries=1 << 20, max_bytes=CACHE_MB << 20)
        t0 = time.perf_counter()
        idxs = [
            build_index(scene, engine="parallel", cache=cache, incremental=True)
            for scene in scenes
        ]
        times.append(time.perf_counter() - t0)
    return idxs, times


def repairs(seed: int, idxs: list, count=None, seconds=None):
    """Apply edits until ``count`` ops, or until ``seconds`` spent
    repairing and at least ``RSS_OPS`` ops (or until the streams end).
    Returns per-op seconds, check samples, provenances, and the peak RSS
    and cache fill after ``RSS_OPS`` ops; ``idxs`` ends holding each
    stream's latest index."""
    from repro.pipeline import update_index
    from repro.scene import SceneDelta

    times, samples, provs = [], [], []
    at_rss: dict = {}
    spent = 0.0
    for k, (stream, op, rect) in enumerate(inputs.repair_edits(seed)):
        if (count is not None and k >= count) or (
            seconds is not None and spent >= seconds and k >= RSS_OPS
        ):
            break
        delta = SceneDelta.delete(rect) if op == "delete" else SceneDelta.insert(rect)
        t0 = time.perf_counter()
        idx = update_index(idxs[stream], delta)
        dt = time.perf_counter() - t0
        idxs[stream] = idx
        spent += dt
        times.append(dt)
        provs.append(idx.provenance)
        samples.append(_sample(seed, k, idx))
        if k + 1 == RSS_OPS:
            cache = idx.build_cache
            at_rss = {
                "peak_rss_mb": self_peak_rss_mb(),
                "cache_fill": cache.stats()["bytes"] / cache.max_bytes,
            }
    return times, samples, provs, at_rss


def _sample(seed: int, k: int, idx) -> dict:
    pts = idx.vertices()
    rng = random.Random(f"perfbench-repair-sources|{seed}|{k}")
    rows = sorted(rng.sample(range(len(pts)), min(SOURCES, len(pts))))
    s = {
        "k": k,
        "scene": idx.scene,
        "pts": pts,
        "rows": rows,
        "values": np.array(idx.index.matrix[rows]),
    }
    if k % COLD_EVERY == seed % COLD_EVERY:
        s["digest"] = _digest(idx.index.matrix)
    return s


def _digest(matrix) -> str:
    return hashlib.sha256(matrix.tobytes()).hexdigest()


def check(samples: list[dict]) -> int:
    """Wrong repairs: oracle rows on every op, cold-rebuild bytes on the
    sampled ones."""
    from repro.core.baseline import GridOracle
    from repro.pipeline import StageCache, build_index

    wrong = 0
    for s in samples:
        rects = list(s["scene"].obstacles)
        want = GridOracle(rects, s["pts"]).dist_matrix(
            [s["pts"][i] for i in s["rows"]], s["pts"]
        )
        ok = np.array_equal(want, s["values"])
        if ok and "digest" in s:
            cold = build_index(s["scene"], engine="parallel", cache=StageCache())
            ok = cold.vertices() == s["pts"] and _digest(cold.index.matrix) == s["digest"]
        wrong += 0 if ok else 1
    return wrong


def run(seed: int, seconds: float) -> dict:
    idxs, setups = setup(seed)
    times, samples, _, at_rss = repairs(seed, idxs, seconds=seconds)
    del idxs
    wrong = check(samples)
    metrics, info = e2e_metrics(setups, times, sum(times), at_rss["peak_rss_mb"])
    info["cache_fill_at_rss"] = at_rss["cache_fill"]
    return {"attempted": len(times), "failed": wrong, "metrics": metrics, "info": info}


def trace_ops(seconds: float) -> int:
    """Edits per traced pass, fixed by ``--seconds`` (see wl_build)."""
    return max(8, 3 * int(seconds))


def run_traced(seed: int, seconds: float, tracer: Tracer) -> dict:
    n = trace_ops(seconds)
    idxs, _ = setup(seed)
    plain, _, _, _ = repairs(seed, idxs, count=n)
    del idxs
    idxs, _ = setup(seed)  # a fresh cache: the traced pass must not reuse the plain one's
    tracer.install(solve_targets())
    try:
        traced, samples, provs, _ = repairs(seed, idxs, count=n)
    finally:
        tracer.uninstall()
    peak = self_peak_rss_mb()
    out = solve_layers(tracer, provs)
    out.update(repair_layers(provs, idxs[0].build_cache.stats()))
    del idxs
    out["trace.overhead_ms"] = latency_summary(traced)["p50"] - latency_summary(plain)["p50"]
    out["trace.peak_rss_mb"] = peak
    return {
        "attempted": len(traced),
        "failed": check(samples),
        "violations": solve_check(tracer, provs),
        "layers": out,
        "info": {"ops": len(traced)},
    }
