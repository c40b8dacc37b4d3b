"""Workload ``build``: cold ``build_index(engine="parallel")`` of distinct
seeded 128-obstacle scenes, one at a time, each with a fresh private
``StageCache``.

Set-up is one untimed warm-up build, repeated ``SETUPS`` times.  Every
timed build is checked afterwards against ``GridOracle`` rows from
seeded sample sources.  Peak RSS is the median over the timed builds of
each build's own peak: one build in a run may briefly hold some 30 MB
more or not, from one process to the next with the same inputs, so the
peak over the whole run would jump between two values.  The traced run also builds the first scenes
under ``parallel-mp`` with two pool workers and checks their matrices
byte for byte against the ``parallel`` ones, so the pool layer is
measured even though it has no workload of its own.
"""

from __future__ import annotations

import gc
import os
import random
import time

import numpy as np

import inputs
from common import e2e_metrics, latency_summary, median, proc_peak_rss_mb, reset_peak_rss
from layers import pool_layers, solve_check, solve_layers
from tracer import Tracer, solve_targets

SETUPS = 3
#: sampled oracle sources per build
SOURCES = 8
#: scenes rebuilt under parallel-mp in the traced run, and its pool size
MP_SCENES = 2
MP_JOBS = 2


def _scene(rects):
    from repro.scene import Scene

    return Scene.from_obstacles(rects)


def _build(scene, engine="parallel", jobs=None):
    from repro.pipeline import StageCache, build_index

    return build_index(scene, engine=engine, cache=StageCache(), jobs=jobs)


def setup(seed: int) -> list[float]:
    """Warm-up builds (imports done, lazy numpy paths touched)."""
    scene = _scene(inputs.warmup_scene(seed))
    times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        _build(scene)
        times.append(time.perf_counter() - t0)
    return times


def _sample(seed: int, k: int, idx) -> dict:
    """What the checker needs from one build: its points and the matrix
    rows of seeded sample sources."""
    pts = idx.vertices()
    rng = random.Random(f"perfbench-build-sources|{seed}|{k}")
    rows = sorted(rng.sample(range(len(pts)), min(SOURCES, len(pts))))
    return {"k": k, "pts": pts, "rows": rows, "values": np.array(idx.index.matrix[rows])}


def check(seed: int, samples: list[dict]) -> int:
    """Wrong builds among ``samples`` (GridOracle on the sampled rows)."""
    from repro.core.baseline import GridOracle

    oracles: dict[int, np.ndarray] = {}
    wrong = 0
    for s in samples:
        key = s["k"]
        if key not in oracles:
            rects = inputs.build_scene(seed, key)
            oracle = GridOracle(rects, s["pts"])
            oracles[key] = oracle.dist_matrix([s["pts"][i] for i in s["rows"]], s["pts"])
        if not np.array_equal(oracles[key], s["values"]):
            wrong += 1
    return wrong


def timed_builds(seed: int, count=None, seconds=None, keep=0):
    """Build scenes 0, 1, ... until ``count`` builds or ``seconds`` spent
    building.  Returns per-build seconds, check samples, provenances, the
    first ``keep`` matrices and each build's peak RSS."""
    times, samples, provs, kept, peaks = [], [], [], [], []
    spent = 0.0
    k = 0
    while (count is None or k < count) and (seconds is None or spent < seconds):
        scene = _scene(inputs.build_scene(seed, k))
        reset_peak_rss()
        t0 = time.perf_counter()
        idx = _build(scene)
        dt = time.perf_counter() - t0
        peaks.append(proc_peak_rss_mb(os.getpid()))
        spent += dt
        times.append(dt)
        samples.append(_sample(seed, k, idx))
        provs.append(idx.provenance)
        if k < keep:
            kept.append((idx.vertices(), idx.index.matrix))
        # free it before the next build, or peak RSS holds two: whether
        # the cyclic collector ran by then would decide the figure
        del idx
        gc.collect()
        k += 1
    return times, samples, provs, kept, peaks


def run(seed: int, seconds: float) -> dict:
    setups = setup(seed)
    times, samples, _, _, peaks = timed_builds(seed, seconds=seconds)
    wrong = check(seed, samples)
    metrics, info = e2e_metrics(setups, times, sum(times), median(peaks))
    return {"attempted": len(times), "failed": wrong, "metrics": metrics, "info": info}


def trace_ops(seconds: float) -> int:
    """Builds per traced pass: fixed by ``--seconds`` so the exact counts
    of two runs with the same seed cover the same work."""
    return max(2, int(seconds) // 3)


def run_traced(seed: int, seconds: float, tracer: Tracer) -> dict:
    n = trace_ops(seconds)
    setup(seed)
    plain, _, _, _, _ = timed_builds(seed, count=n)
    tracer.install(solve_targets())
    try:
        traced, samples, provs, kept, peaks = timed_builds(seed, count=n, keep=MP_SCENES)
    finally:
        tracer.uninstall()
    peak = median(peaks)
    out = solve_layers(tracer, provs)
    pool, mp_wrong = _mp_pass(seed, kept)
    out.update(pool)
    wrong = check(seed, samples) + mp_wrong
    out["trace.overhead_ms"] = latency_summary(traced)["p50"] - latency_summary(plain)["p50"]
    out["trace.peak_rss_mb"] = peak
    return {
        "attempted": len(traced) + len(kept),
        "failed": wrong,
        "violations": solve_check(tracer, provs),
        "layers": out,
        "info": {"ops": len(traced), "mp_ops": len(kept)},
    }


def _mp_pass(seed: int, reference: list) -> tuple[dict, int]:
    """Rebuild the first scenes under parallel-mp; pool counters come
    from the registry and the build's ``provenance["pool"]``."""
    from repro.core.pool import get_pool, shutdown_pool
    from repro.obs.registry import default_registry

    get_pool(MP_JOBS)  # pool start is set-up, not build time
    before = default_registry().snapshot()
    wrong = 0
    wall = 0.0
    provs = []
    try:
        for k, (pts, mat) in enumerate(reference):
            scene = _scene(inputs.build_scene(seed, k))
            t0 = time.perf_counter()
            idx = _build(scene, engine="parallel-mp", jobs=MP_JOBS)
            wall += time.perf_counter() - t0
            provs.append(idx.provenance.get("pool") or {})
            same = idx.vertices() == pts and idx.index.matrix.tobytes() == mat.tobytes()
            wrong += 0 if same else 1
    finally:
        shutdown_pool()
    after = default_registry().snapshot()
    return pool_layers(before, after, provs, wall, MP_JOBS), wrong
