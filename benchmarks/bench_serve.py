"""S1 — the serving stack: snapshot reload vs cold build, coalesced
throughput vs per-request looping.

The paper's economics are *pay O(log² n) parallel time once, then answer
queries in O(1)/O(log n)*; serving makes that split literal.  Two claims
are measured and recorded in ``BENCH_serve.json``:

* **snapshot amortization** — ``serve.load`` of a persisted index must
  beat re-running the cold parallel build by ≥ 10× at n=128 (it is
  typically hundreds of times faster: a file mapping vs a full
  divide-and-conquer);
* **coalescing** — answering a vertex-pair length workload through
  ``QueryServer.submit`` in batches must beat the same workload submitted
  one request at a time by ≥ 5× (one containment check + one matrix
  gather per batch vs a Python round-trip per request).

Smoke mode (``BENCH_SMOKE=1``) shrinks the scene and skips the ratio
assertions (CI machines are noisy); the JSON artifact is always written.
"""

import time

import numpy as np

from benchmarks.common import SMOKE, emit, emit_json, format_table
from repro.core.api import ShortestPathIndex
from repro.serve import QueryServer, SceneStore, load, save
from repro.workloads.generators import random_disjoint_rects
from repro.workloads.requests import random_request_stream, scene_endpoints

N = 24 if SMOKE else 128
N_REQUESTS = 300 if SMOKE else 4000
BATCH = 64 if SMOKE else 512


def _best(fn, repeat=3):
    best, result = float("inf"), None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_s1_snapshot_and_coalescing(tmp_path):
    rects = random_disjoint_rects(N, seed=7)
    t0 = time.perf_counter()
    idx = ShortestPathIndex.build(rects, engine="parallel")
    build_s = time.perf_counter() - t0
    snap = tmp_path / "scene.rsp"
    save_s, _ = _best(lambda: save(idx, snap), repeat=1)
    load_s, loaded = _best(lambda: load(snap))
    load_speedup = build_s / load_s
    # loaded answers match before we trust its throughput numbers
    vs = idx.vertices()
    probe = [(vs[i], vs[-1 - i]) for i in range(0, len(vs), 7)]
    assert np.array_equal(idx.lengths(probe), loaded.lengths(probe))

    store = SceneStore()
    store.add_snapshot("scene", snap)
    server = QueryServer(store)
    endpoints = {"scene": scene_endpoints(store.get("scene"), seed=3)}
    reqs = random_request_stream(endpoints, N_REQUESTS, seed=5, mix=(0.0, 0.0))

    def per_request():
        for r in reqs:
            server.submit([r])

    def coalesced():
        for k in range(0, len(reqs), BATCH):
            server.submit(reqs[k : k + BATCH])

    per_s, _ = _best(per_request)
    co_s, _ = _best(coalesced)
    ratio = per_s / co_s

    rows = [
        ["cold parallel build", round(build_s * 1e3, 1), 1.0],
        ["snapshot save", round(save_s * 1e3, 1), round(build_s / save_s, 1)],
        ["snapshot load", round(load_s * 1e3, 2), round(load_speedup, 1)],
        [f"{N_REQUESTS} reqs, per-request", round(per_s * 1e3, 1), 1.0],
        [f"{N_REQUESTS} reqs, coalesced x{BATCH}", round(co_s * 1e3, 2), round(ratio, 1)],
    ]
    text = format_table(
        ["stage", "ms", "speedup"],
        rows,
        title=(
            f"S1  serving at n={N} — snapshot load {load_speedup:.0f}x faster "
            f"than cold build; coalesced batches {ratio:.1f}x per-request "
            f"({N_REQUESTS / co_s:,.0f} vs {N_REQUESTS / per_s:,.0f} req/s)"
        ),
    )
    emit("S1_serve", text)
    emit_json(
        "serve",
        {
            "n": N,
            "requests": N_REQUESTS,
            "batch": BATCH,
            "cold_build_s": build_s,
            "snapshot_save_s": save_s,
            "snapshot_load_s": load_s,
            "load_speedup": load_speedup,
            "per_request_s": per_s,
            "per_request_rps": N_REQUESTS / per_s,
            "coalesced_s": co_s,
            "coalesced_rps": N_REQUESTS / co_s,
            "coalescing_speedup": ratio,
            "targets": {"load_speedup_min": 10.0, "coalescing_speedup_min": 5.0},
        },
    )
    if not SMOKE:
        assert load_speedup >= 10.0, (
            f"snapshot load only {load_speedup:.1f}x faster than cold build"
        )
        assert ratio >= 5.0, f"coalescing only {ratio:.1f}x per-request"
