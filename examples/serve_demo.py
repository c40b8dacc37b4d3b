#!/usr/bin/env python3
"""Serving demo: snapshot a scene, hold several resident, batch queries.

Walks the three layers of ``repro.serve``:

1. snapshot — pay the parallel build once, persist it, reload in
   milliseconds;
2. SceneStore — many named scenes, each loaded or built at most once,
   on first use;
3. QueryServer — a mixed multi-scene batch answered in order, with
   same-scene same-verb requests coalesced into one vectorized call.

Run:  python examples/serve_demo.py
"""

import tempfile
import time
from pathlib import Path

from repro import ShortestPathIndex
from repro.serve import QueryServer, Request, SceneStore, load, read_header, save
from repro.workloads.generators import random_disjoint_rects
from repro.workloads.requests import random_request_stream, scene_endpoints


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
        demo(Path(tmp))


def demo(workdir: Path) -> None:
    # -- 1. snapshot: build once, reload forever -----------------------
    rects = random_disjoint_rects(48, seed=11)
    t0 = time.perf_counter()
    idx = ShortestPathIndex.build(rects, engine="parallel")
    build_s = time.perf_counter() - t0
    snap = save(idx, workdir / "campus.rsp")
    t0 = time.perf_counter()
    reloaded = load(snap)
    load_s = time.perf_counter() - t0
    header = read_header(snap)
    print(f"built n={header['n_rects']} in {build_s * 1e3:.0f} ms, "
          f"snapshot is {snap.stat().st_size:,} bytes, "
          f"reload took {load_s * 1e3:.1f} ms "
          f"({build_s / load_s:.0f}x faster than rebuilding)")
    a, b = idx.vertices()[0], idx.vertices()[-1]
    assert reloaded.length(a, b) == idx.length(a, b)

    # -- 2. a store of scenes, materialized lazily ----------------------
    store = SceneStore()
    store.add_snapshot("campus", snap)
    store.add_scene("depot", random_disjoint_rects(20, seed=3))
    store.add_scene("port", random_disjoint_rects(24, seed=4), engine="sequential")
    store.get("campus")  # materializes from disk
    store.get("depot")   # materializes by building
    print(f"store after two gets: {store.stats()}")

    # -- 3. batched, coalesced queries ----------------------------------
    server = QueryServer(store)
    names = store.names()
    endpoints = {n: scene_endpoints(store.get(n), seed=7) for n in names}
    requests = random_request_stream(endpoints, 600, seed=9)
    t0 = time.perf_counter()
    for r in requests:
        server.submit([r])  # one Python round-trip per request
    per_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    batched = server.submit(requests)  # one coalesced group per scene
    co_s = time.perf_counter() - t0
    print(f"{len(requests)} requests over {len(names)} scenes: "
          f"per-request {per_s * 1e3:.0f} ms, coalesced {co_s * 1e3:.1f} ms "
          f"({per_s / co_s:.0f}x)")
    print(f"server: {server.stats()}")

    # answers are position-aligned with the submitted batch
    first = requests[0]
    direct = store.get(first.scene).length(first.p, first.q)
    assert batched[0] == direct
    path = server.submit([Request("campus", a, b, op="path")])[0]
    print(f"campus path {a} -> {b} has {len(path) - 1} segments, "
          f"length {store.get('campus').length(a, b)}")


if __name__ == "__main__":
    main()
