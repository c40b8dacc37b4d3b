#!/usr/bin/env python3
"""Cluster demo: a 2-worker cluster over published snapshots, end to end.

Walks the whole `repro.cluster` stack in one process tree:

1. build two scenes and start a :class:`ClusterFrontend` — the front-end
   writes each scene once as a snapshot file in its private ``rsp-``
   directory, spawns two workers that map those files read-only, and
   routes each scene to its rendezvous-hashed owner;
2. talk the length-prefixed JSON protocol directly: single lengths, a
   bulk ``lengths`` batch, a path report, and an error (responses come
   back in request order, even across workers);
3. drive it with the closed-loop load generator and print the
   percentile report;
4. fetch the ``stats`` verb: per-worker service percentiles, batch-size
   histograms, store/server counters, and memory (note the *private*
   bytes — the matrices are shared file pages, not copies);
5. stop the cluster: workers drain and exit, the directory is removed.

Run:  python examples/cluster_demo.py
"""

import asyncio
import os

from repro import ShortestPathIndex
from repro.cluster import ClusterFrontend, loadgen
from repro.cluster.protocol import read_frame, write_frame
from repro.serve.publish import list_published
from repro.workloads.generators import random_disjoint_rects


async def rpc(host, port, *msgs):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for m in msgs:
            await write_frame(writer, m)
        return [await read_frame(reader) for _ in msgs]
    finally:
        writer.close()
        await writer.wait_closed()


async def main() -> None:
    # -- 1. two scenes, two workers, published snapshot files ----------
    campus = random_disjoint_rects(32, seed=11)
    depot = random_disjoint_rects(24, seed=12)
    idx = ShortestPathIndex.build(campus)  # built once, in the front-end
    async with ClusterFrontend(
        {"campus": {"index": idx}, "depot": {"obstacles": depot}},
        workers=2,
    ) as fe:
        print(f"cluster on {fe.host}:{fe.port}; scene -> worker: {fe.assignment}")
        print(f"published files: {sorted(os.listdir(fe.publisher.dir))}")

        # -- 2. speak the protocol directly -----------------------------
        vs = idx.vertices()
        p, q = vs[0], vs[-1]
        resps = await rpc(
            fe.host,
            fe.port,
            {"id": 0, "op": "length", "scene": "campus", "p": list(p), "q": list(q)},
            {"id": 1, "op": "lengths", "scene": "campus",
             "pairs": [[list(vs[i]), list(vs[-1 - i])] for i in range(4)]},
            {"id": 2, "op": "path", "scene": "campus", "p": list(p), "q": list(q)},
            {"id": 3, "op": "length", "scene": "nowhere", "p": [0, 0], "q": [1, 1]},
        )
        assert resps[0]["result"] == idx.length(p, q)
        print(f"length {p} -> {q} = {resps[0]['result']}")
        print(f"bulk of 4 lengths: {resps[1]['result']}")
        print(f"path has {len(resps[2]['result']) - 1} segments")
        print(f"unknown scene answers one line: {resps[3]['error']!r}")

        # -- 3. closed-loop load with a percentile report ----------------
        report = await loadgen.run(
            fe.host, fe.port, mode="closed", n_requests=400, conns=8, seed=5
        )
        s = report.summary()
        lat = s["latency"]
        print(
            f"loadgen: {s['ok']} ok / {s['errors']} errors / {s['shed']} shed "
            f"at {s['qps']:,.0f} req/s; "
            f"p50 {lat['p50_ms']:.2f} ms, p95 {lat['p95_ms']:.2f} ms, "
            f"p99 {lat['p99_ms']:.2f} ms"
        )

        # -- 4. cluster-wide stats --------------------------------------
        (stats,) = await rpc(fe.host, fe.port, {"id": 9, "op": "stats"})
        for wid, w in sorted(stats["result"]["workers"].items()):
            mem = w["memory"]
            print(
                f"worker {wid}: {w['requests']} requests, "
                f"service p99 {w['service']['p99_ms']:.2f} ms, "
                f"batches {w['batch_size_hist']}, "
                f"private {mem['private_bytes'] / 2**20:.1f} MB "
                f"(matrices are shared, not copied)"
            )

    # -- 5. clean shutdown ----------------------------------------------
    print(f"after stop, publisher directories: {list_published()}")


if __name__ == "__main__":
    asyncio.run(main())
