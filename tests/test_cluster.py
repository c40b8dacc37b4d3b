"""Tests for the cluster subsystem: HRW routing, the wire protocol,
metrics recorders, the worker request loop, and the full front-end
(micro-batching, ordering, shedding, stats, clean shutdown)."""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.cluster import loadgen
from repro.cluster.frontend import ClusterFrontend
from repro.cluster.hashing import assign_worker, assignment, shards
from repro.cluster.protocol import (
    MAX_FRAME,
    decode_body,
    encode_frame,
    read_frame,
    recv_frame,
    send_frame,
    write_frame,
)
from repro.cluster.worker import _WorkerState, memory_info
from repro.core.api import ShortestPathIndex
from repro.errors import ClusterError
from repro.serve.publish import list_published
from repro.obs.recorders import BatchHistogram, LatencyRecorder, percentile
from repro.workloads.generators import random_disjoint_rects


@pytest.fixture(autouse=True)
def no_leaked_publishers():
    before = set(list_published())
    yield
    leaked = set(list_published()) - before
    assert not leaked, f"leaked publisher directories: {sorted(leaked)}"


# ----------------------------------------------------------------------
class TestHashing:
    def test_deterministic_and_in_range(self):
        for n in (1, 2, 5, 16):
            for scene in ("a", "b", "campus", "vlsi-7"):
                w = assign_worker(scene, n)
                assert 0 <= w < n
                assert w == assign_worker(scene, n)

    def test_spreads_scenes(self):
        names = [f"scene-{i}" for i in range(64)]
        sh = shards(names, 4)
        assert sum(len(s) for s in sh) == 64
        assert all(sh), "64 scenes over 4 workers should hit every worker"

    def test_minimal_disruption_on_worker_removal(self):
        """Dropping the last worker only moves the scenes it owned."""
        names = [f"scene-{i}" for i in range(80)]
        before = assignment(names, 5)
        after = assignment(names, 4)
        for name in names:
            if before[name] != 4:
                assert after[name] == before[name]

    def test_pins_override(self):
        names = ["a", "b", "c"]
        asn = assignment(names, 3, pins={"a": 2})
        assert asn["a"] == 2
        with pytest.raises(ValueError, match="pinned"):
            assign_worker("a", 2, pins={"a": 7})

    def test_needs_a_worker(self):
        with pytest.raises(ValueError):
            assign_worker("a", 0)


# ----------------------------------------------------------------------
class TestProtocol:
    def test_round_trip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            msg = {"id": 3, "op": "length", "p": [1, 2], "q": [3, 4]}
            send_frame(a, msg)
            assert recv_frame(b) == msg
            a.close()
            assert recv_frame(b) is None  # clean EOF
        finally:
            b.close()

    def test_oversized_frame_refused(self):
        with pytest.raises(ClusterError, match="MAX_FRAME"):
            encode_frame({"blob": "x" * (MAX_FRAME + 1)})

    def test_non_object_frame_refused(self):
        with pytest.raises(ClusterError, match="object"):
            decode_body(b"[1, 2, 3]")
        with pytest.raises(ClusterError, match="undecodable"):
            decode_body(b"not json")

    def test_mid_frame_close(self):
        a, b = socket.socketpair()
        try:
            a.sendall(encode_frame({"id": 1})[:3])  # truncated prefix
            a.close()
            with pytest.raises(ClusterError, match="mid-frame"):
                recv_frame(b)
        finally:
            b.close()

    def test_async_round_trip(self):
        async def run():
            rsock, wsock = socket.socketpair()
            reader, writer = await asyncio.open_connection(sock=rsock)
            _, wwriter = await asyncio.open_connection(sock=wsock)
            await write_frame(wwriter, {"op": "ping"})
            got = await read_frame(reader)
            wwriter.close()
            writer.close()
            return got

        assert asyncio.run(run()) == {"op": "ping"}


# ----------------------------------------------------------------------
class TestMetrics:
    def test_percentile_matches_numpy(self):
        vals = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        for q in (50, 95, 99, 0, 100):
            assert percentile(vals, q) == pytest.approx(np.percentile(vals, q))
        assert np.isnan(percentile([], 50))

    def test_latency_recorder_summary_keys(self):
        rec = LatencyRecorder()
        rec.extend([0.001, 0.002, 0.010])
        s = rec.summary()
        assert set(s) == {"count", "mean_ms", "max_ms", "p50_ms", "p95_ms", "p99_ms"}
        assert s["count"] == 3
        assert s["p50_ms"] == pytest.approx(2.0)
        assert s["max_ms"] == pytest.approx(10.0)

    def test_latency_recorder_reservoir_bounds_memory(self):
        rec = LatencyRecorder(capacity=64)
        rec.extend([0.001] * 1000)
        assert rec.count == 1000
        assert len(rec._samples) == 64
        assert rec.summary()["p99_ms"] == pytest.approx(1.0)

    def test_batch_histogram_and_merge(self):
        h = BatchHistogram()
        for size in (1, 2, 2, 4, 7, 64):
            h.observe(size)
        assert h.as_dict() == {"1": 1, "2": 2, "3-4": 1, "5-8": 1, "33-64": 1}
        other = BatchHistogram()
        other.merge(h.as_dict())
        assert other.as_dict() == h.as_dict()
        with pytest.raises(ValueError):
            h.observe(0)

    def test_batch_histogram_mean_survives_merge(self):
        # merged histograms credit items at the bucket upper bound: an
        # upper estimate, never the old items-stuck-at-zero underestimate
        h = BatchHistogram()
        h.observe(8)
        assert h.mean() == 8.0
        merged = BatchHistogram()
        merged.merge(h.as_dict())
        assert merged.mean() == 8.0  # "5-8" credited at 8
        merged.merge({"3-4": 2})
        assert merged.mean() == pytest.approx((8 + 4 + 4) / 3)


# ----------------------------------------------------------------------
def _snapshot_spec(name, idx, directory):
    from repro.serve.snapshot import save

    path = save(idx, directory / f"{name}.rsp")
    return {"name": name, "kind": "snapshot", "path": str(path)}


class TestWorkerState:
    @pytest.fixture()
    def state(self, tmp_path):
        rects = random_disjoint_rects(6, seed=1)
        idx = ShortestPathIndex.build(rects)
        st = _WorkerState(0, [_snapshot_spec("a", idx, tmp_path)], {})
        return st, idx

    def test_mixed_batch(self, state):
        st, idx = state
        vs = idx.vertices()
        batch = [
            {"op": "length", "scene": "a", "p": list(vs[0]), "q": list(vs[-1])},
            {
                "op": "lengths",
                "scene": "a",
                "pairs": [[list(vs[1]), list(vs[-2])], [list(vs[2]), list(vs[-3])]],
            },
            {"op": "path", "scene": "a", "p": list(vs[0]), "q": list(vs[-1])},
            {"op": "ping"},
        ]
        out = st.answer_batch(batch)
        assert all(r["ok"] for r in out)
        assert out[0]["result"] == idx.length(vs[0], vs[-1])
        assert out[1]["result"] == [
            idx.length(vs[1], vs[-2]),
            idx.length(vs[2], vs[-3]),
        ]
        got_path = [tuple(p) for p in out[2]["result"]]
        assert got_path == idx.shortest_path(vs[0], vs[-1])
        assert out[3]["result"] == "pong"

    def test_poisoned_request_fails_alone(self, state):
        st, idx = state
        vs = idx.vertices()
        batch = [
            {"op": "length", "scene": "a", "p": list(vs[0]), "q": list(vs[-1])},
            {"op": "length", "scene": "ghost", "p": [0, 0], "q": [1, 1]},
            {"op": "length", "scene": "a", "p": list(vs[1]), "q": list(vs[-2])},
        ]
        out = st.answer_batch(batch)
        assert out[0]["ok"] and out[2]["ok"]
        assert not out[1]["ok"] and "unknown scene" in out[1]["error"]
        assert out[0]["result"] == idx.length(vs[0], vs[-1])

    def test_unknown_op(self, state):
        st, _ = state
        out = st.answer_batch([{"op": "teleport", "scene": "a"}])
        assert not out[0]["ok"] and "unknown op" in out[0]["error"]

    def test_malformed_requests_never_escape(self, state):
        """Regression: missing fields (KeyError) and malformed pair lists
        (ValueError) must produce per-request errors, not crash the
        worker loop and take every scene on it down."""
        st, idx = state
        vs = idx.vertices()
        batch = [
            {"op": "length", "scene": "a"},  # no p/q
            {"op": "lengths", "scene": "a", "pairs": [[1, 2, 3]]},  # bad pair
            {"op": "length", "scene": "a", "p": "junk", "q": [0, 0]},
            {"op": "path", "scene": "a", "p": None, "q": None},
            {"op": "length", "scene": "a", "p": list(vs[0]), "q": list(vs[-1])},
        ]
        out = st.answer_batch(batch)
        assert len(out) == 5
        for r in out[:4]:
            assert not r["ok"] and r["error"]
        assert out[4]["ok"] and out[4]["result"] == idx.length(vs[0], vs[-1])

    def test_local_ops_run_once_on_poisoned_batch(self, state):
        """Regression: a sleep op must not execute twice when a poisoned
        batchmate forces the per-request fallback."""
        st, _ = state
        t0 = time.perf_counter()
        out = st.answer_batch(
            [
                {"op": "sleep", "scene": "a", "ms": 200},
                {"op": "length", "scene": "a"},  # poisons the coalesced pass
            ]
        )
        elapsed = time.perf_counter() - t0
        assert out[0]["ok"] and not out[1]["ok"]
        assert elapsed < 0.35, f"sleep appears to have run twice ({elapsed:.2f}s)"

    def test_endpoints_op(self, state):
        st, _ = state
        out = st.answer_batch([{"op": "endpoints", "scene": "a", "k": 8}])
        assert out[0]["ok"]
        assert out[0]["result"]["vertices"] and out[0]["result"]["free"]

    def test_stats_shape(self, state):
        st, idx = state
        vs = idx.vertices()
        st.answer_batch(
            [{"op": "length", "scene": "a", "p": list(vs[0]), "q": list(vs[-1])}]
        )
        s = st.stats()
        assert s["requests"] == 1
        assert s["scenes"] == {"a": 1}
        assert "p99_ms" in s["service"]
        assert "batch_size_hist" in s
        assert "batch_size_hist" in s["server"]
        assert set(s["memory"]) == {"rss_bytes", "private_bytes"}

    def test_memory_info_on_linux(self):
        info = memory_info()
        if sys.platform.startswith("linux"):
            assert info["rss_bytes"] > 0
            assert info["private_bytes"] > 0


# ----------------------------------------------------------------------
async def _rpc(host, port, *msgs, timeout=30.0):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for m in msgs:
            await write_frame(writer, m)
        return [
            await asyncio.wait_for(read_frame(reader), timeout) for _ in msgs
        ]
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class TestClusterEndToEnd:
    @pytest.fixture(scope="class")
    def scene_data(self):
        rects_a = random_disjoint_rects(7, seed=1)
        rects_b = random_disjoint_rects(5, seed=2)
        return {
            "a": (rects_a, ShortestPathIndex.build(rects_a)),
            "b": (rects_b, ShortestPathIndex.build(rects_b)),
        }

    def test_answers_match_in_process_index(self, scene_data):
        async def run():
            scenes = {
                name: {"obstacles": rects} for name, (rects, _) in scene_data.items()
            }
            async with ClusterFrontend(scenes, workers=2, batch_window_ms=1.0) as fe:
                msgs, want = [], []
                for name, (_, idx) in scene_data.items():
                    vs = idx.vertices()
                    for i in range(0, len(vs) - 1, 3):
                        msgs.append(
                            {
                                "id": len(msgs),
                                "op": "length",
                                "scene": name,
                                "p": list(vs[i]),
                                "q": list(vs[-1 - i]),
                            }
                        )
                        want.append(idx.length(vs[i], vs[-1 - i]))
                resps = await _rpc(fe.host, fe.port, *msgs)
                assert [r["id"] for r in resps] == list(range(len(msgs)))
                assert all(r["ok"] for r in resps)
                assert [r["result"] for r in resps] == want
        asyncio.run(run())

    def test_bulk_lengths_and_paths(self, scene_data):
        async def run():
            rects, idx = scene_data["a"]
            vs = idx.vertices()
            pairs = [[list(vs[i]), list(vs[-1 - i])] for i in range(4)]
            async with ClusterFrontend(
                {"a": {"obstacles": rects}}, workers=1
            ) as fe:
                resps = await _rpc(
                    fe.host,
                    fe.port,
                    {"id": 0, "op": "lengths", "scene": "a", "pairs": pairs},
                    {"id": 1, "op": "path", "scene": "a",
                     "p": list(vs[0]), "q": list(vs[-1])},
                )
                assert resps[0]["ok"] and resps[1]["ok"]
                want = [idx.length(vs[i], vs[-1 - i]) for i in range(4)]
                assert resps[0]["result"] == want
                assert [tuple(p) for p in resps[1]["result"]] == idx.shortest_path(
                    vs[0], vs[-1]
                )
        asyncio.run(run())

    def test_errors_are_per_request_and_ordered(self, scene_data):
        async def run():
            rects, idx = scene_data["a"]
            vs = idx.vertices()
            inside = rects[0]
            bad_point = [inside.xlo + 1, inside.ylo + 1]  # obstacle interior
            async with ClusterFrontend(
                {"a": {"obstacles": rects}}, workers=1
            ) as fe:
                resps = await _rpc(
                    fe.host,
                    fe.port,
                    {"id": 0, "op": "length", "scene": "a",
                     "p": list(vs[0]), "q": list(vs[-1])},
                    {"id": 1, "op": "length", "scene": "ghost",
                     "p": [0, 0], "q": [1, 1]},
                    {"id": 2, "op": "length", "scene": "a",
                     "p": bad_point, "q": list(vs[0])},
                    {"id": 3, "op": "nonsense"},
                    {"id": 4, "op": "length", "scene": "a",
                     "p": list(vs[1]), "q": list(vs[-2])},
                )
                assert [r["id"] for r in resps] == [0, 1, 2, 3, 4]
                assert resps[0]["ok"] and resps[4]["ok"]
                assert "unknown scene" in resps[1]["error"]
                assert "obstacle" in resps[2]["error"]
                assert "unknown op" in resps[3]["error"]
                for r in resps:
                    if not r["ok"]:
                        assert "\n" not in r["error"]
        asyncio.run(run())

    def test_load_shedding_bounded_queue(self, scene_data):
        async def run():
            rects, _ = scene_data["a"]
            async with ClusterFrontend(
                {"a": {"obstacles": rects}},
                workers=1,
                queue_depth=1,
                max_batch=1,
                batch_window_ms=0.0,
            ) as fe:
                reader, writer = await asyncio.open_connection(fe.host, fe.port)
                n = 10
                for i in range(n):
                    await write_frame(
                        writer,
                        {"id": i, "op": "sleep", "scene": "a", "ms": 100},
                    )
                resps = [
                    await asyncio.wait_for(read_frame(reader), 30) for _ in range(n)
                ]
                writer.close()
                shed = [r for r in resps if r.get("shed")]
                served = [r for r in resps if r.get("ok")]
                assert shed, "a queue of depth 1 must shed under a 10-burst"
                assert served, "the queue-admitted requests must still serve"
                assert len(shed) + len(served) == n
                assert all("overloaded" in r["error"] for r in shed)
                # responses stay in request order even with mixed outcomes
                assert [r["id"] for r in resps] == list(range(n))
                # front-end metrics saw the sheds
                stats = fe.stats()["frontend"]
                assert stats["sheds"] == len(shed)
                assert fe.scene_metrics["a"].shed == len(shed)
        asyncio.run(run())

    def test_stats_verb_shape(self, scene_data):
        async def run():
            scenes = {
                name: {"obstacles": rects} for name, (rects, _) in scene_data.items()
            }
            async with ClusterFrontend(scenes, workers=2) as fe:
                _, idx = scene_data["a"]
                vs = idx.vertices()
                await _rpc(
                    fe.host,
                    fe.port,
                    {"id": 0, "op": "length", "scene": "a",
                     "p": list(vs[0]), "q": list(vs[-1])},
                )
                (st,) = await _rpc(fe.host, fe.port, {"id": 1, "op": "stats"})
                assert st["ok"]
                result = st["result"]
                assert set(result["workers"]) == {"0", "1"}
                w0 = result["workers"]["0"]
                for key in ("service", "batch_size_hist", "store", "server", "memory"):
                    assert key in w0
                fr = result["frontend"]
                for key in ("requests", "sheds", "qps", "batch_size_hist", "scenes"):
                    assert key in fr
                assert "p99_ms" in fr["scenes"]["a"]["latency"]
                assert result["assignment"] == fe.assignment
        asyncio.run(run())

    def test_scenes_verb_and_pinning(self, scene_data):
        async def run():
            scenes = {
                name: {"obstacles": rects} for name, (rects, _) in scene_data.items()
            }
            async with ClusterFrontend(
                scenes, workers=2, pins={"a": 1, "b": 1}
            ) as fe:
                (resp,) = await _rpc(fe.host, fe.port, {"id": 0, "op": "scenes"})
                assert resp["result"]["scenes"] == {"a": 1, "b": 1}
                assert resp["result"]["workers"] == 2
        asyncio.run(run())

    def test_worker_death_fails_over_to_survivor(self, scene_data):
        # unsupervised: kill the worker owning scene "a" and its traffic
        # must fail over to the survivor with *correct* answers (every
        # worker holds every spec; routing is HRW over the live set)
        async def run():
            scenes = {
                name: {"obstacles": rects} for name, (rects, _) in scene_data.items()
            }
            async with ClusterFrontend(
                scenes, workers=2, pins={"a": 0, "b": 1}, supervise=False
            ) as fe:
                os.kill(fe.workers[0].proc.pid, signal.SIGKILL)
                fe.workers[0].proc.join(timeout=10)
                _, idx_a = scene_data["a"]
                _, idx_b = scene_data["b"]
                va, vb = idx_a.vertices(), idx_b.vertices()
                ra, rb = await _rpc(
                    fe.host,
                    fe.port,
                    {"id": 0, "op": "length", "scene": "a",
                     "p": list(va[0]), "q": list(va[-1])},
                    {"id": 1, "op": "length", "scene": "b",
                     "p": list(vb[0]), "q": list(vb[-1])},
                )
                assert ra["ok"] and ra["result"] == idx_a.length(va[0], va[-1])
                assert rb["ok"] and rb["result"] == idx_b.length(vb[0], vb[-1])
                # the failed round trip is what detects the death, so
                # health only reports degraded on a *later* request
                (h,) = await _rpc(fe.host, fe.port, {"id": 2, "op": "health"})
                assert h["result"]["status"] == "degraded"
                assert h["result"]["workers_alive"] == 1
        asyncio.run(run())

    def test_worker_death_mid_batch_redirects(self, scene_data):
        # kill the worker while its batch is on the pipe: the front-end
        # re-routes the failed batch (idempotent reads) to the survivor
        # and the client still sees successes, not "worker died"
        async def run():
            scenes = {
                name: {"obstacles": rects} for name, (rects, _) in scene_data.items()
            }
            async with ClusterFrontend(
                scenes, workers=2, pins={"a": 0, "b": 1}, supervise=False
            ) as fe:
                _, idx_a = scene_data["a"]
                vs = idx_a.vertices()
                client = asyncio.ensure_future(
                    _rpc(
                        fe.host,
                        fe.port,
                        {"id": 0, "op": "sleep", "scene": "a", "ms": 400},
                        {"id": 1, "op": "length", "scene": "a",
                         "p": list(vs[0]), "q": list(vs[-1])},
                    )
                )
                await asyncio.sleep(0.15)  # let the batch reach worker 0
                os.kill(fe.workers[0].proc.pid, signal.SIGKILL)
                r0, r1 = await client
                assert r0["ok"] and r0["result"] == "slept"
                assert r1["ok"] and r1["result"] == idx_a.length(vs[0], vs[-1])
        asyncio.run(run())

    def test_supervised_restart_rejoins(self, scene_data):
        # with supervision (the default) a killed worker is respawned,
        # passes readiness, and transparently rejoins the routing set
        async def run():
            scenes = {
                name: {"obstacles": rects} for name, (rects, _) in scene_data.items()
            }
            async with ClusterFrontend(
                scenes, workers=2, pins={"a": 0, "b": 1}
            ) as fe:
                pid0 = fe.workers[0].proc.pid
                os.kill(pid0, signal.SIGKILL)
                _, idx_a = scene_data["a"]
                vs = idx_a.vertices()
                # death is detected by the next round trip to the slot
                (r,) = await _rpc(
                    fe.host,
                    fe.port,
                    {"id": 0, "op": "length", "scene": "a",
                     "p": list(vs[0]), "q": list(vs[-1])},
                )
                assert r["ok"], r
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    (h,) = await _rpc(fe.host, fe.port, {"id": 0, "op": "health"})
                    if h["result"]["workers_alive"] == 2:
                        break
                    # queries keep succeeding throughout the outage
                    (r,) = await _rpc(
                        fe.host,
                        fe.port,
                        {"id": 0, "op": "length", "scene": "a",
                         "p": list(vs[0]), "q": list(vs[-1])},
                    )
                    assert r["ok"], r
                    await asyncio.sleep(0.05)
                else:
                    pytest.fail("worker 0 never rejoined")
                assert fe.workers[0].proc.pid != pid0
                (ra,) = await _rpc(
                    fe.host,
                    fe.port,
                    {"id": 0, "op": "length", "scene": "a",
                     "p": list(vs[0]), "q": list(vs[-1])},
                )
                assert ra["ok"] and ra["result"] == idx_a.length(vs[0], vs[-1])
                (st,) = await _rpc(fe.host, fe.port, {"id": 1, "op": "stats"})
                sup = st["result"]["supervisor"]
                assert sup["total_restarts"] >= 1
                assert sup["workers"]["0"]["restarts"] >= 1
                assert sup["workers"]["0"]["last_crash"]
                assert st["result"]["health"]["status"] == "serving"
        asyncio.run(run())

    def test_loadgen_closed_and_open(self, scene_data):
        async def run():
            scenes = {
                name: {"obstacles": rects} for name, (rects, _) in scene_data.items()
            }
            async with ClusterFrontend(scenes, workers=2) as fe:
                rep = await loadgen.run(
                    fe.host, fe.port, mode="closed", n_requests=80, conns=4, seed=1
                )
                s = rep.summary()
                assert (s["ok"], s["errors"], s["shed"]) == (80, 0, 0)
                assert s["latency"]["count"] == 80
                assert s["latency"]["p50_ms"] <= s["latency"]["p99_ms"]
                rep2 = await loadgen.run(
                    fe.host, fe.port, mode="open", n_requests=40, rps=2000,
                    conns=4, seed=2,
                )
                s2 = rep2.summary()
                assert s2["ok"] == 40 and s2["errors"] == 0
        asyncio.run(run())

    def test_loadgen_streams_deterministic(self):
        pools = {
            "s": {"vertices": [[0, 0], [5, 5], [9, 1]], "free": [[2, 2]]},
        }
        a = loadgen.build_requests(pools, 50, seed=7)
        b = loadgen.build_requests(pools, 50, seed=7)
        c = loadgen.build_requests(pools, 50, seed=8)
        assert a == b and a != c
        ops = {r["op"] for r in a}
        assert "lengths" in ops and "length" in ops

    def test_spawn_start_method(self, scene_data):
        """Spawned workers load the published files and answer exactly
        what the in-process indexes answer, rect and polygon scenes."""
        from repro.workloads.generators import random_polygon_scene

        poly = ShortestPathIndex.build(random_polygon_scene(2, 2, seed=8))
        pv = poly.vertices()
        pairs = [(pv[i], pv[-1 - i]) for i in range(0, len(pv), 5)]

        async def run():
            rects, idx = scene_data["a"]
            vs = idx.vertices()
            async with ClusterFrontend(
                {"a": {"obstacles": rects}, "p": {"index": poly}},
                workers=1, start_method="spawn",
            ) as fe:
                resp, bulk = await _rpc(
                    fe.host,
                    fe.port,
                    {"id": 0, "op": "length", "scene": "a",
                     "p": list(vs[0]), "q": list(vs[-1])},
                    {"id": 1, "op": "lengths", "scene": "p",
                     "pairs": [[list(p), list(q)] for p, q in pairs]},
                    timeout=60.0,
                )
                assert resp["ok"] and resp["result"] == idx.length(vs[0], vs[-1])
                want = [float(v) for v in poly.lengths(pairs)]
                assert bulk["ok"] and bulk["result"] == want
        asyncio.run(run())

    def test_prebuilt_index_source(self, scene_data):
        async def run():
            _, idx = scene_data["a"]
            vs = idx.vertices()
            async with ClusterFrontend({"a": {"index": idx}}, workers=1) as fe:
                (resp,) = await _rpc(
                    fe.host,
                    fe.port,
                    {"id": 0, "op": "length", "scene": "a",
                     "p": list(vs[0]), "q": list(vs[-1])},
                )
                assert resp["result"] == idx.length(vs[0], vs[-1])
        asyncio.run(run())

    def test_snapshot_source_is_handed_out_as_is(self, scene_data, tmp_path):
        """An operator's snapshot file goes to the workers unchanged (no
        copy in the publish directory); with its geometry attached the
        scene is also describable."""
        from repro.serve.snapshot import save

        async def run():
            rects, idx = scene_data["a"]
            vs = idx.vertices()
            path = save(idx, tmp_path / "a.rsp")
            async with ClusterFrontend(
                {"a": {"snapshot": path, "obstacles": rects}}, workers=1
            ) as fe:
                assert fe.publisher.path("a") == str(path)
                assert os.listdir(fe.publisher.dir) == []
                (desc,) = await _rpc(
                    fe.host, fe.port, {"id": 1, "op": "describe", "scene": "a"}
                )
                assert desc["ok"] and desc["result"]["generation"] == 0
                (resp,) = await _rpc(
                    fe.host,
                    fe.port,
                    {"id": 0, "op": "length", "scene": "a",
                     "p": list(vs[0]), "q": list(vs[-1])},
                )
                assert resp["result"] == idx.length(vs[0], vs[-1])
        asyncio.run(run())

    def test_workers_exit_after_stop(self, scene_data):
        async def run():
            rects, _ = scene_data["a"]
            fe = ClusterFrontend({"a": {"obstacles": rects}}, workers=2)
            await fe.start()
            procs = [w.proc for w in fe.workers]
            await fe.stop()
            return procs

        procs = asyncio.run(run())
        for p in procs:
            assert not p.is_alive()


# ----------------------------------------------------------------------
class TestClusterCLI:
    def test_cluster_and_loadgen_cli(self, tmp_path):
        """The CI smoke flow in miniature: start `python -m repro cluster`
        as a subprocess, run the loadgen CLI against it, SIGINT it, and
        assert a clean exit with no leftover processes or segments."""
        rects = random_disjoint_rects(8, seed=1)
        scene = tmp_path / "scene.json"
        scene.write_text(
            json.dumps({"rects": [[r.xlo, r.ylo, r.xhi, r.yhi] for r in rects]})
        )
        ready = tmp_path / "ready.txt"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep * bool(env.get("PYTHONPATH")) + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "cluster", str(scene),
                "--workers", "2", "--ready-file", str(ready), "--duration", "60",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            deadline = time.monotonic() + 60
            while not ready.exists() and time.monotonic() < deadline:
                assert proc.poll() is None, proc.stdout.read()
                time.sleep(0.1)
            assert ready.exists(), "cluster never became ready"
            port = int(ready.read_text().split()[1])
            from repro.__main__ import main

            rc = main(
                [
                    "loadgen", "--port", str(port), "--closed",
                    "--requests", "100", "--conns", "2", "--check",
                ]
            )
            assert rc == 0
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=60)
            assert proc.returncode == 0, out
            assert "cluster stopped" in out
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup on failure
                proc.kill()
                proc.communicate()

    def test_cluster_cli_in_process_duration(self, tmp_path, capsys):
        """cmd_cluster end to end in this process: --duration stops the
        server, the ready file carries the port, loadgen talks to it."""
        import threading

        from repro.__main__ import main

        rects = random_disjoint_rects(6, seed=2)
        scene = tmp_path / "s.json"
        scene.write_text(
            json.dumps({"rects": [[r.xlo, r.ylo, r.xhi, r.yhi] for r in rects]})
        )
        ready = tmp_path / "ready.txt"
        rc: dict = {}

        def serve():
            rc["cluster"] = main(
                [
                    "cluster", str(scene), "--workers", "1",
                    "--ready-file", str(ready), "--duration", "6",
                    "--window-ms", "0.5", "--pin", "s=0",
                ]
            )

        t = threading.Thread(target=serve)
        t.start()
        try:
            deadline = time.monotonic() + 30
            while not ready.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert ready.exists()
            port = int(ready.read_text().split()[1])
            assert (
                main(
                    ["loadgen", "--port", str(port), "--requests", "30",
                     "--conns", "2", "--json", "--check"]
                )
                == 0
            )
            out = capsys.readouterr().out
            report = json.loads(out[out.index("{"):])
            assert report["ok"] == 30 and report["errors"] == 0
        finally:
            t.join(timeout=60)
        assert rc["cluster"] == 0
        out += capsys.readouterr().out
        assert "cluster listening" in out and "cluster stopped" in out

    def test_loadgen_cli_refuses_dead_port(self, capsys):
        from repro.__main__ import main

        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        with pytest.raises(SystemExit, match="loadgen"):
            main(["loadgen", "--port", str(port), "--requests", "1"])

    def test_bad_pin_argument(self, tmp_path):
        from repro.__main__ import main

        scene = tmp_path / "s.json"
        scene.write_text(json.dumps({"rects": [[0, 0, 2, 2]]}))
        with pytest.raises(SystemExit, match="--pin"):
            main(["cluster", str(scene), "--pin", "s=notanumber"])

    def test_out_of_range_pin_is_one_line_error(self, tmp_path):
        from repro.__main__ import main

        scene = tmp_path / "s.json"
        scene.write_text(json.dumps({"rects": [[0, 0, 2, 2]]}))
        with pytest.raises(SystemExit, match="pinned") as exc:
            main(["cluster", str(scene), "--workers", "2", "--pin", "s=7"])
        assert "\n" not in str(exc.value)
