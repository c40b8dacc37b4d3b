"""Tests for the cluster subsystem: HRW routing, the wire protocol,
the histogram summaries behind `stats`, the worker request loop, and the full front-end
(micro-batching, ordering, shedding, stats, clean shutdown)."""

import asyncio
import json
import multiprocessing
import os
import pickle
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.cluster import loadgen
from repro.cluster.frontend import ClusterFrontend, _reply
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
from repro.errors import ClusterError, ObsError
from repro.serve.publish import list_published
from repro.obs.registry import DEFAULT_SIZE_BUCKETS, MetricsRegistry
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
        # client-side latencies stay exact: numpy's percentiles of every sample
        vals = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        s = loadgen.latency_summary(vals)
        for q in (50, 95, 99):
            assert s[f"p{q}_ms"] == pytest.approx(np.percentile(vals, q) * 1e3)
        assert s["max_ms"] == pytest.approx(9e3)
        empty = loadgen.latency_summary([])
        assert empty["count"] == 0 and np.isnan(empty["p50_ms"])

    def test_latency_summary_keys(self):
        s = loadgen.latency_summary([0.001, 0.002, 0.010])
        assert set(s) == {"count", "mean_ms", "max_ms", "p50_ms", "p95_ms", "p99_ms"}
        assert s["count"] == 3
        assert s["p50_ms"] == pytest.approx(2.0)
        assert s["max_ms"] == pytest.approx(10.0)

    def test_histogram_summary_interpolates_within_buckets(self):
        h = MetricsRegistry().histogram("t.lat", buckets=[1.0, 2.0, 4.0])
        for v in (0.5, 1.5, 1.5, 3.0):  # counts [1, 2, 1, 0]
            h.observe(v)
        s = h.summary()
        assert set(s) == {"count", "mean_ms", "p50_ms", "p95_ms", "p99_ms"}
        assert s["count"] == 4
        assert s["mean_ms"] == pytest.approx(1625.0)
        # rank 2 lands in (1, 2] holding 2 after 1 below: 1 + 1 * (2-1)/2
        assert s["p50_ms"] == pytest.approx(1500.0)
        # rank 3.8 in (2, 4] holding 1 after 3 below: 2 + 2 * 0.8
        assert s["p95_ms"] == pytest.approx(3600.0)
        assert s["p99_ms"] == pytest.approx(3920.0)
        h.observe(10.0)  # overflow: answered with the highest finite bound
        assert h.summary()["p99_ms"] == pytest.approx(4000.0)

    def test_histogram_percentiles_are_monotone(self):
        h = MetricsRegistry().histogram("t.lat")
        rng = np.random.default_rng(3)
        for v in rng.lognormal(-7, 1.5, size=500):
            h.observe(v)
        s = h.summary()
        assert 0 < s["p50_ms"] <= s["p95_ms"] <= s["p99_ms"]

    def test_histogram_summary_of_empty_selection(self):
        h = MetricsRegistry().histogram("t.lat", labels=["scene"])
        s = h.summary()
        assert s["count"] == 0
        assert all(np.isnan(s[k]) for k in ("mean_ms", "p50_ms", "p95_ms", "p99_ms"))
        h.observe(0.001, scene="a")
        assert h.summary(scene="b")["count"] == 0
        assert h.size_hist(scene="b") == {}

    def test_histogram_label_subset_merge(self):
        h = MetricsRegistry().histogram("t.lat", labels=["scene", "verb"])
        h.observe(0.001, scene="a", verb="length")
        h.observe(0.003, scene="a", verb="path")
        h.observe(0.002, scene="b", verb="length")
        assert h.summary(scene="a")["count"] == 2
        assert h.summary(scene="a")["mean_ms"] == pytest.approx(2.0)
        assert h.summary(verb="length")["count"] == 2
        assert h.summary(scene="a", verb="path")["count"] == 1
        assert h.summary()["count"] == 3
        with pytest.raises(ObsError):
            h.summary(worker="0")

    def test_batch_histogram_and_merge(self):
        h = MetricsRegistry().histogram(
            "t.batch", labels=["worker"], buckets=DEFAULT_SIZE_BUCKETS
        )
        for size in (1, 2, 2, 4):
            h.observe(size, worker="0")
        for size in (7, 64, 300):
            h.observe(size, worker="1")
        assert h.size_hist(worker="0") == {"1": 1, "2": 2, "3-4": 1}
        assert h.size_hist() == {
            "1": 1, "2": 2, "3-4": 1, "5-8": 1, "33-64": 1, "257+": 1,
        }

    def test_batch_histogram_mean_survives_merge(self):
        # the mean over merged series is exact (sum / count), not a
        # bucket-bound estimate; summary() scales every histogram by 1e3,
        # so for a size family mean_ms is the mean size x 1000
        h = MetricsRegistry().histogram(
            "t.batch", labels=["worker"], buckets=DEFAULT_SIZE_BUCKETS
        )
        h.observe(8, worker="0")
        h.observe(3, worker="1")
        h.observe(3, worker="1")
        assert h.summary()["mean_ms"] == pytest.approx((8 + 3 + 3) / 3 * 1e3)

    def test_observe_bucket_edges_and_sub_ms_bounds(self):
        reg = MetricsRegistry()
        h = reg.histogram("t.lat")
        assert h.buckets[:3] == (0.0001, 0.00025, 0.0005)
        for v in (0.0001, 0.00034, 0.0005, 20.0):
            h.observe(v)
        (series,) = reg.snapshot()["t.lat"]["series"]
        counts = series["counts"]
        assert counts[0] == 1  # value == bound lands in that bucket
        assert counts[2] == 2  # (0.00025, 0.0005]
        assert counts[-1] == 1  # past the last bound: overflow
        assert 0.25 < h.summary()["p50_ms"] <= 0.5

    def test_overflow_label_folds_instead_of_raising(self):
        reg = MetricsRegistry(max_series=2)
        c = reg.counter("t.scenes", labels=["scene"], overflow="other")
        for name in ("a", "b", "c", "d"):
            c.inc(scene=name)
        assert c.value(scene="a") == 1.0
        assert c.value(scene="other") == 2.0
        h = reg.histogram("t.lat", labels=["scene", "verb"], overflow="other")
        for name in ("a", "b", "c"):
            h.observe(0.001, scene=name, verb="length")
        assert h.summary(scene="other", verb="other")["count"] == 1


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
        st = _WorkerState(
            0, [_snapshot_spec("a", idx, tmp_path)], {}, registry=MetricsRegistry()
        )
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

    @pytest.mark.parametrize(
        "op", ["length", "lengths", "path", "minlink", "links", "pareto"]
    )
    def test_poisoned_batchmate_leaves_answers_unchanged(self, state, op):
        """The per-request fallback is the coalesced path run on batches
        of one: every verb answers exactly what its unpoisoned batch did."""
        st, idx = state
        vs = idx.vertices()
        ends = [[list(vs[i]), list(vs[-1 - i])] for i in range(3)]
        if op in ("lengths", "links"):
            reqs = [{"op": op, "scene": "a", "pairs": ends[:2]},
                    {"op": op, "scene": "a", "pairs": ends[2:]}]
        else:
            reqs = [{"op": op, "scene": "a", "p": p, "q": q} for p, q in ends]
        clean = st.answer_batch(reqs)
        assert all(r["ok"] for r in clean)
        poison = {"op": op, "scene": "ghost", "p": [0, 0], "q": [1, 1],
                  "pairs": [[[0, 0], [1, 1]]]}
        mixed = st.answer_batch(reqs[:1] + [poison] + reqs[1:])
        assert not mixed[1]["ok"] and "unknown scene" in mixed[1]["error"]
        del mixed[1]
        assert mixed == clean

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


@pytest.fixture(scope="module")
def scene_data():
    rects_a = random_disjoint_rects(7, seed=1)
    rects_b = random_disjoint_rects(5, seed=2)
    return {
        "a": (rects_a, ShortestPathIndex.build(rects_a)),
        "b": (rects_b, ShortestPathIndex.build(rects_b)),
    }


class TestClusterEndToEnd:
    def test_answers_match_in_process_index(self, scene_data):
        async def run():
            scenes = {
                name: {"obstacles": rects} for name, (rects, _) in scene_data.items()
            }
            async with ClusterFrontend(scenes, workers=2) as fe:
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

    def test_label_series_past_the_cap_never_hang(self):
        """14 scenes x 5 verbs outgrow the 64-series cap of
        repro.frontend.latency_seconds; the 65th combination folds into
        "other" instead of raising inside the dispatch loop (which left
        that request unanswered and the worker's queue unserved)."""
        indexes = {
            f"s{i:02d}": ShortestPathIndex.build(random_disjoint_rects(3, seed=40 + i))
            for i in range(14)
        }

        async def run():
            scenes = {name: {"index": idx} for name, idx in indexes.items()}
            async with ClusterFrontend(scenes, workers=1) as fe:
                n = 0
                for name, idx in sorted(indexes.items()):
                    vs = [list(v) for v in idx.vertices()]
                    for op in ("endpoints", "length", "path", "minlink", "pareto"):
                        msg = {"id": n, "op": op, "scene": name, "p": vs[0], "q": vs[-1]}
                        (r,) = await _rpc(fe.host, fe.port, msg, timeout=10.0)
                        assert r["ok"], (n, op, name, r)
                        n += 1
                later = [
                    {"id": k, "op": "length", "scene": name,
                     "p": list(idx.vertices()[0]), "q": list(idx.vertices()[1])}
                    for k, (name, idx) in enumerate(sorted(indexes.items()))
                ]
                resps = await _rpc(fe.host, fe.port, *later, timeout=10.0)
                assert all(r["ok"] for r in resps)
                hist = fe.registry.histogram(
                    "repro.frontend.latency_seconds", labels=["scene", "verb"]
                )
                assert hist.summary()["count"] == n + len(later)
                assert hist.summary(scene="other")["count"] > 0
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
def _batch_sizes(fe):
    """(batches sent, requests sent, size buckets) from the front-end's
    ``repro.frontend.batch_size`` histogram."""
    series = fe.registry.snapshot()["repro.frontend.batch_size"]["series"]
    hist = fe.registry.histogram(
        "repro.frontend.batch_size", labels=["worker"], buckets=DEFAULT_SIZE_BUCKETS
    )
    return (
        sum(s["count"] for s in series),
        int(sum(s["sum"] for s in series)),
        hist.size_hist(),
    )


class TestDispatchRule:
    """A batch is the first queued request plus whatever is already
    queued, capped by ``max_batch``.  Requests are admitted while one
    ``sleep`` holds the only worker, all in one event-loop step, so the
    queue contents at dispatch time are fixed: no test depends on timing."""

    @pytest.fixture(scope="class")
    def scene(self):
        rects = random_disjoint_rects(6, seed=3)
        return rects, ShortestPathIndex.build(rects)

    @staticmethod
    async def _on_pipe(fe):
        """Whether the worker has a batch on the pipe within a few loop
        steps: no timer may stand between an idle worker's queue and it."""
        for _ in range(10):
            if fe.workers[0].inflight:
                return True
            await asyncio.sleep(0)
        return False

    async def _hold(self, fe, ms=300):
        """Send one ``sleep`` and return once its batch is on the pipe."""
        _, fut = fe._admit({"id": "hold", "op": "sleep", "scene": "a", "ms": ms})
        assert await self._on_pipe(fe)
        return fut

    @staticmethod
    def _lengths(idx, k, **extra):
        vs = idx.vertices()
        msgs = [
            {"id": i, "op": "length", "scene": "a",
             "p": list(vs[i % len(vs)]), "q": list(vs[-1 - i % len(vs)]), **extra}
            for i in range(k)
        ]
        want = [idx.length(tuple(m["p"]), tuple(m["q"])) for m in msgs]
        return msgs, want

    @pytest.mark.parametrize(
        "max_batch,k,buckets",
        [
            (64, 8, {"1": 1, "5-8": 1}),  # the sleep, then one batch of 8
            (3, 8, {"1": 1, "2": 1, "3-4": 2}),  # 3 + 3 + 2
            (4, 8, {"1": 1, "3-4": 2}),  # 4 + 4
        ],
    )
    def test_queued_requests_go_out_together(self, scene, max_batch, k, buckets):
        rects, idx = scene

        async def run():
            async with ClusterFrontend(
                {"a": {"obstacles": rects}}, workers=1, max_batch=max_batch
            ) as fe:
                hold = await self._hold(fe)
                msgs, want = self._lengths(idx, k)
                futs = [fe._admit(m)[1] for m in msgs]
                assert fe.workers[0].queue.qsize() == k
                held, *res = await asyncio.gather(hold, *futs)
                assert held["ok"]
                assert [r["result"] for r in res] == want
                n_batches = -(-k // max_batch)
                assert _batch_sizes(fe) == (1 + n_batches, 1 + k, buckets)
        asyncio.run(run())

    def test_expired_request_is_answered_and_never_sent(self, scene):
        rects, idx = scene

        async def run():
            async with ClusterFrontend({"a": {"obstacles": rects}}, workers=1) as fe:
                hold = await self._hold(fe, ms=300)
                (live0, live1), want = self._lengths(idx, 2)
                (late0, late1), _ = self._lengths(idx, 2, deadline_ms=1)
                # an expired head is dropped before the drain starts, an
                # expired batchmate inside it
                futs = [fe._admit(m)[1] for m in (late0, live0, late1, live1)]
                _, r_late0, r_live0, r_late1, r_live1 = await asyncio.gather(hold, *futs)
                for r in (r_late0, r_late1):
                    assert r["deadline_expired"] and not r["ok"]
                assert [r_live0["result"], r_live1["result"]] == want
                count, sent, _ = _batch_sizes(fe)
                assert (count, sent) == (2, 3)  # the sleep, then both live ones
                assert fe.scene_metrics["a"].deadline_expired == 2
        asyncio.run(run())

    def test_lone_request_on_idle_cluster_is_a_batch_of_one(self, scene):
        rects, idx = scene

        async def run():
            async with ClusterFrontend({"a": {"obstacles": rects}}, workers=1) as fe:
                (msg,), want = self._lengths(idx, 1)
                _, fut = fe._admit(msg)
                assert await self._on_pipe(fe)
                assert fe.workers[0].inflight == 1
                assert (await fut)["result"] == want[0]
                assert _batch_sizes(fe) == (1, 1, {"1": 1})
        asyncio.run(run())


class TestPipePath:
    """Worker replies are read by the event loop (a reader on the pipe's
    fd), never through an executor thread, and no reader outlives its
    batch."""

    @staticmethod
    def _pipe_test(body):
        async def run():
            loop = asyncio.get_running_loop()
            a, b = multiprocessing.Pipe()
            try:
                await body(loop, a, b)
            finally:
                a.close()
                b.close()

        asyncio.run(run())

    def test_reply_resolves_and_drops_its_reader(self):
        async def body(loop, a, b):
            fut = _reply(a)
            b.send({"seq": 1, "results": [1.0]})
            assert await asyncio.wait_for(fut, 5.0) == {"seq": 1, "results": [1.0]}
            assert loop.remove_reader(a.fileno()) is False

        self._pipe_test(body)

    def test_dead_peer_is_the_futures_exception(self):
        async def body(loop, a, b):
            fut = _reply(a)
            b.close()
            with pytest.raises(EOFError):
                await asyncio.wait_for(fut, 5.0)
            assert loop.remove_reader(a.fileno()) is False

        self._pipe_test(body)

    def test_timeout_cancels_and_drops_the_reader(self):
        async def body(loop, a, b):
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(_reply(a), 0.05)
            assert loop.remove_reader(a.fileno()) is False
            # the next reply on the same pipe is read normally
            fut = _reply(a)
            b.send("late")
            assert await asyncio.wait_for(fut, 5.0) == "late"

        self._pipe_test(body)

    def test_answers_with_the_default_executor_saturated(self, scene_data):
        # builds and reaps share the loop's default executor; holding all
        # of its threads must not hold up a query
        rects, idx = scene_data["a"]
        vs = idx.vertices()
        msg = {"id": 0, "op": "length", "scene": "a",
               "p": list(vs[0]), "q": list(vs[-1])}
        cpus = getattr(os, "process_cpu_count", os.cpu_count)() or 1

        async def run():
            async with ClusterFrontend({"a": {"obstacles": rects}}, workers=1) as fe:
                loop = asyncio.get_running_loop()
                release = threading.Event()
                blockers = [
                    loop.run_in_executor(None, release.wait, 10.0)
                    for _ in range(min(32, cpus + 4))
                ]
                try:
                    t0 = time.perf_counter()
                    (resp,) = await _rpc(fe.host, fe.port, msg, timeout=2.0)
                    took = time.perf_counter() - t0
                finally:
                    release.set()
                    await asyncio.gather(*blockers)
                assert resp["ok"] and resp["result"] == idx.length(vs[0], vs[-1])
                assert took < 0.5, f"length took {took:.3f}s"

        asyncio.run(run())

    def test_batch_larger_than_the_pipe_buffer(self, scene_data):
        rects, idx = scene_data["a"]
        vs = idx.vertices()
        n = len(vs)
        pairs = [[list(vs[i % n]), list(vs[(7 * i + 3) % n])] for i in range(6000)]
        msg = {"id": 0, "op": "lengths", "scene": "a", "pairs": pairs}
        # what goes down the pipe: the front-end's decoded copy of the frame
        payload = {"op": "batch", "seq": 1, "requests": [json.loads(json.dumps(msg))]}
        assert len(pickle.dumps(payload)) > 64 * 1024

        async def run():
            async with ClusterFrontend({"a": {"obstacles": rects}}, workers=1) as fe:
                (resp,) = await _rpc(fe.host, fe.port, msg)
                assert resp["ok"]
                assert resp["result"] == [idx.length(tuple(p), tuple(q)) for p, q in pairs]

        asyncio.run(run())

    def test_no_reader_left_after_a_kill_or_stop(self, scene_data):
        async def run():
            loop = asyncio.get_running_loop()
            scenes = {name: {"obstacles": rects} for name, (rects, _) in scene_data.items()}
            fe = ClusterFrontend(scenes, workers=2, pins={"a": 0, "b": 1}, supervise=False)
            await fe.start()
            try:
                fd0, fd1 = (w.conn.fileno() for w in fe.workers)
                _, killed = fe._admit({"id": 0, "op": "sleep", "scene": "a", "ms": 400})
                await asyncio.sleep(0.15)  # the batch is on worker 0's pipe
                assert fe.workers[0].inflight == 1
                os.kill(fe.workers[0].proc.pid, signal.SIGKILL)
                res = await asyncio.wait_for(killed, 10.0)
                assert res["ok"] and res["result"] == "slept"  # redirected
                assert loop.remove_reader(fd0) is False
                _, held = fe._admit({"id": 1, "op": "sleep", "scene": "b", "ms": 300})
                await asyncio.sleep(0.1)
                assert fe.workers[1].inflight == 1
            finally:
                await fe.stop()
            res = held.result()
            assert not res["ok"] and "shutting down" in res["error"]
            assert loop.remove_reader(fd1) is False
            assert loop.remove_reader(fd0) is False

        asyncio.run(run())

    def test_traced_response_carries_a_codec_span(self, scene_data):
        rects, idx = scene_data["a"]
        vs = idx.vertices()

        async def run():
            async with ClusterFrontend({"a": {"obstacles": rects}}, workers=1) as fe:
                (resp,) = await _rpc(fe.host, fe.port, {
                    "id": 0, "op": "length", "scene": "a", "trace": True,
                    "p": list(vs[0]), "q": list(vs[-1]),
                })
                (plain,) = await _rpc(fe.host, fe.port, {
                    "id": 1, "op": "length", "scene": "a",
                    "p": list(vs[0]), "q": list(vs[-1]),
                })
                assert resp["ok"] and resp["result"] == plain["result"]
                assert "trace" not in plain
                spans = resp["trace"]["spans"]
                (codec,) = [sp for sp in spans if sp["name"] == "codec"]
                root = next(sp for sp in spans if sp["name"] == "request")
                assert codec["parent_id"] == root["span_id"]
                assert codec["trace_id"] == resp["trace"]["trace_id"]
                attrs = codec["attrs"]
                assert attrs["decode_ms"] > 0 and attrs["encode_ms"] > 0
                assert codec["dur"] * 1e3 == pytest.approx(
                    attrs["decode_ms"] + attrs["encode_ms"], abs=1e-3
                )
                buffered = fe.span_buffer.snapshot(trace_id=resp["trace"]["trace_id"])
                assert codec["span_id"] in {sp["span_id"] for sp in buffered}

        asyncio.run(run())


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
                    "--pin", "s=0",
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
