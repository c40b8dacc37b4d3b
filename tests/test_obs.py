"""Observability suite: the unified metrics registry, OpenMetrics
exposition, request tracing, structured logging, and their wiring into
the cluster.

The cluster-level tests drive a real multi-process ``ClusterFrontend``
and assert the contracts the ISSUE names: the ``stats`` verb is a *view*
over the registry (no drift), a traced request that survives a worker
kill carries a span tree recording the redirect hop, and ``GET
/metrics`` speaks valid OpenMetrics with the core series present.
"""

import asyncio
import io
import json
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.errors import ObsError
from repro.obs import (
    CONTENT_TYPE,
    JsonLogger,
    MetricsRegistry,
    SpanBuffer,
    chrome_trace,
    count_series,
    default_registry,
    finish,
    merge_snapshots,
    new_trace_id,
    render_openmetrics,
    set_log_stream,
    span,
)
from repro.obs.registry import set_default_registry


# ----------------------------------------------------------------------
# the registry itself
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_gauge_histogram_roundtrip(self):
        reg = MetricsRegistry()
        c = reg.counter("repro.t.requests", "requests", labels=["verb"])
        c.inc(verb="length")
        c.inc(2, verb="length")
        c.inc(verb="path")
        assert c.value(verb="length") == 3.0
        assert c.total() == 4.0
        g = reg.gauge("repro.t.depth", "queue depth")
        g.set(7)
        h = reg.histogram("repro.t.latency", "latency", buckets=[0.1, 1.0])
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        snap = reg.snapshot()
        assert snap["repro.t.requests"]["type"] == "counter"
        assert snap["repro.t.depth"]["series"][0]["value"] == 7.0
        hs = snap["repro.t.latency"]["series"][0]
        assert hs["counts"] == [1, 1, 1] and hs["count"] == 3  # [.1, 1.0, +Inf]
        assert hs["sum"] == pytest.approx(5.55)
        # snapshots are plain data: JSON round-trips
        assert json.loads(json.dumps(snap)) == snap

    def test_families_are_idempotent_and_typed(self):
        reg = MetricsRegistry()
        a = reg.counter("repro.t.n", "n")
        assert reg.counter("repro.t.n", "n") is a
        with pytest.raises(ObsError):
            reg.gauge("repro.t.n", "now a gauge?")
        with pytest.raises(ObsError):
            reg.counter("repro.t.n", "n", labels=["verb"])  # label drift

    def test_counters_refuse_to_decrease(self):
        reg = MetricsRegistry()
        with pytest.raises(ObsError):
            reg.counter("repro.t.n", "n").inc(-1)

    def test_cardinality_bound_is_one_line(self):
        reg = MetricsRegistry(max_series=3)
        c = reg.counter("repro.t.scenes", "per-scene", labels=["scene"])
        for i in range(3):
            c.inc(scene=f"s{i}")
        with pytest.raises(ObsError) as err:
            c.inc(scene="s3")
        assert "\n" not in str(err.value)
        assert "repro.t.scenes" in str(err.value)
        # existing series keep working past the bound
        c.inc(scene="s0")
        assert c.value(scene="s0") == 2.0

    def test_thread_safety_exact_counts(self):
        reg = MetricsRegistry()
        c = reg.counter("repro.t.n", "n", labels=["t"])
        h = reg.histogram("repro.t.h", "h")

        def work(tid):
            for _ in range(1000):
                c.inc(t=str(tid % 4))
                h.observe(0.01)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.total() == 8000.0
        assert reg.snapshot()["repro.t.h"]["series"][0]["count"] == 8000

    def test_fork_rearms_locks_and_reset_gives_clean_slate(self):
        # the at-fork hook re-creates every live registry's lock, so a
        # child forked while the parent held it can still record; cluster
        # workers then call reset() for a clean slate (worker_main does)
        reg = MetricsRegistry()
        reg.counter("repro.t.parent", "parent-side").inc(41)
        ctx = multiprocessing.get_context("fork")
        q = ctx.Queue()

        def child(q):
            # recording in the child must not deadlock on the parent lock
            reg.counter("repro.t.parent", "parent-side").inc()
            inherited = reg.counter("repro.t.parent", "parent-side").total()
            reg.reset()
            q.put((inherited, reg.names()))

        with reg._lock:  # fork while the lock is held: worst case
            p = ctx.Process(target=child, args=(q,))
            p.start()
        inherited, names_after_reset = q.get(timeout=10)
        p.join(timeout=10)
        assert inherited == 42.0  # fork inherits content...
        assert names_after_reset == []  # ...and reset() drops it
        # the parent is untouched by the child's reset
        assert reg.counter("repro.t.parent", "parent-side").total() == 41.0

    def test_default_registry_swap(self):
        mine = MetricsRegistry()
        old = set_default_registry(mine)
        try:
            assert default_registry() is mine
        finally:
            set_default_registry(old)
        assert default_registry() is old


# ----------------------------------------------------------------------
# OpenMetrics exposition
# ----------------------------------------------------------------------
class TestOpenMetrics:
    def test_golden_exposition(self):
        reg = MetricsRegistry()
        c = reg.counter("repro.demo.requests", "requests served", labels=["verb"])
        c.inc(3, verb="length")
        reg.gauge("repro.demo.depth", "queue depth").set(2)
        h = reg.histogram("repro.demo.wait", "queue wait", buckets=[0.1, 1.0])
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        assert render_openmetrics(reg.snapshot()) == (
            "# TYPE repro_demo_depth gauge\n"
            "# HELP repro_demo_depth queue depth\n"
            "repro_demo_depth 2\n"
            "# TYPE repro_demo_requests counter\n"
            "# HELP repro_demo_requests requests served\n"
            'repro_demo_requests_total{verb="length"} 3\n'
            "# TYPE repro_demo_wait histogram\n"
            "# HELP repro_demo_wait queue wait\n"
            'repro_demo_wait_bucket{le="0.1"} 1\n'
            'repro_demo_wait_bucket{le="1"} 2\n'
            'repro_demo_wait_bucket{le="+Inf"} 3\n'
            "repro_demo_wait_sum 5.55\n"
            "repro_demo_wait_count 3\n"
            "# EOF\n"
        )

    def test_merge_labels_worker_series(self):
        fe = MetricsRegistry()
        fe.counter("repro.frontend.requests", "fe", labels=["verb"]).inc(verb="x")
        w0 = MetricsRegistry()
        w0.counter("repro.worker.requests", "w", labels=["scene"]).inc(scene="a")
        w1 = MetricsRegistry()
        w1.counter("repro.worker.requests", "w", labels=["scene"]).inc(scene="a")
        merged = merge_snapshots(
            fe.snapshot(), {"0": w0.snapshot(), "1": w1.snapshot()}
        )
        series = merged["repro.worker.requests"]["series"]
        assert {s["labels"]["worker"] for s in series} == {"0", "1"}
        assert count_series(merged) == 3
        text = render_openmetrics(merged)
        assert 'worker="0"' in text and 'worker="1"' in text
        assert text.endswith("# EOF\n")

    def test_content_type_is_openmetrics(self):
        assert "openmetrics-text" in CONTENT_TYPE


# ----------------------------------------------------------------------
# tracing primitives
# ----------------------------------------------------------------------
class TestTracing:
    def test_span_lifecycle_and_buffer_filtering(self):
        tid = new_trace_id()
        root = span("request", tid, scene="a")
        child = span("queue_wait", tid, root["span_id"], worker=1)
        finish(child)
        finish(root, ok=True)
        assert child["parent_id"] == root["span_id"]
        assert root["dur"] >= 0 and root["attrs"]["ok"] is True
        buf = SpanBuffer(capacity=8)
        buf.extend([root, child])
        buf.add(span("request", new_trace_id()))
        assert len(buf.snapshot()) == 3
        assert {s["name"] for s in buf.snapshot(trace_id=tid)} == {
            "request", "queue_wait",
        }

    def test_buffer_is_bounded_and_counts_drops(self):
        buf = SpanBuffer(capacity=4)
        for i in range(10):
            buf.add(span(f"s{i}", new_trace_id()))
        assert len(buf.snapshot()) == 4
        assert buf.dropped == 6
        assert [s["name"] for s in buf.snapshot(limit=2)] == ["s8", "s9"]

    def test_chrome_trace_schema(self):
        tid = new_trace_id()
        root = span("request", tid, t0=100.0)
        finish(root, t1=100.5)
        child = span("worker.service", tid, root["span_id"], t0=100.1, worker=1)
        finish(child, t1=100.3)
        doc = chrome_trace([root, child])
        assert doc["displayTimeUnit"] == "ms"
        evs = doc["traceEvents"]
        assert len(evs) == 2
        for ev in evs:
            assert ev["ph"] == "X"
            assert {"name", "ts", "dur", "pid", "tid", "args"} <= set(ev)
        # microsecond timestamps, sorted
        assert evs[0]["ts"] <= evs[1]["ts"]
        assert evs[0]["dur"] == pytest.approx(500_000, rel=1e-6)
        assert evs[1]["args"]["worker"] == 1
        json.dumps(doc)  # must be serializable as-is


# ----------------------------------------------------------------------
# structured logging
# ----------------------------------------------------------------------
class TestJsonLogger:
    def test_rate_limit_and_suppressed_count(self):
        clock = [100.0]
        log = JsonLogger("t", min_interval_s=1.0, time_fn=lambda: clock[0])
        out = io.StringIO()
        set_log_stream(out)
        try:
            assert log.event("shed", scene="a")
            assert not log.event("shed", scene="a")
            assert not log.event("shed", scene="a")
            assert log.event("other")  # separate gate per event
            clock[0] += 1.5
            assert log.event("shed", scene="a")
        finally:
            set_log_stream(None)
        lines = [json.loads(l) for l in out.getvalue().splitlines()]
        assert [l["event"] for l in lines] == ["shed", "other", "shed"]
        assert lines[2]["suppressed"] == 2
        assert lines[0]["subsystem"] == "t" and lines[0]["scene"] == "a"

    def test_force_bypasses_the_gate(self):
        log = JsonLogger("t", min_interval_s=3600.0)
        out = io.StringIO()
        set_log_stream(out)
        try:
            assert log.event("death", worker=0)
            assert log.event("death", worker=0, force=True)
        finally:
            set_log_stream(None)
        assert len(out.getvalue().splitlines()) == 2


# ----------------------------------------------------------------------
# cluster wiring: parity, traced kills, the /metrics endpoint
# ----------------------------------------------------------------------
from repro.cluster.frontend import ClusterFrontend  # noqa: E402
from repro.cluster.loadgen import _rpc  # noqa: E402
from repro.core.api import ShortestPathIndex  # noqa: E402
from repro.serve.publish import list_published  # noqa: E402
from repro.workloads.generators import random_disjoint_rects  # noqa: E402


@pytest.fixture(autouse=True)
def no_leaked_publishers():
    before = set(list_published())
    yield
    leaked = set(list_published()) - before
    assert not leaked, f"leaked publisher directories: {sorted(leaked)}"


@pytest.fixture(scope="module")
def scene_data():
    rects_a = random_disjoint_rects(7, seed=1)
    rects_b = random_disjoint_rects(5, seed=2)
    return {
        "a": (rects_a, ShortestPathIndex.build(rects_a)),
        "b": (rects_b, ShortestPathIndex.build(rects_b)),
    }


async def _open_rpc(fe, *msgs):
    reader, writer = await asyncio.open_connection(fe.host, fe.port)
    try:
        return [await _rpc(reader, writer, m) for m in msgs]
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class TestClusterObs:
    def test_stats_verb_is_a_view_over_the_registry(self, scene_data):
        # the drift satellite: the numbers `stats` reports must BE the
        # registry's counters, not parallel book-keeping
        async def run():
            scenes = {
                name: {"obstacles": rects} for name, (rects, _) in scene_data.items()
            }
            async with ClusterFrontend(scenes, workers=2) as fe:
                _, idx_a = scene_data["a"]
                vs = idx_a.vertices()
                for i in range(5):
                    (r,) = await _open_rpc(
                        fe,
                        {"id": i, "op": "length", "scene": "a",
                         "p": list(vs[0]), "q": list(vs[-1])},
                    )
                    assert r["ok"]
                os.kill(fe.workers[0].proc.pid, signal.SIGKILL)
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    (r,) = await _open_rpc(
                        fe,
                        {"id": 9, "op": "length", "scene": "a",
                         "p": list(vs[0]), "q": list(vs[-1])},
                    )
                    assert r["ok"]
                    if fe.supervisor.total_restarts >= 1:
                        break
                    await asyncio.sleep(0.1)
                (st,), (mx,) = (
                    await _open_rpc(fe, {"id": 0, "op": "stats"}),
                    await _open_rpc(fe, {"id": 0, "op": "metrics"}),
                )
                stats, snap = st["result"], mx["result"]

                def total(fam):
                    return sum(
                        s["value"] for s in snap.get(fam, {}).get("series", [])
                    )

                # both probes are themselves admitted requests: the
                # metrics snapshot sits exactly one admission (its own)
                # after the stats one — any other gap would be drift
                assert int(total("repro.frontend.requests")) == (
                    stats["frontend"]["requests"] + 1
                )
                assert stats["frontend"]["sheds"] == int(
                    total("repro.frontend.shed")
                )
                assert stats["supervisor"]["total_restarts"] == int(
                    total("repro.supervisor.restarts")
                )
                assert stats["supervisor"]["total_crashes"] == int(
                    total("repro.supervisor.crashes")
                )
                assert stats["supervisor"]["total_restarts"] >= 1
                # per-scene stats agree with the per-scene counter series
                per_scene = {
                    s["labels"]["scene"]: int(s["value"])
                    for s in snap["repro.frontend.scene_requests"]["series"]
                }
                for name, m in stats["frontend"]["scenes"].items():
                    assert m["requests"] == per_scene.get(name, 0)

                # distributions: `stats` reads the same histograms the
                # scrape renders (scene probes are not latency-recorded)
                def hist_count(fam, **labels):
                    return sum(
                        s["count"] for s in snap[fam]["series"]
                        if all(s["labels"].get(k) == v for k, v in labels.items())
                    )

                for name, m in stats["frontend"]["scenes"].items():
                    assert m["latency"]["count"] == hist_count(
                        "repro.frontend.latency_seconds", scene=name
                    )
                assert stats["frontend"]["scenes"]["a"]["latency"]["count"] >= 5
                # ...and the batch table: the metrics probe adds one
                # batch per live worker after the stats snapshot
                live = [w for w, ws in stats["workers"].items() if "service" in ws]
                assert sum(stats["frontend"]["batch_size_hist"].values()) + len(
                    live
                ) == hist_count("repro.frontend.batch_size")
                # each worker's service view vs its labeled series: the
                # stats batch itself lands after that worker's stats answer
                for wid in live:
                    assert stats["workers"][wid]["service"]["count"] + 1 == (
                        hist_count("repro.worker.service_seconds", worker=wid)
                    )
                # worker series arrive labeled and the snapshot renders
                assert any(
                    s["labels"].get("worker")
                    for s in snap.get("repro.worker.requests", {}).get("series", [])
                )
                text = render_openmetrics(snap)
                assert count_series(snap) >= 20
                assert text.endswith("# EOF\n")
        asyncio.run(run())

    def test_traced_request_survives_kill_with_redirect_span(self, scene_data):
        # the ISSUE acceptance drill: a traced request whose worker is
        # SIGKILLed mid-batch must come back ok with a span tree that
        # records the redirect hop and the surviving worker's service
        async def run():
            scenes = {
                name: {"obstacles": rects} for name, (rects, _) in scene_data.items()
            }
            async with ClusterFrontend(
                scenes, workers=2, pins={"a": 0, "b": 1}, supervise=False
            ) as fe:
                _, idx_a = scene_data["a"]
                vs = idx_a.vertices()
                async def pipelined():
                    # both frames must be in flight *before* the kill, so
                    # the length request is in the doomed worker's batch
                    from repro.cluster.protocol import read_frame, write_frame

                    reader, writer = await asyncio.open_connection(
                        fe.host, fe.port
                    )
                    try:
                        await write_frame(
                            writer,
                            {"id": 0, "op": "sleep", "scene": "a", "ms": 400,
                             "trace": True},
                        )
                        await write_frame(
                            writer,
                            {"id": 1, "op": "length", "scene": "a",
                             "trace": True,
                             "p": list(vs[0]), "q": list(vs[-1])},
                        )
                        return [await read_frame(reader) for _ in range(2)]
                    finally:
                        writer.close()
                        try:
                            await writer.wait_closed()
                        except (ConnectionError, OSError):
                            pass

                client = asyncio.ensure_future(pipelined())
                await asyncio.sleep(0.15)  # let the batch reach worker 0
                os.kill(fe.workers[0].proc.pid, signal.SIGKILL)
                r0, r1 = await client
                assert r1["ok"] and r1["result"] == idx_a.length(vs[0], vs[-1])
                tr = r1["trace"]
                spans = tr["spans"]
                by_name = {}
                for sp in spans:
                    by_name.setdefault(sp["name"], []).append(sp)
                assert set(by_name) >= {"request", "queue_wait", "redirect",
                                        "worker.service"}
                # one shared trace id, every span finished
                assert {sp["trace_id"] for sp in spans} == {tr["trace_id"]}
                assert all(sp["dur"] is not None for sp in spans)
                (redirect,) = by_name["redirect"]
                assert redirect["attrs"]["to_worker"] == 1
                assert redirect["attrs"]["hop"] == 1
                # the service span ran on the survivor
                assert by_name["worker.service"][-1]["attrs"]["worker"] == 1
                root = by_name["request"][0]
                assert root["attrs"]["redirects"] == 1
                # children nest under the root and inside its interval
                t_end = root["t0"] + root["dur"]
                for sp in spans:
                    if sp is root:
                        continue
                    assert sp["parent_id"] == root["span_id"]
                    assert sp["t0"] >= root["t0"] - 0.05
                    assert sp["t0"] + sp["dur"] <= t_end + 0.05
                # the trace verb replays the same spans from the buffer
                (dump,) = await _open_rpc(
                    fe, {"id": 0, "op": "trace", "trace_id": tr["trace_id"]}
                )
                got = {s["span_id"] for s in dump["result"]["spans"]}
                assert got == {s["span_id"] for s in spans}
                # and they convert to chrome format
                doc = chrome_trace(dump["result"]["spans"])
                assert len(doc["traceEvents"]) == len(spans)
        asyncio.run(run())

    def test_untraced_requests_carry_no_trace(self, scene_data):
        async def run():
            scenes = {"a": {"obstacles": scene_data["a"][0]}}
            async with ClusterFrontend(scenes, workers=1) as fe:
                _, idx_a = scene_data["a"]
                vs = idx_a.vertices()
                (r,) = await _open_rpc(
                    fe,
                    {"id": 0, "op": "length", "scene": "a",
                     "p": list(vs[0]), "q": list(vs[-1])},
                )
                assert r["ok"] and "trace" not in r
                assert fe.span_buffer.snapshot() == []
        asyncio.run(run())

    def test_metrics_endpoint_speaks_openmetrics(self, scene_data):
        async def run():
            scenes = {"a": {"obstacles": scene_data["a"][0]}}
            async with ClusterFrontend(scenes, workers=1, metrics_port=0) as fe:
                assert fe.metrics_port not in (None, 0)
                _, idx_a = scene_data["a"]
                vs = idx_a.vertices()
                (r,) = await _open_rpc(
                    fe,
                    {"id": 0, "op": "length", "scene": "a",
                     "p": list(vs[0]), "q": list(vs[-1])},
                )
                assert r["ok"]

                async def http_get(path):
                    reader, writer = await asyncio.open_connection(
                        fe.host, fe.metrics_port
                    )
                    writer.write(
                        f"GET {path} HTTP/1.0\r\nHost: x\r\n\r\n".encode()
                    )
                    await writer.drain()
                    raw = await reader.read()
                    writer.close()
                    await writer.wait_closed()
                    head, _, body = raw.partition(b"\r\n\r\n")
                    return head.decode(), body.decode()

                head, body = await http_get("/metrics")
                assert head.startswith("HTTP/1.0 200")
                assert CONTENT_TYPE in head
                assert body.endswith("# EOF\n")
                for needle in (
                    "repro_frontend_requests_total",
                    "repro_frontend_latency_seconds_bucket",
                    "repro_worker_requests_total",
                    "repro_store_resident",
                    "repro_query_requests",
                ):
                    assert needle in body, f"{needle} missing from scrape"
                head404, _ = await http_get("/nope")
                assert head404.startswith("HTTP/1.0 404")
        asyncio.run(run())
