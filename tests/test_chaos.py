"""Chaos suite: the cluster under injected faults.

Every test drives a real multi-process ``ClusterFrontend`` through a
:class:`~repro.cluster.faults.FaultPlan` (or a hand-thrown fault) and
asserts the *client-visible* contract: with retries enabled a worker
kill, a duplicated frame, or a truncated connection must not surface as
an error; a corrupt snapshot must quarantine and rebuild, not crash a
worker; a stalled worker must expire queued deadlines instead of serving
stale work.
"""

import asyncio
import os
import time

import pytest

from repro.cluster import loadgen
from repro.cluster.faults import FaultInjector, FaultPlan, bitflip_file
from repro.cluster.frontend import ClusterFrontend
from repro.cluster.protocol import read_frame, write_frame
from repro.cluster.supervisor import RestartPolicy, Supervisor
from repro.core.api import ShortestPathIndex
from repro.errors import ClusterError, SnapshotError
from repro.serve.publish import list_published
from repro.serve import snapshot
from repro.serve.store import SceneStore
from repro.workloads.generators import random_disjoint_rects


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


# -- the fault plan itself ----------------------------------------------
class TestFaultPlan:
    def test_round_trips_and_rejects_unknown_fields(self, tmp_path):
        plan = FaultPlan(kill_every=200, delay_every=10, delay_ms=5.0)
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        with pytest.raises(ClusterError, match="unknown fault plan field"):
            FaultPlan.from_dict({"kill_evry": 200})
        f = tmp_path / "plan.json"
        f.write_text('{"kill_every": 3, "max_kills": 1}')
        assert FaultPlan.from_file(f) == FaultPlan(kill_every=3, max_kills=1)
        with pytest.raises(ClusterError, match="unreadable fault plan"):
            FaultPlan.from_file(tmp_path / "missing.json")

    def test_worker_options_carry_only_stalls(self):
        assert FaultPlan(kill_every=5).worker_options() == {}
        assert FaultPlan(stall_every=4, stall_ms=100.0).worker_options() == {
            "stall_every": 4,
            "stall_ms": 100.0,
        }

    def test_bitflip_is_deterministic_and_single_bit(self, tmp_path):
        f = tmp_path / "blob.bin"
        payload = bytes(range(256)) * 8
        f.write_bytes(payload)
        copy = tmp_path / "copy.bin"
        copy.write_bytes(payload)
        off = bitflip_file(f, seed=3)
        assert off == bitflip_file(copy, seed=3)  # seeded: same offset
        mutated = f.read_bytes()
        assert len(mutated) == len(payload)
        diffs = [i for i, (x, y) in enumerate(zip(payload, mutated)) if x != y]
        assert diffs == [off]
        assert (payload[off] ^ mutated[off]) == 0x01
        assert off >= len(payload) // 2  # lands in the payload half
        with pytest.raises(ClusterError, match="outside file"):
            bitflip_file(f, offset=len(payload))


# -- supervisor policy (pure, no processes) -----------------------------
class TestSupervisorPolicy:
    def test_backoff_grows_and_resets(self):
        t = [0.0]
        sup = Supervisor(
            RestartPolicy(jitter=0.0), time_fn=lambda: t[0]
        )
        sup.record_crash(0, "boom")
        b1 = sup.next_backoff(0)
        sup.record_crash(0, "boom again")
        b2 = sup.next_backoff(0)
        assert b2 == pytest.approx(2 * b1)
        sup.record_restart(0)  # success resets consecutive failures
        sup.record_crash(0, "later")
        assert sup.next_backoff(0) == pytest.approx(b1)
        assert sup.total_restarts == 1

    def test_circuit_breaker_is_sticky_and_window_prunes(self):
        t = [0.0]
        pol = RestartPolicy(max_restarts=2, window_s=10.0)
        sup = Supervisor(pol, time_fn=lambda: t[0])
        for _ in range(2):
            sup.record_crash(1, "x")
            assert sup.allow_restart(1)
            sup.record_restart(1)
        sup.record_crash(1, "x")  # third crash inside the window
        assert not sup.allow_restart(1)
        assert sup.stats()["workers"]["1"]["breaker_open"]
        t[0] += 60.0  # even far outside the window: breaker is sticky
        assert not sup.allow_restart(1)
        # a slow-crashing worker never trips it
        for i in range(6):
            sup.record_crash(2, "slow")
            assert sup.allow_restart(2), i
            sup.record_restart(2)
            t[0] += 20.0


# -- chaos acceptance: kills under sustained load -----------------------
class TestKillChaos:
    def test_closed_loop_survives_repeated_worker_kills(self, scene_data):
        # the ISSUE acceptance drill: 2 workers, a kill every 200
        # requests across a 2000-request closed loop; with retries the
        # client sees zero errors and the report proves faults did fire
        async def run():
            scenes = {
                name: {"obstacles": rects} for name, (rects, _) in scene_data.items()
            }
            plan = FaultPlan(kill_every=200)
            async with ClusterFrontend(
                scenes,
                workers=2,
                faults=plan,
                # 10 kills land on 2 slots well inside the default 30s
                # window — the drill needs a policy that keeps restarting
                restart_policy=RestartPolicy(max_restarts=100, window_s=30.0),
            ) as fe:
                rep = await loadgen.run(
                    fe.host,
                    fe.port,
                    mode="closed",
                    n_requests=2000,
                    conns=4,
                    seed=3,
                    retries=8,
                    retry_budget=2000,
                    timeout_s=15.0,
                )
                s = rep.summary()
                assert s["sent"] == 2000
                assert s["errors"] == 0, s
                assert s["ok"] + s["shed"] + s["deadline_expired"] == 2000
                assert s["ok"] >= 1900
                # bounded tail latency: redirects + restarts, not hangs
                assert s["latency"]["p99_ms"] < 10_000.0
                assert fe.injector.kills, "fault plan never fired"
                assert fe.supervisor.total_restarts >= 1
                st = fe.stats()
                assert st["faults"]["kills"] == fe.injector.kills
                assert (
                    st["supervisor"]["total_restarts"]
                    == fe.supervisor.total_restarts
                )
        asyncio.run(run())

    def test_breaker_leaves_cluster_degraded_but_serving(self, scene_data):
        # max_kills=1 with supervision disabled: the survivor carries
        # every scene and the run still completes with retries
        async def run():
            scenes = {
                name: {"obstacles": rects} for name, (rects, _) in scene_data.items()
            }
            plan = FaultPlan(kill_every=20, max_kills=1)
            async with ClusterFrontend(
                scenes, workers=2, faults=plan, supervise=False
            ) as fe:
                rep = await loadgen.run(
                    fe.host,
                    fe.port,
                    mode="closed",
                    n_requests=200,
                    conns=2,
                    seed=4,
                    retries=5,
                )
                s = rep.summary()
                assert s["errors"] == 0, s
                assert len(fe.injector.kills) == 1
                (h,) = await _rpc(fe.host, fe.port, {"id": 0, "op": "health"})
                assert h["result"]["status"] == "degraded"
        asyncio.run(run())


# -- frame faults: the client side must cope ----------------------------
class TestFrameFaults:
    def test_duplicates_delays_and_truncations_are_retried(self, scene_data):
        async def run():
            scenes = {
                name: {"obstacles": rects} for name, (rects, _) in scene_data.items()
            }
            plan = FaultPlan(
                delay_every=7,
                delay_ms=20.0,
                duplicate_every=5,
                truncate_every=31,
            )
            async with ClusterFrontend(scenes, workers=2, faults=plan) as fe:
                rep = await loadgen.run(
                    fe.host,
                    fe.port,
                    mode="closed",
                    n_requests=300,
                    conns=3,
                    seed=5,
                    retries=6,
                    retry_budget=600,
                    timeout_s=10.0,
                )
                s = rep.summary()
                assert s["errors"] == 0, s
                assert s["ok"] == 300
                inj = fe.injector
                assert inj.duplicates > 0 and inj.truncations > 0
                assert inj.delays > 0
                # truncation forced at least one reconnect-and-retry
                assert s["retries"] >= 1
        asyncio.run(run())


# -- stalls and deadlines -----------------------------------------------
class TestDeadlines:
    def test_stalled_worker_expires_queued_deadlines(self, scene_data):
        async def run():
            rects, idx = scene_data["a"]
            vs = idx.vertices()
            async with ClusterFrontend(
                {"a": {"obstacles": rects}}, workers=1, max_batch=1
            ) as fe:
                reader, writer = await asyncio.open_connection(fe.host, fe.port)
                try:
                    # occupy the only worker, then queue a request whose
                    # budget expires while the worker naps
                    await write_frame(
                        writer,
                        {"id": 0, "op": "sleep", "scene": "a", "ms": 400},
                    )
                    await asyncio.sleep(0.05)
                    await write_frame(
                        writer,
                        {
                            "id": 1,
                            "op": "length",
                            "scene": "a",
                            "p": list(vs[0]),
                            "q": list(vs[-1]),
                            "deadline_ms": 100,
                        },
                    )
                    r0 = await asyncio.wait_for(read_frame(reader), 30)
                    r1 = await asyncio.wait_for(read_frame(reader), 30)
                finally:
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except (ConnectionError, OSError):
                        pass
                assert r0["ok"] and r0["result"] == "slept"
                assert not r1["ok"] and r1["deadline_expired"], r1
                assert "deadline expired" in r1["error"]
                assert fe.deadline_expired == 1
                st = fe.stats()
                assert st["frontend"]["deadline_expired"] == 1
                assert st["frontend"]["scenes"]["a"]["deadline_expired"] == 1
                # a retry with a fresh budget succeeds
                (r2,) = await _rpc(
                    fe.host,
                    fe.port,
                    {"id": 2, "op": "length", "scene": "a",
                     "p": list(vs[0]), "q": list(vs[-1]), "deadline_ms": 5000},
                )
                assert r2["ok"] and r2["result"] == idx.length(vs[0], vs[-1])
        asyncio.run(run())

    def test_bad_deadline_is_a_one_line_error(self, scene_data):
        async def run():
            rects, idx = scene_data["a"]
            vs = idx.vertices()
            async with ClusterFrontend({"a": {"obstacles": rects}}, workers=1) as fe:
                (r,) = await _rpc(
                    fe.host,
                    fe.port,
                    {"id": 0, "op": "length", "scene": "a",
                     "p": list(vs[0]), "q": list(vs[-1]), "deadline_ms": "soon"},
                )
                assert not r["ok"] and "deadline_ms" in r["error"]
        asyncio.run(run())

    def test_stall_plan_reaches_workers(self, scene_data):
        async def run():
            rects, idx = scene_data["a"]
            vs = idx.vertices()
            plan = FaultPlan(stall_every=3, stall_ms=150.0)
            async with ClusterFrontend(
                {"a": {"obstacles": rects}}, workers=1, max_batch=1, faults=plan
            ) as fe:
                msg = {"op": "length", "scene": "a",
                       "p": list(vs[0]), "q": list(vs[-1])}
                t0 = time.perf_counter()
                for i in range(3):
                    (r,) = await _rpc(fe.host, fe.port, dict(msg, id=i))
                    assert r["ok"]
                # readiness ping was batch #1, so the stall lands inside
                # these three requests regardless of batching phase
                assert time.perf_counter() - t0 >= 0.14
        asyncio.run(run())


# -- snapshot quarantine ------------------------------------------------
def _corrupt_matrix(path):
    """Flip one bit inside the checksummed matrix payload (the seeded
    back-half default could land in an unchecksummed member)."""
    header, base = snapshot._read_raw_header(path)
    toc = header["toc"]["matrix"]
    return bitflip_file(path, offset=base + toc["offset"] + toc["nbytes"] // 2)


class TestQuarantine:
    def test_store_quarantines_and_rebuilds(self, tmp_path, scene_data):
        rects, idx = scene_data["a"]
        path = snapshot.save(idx, tmp_path / "a.rsp")
        _corrupt_matrix(path)
        store = SceneStore()
        store.add_snapshot(
            "a", path, fallback=lambda: ShortestPathIndex.build(rects)
        )
        got = store.get("a")  # no raise: quarantined + rebuilt
        vs = idx.vertices()
        assert got.length(vs[0], vs[-1]) == idx.length(vs[0], vs[-1])
        assert not path.exists()
        q = path.with_name(path.name + ".quarantined")
        assert q.exists()
        assert "checksum" in store.quarantines["a"]
        st = store.stats()
        assert st["quarantined"] == 1 and st["quarantined_scenes"] == ["a"]
        # the rebuilt index is the scene's current one: a re-get neither
        # re-touches nor double-quarantines the artifact
        assert store.get("a") is got
        assert store.stats()["quarantined"] == 1

    def test_store_without_fallback_raises_after_quarantine(
        self, tmp_path, scene_data
    ):
        rects, idx = scene_data["b"]
        path = snapshot.save(idx, tmp_path / "b.rsp")
        _corrupt_matrix(path)
        store = SceneStore()
        store.add_snapshot("b", path)
        with pytest.raises(SnapshotError):
            store.get("b")
        assert not path.exists()  # still quarantined out of the way
        assert store.stats()["quarantined"] == 1

    def test_worker_survives_corrupt_snapshot(self, tmp_path, scene_data):
        # cluster-level: a snapshot source with geometry attached;
        # corrupt the artifact after spawn but before first use — the
        # worker must quarantine + rebuild, never crash
        async def run():
            rects, idx = scene_data["a"]
            path = snapshot.save(idx, tmp_path / "a.rsp")
            vs = idx.vertices()
            async with ClusterFrontend(
                {"a": {"snapshot": path, "obstacles": rects}},
                workers=1,
            ) as fe:
                _corrupt_matrix(path)  # worker has not loaded it yet
                (r,) = await _rpc(
                    fe.host,
                    fe.port,
                    {"id": 0, "op": "length", "scene": "a",
                     "p": list(vs[0]), "q": list(vs[-1])},
                )
                assert r["ok"] and r["result"] == idx.length(vs[0], vs[-1])
                assert fe.workers[0].proc.is_alive()
                (st,) = await _rpc(fe.host, fe.port, {"id": 1, "op": "stats"})
                w0 = st["result"]["workers"]["0"]
                assert w0["store"]["quarantined"] == 1
                assert w0["store"]["quarantined_scenes"] == ["a"]
            assert path.with_name(path.name + ".quarantined").exists()
        asyncio.run(run())


# -- graceful lifecycle -------------------------------------------------
class TestDrain:
    def test_drain_verb_refuses_new_work_and_acks(self, scene_data):
        async def run():
            rects, idx = scene_data["a"]
            vs = idx.vertices()
            async with ClusterFrontend({"a": {"obstacles": rects}}, workers=1) as fe:
                r0, rd = await _rpc(
                    fe.host,
                    fe.port,
                    {"id": 0, "op": "length", "scene": "a",
                     "p": list(vs[0]), "q": list(vs[-1])},
                    {"id": 1, "op": "drain"},
                )
                assert r0["ok"]
                assert rd["ok"] and rd["result"] == "drained"
                r1, h, p = await _rpc(
                    fe.host,
                    fe.port,
                    {"id": 0, "op": "length", "scene": "a",
                     "p": list(vs[0]), "q": list(vs[-1])},
                    {"id": 1, "op": "health"},
                    {"id": 2, "op": "ping"},
                )
                assert not r1["ok"] and r1["draining"]
                assert "draining" in r1["error"]
                assert h["result"]["status"] == "draining"
                assert p["ok"]  # lifecycle verbs still answer
        asyncio.run(run())

    def test_drain_waits_for_inflight_work(self, scene_data):
        async def run():
            rects, _ = scene_data["a"]
            async with ClusterFrontend(
                {"a": {"obstacles": rects}}, workers=1, max_batch=1
            ) as fe:
                slow = asyncio.ensure_future(
                    _rpc(
                        fe.host,
                        fe.port,
                        {"id": 0, "op": "sleep", "scene": "a", "ms": 300},
                    )
                )
                await asyncio.sleep(0.1)  # the sleep is now in flight
                t0 = time.perf_counter()
                await fe.drain()
                assert time.perf_counter() - t0 >= 0.1  # waited it out
                (r,) = await slow
                assert r["ok"] and r["result"] == "slept"
        asyncio.run(run())
