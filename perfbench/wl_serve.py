"""Workload ``serve``: a closed loop against a ``repro cluster`` process.

Set-up builds the seeded scenes in this process, snapshots them, starts
``python -m repro cluster --workers 1`` on the snapshots as its own
process and replays the request pool once, so the lazy §6.4,
path-reporter and link caches are warm before timing.  It is repeated
``SETUPS`` times; the last cluster serves the timed loop.  The loop runs
on ``CONNS`` connections, each sending its next request when the
previous answer arrives, cycling through the seeded request pool.
Every answer is compared with the in-process index it was snapshotted
from; paths must be clear, rectilinear, join the endpoints and have the
reference length.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import time

import inputs
from common import (
    OUT,
    SRC,
    descendants,
    e2e_metrics,
    latency_summary,
    median,
    percentile,
    proc_peak_rss_mb,
)
from tracer import Tracer

SETUPS = 3
#: client connections: the loop never asks for more parallelism than
#: the host has cores
CONNS = max(1, min(2, os.cpu_count() or 1))
START_TIMEOUT_S = 60.0
#: slack when one span is compared with the span it sits in: server
#: spans are read off the wall clock, whose float epoch seconds resolve
#: to about a quarter of a microsecond
SLACK_MS = 0.002
STOP_TIMEOUT_S = 20.0


class Cluster:
    """One ``repro cluster`` process serving snapshot files."""

    def __init__(self, snapshots: list[pathlib.Path], workdir: pathlib.Path) -> None:
        ready = workdir / "ready"
        self.log_path = workdir / "cluster.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        t0 = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "cluster", *map(str, snapshots),
                 "--workers", "1", "--port", "0", "--ready-file", str(ready)],
                env=env, stdout=subprocess.DEVNULL, stderr=log,
            )
        self.children: list[int] = []
        while not ready.exists() or not ready.read_text().endswith("\n"):
            if self.proc.poll() is not None or time.perf_counter() - t0 > START_TIMEOUT_S:
                self.stop()
                raise RuntimeError(f"cluster did not start:\n{self.log_tail()}")
            time.sleep(0.002)
        self.start_s = time.perf_counter() - t0
        host, port = ready.read_text().split()
        self.host, self.port = host, int(port)
        self.children = descendants(self.proc.pid)

    def peak_rss_mb(self) -> float:
        """Front-end plus every process it started (worker, helpers)."""
        pids = [self.proc.pid] + descendants(self.proc.pid)
        return sum(proc_peak_rss_mb(pid) for pid in pids)

    def log_tail(self) -> str:
        try:
            return self.log_path.read_text()[-2000:]
        except OSError:
            return ""

    def stop(self) -> None:
        """SIGINT (stop now), wait, and make sure every child is gone."""
        pids = set(self.children) | set(descendants(self.proc.pid))
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(STOP_TIMEOUT_S)
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for pid in pids:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.01)
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


# -- the client ----------------------------------------------------------
async def _closed_loop(host, port, pool, *, seconds=None, passes=None, trace=False):
    """``CONNS`` lockstep connections cycling through ``pool``.  Returns
    ``(records, elapsed_s)``, a record being ``(pool index, send time,
    receive time, response)``."""
    from repro.cluster.protocol import read_frame, write_frame

    records: list = []
    cursor = itertools.count()
    total = None if passes is None else passes * len(pool)
    t_start = time.perf_counter()
    deadline = None if seconds is None else t_start + seconds

    async def conn() -> None:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            while True:
                n = next(cursor)
                if (total is not None and n >= total) or (
                    deadline is not None and time.perf_counter() >= deadline
                ):
                    return
                i = n % len(pool)
                msg = dict(pool[i]["wire"], id=n)
                if trace:
                    msg["trace"] = True
                t0 = time.perf_counter()
                await write_frame(writer, msg)
                resp = await read_frame(reader)
                t1 = time.perf_counter()
                if resp is None or resp.get("id") != n:
                    resp = {"ok": False, "error": f"lost or mismatched response {resp!r:.80}"}
                records.append((i, t0, t1, resp))
        finally:
            writer.close()
            await writer.wait_closed()

    # the load generator's own garbage collection would show up as
    # server latency: keep it out of the timed loop
    gc.collect()
    gc.disable()
    try:
        await asyncio.gather(*(conn() for _ in range(CONNS)))
    finally:
        gc.enable()
    return records, time.perf_counter() - t_start


async def _verb(host, port, msg: dict) -> dict:
    from repro.cluster.protocol import read_frame, write_frame

    reader, writer = await asyncio.open_connection(host, port)
    try:
        await write_frame(writer, dict(msg, id=0))
        resp = await read_frame(reader)
    finally:
        writer.close()
        await writer.wait_closed()
    if not resp or not resp.get("ok"):
        raise RuntimeError(f"{msg['op']} verb failed: {resp!r:.200}")
    return resp["result"]


# -- set-up ----------------------------------------------------------------
def setup_once(seed: int, workdir: pathlib.Path) -> dict:
    from repro.pipeline import StageCache, build_index
    from repro.scene import Scene
    from repro.serve.snapshot import save

    t0 = time.perf_counter()
    scenes = inputs.serve_scenes(seed)
    indexes = {
        name: build_index(Scene.from_obstacles(rects), engine="parallel", cache=StageCache())
        for name, rects in scenes.items()
    }
    t1 = time.perf_counter()
    paths = [save(idx, workdir / f"{name}.rsp") for name, idx in indexes.items()]
    t2 = time.perf_counter()
    cluster = Cluster(paths, workdir)
    pool = inputs.request_pool(seed, scenes, {n: i.vertices() for n, i in indexes.items()})
    try:
        records, _ = asyncio.run(_closed_loop(cluster.host, cluster.port, pool, passes=1))
    except BaseException:
        cluster.stop()
        raise
    return {
        "setup_s": time.perf_counter() - t0,
        "build_s": t1 - t0,
        "snapshot_s": t2 - t1,
        "cluster_start_s": cluster.start_s,
        "warmup": records,
        "cluster": cluster,
        "indexes": indexes,
        "pool": pool,
    }


def setup(seed: int, workdir: pathlib.Path) -> tuple[dict, list[dict]]:
    """``SETUPS`` full set-ups; all but the last cluster are stopped."""
    runs = []
    for k in range(SETUPS):
        sub = workdir / f"setup{k}"
        sub.mkdir()
        if runs:
            runs[-1]["cluster"].stop()
        runs.append(setup_once(seed, sub))
    return runs[-1], [{k: v for k, v in r.items() if k.endswith("_s")} for r in runs]


# -- checking --------------------------------------------------------------
def check(records, pool, indexes) -> int:
    """Wrong or failed answers among ``records``."""
    want: dict[int, object] = {}
    good_paths: dict[str, set] = {}
    wrong = 0
    for i, _, _, resp in records:
        wire = pool[i]["wire"]
        idx = indexes[wire["scene"]]
        p, q = tuple(wire["p"]), tuple(wire["q"])
        if i not in want:
            want[i] = idx.min_links(p, q) if wire["op"] == "minlink" else idx.length(p, q)
        got = resp.get("result")
        if not resp.get("ok"):
            ok = False
        elif wire["op"] == "length":
            ok = _num(got) == float(want[i])
        elif wire["op"] == "minlink":
            ok = isinstance(got, dict) and _num(got.get("links")) == float(want[i])
        else:
            ok = _valid_path(got, p, q, want[i], idx, good_paths.setdefault(wire["scene"], set()))
        wrong += 0 if ok else 1
    return wrong


def _valid_path(got, p, q, length, idx, known: set) -> bool:
    """A clear rectilinear polyline from ``p`` to ``q`` of ``length``
    (``known`` memoizes polylines already found valid in this scene)."""
    from repro.core.baseline import path_is_clear, path_length
    from repro.errors import QueryError

    try:
        pts = tuple(tuple(v) for v in got)
        if pts in known:
            return True
        ok = (
            len(pts) >= 1 and pts[0] == p and pts[-1] == q
            and path_length(pts) == length
            and path_is_clear(pts, idx.rects, idx.seams)
        )
    except (QueryError, TypeError, ValueError):
        return False
    if ok:
        known.add(pts)
    return ok


def _num(v) -> float:
    if v == "inf":
        return float("inf")
    try:
        return float(v)
    except (TypeError, ValueError):
        return float("nan")


# -- runs ------------------------------------------------------------------
def _workdir() -> pathlib.Path:
    OUT.mkdir(exist_ok=True)
    return pathlib.Path(tempfile.mkdtemp(prefix="serve-", dir=OUT))


def run(seed: int, seconds: float) -> dict:
    workdir = _workdir()
    try:
        state, setups = setup(seed, workdir)
        cluster = state["cluster"]
        try:
            records, elapsed = asyncio.run(
                _closed_loop(cluster.host, cluster.port, state["pool"], seconds=seconds)
            )
            peak = cluster.peak_rss_mb()
        finally:
            cluster.stop()
        warm = state["warmup"]
        wrong = check(records + warm, state["pool"], state["indexes"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, info = e2e_metrics(
        [s["setup_s"] for s in setups], [r[2] - r[1] for r in records], elapsed, peak
    )
    info.update(conns=CONNS, setup_runs=setups)
    return {"attempted": len(records) + len(warm), "failed": wrong, "metrics": metrics, "info": info}


def run_traced(seed: int, seconds: float, tracer: Tracer) -> dict:
    """Half the time untraced, half with ``trace: true`` on every request;
    layers come from the spans on the traced responses."""
    workdir = _workdir()
    try:
        state, setups = setup(seed, workdir)
        cluster = state["cluster"]
        host, port, pool = cluster.host, cluster.port, state["pool"]
        try:
            plain, _ = asyncio.run(_closed_loop(host, port, pool, seconds=seconds / 2))
            before = asyncio.run(_verb(host, port, {"op": "metrics"}))
            traced, _ = asyncio.run(
                _closed_loop(host, port, pool, seconds=seconds / 2, trace=True)
            )
            after = asyncio.run(_verb(host, port, {"op": "metrics"}))
            peak = cluster.peak_rss_mb()
        finally:
            cluster.stop()
        warm = state["warmup"]
        wrong = check(plain + traced + warm, pool, state["indexes"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out, violations = serve_layers(plain, traced, pool, before, after, tracer)
    out["setup.snapshot_ms"] = median(s["snapshot_s"] for s in setups) * 1e3
    out["setup.cluster_start_ms"] = median(s["cluster_start_s"] for s in setups) * 1e3
    out["trace.peak_rss_mb"] = peak
    return {
        "attempted": len(plain) + len(traced) + len(warm),
        "failed": wrong,
        "violations": violations,
        "layers": out,
        "info": {"ops": len(plain) + len(traced), "traced_ops": len(traced), "conns": CONNS},
    }


def serve_layers(plain, traced, pool, before, after, tracer: Tracer) -> tuple[dict, list]:
    """Per-request span sums from traced responses, and the gaps between
    them: rtt = codec/TCP gap + request span, request = admission/linger
    gap + queue wait + worker RPC, worker RPC = pipe gap + service.

    Also returns one line per request whose spans cannot be right: no
    request span, or a negative gap (a span longer than the one it sits
    in)."""
    rows = []
    bad = []
    for n, (i, t0, t1, resp) in enumerate(traced):
        tr = resp.get("trace") or {}
        spans = tr.get("spans") or []
        dur: dict[str, float] = {}
        for sp in spans:
            dur[sp["name"]] = dur.get(sp["name"], 0.0) + float(sp.get("dur") or 0.0)
        root = next((sp for sp in spans if sp["name"] == "request"), None)
        if root is None:
            bad.append(f"traced request {n}: no request span")
            continue
        # keep the spans for the run's span dump, on the client's clock
        # (shifted so the root span starts at send time)
        for sp in spans:
            tracer.spans.append([
                "serve." + sp["name"], t0 + (sp["t0"] - root["t0"]),
                t0 + (sp["t0"] - root["t0"]) + float(sp.get("dur") or 0.0), -1, 0,
            ])
        row = {
            "rtt": (t1 - t0) * 1e3,
            "request": dur.get("request", 0.0) * 1e3,
            "queue": dur.get("queue_wait", 0.0) * 1e3,
            "rpc": dur.get("worker_rpc", 0.0) * 1e3,
            "service": dur.get("worker.service", 0.0) * 1e3,
        }
        rows.append(row)
        bad += [f"traced request {n}: {name} gap {gap:.4f} ms"
                for name, gap in _gaps(row).items() if gap < -SLACK_MS]
    if not rows:
        raise RuntimeError("no traced response carried spans")

    def p50(f) -> float:
        return percentile([f(r) for r in rows], 50)

    out = {
        "client.rtt_ms.p50": p50(lambda r: r["rtt"]),
        "frontend.request_ms.p50": p50(lambda r: r["request"]),
        "frontend.queue_wait_ms.p50": p50(lambda r: r["queue"]),
        "frontend.worker_rpc_ms.p50": p50(lambda r: r["rpc"]),
        "worker.service_ms.p50": p50(lambda r: r["service"]),
        "gap.codec_tcp_ms.p50": p50(lambda r: _gaps(r)["codec_tcp"]),
        "gap.admission_linger_ms.p50": p50(lambda r: _gaps(r)["admission_linger"]),
        "gap.pipe_ms.p50": p50(lambda r: _gaps(r)["pipe"]),
        "frontend.spanned_frac": sum(r["queue"] + r["rpc"] for r in rows)
        / sum(r["rtt"] for r in rows),
    }
    count, total = _hist_delta(before, after, "repro.frontend.batch_size")
    out["frontend.batch_size.mean"] = total / count if count else 0.0
    for verb in ("length", "arbitrary", "path", "minlink"):
        lat = [t1 - t0 for i, t0, t1, _ in plain if pool[i]["verb"] == verb]
        out[f"verb.{verb}.latency_ms.p50"] = latency_summary(lat)["p50"] if lat else 0.0
    untraced = latency_summary([t1 - t0 for _, t0, t1, _ in plain])
    out["client.rtt_ms.p99"] = untraced["p99"]
    out["trace.overhead_ms"] = out["client.rtt_ms.p50"] - untraced["p50"]
    return out, bad


def _gaps(row: dict) -> dict:
    """The time between one request's nested spans, in ms."""
    return {
        "codec_tcp": row["rtt"] - row["request"],
        "admission_linger": row["request"] - row["queue"] - row["rpc"],
        "pipe": row["rpc"] - row["service"],
    }


def _hist_delta(before: dict, after: dict, family: str) -> tuple[float, float]:
    """Observations and their sum added to a histogram family between two
    ``metrics`` snapshots, less the one batch the second snapshot's own
    request to the worker adds."""
    def totals(snap):
        series = (snap.get(family) or {}).get("series", [])
        return sum(s["count"] for s in series), sum(s["sum"] for s in series)

    c0, s0 = totals(before)
    c1, s1 = totals(after)
    return c1 - c0 - 1, s1 - s0 - 1
