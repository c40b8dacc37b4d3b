"""Load generation against a running cluster front-end.

Two canonical load models (the distinction matters — see any serving
textbook: closed loops hide queueing collapse, open loops expose it):

* **closed loop** (``--closed``): C connections, each with exactly one
  request outstanding — send, await, repeat.  Throughput is
  demand-limited by the cluster itself; the right mode for measuring
  capacity (``benchmarks/bench_cluster.py`` uses it).
* **open loop** (``--open --rps R``): requests fire on a fixed schedule
  regardless of completions (pipelined across C connections).  The right
  mode for watching latency percentiles and load shedding as offered
  load passes capacity.

The generator discovers scene names and legal endpoints through the
protocol itself (``scenes`` + ``endpoints`` verbs), so it needs nothing
but ``host:port`` — the same seeded stream can then be pointed at any
cluster serving the same scene set.  Reports carry p50/p95/p99 latency,
throughput, and shed/error counts, never bare means.  Latencies are
measured from outside, so they are kept exactly: every sample in an
``array('d')``, summarized by :func:`latency_summary`.

The closed loop is fault-tolerant on request: with ``retries > 0`` a
retryable failure (shed, worker-death redirect exhaustion, deadline
expiry, connection error, timeout) is retried with jittered exponential
backoff, bounded per-request by ``retries`` and run-wide by a shared
retry *budget* — so a worker restart is invisible to the run, but a
cluster that is actually down still fails fast instead of retrying
forever.  Every retry, timeout, and deadline expiry is counted in the
report (``--json`` carries them), which is what makes chaos runs
machine-checkable.
"""

from __future__ import annotations

import asyncio
import random
import time
from array import array
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.cluster.protocol import close_writer, read_frame, write_frame
from repro.errors import ClusterError

#: default request mix: (bulk-lengths fraction, arbitrary-point fraction,
#: path fraction); the remainder are single vertex-pair lengths
DEFAULT_MIX = (0.5, 0.2, 0.02)

#: verbs a weighted ``--mix`` spec may name (wire ops plus ``arbitrary``,
#: which is a ``length`` op with off-vertex endpoints)
MIX_VERBS = ("length", "lengths", "arbitrary", "path", "minlink", "links", "pareto")


def latency_summary(seconds: Sequence[float]) -> dict[str, float]:
    """``{"count", "mean_ms", "max_ms", "p50_ms", "p95_ms", "p99_ms"}``
    of exact samples (seconds in, milliseconds out; numpy's linear
    percentiles; ``nan`` figures for an empty sample)."""
    ms = np.asarray(seconds, dtype=np.float64) * 1e3
    if not len(ms):
        nan = float("nan")
        return {"count": 0, "mean_ms": nan, "max_ms": 0.0,
                "p50_ms": nan, "p95_ms": nan, "p99_ms": nan}
    p50, p95, p99 = np.percentile(ms, (50, 95, 99))
    return {"count": len(ms), "mean_ms": float(ms.mean()), "max_ms": float(ms.max()),
            "p50_ms": float(p50), "p95_ms": float(p95), "p99_ms": float(p99)}


def format_latency(summary: Mapping[str, float]) -> str:
    """One human line: ``p50 0.42ms  p95 1.3ms  p99 2.0ms  max 5.1ms``."""
    return "  ".join(
        f"{key[:-3]} {summary[key]:.3g}ms"
        for key in ("p50_ms", "p95_ms", "p99_ms", "max_ms")
        if key in summary
    )


def parse_mix(spec: str) -> dict[str, float]:
    """``"length:0.6,minlink:0.3,pareto:0.1"`` → normalized weight dict.

    Weights are relative (they need not sum to 1); unknown verbs and
    non-positive totals are one-line :class:`ClusterError`\\ s."""
    weights: dict[str, float] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        verb, sep, raw = part.partition(":")
        verb = verb.strip()
        if verb not in MIX_VERBS:
            raise ClusterError(
                f"unknown mix verb {verb!r} (want one of {', '.join(MIX_VERBS)})"
            )
        try:
            w = float(raw) if sep else 1.0
        except ValueError:
            raise ClusterError(f"bad mix weight {raw!r} for verb {verb!r}")
        if w < 0:
            raise ClusterError(f"negative mix weight {w} for verb {verb!r}")
        weights[verb] = weights.get(verb, 0.0) + w
    total = sum(weights.values())
    if total <= 0:
        raise ClusterError(f"mix {spec!r} has no positive weight")
    return {v: w / total for v, w in weights.items()}


async def _rpc(reader, writer, msg: dict, *, max_skip: int = 16) -> dict:
    """One matched request/response exchange.  Frames whose id does not
    match are skipped (a faulty or adversarial server may duplicate
    frames; counting a stale duplicate as this request's answer would
    desync every response after it)."""
    await write_frame(writer, msg)
    want = msg.get("id")
    for _ in range(max_skip):
        resp = await read_frame(reader)
        if resp is None:
            raise ClusterError("server closed the connection")
        if want is None or resp.get("id") == want:
            return resp
    raise ClusterError(f"no response for id {want!r} within {max_skip} frames")


async def discover(host: str, port: int, *, seed: int = 0, k: int = 48) -> dict:
    """Scene → ``{"vertices": [...], "free": [...]}`` pools, via the
    ``scenes`` and ``endpoints`` protocol verbs."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        resp = await _rpc(reader, writer, {"id": 0, "op": "scenes"})
        if not resp.get("ok"):
            raise ClusterError(f"scenes verb failed: {resp.get('error')}")
        pools: dict[str, dict] = {}
        for scene in sorted(resp["result"]["scenes"]):
            ep = await _rpc(
                reader,
                writer,
                {"id": 0, "op": "endpoints", "scene": scene, "k": k, "seed": seed},
            )
            if not ep.get("ok"):
                raise ClusterError(
                    f"endpoints for {scene!r} failed: {ep.get('error')}"
                )
            pools[scene] = ep["result"]
    finally:
        await close_writer(writer)
    if not pools:
        raise ClusterError("cluster serves no scenes")
    return pools


def build_requests(
    pools: dict,
    n_requests: int,
    *,
    seed: int = 0,
    mix: Sequence[float] = DEFAULT_MIX,
    pairs_per_request: int = 16,
    verb_mix: Optional[dict] = None,
) -> list[dict]:
    """A seeded wire-request stream over the discovered pools.

    ``mix`` is the legacy ``(bulk, arbitrary, path)`` triple: *bulk*
    requests are ``lengths`` ops carrying ``pairs_per_request`` vertex
    pairs (the coalescing path), *arbitrary* requests exercise §6.4 with
    off-vertex endpoints, *path* requests ask for polylines, and the
    remainder are single vertex-pair lookups.

    ``verb_mix`` (a :func:`parse_mix` weight dict) supersedes ``mix``
    entirely: each request draws its verb from the weighted set —
    including the link family (``minlink``/``links``/``pareto``), which
    only draws vertex endpoints (link queries over arbitrary points go
    through grid extension; the load model keeps them on the fast path).
    """
    if verb_mix is not None:
        key = ",".join(f"{v}:{verb_mix[v]:.6g}" for v in sorted(verb_mix))
    else:
        bulk_frac, arb_frac, path_frac = mix
        key = f"{bulk_frac}|{arb_frac}|{path_frac}"
    rng = random.Random(f"loadgen|{seed}|{n_requests}|{key}")
    names = sorted(pools)
    out: list[dict] = []

    def draw_verb() -> str:
        if verb_mix is not None:
            verbs = sorted(verb_mix)
            roll = rng.random()
            acc = 0.0
            for v in verbs:
                acc += verb_mix[v]
                if roll < acc:
                    return v
            return verbs[-1]
        bulk_frac, arb_frac, path_frac = mix
        roll = rng.random()
        if roll < bulk_frac:
            return "lengths"
        if roll < bulk_frac + arb_frac:
            return "arbitrary"
        if roll < bulk_frac + arb_frac + path_frac:
            return "path"
        return "length"

    for _ in range(n_requests):
        scene = names[rng.randrange(len(names))]
        verts = pools[scene]["vertices"]
        free = pools[scene]["free"]
        verb = draw_verb()
        if verb in ("lengths", "links") and len(verts) >= 2:
            # bulk lengths draw from vertices *and* free points: free
            # endpoints push the batch through the §6.4 machinery, which
            # is the CPU-bound work multi-worker scaling exists to spread.
            # bulk links stay on vertices (link answers for off-grid
            # points would rebuild the grid per distinct endpoint).
            pool = verts + free if verb == "lengths" else verts
            pairs = [
                [rng.choice(pool), rng.choice(pool)]
                for _ in range(pairs_per_request)
            ]
            out.append({"op": verb, "scene": scene, "pairs": pairs})
        elif verb == "arbitrary" and free and verts:
            p = rng.choice(free)
            q = rng.choice(verts) if rng.random() < 0.5 else rng.choice(free)
            out.append({"op": "length", "scene": scene, "p": p, "q": q})
        elif verb in ("path", "minlink", "pareto") and len(verts) >= 2:
            p, q = rng.sample(verts, 2)
            out.append({"op": verb, "scene": scene, "p": p, "q": q})
        else:
            out.append(
                {
                    "op": "length",
                    "scene": scene,
                    "p": rng.choice(verts),
                    "q": rng.choice(verts),
                }
            )
    return out


def _classify(resp: dict) -> str:
    """One-word error class for a failed response (report aggregation)."""
    if resp.get("shed"):
        return "shed"
    if resp.get("deadline_expired"):
        return "deadline_expired"
    err = str(resp.get("error") or "unknown")
    return err.split(":")[0].strip()[:48] or "unknown"


def _retryable(resp: dict) -> bool:
    """Safe to re-send?  Every cluster op is an idempotent read, so the
    question is only whether a retry could plausibly succeed."""
    return bool(
        resp.get("shed") or resp.get("retryable") or resp.get("deadline_expired")
    )


def _backoff_s(attempt: int, rng: random.Random) -> float:
    """Jittered exponential backoff: 50ms doubling, capped at 1s."""
    return min(0.05 * (2 ** (attempt - 1)), 1.0) * (0.5 + rng.random())


def _mark_traced(requests: Sequence[dict], trace_sample: int) -> list[dict]:
    """Copy the stream with ``trace_sample`` requests marked ``trace: true``,
    spread evenly so the sample sees steady state, not just warm-up."""
    out = [dict(r) for r in requests]
    scene_idx = [i for i, r in enumerate(out) if "scene" in r]
    n = min(max(0, int(trace_sample)), len(scene_idx))
    if n:
        stride = max(1, len(scene_idx) // n)
        for k in scene_idx[::stride][:n]:
            out[k]["trace"] = True
    return out


def _jsonify_expected(values) -> list:
    """Oracle values in the worker's wire form (see worker._jsonify), so
    a checked probe compares the exact JSON payloads."""
    out = []
    for v in values:
        f = float(v)
        out.append("inf" if (f != f or f in (float("inf"), float("-inf"))) else f)
    return out


class SceneMutator:
    """Periodic ``update`` verbs riding along a load-generation run.

    Alternates deleting and re-inserting one seeded-random rectangle of
    one updatable scene, so the cluster rolls between exactly two known
    generations while queries hammer it.  With ``check=True`` both
    versions of the scene are built *locally* through the pipeline and,
    after every acknowledged rollover, a probe batch of vertex-pair
    ``lengths`` must match the oracle of the just-published generation
    **exactly** — an acknowledged update followed by an old-generation
    answer is a stale read, which is precisely what the rollover protocol
    promises cannot happen.
    """

    def __init__(
        self, scene: str, scene_dict: dict, *, check: bool = False, seed: int = 0
    ) -> None:
        from repro.scene import Scene, SceneDelta

        self.scene = scene
        base = Scene.from_dict(scene_dict)
        rects = base.rects
        if not rects:
            raise ClusterError(
                f"scene {scene!r} has no rectangle obstacles to mutate"
            )
        rng = random.Random(f"mutate|{scene}|{seed}")
        victim = rects[rng.randrange(len(rects))]
        self.deltas = [
            SceneDelta.delete(victim).to_dict(),   # parity 0 -> 1
            SceneDelta.insert(victim).to_dict(),   # parity 1 -> 0
        ]
        self.parity = 0  # which scene version is live (0 = base)
        self.probe_pairs: list = []
        self.expected: list = []
        if check:
            from repro.pipeline import StageCache, build_index

            edited = base.apply_delta(SceneDelta.delete(victim))
            # vertices present in *both* generations: corners of the
            # surviving rects (the victim's corners leave the index with it)
            corners = [
                [int(c[0]), int(c[1])]
                for r in rects
                if r != victim
                for c in ((r.xlo, r.ylo), (r.xhi, r.yhi))
            ]
            k = min(8, len(corners) - 1)
            self.probe_pairs = [[corners[i], corners[-1 - i]] for i in range(k)]
            cache = StageCache(max_entries=256, max_bytes=256 << 20)
            oracles = (
                build_index(base, cache=cache),
                build_index(edited, cache=cache),
            )
            self.expected = [
                _jsonify_expected(
                    o.lengths([(tuple(p), tuple(q)) for p, q in self.probe_pairs])
                )
                for o in oracles
            ]

    async def step(self, reader, writer, mid: int, report: "Report") -> None:
        """One rollover (plus, when checking, its post-ack probe)."""
        resp = await asyncio.wait_for(
            _rpc(
                reader,
                writer,
                {
                    "id": f"mut{mid}",
                    "op": "update",
                    "scene": self.scene,
                    "delta": self.deltas[self.parity],
                },
            ),
            60.0,
        )
        if not resp.get("ok"):
            report.mutation_errors += 1
            if report.first_mutation_error is None:
                report.first_mutation_error = str(resp.get("error"))
            return
        report.mutations += 1
        self.parity ^= 1
        report.last_generation = int(resp["result"]["generation"])
        if not self.probe_pairs:
            return
        probe = await asyncio.wait_for(
            _rpc(
                reader,
                writer,
                {
                    "id": f"probe{mid}",
                    "op": "lengths",
                    "scene": self.scene,
                    "pairs": self.probe_pairs,
                },
            ),
            60.0,
        )
        want = self.expected[self.parity]
        if not probe.get("ok") or probe.get("result") != want:
            report.stale_answers += 1
            if report.first_stale is None:
                report.first_stale = (
                    f"after rollover to generation {report.last_generation}: "
                    f"got {probe.get('result')!r:.200}, want {want!r:.200}"
                )


class _RetryBudget:
    """A run-wide token pool shared by every connection: each retry
    spends one token, so a down cluster costs at most ``tokens`` extra
    requests instead of ``retries × requests``."""

    def __init__(self, tokens: int) -> None:
        self.tokens = max(0, int(tokens))

    def take(self) -> bool:
        if self.tokens <= 0:
            return False
        self.tokens -= 1
        return True


class Report:
    """Aggregated outcome of one load-generation run."""

    def __init__(self, mode: str) -> None:
        self.mode = mode
        self.sent = 0
        self.ok = 0
        self.errors = 0
        self.shed = 0
        self.retries = 0
        self.timeouts = 0
        self.deadline_expired = 0
        self.error_classes: dict[str, int] = {}
        self.latency = array("d")
        self.elapsed_s = 0.0
        self.first_error: Optional[str] = None
        # scene-mutation bookkeeping (--mutate-every)
        self.mutations = 0
        self.mutation_errors = 0
        self.stale_answers = 0
        self.last_generation = 0
        self.first_mutation_error: Optional[str] = None
        self.first_stale: Optional[str] = None
        # traced-request sample: per-hop breakdowns plus the aggregated
        # queue-wait vs service-time split (where does latency come from?)
        self.traces: list[dict] = []
        self.queue_wait = array("d")
        self.service = array("d")
        # per-verb outcome split (wire op → counts + latency); what the
        # --mix flag reports on
        self.by_verb: dict[str, dict] = {}

    def record(self, resp: dict, seconds: float, verb: Optional[str] = None) -> None:
        self.latency.append(seconds)
        if verb is not None:
            vb = self.by_verb.setdefault(
                verb,
                {"sent": 0, "ok": 0, "errors": 0, "shed": 0,
                 "latency": array("d")},
            )
            vb["sent"] += 1
            vb["latency"].append(seconds)
            if resp.get("ok"):
                vb["ok"] += 1
            elif resp.get("shed"):
                vb["shed"] += 1
            else:
                vb["errors"] += 1
        if isinstance(resp.get("trace"), dict):
            self._add_trace(resp["trace"])
        if resp.get("ok"):
            self.ok += 1
            return
        cls = _classify(resp)
        self.error_classes[cls] = self.error_classes.get(cls, 0) + 1
        if resp.get("shed"):
            self.shed += 1
            return
        if resp.get("deadline_expired"):
            self.deadline_expired += 1
        self.errors += 1
        if self.first_error is None:
            self.first_error = str(resp.get("error"))

    def _add_trace(self, trace: dict) -> None:
        spans = trace.get("spans") or []
        by_name: dict[str, float] = {}
        for sp in spans:
            name = str(sp.get("name"))
            by_name[name] = by_name.get(name, 0.0) + float(sp.get("dur") or 0.0)
        root = next((sp for sp in spans if sp.get("name") == "request"), None)
        self.traces.append(
            {
                "trace_id": trace.get("trace_id"),
                "total_ms": float(root.get("dur") or 0.0) * 1e3 if root else None,
                "queue_ms": by_name.get("queue_wait", 0.0) * 1e3,
                "rpc_ms": by_name.get("worker_rpc", 0.0) * 1e3,
                "service_ms": by_name.get("worker.service", 0.0) * 1e3,
                "redirects": sum(1 for sp in spans if sp.get("name") == "redirect"),
                "spans": spans,
            }
        )
        self.queue_wait.append(by_name.get("queue_wait", 0.0))
        self.service.append(by_name.get("worker.service", 0.0))

    def split_line(self) -> Optional[str]:
        """One line: where traced-request time went (queue vs service)."""
        if not self.traces:
            return None
        q = latency_summary(self.queue_wait)
        s = latency_summary(self.service)
        return (
            f"traced {len(self.traces)}:"
            f"  queue-wait p50 {q['p50_ms']:.3g}ms p95 {q['p95_ms']:.3g}ms "
            f"p99 {q['p99_ms']:.3g}ms"
            f"  |  service p50 {s['p50_ms']:.3g}ms p95 {s['p95_ms']:.3g}ms "
            f"p99 {s['p99_ms']:.3g}ms"
        )

    def summary(self) -> dict:
        qps = self.sent / self.elapsed_s if self.elapsed_s else float("nan")
        out = {
            "mode": self.mode,
            "sent": self.sent,
            "ok": self.ok,
            "errors": self.errors,
            "shed": self.shed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "deadline_expired": self.deadline_expired,
            "error_classes": dict(sorted(self.error_classes.items())),
            "elapsed_s": self.elapsed_s,
            "qps": qps,
            "latency": latency_summary(self.latency),
        }
        if self.by_verb:
            out["verbs"] = {
                verb: {
                    "sent": vb["sent"],
                    "ok": vb["ok"],
                    "errors": vb["errors"],
                    "shed": vb["shed"],
                    "latency": latency_summary(vb["latency"]),
                }
                for verb, vb in sorted(self.by_verb.items())
            }
        if self.traces:
            out["trace_sample"] = list(self.traces)
            out["queue_wait"] = latency_summary(self.queue_wait)
            out["service"] = latency_summary(self.service)
        if self.first_error is not None:
            out["first_error"] = self.first_error
        if self.mutations or self.mutation_errors or self.stale_answers:
            out["mutations"] = self.mutations
            out["mutation_errors"] = self.mutation_errors
            out["stale_answers"] = self.stale_answers
            out["last_generation"] = self.last_generation
            if self.first_mutation_error is not None:
                out["first_mutation_error"] = self.first_mutation_error
            if self.first_stale is not None:
                out["first_stale"] = self.first_stale
        return out


async def run_closed(
    host: str,
    port: int,
    requests: Sequence[dict],
    conns: int = 4,
    *,
    retries: int = 0,
    retry_budget: Optional[int] = None,
    deadline_ms: Optional[float] = None,
    timeout_s: float = 30.0,
    trace_sample: int = 0,
    mutator: Optional[SceneMutator] = None,
    mutate_every: int = 0,
) -> Report:
    """Closed loop: ``conns`` connections, one request in flight each.

    With ``retries > 0``, retryable failures are re-sent with jittered
    backoff (reconnecting first when the failure was a timeout or a
    broken/desynced connection), bounded by the shared retry budget
    (default: half the request count).  ``trace_sample=N`` marks N
    requests with the protocol's ``trace`` flag; their end-to-end span
    breakdowns land in the report (``trace_sample`` / ``queue_wait`` /
    ``service``).  With a ``mutator`` and ``mutate_every=N``, one extra
    connection issues an ``update`` rollover every N completed requests
    (and its oracle probes, when checking) while the query load runs."""
    report = Report("closed")
    budget = _RetryBudget(
        retry_budget if retry_budget is not None else max(1, len(requests) // 2)
    )
    requests = _mark_traced(requests, trace_sample)
    chunks = [list(requests[i::conns]) for i in range(conns)]
    t0 = time.perf_counter()

    async def one_conn(cid: int, chunk: list[dict]) -> None:
        if not chunk:
            return
        rng = random.Random(f"retry|{cid}|{len(chunk)}")
        reader = writer = None

        async def connect() -> None:
            nonlocal reader, writer
            await close_writer(writer)
            last: Optional[BaseException] = None
            for i in range(3):
                try:
                    reader, writer = await asyncio.open_connection(host, port)
                    return
                except (ConnectionError, OSError) as exc:
                    last = exc
                    await asyncio.sleep(0.05 * (i + 1))
            raise ClusterError(f"cannot reconnect to {host}:{port}: {last}")

        await connect()
        try:
            for k, wire in enumerate(chunk):
                msg = dict(wire, id=k)
                if deadline_ms is not None and "scene" in msg:
                    msg["deadline_ms"] = deadline_ms
                t = time.perf_counter()
                attempt = 0
                while True:
                    try:
                        resp = await asyncio.wait_for(
                            _rpc(reader, writer, msg), timeout_s
                        )
                    except asyncio.TimeoutError:
                        report.timeouts += 1
                        resp = {
                            "ok": False,
                            "retryable": True,
                            "error": f"timeout: no response in {timeout_s}s",
                        }
                        await connect()  # the stream is desynced; start clean
                    except (ClusterError, ConnectionError, OSError) as exc:
                        resp = {
                            "ok": False,
                            "retryable": True,
                            "error": f"connection: {exc}",
                        }
                        await connect()
                    if resp.get("ok") or not _retryable(resp):
                        break
                    if attempt >= retries or not budget.take():
                        break
                    attempt += 1
                    report.retries += 1
                    await asyncio.sleep(_backoff_s(attempt, rng))
                report.record(resp, time.perf_counter() - t, verb=wire.get("op"))
                report.sent += 1
        finally:
            await close_writer(writer)

    queries_done = asyncio.Event()

    async def mutate_loop() -> None:
        """The mutating client: one dedicated connection, one rollover
        every ``mutate_every`` completed requests.  Post-ack probes run
        on this same connection, so the stale-read check observes the
        cluster strictly *after* the acknowledged rollover."""
        reader = writer = None
        try:
            reader, writer = await asyncio.open_connection(host, port)
            next_at, mid = mutate_every, 0
            while not queries_done.is_set():
                if report.sent >= next_at:
                    next_at += mutate_every
                    mid += 1
                    try:
                        await mutator.step(reader, writer, mid, report)
                    except (ClusterError, ConnectionError, OSError,
                            asyncio.TimeoutError) as exc:
                        report.mutation_errors += 1
                        if report.first_mutation_error is None:
                            report.first_mutation_error = str(exc)
                        return
                else:
                    await asyncio.sleep(0.002)
        finally:
            await close_writer(writer)

    tasks = [one_conn(i, c) for i, c in enumerate(chunks)]
    mut_task = None
    if mutator is not None and mutate_every > 0:
        mut_task = asyncio.create_task(mutate_loop())
    await asyncio.gather(*tasks)
    queries_done.set()
    if mut_task is not None:
        await mut_task
    report.elapsed_s = time.perf_counter() - t0
    return report


async def run_open(
    host: str,
    port: int,
    requests: Sequence[dict],
    rps: float,
    conns: int = 4,
    *,
    deadline_ms: Optional[float] = None,
    trace_sample: int = 0,
) -> Report:
    """Open loop: fire at ``rps`` on a fixed schedule across ``conns``
    pipelined connections; responses are matched by id.  Duplicate or
    unsolicited frames (a faulty server) are dropped, never recorded."""
    if rps <= 0:
        raise ClusterError(f"open loop needs rps > 0, got {rps}")
    report = Report("open")
    interval = 1.0 / rps
    requests = _mark_traced(requests, trace_sample)
    chunks = [list(requests[i::conns]) for i in range(conns)]
    t0 = time.perf_counter()

    async def one_conn(cid: int, chunk: list[dict]) -> None:
        if not chunk:
            return
        reader, writer = await asyncio.open_connection(host, port)
        sent_at: dict[int, tuple[float, Optional[str]]] = {}
        done = asyncio.Event()

        async def read_loop() -> None:
            remaining = len(chunk)
            while remaining:
                resp = await read_frame(reader)
                if resp is None:
                    break
                entry = sent_at.pop(resp.get("id"), None)
                if entry is None:
                    continue  # duplicate or unsolicited frame
                t_sent, verb = entry
                report.record(resp, time.perf_counter() - t_sent, verb=verb)
                remaining -= 1
            done.set()

        reader_task = asyncio.create_task(read_loop())
        try:
            for k, wire in enumerate(chunk):
                # this connection owns every conns-th tick of the schedule
                target = t0 + (cid + k * conns) * interval
                delay = target - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                msg = dict(wire, id=k)
                if deadline_ms is not None and "scene" in msg:
                    msg["deadline_ms"] = deadline_ms
                sent_at[k] = (time.perf_counter(), wire.get("op"))
                await write_frame(writer, msg)
                report.sent += 1
            await asyncio.wait_for(done.wait(), timeout=60.0)
        finally:
            reader_task.cancel()
            await close_writer(writer)

    await asyncio.gather(*(one_conn(i, c) for i, c in enumerate(chunks)))
    report.elapsed_s = time.perf_counter() - t0
    return report


async def _discover_mutator(
    host: str, port: int, *, check: bool, seed: int
) -> SceneMutator:
    """Pick the first updatable scene (``scenes`` verb) and fetch its
    geometry (``describe`` verb) to drive seeded rollovers against."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        resp = await _rpc(reader, writer, {"id": 0, "op": "scenes"})
        if not resp.get("ok"):
            raise ClusterError(f"scenes verb failed: {resp.get('error')}")
        updatable = resp["result"].get("updatable") or []
        if not updatable:
            raise ClusterError(
                "no updatable scene (the front-end needs obstacle-list "
                "sources to serve the update verb)"
            )
        scene = sorted(updatable)[0]
        desc = await _rpc(reader, writer, {"id": 1, "op": "describe", "scene": scene})
        if not desc.get("ok"):
            raise ClusterError(f"describe {scene!r} failed: {desc.get('error')}")
    finally:
        await close_writer(writer)
    return SceneMutator(scene, desc["result"]["scene"], check=check, seed=seed)


async def run(
    host: str,
    port: int,
    *,
    mode: str = "closed",
    n_requests: int = 500,
    rps: float = 500.0,
    conns: int = 4,
    seed: int = 0,
    mix: Sequence[float] = DEFAULT_MIX,
    verb_mix: Optional[dict] = None,
    pairs_per_request: int = 16,
    retries: int = 0,
    retry_budget: Optional[int] = None,
    deadline_ms: Optional[float] = None,
    timeout_s: float = 30.0,
    trace_sample: int = 0,
    mutate_every: int = 0,
    check_updates: bool = False,
) -> Report:
    """Discover, generate, and drive one full load-generation run.

    ``mutate_every=N`` (closed loop only) adds a mutating client that
    rolls one updatable scene to a new generation every N completed
    requests; ``check_updates=True`` additionally builds local oracles
    of both scene versions and fails the probe after any acknowledged
    rollover whose answers are not byte-identical to the oracle."""
    pools = await discover(host, port, seed=seed)
    requests = build_requests(
        pools, n_requests, seed=seed, mix=mix, verb_mix=verb_mix,
        pairs_per_request=pairs_per_request,
    )
    mutator = None
    if mutate_every > 0:
        if mode != "closed":
            raise ClusterError("--mutate-every requires the closed loop")
        mutator = await _discover_mutator(
            host, port, check=check_updates, seed=seed
        )
    if mode == "closed":
        return await run_closed(
            host,
            port,
            requests,
            conns=conns,
            retries=retries,
            retry_budget=retry_budget,
            deadline_ms=deadline_ms,
            timeout_s=timeout_s,
            trace_sample=trace_sample,
            mutator=mutator,
            mutate_every=mutate_every,
        )
    if mode == "open":
        return await run_open(  # mutator is closed-loop only (checked above)
            host,
            port,
            requests,
            rps,
            conns=conns,
            deadline_ms=deadline_ms,
            trace_sample=trace_sample,
        )
    raise ClusterError(f"unknown loadgen mode {mode!r}")
