"""The cluster worker: one process, one shard of scenes, one QueryServer.

A worker is deliberately thin: it wraps the *existing* serving stack —
a :class:`~repro.serve.store.SceneStore` whose scenes load from the
snapshot files the front-end published (mapped read-only, shared with
every other worker) under a :class:`~repro.serve.server.QueryServer` —
behind a blocking request loop on a ``multiprocessing`` pipe.  The front-end sends one
batch at a time per worker (lockstep), so the loop needs no internal
concurrency; parallelism comes from running N workers.

Batches take the coalescing fast path: every ``length``/``lengths``
entry in the batch is expanded into ``QueryServer`` requests and
answered in a single ``submit`` (one matrix gather per scene).  If any
request in the batch is individually bad — unknown scene, endpoint
inside an obstacle — the batch falls back to per-request answering so
one poisoned request fails alone instead of failing its batchmates.

``worker_main`` is a module-level function with JSON-plain arguments, so
it spawns identically under the ``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

import functools
import os
import time
from typing import Optional, Sequence

import numpy as np

from repro.errors import ObsError, ReproError
from repro.obs.recorders import BatchHistogram, LatencyRecorder
from repro.obs.registry import (
    DEFAULT_SIZE_BUCKETS,
    MetricsRegistry,
    default_registry,
)
from repro.serve.server import QueryServer, Request
from repro.serve.snapshot import load as load_snapshot
from repro.serve.store import SceneStore


def _as_point(v) -> tuple:
    try:
        x, y = v
        return (int(x), int(y))
    except (TypeError, ValueError):
        raise ReproError(f"not a point: {v!r}")


def register_scene(store: SceneStore, spec: dict) -> None:
    """Register one scene spec ``{"name", "kind": "snapshot", "path"}``:
    a snapshot file, loaded through :meth:`SceneStore.add_snapshot` (read-
    only mapping, checksum check, quarantine).  An optional ``"scene"``
    (the canonical :mod:`repro.scene` schema, so specs survive pickling
    under spawn) with ``"engine"`` is the rebuild fallback for a corrupt
    artifact; it is parsed here, so a malformed scene fails with the same
    one-line message the CLI prints."""
    name, kind = spec["name"], spec["kind"]
    if kind != "snapshot":
        raise ReproError(f"unknown scene spec kind {kind!r}")
    fallback = None
    if spec.get("scene") is not None:
        from repro.scene import Scene

        scene = Scene.from_dict(spec["scene"])

        def fallback():
            from repro.pipeline import build_index

            return build_index(
                scene, engine=spec.get("engine", "parallel"), cache=store.stage_cache
            )

    store.add_snapshot(name, spec["path"], fallback=fallback)


def memory_info() -> dict:
    """This process's memory footprint: total RSS plus the *private*
    portion (``smaps_rollup``), which is the number that must stay flat
    when scenes are shared — RSS counts shared pages once per process
    that touches them, private counts only what a copy would cost."""
    out = {"rss_bytes": None, "private_bytes": None}
    try:
        page = os.sysconf("SC_PAGE_SIZE")
        with open("/proc/self/statm") as fh:
            out["rss_bytes"] = int(fh.read().split()[1]) * page
    except (OSError, ValueError, IndexError):  # pragma: no cover - non-linux
        pass
    try:
        private = 0
        with open("/proc/self/smaps_rollup") as fh:
            for line in fh:
                if line.startswith(("Private_Clean:", "Private_Dirty:")):
                    private += int(line.split()[1]) * 1024
        out["private_bytes"] = private
    except (OSError, ValueError, IndexError):  # pragma: no cover - non-linux
        pass
    return out


class _WorkerState:
    """Everything one worker process owns, factored for direct testing."""

    def __init__(
        self,
        worker_id: int,
        scene_specs: Sequence[dict],
        options: dict,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.worker_id = worker_id
        self.store = SceneStore(max_bytes=options.get("max_bytes"))
        for spec in scene_specs:
            register_scene(self.store, spec)
        self.server = QueryServer(self.store)
        self.service = LatencyRecorder()
        self.batch_hist = BatchHistogram()
        self.scene_counts: dict[str, int] = {}
        self.requests = 0
        self.errors = 0
        self.updates = 0  # scene-generation rollovers applied
        self.started = time.monotonic()
        # the process registry: what the `metrics` verb snapshots.  In a
        # spawned worker this is the (reset) process default, so pipeline
        # builds running inside this process land in the same snapshot.
        self.registry = registry if registry is not None else default_registry()
        self._m_requests = self.registry.counter(
            "repro.worker.requests", "requests answered by this worker",
            labels=["scene"],
        )
        self._m_errors = self.registry.counter(
            "repro.worker.errors", "requests answered not-ok by this worker"
        )
        self._m_service = self.registry.histogram(
            "repro.worker.service_seconds", "per-batch service time"
        )
        self._m_batch = self.registry.histogram(
            "repro.worker.batch_size", "batch sizes as seen by the worker",
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        self._m_updates = self.registry.counter(
            "repro.worker.updates", "scene-generation rollovers applied",
            labels=["scene"],
        )
        self.registry.add_collector(self._collect)

    def _collect(self) -> None:
        """Refresh store/server gauges at snapshot time (not per request)."""
        g = self.registry.gauge
        st = self.store.stats()
        for key in ("scenes", "resident", "resident_bytes", "pinned",
                    "hits", "misses", "evictions", "loads", "builds",
                    "quarantined", "swaps", "retired_generations",
                    "retired_pins"):
            g(f"repro.store.{key}", f"SceneStore {key}").set(float(st[key]))
        sv = self.server.stats()
        for key in ("requests", "batches", "coalesced_groups", "largest_group"):
            g(f"repro.server.{key}", f"QueryServer {key}").set(float(sv[key]))
        cache = self.store.stage_cache
        if cache is None:  # store delegates to the process-default cache
            from repro.pipeline import default_cache

            cache = default_cache()
        cs = cache.stats()
        g("repro.stage_cache.entries", "stage-cache entries").set(float(cs["entries"]))
        g("repro.stage_cache.bytes", "stage-cache resident bytes").set(float(cs["bytes"]))
        hits = g("repro.stage_cache.hits", "stage-cache hits", labels=["stage"])
        misses = g("repro.stage_cache.misses", "stage-cache misses", labels=["stage"])
        for stage, n in cs["hits"].items():
            hits.set(float(n), stage=stage)
        for stage, n in cs["misses"].items():
            misses.set(float(n), stage=stage)

    # -- batch answering ------------------------------------------------
    def answer_batch(self, requests: Sequence[dict]) -> list[dict]:
        t0 = time.perf_counter()
        wall0 = time.time()
        try:
            results = self._answer_coalesced(requests)
        except (ReproError, KeyError, ValueError, TypeError):
            # one poisoned request — bad endpoint, missing field,
            # malformed pair list — must not fail its batchmates (let
            # alone the worker): retry each alone, catching per-request
            results = [self._answer_one(r) for r in requests]
        dt = time.perf_counter() - t0
        self.service.record(dt)
        self._m_service.observe(dt)
        if requests:
            self.batch_hist.observe(len(requests))
            self._m_batch.observe(len(requests))
        self.requests += len(requests)
        n_err = sum(1 for r in results if not r.get("ok"))
        self.errors += n_err
        if n_err:
            self._m_errors.inc(n_err)
        for r, res in zip(requests, results):
            scene = r.get("scene")
            if scene:
                self.scene_counts[scene] = self.scene_counts.get(scene, 0) + 1
                try:
                    self._m_requests.inc(scene=str(scene))
                except ObsError:  # scene count past the cardinality bound
                    self._m_requests.inc(scene="other")
            if r.get("trace") and isinstance(res, dict):
                # the front-end folds this into the request's span tree;
                # wall-clock t0 so it lines up on a shared timeline
                res["worker_span"] = {
                    "name": "worker.service",
                    "t0": wall0,
                    "dur": dt,
                    "attrs": {"worker": self.worker_id, "batch_size": len(requests)},
                }
        return results

    def _answer_coalesced(self, requests: Sequence[dict]) -> list[dict]:
        flat: list[Request] = []
        # per request: ("one", k, op) | ("many", k, count, op) | ("local", r)
        spans: list = []
        for r in requests:
            op = r.get("op")
            if op in ("length", "path", "minlink", "pareto"):
                spans.append(("one", len(flat), op))
                flat.append(
                    Request(r["scene"], _as_point(r["p"]), _as_point(r["q"]), op=op)
                )
            elif op in ("lengths", "links"):
                pairs = r.get("pairs") or []
                spans.append(("many", len(flat), len(pairs), op))
                sub = "length" if op == "lengths" else "minlink"
                for p, q in pairs:
                    flat.append(
                        Request(r["scene"], _as_point(p), _as_point(q), op=sub)
                    )
            else:
                # defer local ops (stats/sleep/...) to the output phase:
                # if a later request poisons this parse, the fallback
                # path must not execute them a second time
                spans.append(("local", r))
        values = self.server.submit(flat) if flat else []
        out: list[dict] = []
        for span in spans:
            if span[0] == "one":
                _, k, op = span
                out.append({"ok": True, "result": _jsonify_op(op, values[k])})
            elif span[0] == "many":
                _, k, count, op = span
                conv = _jsonify if op == "lengths" else _jsonify_link
                out.append(
                    {"ok": True, "result": [conv(v) for v in values[k : k + count]]}
                )
            else:
                out.append(self._answer_local(span[1]))
        return out

    def _answer_one(self, r: dict) -> dict:
        try:
            op = r.get("op")
            if op == "length":
                with self.store.using(r["scene"]) as idx:
                    return {"ok": True, "result": _jsonify(idx.length(_as_point(r["p"]), _as_point(r["q"])))}
            if op == "lengths":
                with self.store.using(r["scene"]) as idx:
                    vals = idx.lengths(
                        [(_as_point(p), _as_point(q)) for p, q in r.get("pairs") or []]
                    )
                return {"ok": True, "result": [_jsonify(v) for v in np.asarray(vals).tolist()]}
            if op == "path":
                with self.store.using(r["scene"]) as idx:
                    path = idx.shortest_path(_as_point(r["p"]), _as_point(r["q"]))
                return {"ok": True, "result": [[int(x), int(y)] for x, y in path]}
            if op == "minlink":
                with self.store.using(r["scene"]) as idx:
                    links = idx.min_links(_as_point(r["p"]), _as_point(r["q"]))
                return {"ok": True, "result": _jsonify_op("minlink", links)}
            if op == "links":
                with self.store.using(r["scene"]) as idx:
                    counts = idx.link_counts(
                        [(_as_point(p), _as_point(q)) for p, q in r.get("pairs") or []]
                    )
                return {"ok": True, "result": [_jsonify_link(v) for v in counts]}
            if op == "pareto":
                with self.store.using(r["scene"]) as idx:
                    front = idx.paretos([(_as_point(r["p"]), _as_point(r["q"]))])[0]
                return {"ok": True, "result": _jsonify_op("pareto", front)}
            return self._answer_local(r)
        except ReproError as exc:
            return {"ok": False, "error": str(exc)}
        except KeyError as exc:
            return {"ok": False, "error": f"request missing field {exc}"}
        except (ValueError, TypeError) as exc:
            return {"ok": False, "error": f"malformed request: {exc}"}

    def _answer_local(self, r: dict) -> dict:
        """Ops answered by the worker itself, outside the query path."""
        try:
            op = r.get("op")
            if op == "stats":
                return {"ok": True, "result": self.stats()}
            if op == "metrics":
                return {"ok": True, "result": self.registry.snapshot()}
            if op == "endpoints":
                return {"ok": True, "result": self._endpoints(r)}
            if op == "ping":
                return {"ok": True, "result": "pong"}
            if op == "health":
                return {
                    "ok": True,
                    "result": {
                        "worker": self.worker_id,
                        "status": "serving",
                        "uptime_s": time.monotonic() - self.started,
                    },
                }
            if op == "update":
                return {"ok": True, "result": self._apply_update(r["spec"])}
            if op == "sleep":
                # diagnostic: occupy this worker for a bounded interval
                # (load-shedding tests and drain drills)
                time.sleep(min(float(r.get("ms", 1.0)), 1000.0) / 1e3)
                return {"ok": True, "result": "slept"}
            return {"ok": False, "error": f"unknown op {op!r}"}
        except ReproError as exc:
            return {"ok": False, "error": str(exc)}
        except (KeyError, ValueError, TypeError) as exc:
            return {"ok": False, "error": f"malformed request: {exc!r}"}

    def _apply_update(self, spec: dict) -> dict:
        """Roll scene ``spec["name"]`` to its next generation.

        The rollover protocol's worker half: the front-end published the
        new generation as a snapshot file and broadcasts its spec to every
        worker.  A worker holding the scene *resident* loads the new file
        eagerly and :meth:`SceneStore.swap`\\ s it in — in-flight readers
        finish on the pinned old index, every later request sees the new
        one.  A worker that does not have the scene resident only replaces
        the source (:meth:`SceneStore.replace_source`) and loads lazily if
        routing ever sends it a request — acknowledging a rollover for a
        scene you don't serve costs O(1).
        """
        name, kind = spec["name"], spec["kind"]
        if kind != "snapshot":
            raise ReproError(f"cannot roll scene {name!r} from spec kind {kind!r}")
        builder = functools.partial(load_snapshot, spec["path"])
        resident = name in self.store.resident()
        if resident:
            gen = self.store.swap(name, builder(), source=builder)
        else:
            gen = self.store.replace_source(name, builder)
        self.updates += 1
        try:
            self._m_updates.inc(scene=str(name))
        except ObsError:  # scene count past the cardinality bound
            self._m_updates.inc(scene="other")
        return {"scene": name, "generation": gen, "resident": resident}

    def _endpoints(self, r: dict) -> dict:
        from repro.workloads.requests import scene_endpoints

        with self.store.using(r["scene"]) as idx:
            verts, free = scene_endpoints(
                idx, k_free=int(r.get("k", 32)), seed=int(r.get("seed", 0))
            )
        cap = int(r.get("cap", 128))
        return {
            "vertices": [[int(x), int(y)] for x, y in verts[:cap]],
            "free": [[int(x), int(y)] for x, y in free[:cap]],
        }

    # -- introspection --------------------------------------------------
    def stats(self) -> dict:
        return {
            "worker": self.worker_id,
            "uptime_s": time.monotonic() - self.started,
            "requests": self.requests,
            "errors": self.errors,
            "updates": self.updates,
            "service": self.service.summary(),
            "batch_size_hist": self.batch_hist.as_dict(),
            "scenes": dict(self.scene_counts),
            "store": self.store.stats(),
            "server": self.server.stats(),
            "memory": memory_info(),
        }


def worker_main(
    conn, worker_id: int, scene_specs: Sequence[dict], options: Optional[dict] = None
) -> None:
    """Entry point of a worker process: serve batches from ``conn`` until
    a ``shutdown`` message (or EOF) arrives."""
    import signal

    # the front-end coordinates shutdown; a terminal ^C must not kill
    # workers mid-batch before the front-end has failed their futures
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    # under the fork start method the child inherits the parent's default
    # registry contents; this worker's snapshot must cover only its own life
    default_registry().reset()
    state = _WorkerState(worker_id, scene_specs, options or {})
    # fault injection (chaos harness): stall every Nth batch; absent from
    # the options dict in production, so the hot loop only pays an `if`
    faults = (options or {}).get("faults") or {}
    stall_every = int(faults.get("stall_every") or 0)
    stall_ms = float(faults.get("stall_ms") or 0.0)
    batches = 0
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            op = msg.get("op")
            if op == "shutdown":
                conn.send({"seq": msg.get("seq"), "bye": True})
                break
            if op == "batch":
                batches += 1
                if stall_every and stall_ms > 0 and batches % stall_every == 0:
                    time.sleep(min(stall_ms, 5000.0) / 1e3)
                requests = msg.get("requests") or []
                try:
                    results = state.answer_batch(requests)
                except Exception as exc:  # noqa: BLE001 - last-resort guard:
                    # no request content may ever take the worker down
                    results = [
                        {"ok": False, "error": f"worker error: {exc!r:.200}"}
                        for _ in requests
                    ]
                conn.send({"seq": msg.get("seq"), "results": results})
            else:  # protocol error from the front-end side; answer, don't die
                conn.send(
                    {"seq": msg.get("seq"), "results": [],
                     "error": f"unknown worker op {op!r}"}
                )
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


def _jsonify(v):
    """A query result as a JSON-safe value (floats stay floats; inf is
    JSON-hostile, so disconnected pairs travel as the string "inf")."""
    if isinstance(v, list):  # a path polyline
        return [[int(x), int(y)] for x, y in v]
    f = float(v)
    if f != f or f in (float("inf"), float("-inf")):
        return "inf"
    return f


def _jsonify_link(v):
    """A min-link count as a JSON-safe value: an int, or "inf" for a
    disconnected (or obstacle-enclosed) pair."""
    f = float(v)
    if f != f or f in (float("inf"), float("-inf")):
        return "inf"
    return int(f)


def _jsonify_op(op: str, v):
    """One QueryServer answer as its wire shape, per verb: length →
    float, path → ``[[x, y], ...]``, minlink → ``{"links", "bends"}``,
    pareto → ``[[length, bends], ...]`` (frontier order: increasing
    bends, strictly decreasing length)."""
    if op == "minlink":
        links = _jsonify_link(v)
        bends = max(links - 1, 0) if links != "inf" else "inf"
        return {"links": links, "bends": bends}
    if op == "pareto":
        return [[float(length), int(bends)] for length, bends in v]
    return _jsonify(v)
