"""The cluster front-end: one asyncio process in front of N workers.

Data path::

    client ──TCP/JSON frames──▶ front-end ──pipe batches──▶ worker 0..N-1
           ◀─responses (in request order per connection)──┘

* **Routing** — every scene is owned by one worker, chosen by rendezvous
  hashing over the *live* workers (:mod:`repro.cluster.hashing`, with
  explicit pins).  When all workers are up this equals the static
  assignment; when one dies its scenes rendezvous onto the survivors and
  move back the moment a restart rejoins — no routing state to replay.
* **Micro-batching** — each worker has one dispatch loop; a batch is the
  first queued request plus whatever is *already* queued, capped by
  ``max_batch``, with no timed wait for batchmates.  While the worker is
  busy answering, new arrivals pile into the queue, so batches grow
  exactly when the system is loaded — the serving-side analogue of the
  paper's build-side batching of work that is already there.
* **Pipe** — the event loop writes a batch to the worker's pipe itself
  and reads the reply itself: a reader on the pipe's fd does one
  ``recv`` when the reply arrives, with no thread hop either way.  One
  batch is in flight per worker, so the worker is waiting in ``recv``
  and drains a batch of any size.  The loop's default executor (builds,
  reaps, shutdown) never stands between a query and its worker.
* **Admission control** — per-worker queues are bounded; when one is
  full the front-end answers ``{"ok": false, "shed": true, ...}``
  immediately (one line, no queuing).  Requests carrying ``deadline_ms``
  that go stale in a queue are expired with
  ``{"deadline_expired": true}`` instead of serving dead work.
* **Ordering** — responses on a connection are written in request order
  even when requests fan out to different workers: each connection keeps
  a FIFO of response futures and a single writer drains it.
* **Failure** — a dead worker's in-flight and queued requests are
  *redirected* to the surviving workers (every scene op is an idempotent
  read; a redirect cap stops ping-pong during cascades).  With
  ``supervise=True`` (default) the slot is respawned under the
  :class:`~repro.cluster.supervisor.Supervisor`'s backoff policy,
  readiness-gated, and transparently rejoins routing.
* **Metrics** — every counter and distribution lives in the front-end's
  registry, and ``stats`` is a view of it: per-scene latency is
  ``repro.frontend.latency_seconds`` summed over ``verb``, the batch
  table is ``repro.frontend.batch_size`` (percentiles interpolated
  within buckets).  ``obs=False`` records neither histogram, so those
  views then report ``count: 0``.  Scene-labeled series past the
  registry's cap fold into ``scene="other"``.
* **Lifecycle** — workers are readiness-gated at startup (one full
  batch round trip each before the TCP port binds); the ``health`` and
  ``drain`` verbs expose liveness and connection-draining shutdown.
* **Updates** — the ``update`` verb applies an obstacle delta
  (:class:`repro.scene.SceneDelta` JSON) to a scene with zero downtime:
  the front-end repairs its index incrementally
  (:func:`repro.pipeline.update_index`), or builds it when it holds
  none, publishes generation N+1 as a new snapshot file, and broadcasts
  its path; workers swap resident scenes atomically (in-flight batches
  finish on the old generation they hold) and re-source the rest lazily.
  The old file is unlinked once every live worker acknowledges.

The front-end owns the published snapshot files (it writes every scene
before spawning workers) and removes them in :meth:`ClusterFrontend.stop`.
Because the files outlive any one worker process, a respawned worker
loads from the same specs the live workers were last given.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import time
from typing import Mapping, Optional, Sequence

from repro.cluster.faults import FaultInjector, FaultPlan
from repro.cluster.hashing import assignment, hrw_score
from repro.cluster.protocol import (
    close_writer,
    decode_body,
    encode_body,
    encode_frame,
    frame,
    read_body,
)
from repro.cluster.supervisor import RestartPolicy, Supervisor
from repro.cluster.worker import worker_main
from repro.errors import ClusterError
from repro.obs.openmetrics import CONTENT_TYPE, merge_snapshots, render_openmetrics
from repro.obs.registry import (
    DEFAULT_MAX_SERIES,
    DEFAULT_SIZE_BUCKETS,
    MetricsRegistry,
    default_registry,
)
from repro.obs.logging import get_logger
from repro.obs.tracing import SpanBuffer, finish, new_trace_id, span
from repro.serve.publish import SnapshotPublisher

#: ops the front-end forwards to a scene's owning worker
_SCENE_OPS = (
    "length", "lengths", "path", "minlink", "links", "pareto",
    "endpoints", "sleep",
)

#: ops answered by the front-end itself (the `verb` label value set)
_LOCAL_OPS = (
    "ping", "health", "drain", "scenes", "stats", "metrics", "trace",
    "update", "describe",
)

#: how many times one request may be re-routed after worker deaths
_MAX_REDIRECTS = 2


class _Item:
    """One queued request: wire dict + the future its response resolves."""

    __slots__ = ("wire", "future", "t0", "scene", "deadline", "redirects", "trace")

    def __init__(
        self,
        wire: dict,
        future: asyncio.Future,
        scene: Optional[str],
        deadline: Optional[float] = None,
    ):
        self.wire = wire
        self.future = future
        self.t0 = time.perf_counter()
        self.scene = scene
        self.deadline = deadline  # absolute event-loop time, or None
        self.redirects = 0
        # tracing context, or None: {"trace_id", "root", "spans", "queue"?}
        self.trace: Optional[dict] = None


class _Worker:
    def __init__(self, wid: int, proc, conn, queue_depth: int):
        self.id = wid
        self.proc = proc
        self.conn = conn
        self.queue: asyncio.Queue[_Item] = asyncio.Queue(maxsize=queue_depth)
        self.task: Optional[asyncio.Task] = None
        self.dead = False
        self.seq = 0
        self.inflight = 0  # requests in the batch currently on the pipe


class _SceneMetrics:
    """Per-scene stats *view* over the registry (one source of truth for
    `stats`, `metrics`, and `/metrics`): counters by scene, latency as
    ``repro.frontend.latency_seconds`` summed over ``verb``."""

    def __init__(self, name: str, frontend: "ClusterFrontend") -> None:
        self._name = name
        self._fe = frontend

    @property
    def requests(self) -> int:
        return int(self._fe._m_scene_requests.value(scene=self._name))

    @property
    def shed(self) -> int:
        return int(self._fe._m_shed.value(scene=self._name))

    @property
    def errors(self) -> int:
        return int(self._fe._m_errors.value(scene=self._name))

    @property
    def deadline_expired(self) -> int:
        return int(self._fe._m_deadline.value(scene=self._name))

    def summary(self) -> dict:
        return {
            "requests": self.requests,
            "shed": self.shed,
            "errors": self.errors,
            "deadline_expired": self.deadline_expired,
            "latency": self._fe._m_latency.summary(scene=self._name),
        }


class ClusterFrontend:
    """Sharded multi-process serving over published snapshot files.

    ``scenes`` maps scene names to sources::

        {"snapshot": "campus.rsp"}            # handed to workers as is
        {"obstacles": [...], "container": p}  # built in the front-end
        {"index": idx}                        # already built

    Built scenes are written once as snapshot files
    (:class:`~repro.serve.publish.SnapshotPublisher`); every worker maps
    the same file read-only, so no worker holds a private matrix copy.
    A ``snapshot`` source that also carries ``obstacles`` gives workers a
    rebuild fallback for a corrupt artifact and makes the scene
    updatable.

    Every worker receives the full scene-spec list and materializes
    lazily, so residency follows routing — which is what lets any
    survivor adopt a dead worker's scenes without re-provisioning.
    """

    def __init__(
        self,
        scenes: Mapping[str, dict],
        *,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = 64,
        queue_depth: int = 256,
        pins: Optional[Mapping[str, int]] = None,
        start_method: Optional[str] = None,
        engine: str = "parallel",
        supervise: bool = True,
        restart_policy: Optional[RestartPolicy] = None,
        faults: Optional[FaultPlan] = None,
        ready_timeout_s: float = 60.0,
        registry: Optional[MetricsRegistry] = None,
        metrics_port: Optional[int] = None,
        obs: bool = True,
        trace_capacity: int = 2048,
    ) -> None:
        if not scenes:
            raise ClusterError("a cluster needs at least one scene")
        if workers < 1:
            raise ClusterError(f"need at least one worker, got {workers}")
        self.scene_sources = dict(scenes)
        self.n_workers = workers
        self.host = host
        self.port = port
        self.max_batch = max(1, max_batch)
        self.queue_depth = queue_depth
        self.pins = dict(pins or {})
        self.start_method = start_method
        self.engine = engine
        self.supervise = supervise
        # per-front-end registry (scene-labeled families need headroom
        # past the default cardinality bound when serving many scenes);
        # the supervisor records its crash/restart counters into it
        self.registry = registry if registry is not None else MetricsRegistry(
            max_series=max(DEFAULT_MAX_SERIES, 2 * len(scenes) + 16)
        )
        self.supervisor = Supervisor(restart_policy, registry=self.registry)
        self.faults = faults
        self.injector = FaultInjector(faults) if faults is not None else None
        self.ready_timeout_s = ready_timeout_s
        self.assignment = assignment(sorted(scenes), workers, self.pins)
        self.publisher: Optional[SnapshotPublisher] = None
        self.workers: list[_Worker] = []
        self._worker_specs: list[dict] = []
        self._server: Optional[asyncio.base_events.Server] = None
        self._stopped = asyncio.Event()
        self._started = False
        self._closing = False
        self._draining = False
        self._restart_tasks: set[asyncio.Task] = set()
        # front-end metrics: counters/histograms live in the registry;
        # `stats` and the legacy attributes are views over it
        self.obs = obs
        self.metrics_port = metrics_port
        self._metrics_server: Optional[asyncio.base_events.Server] = None
        self.span_buffer = SpanBuffer(trace_capacity)
        reg = self.registry
        self._m_requests = reg.counter(
            "repro.frontend.requests", "requests admitted, by verb", labels=["verb"]
        )

        def by_scene(name: str, help: str):
            # scene label values past the series cap fold into "other":
            # a metric write must never fail the request it describes
            return reg.counter(name, help, labels=["scene"], overflow="other")

        self._m_scene_requests = by_scene(
            "repro.frontend.scene_requests", "scene requests served"
        )
        self._m_shed = by_scene("repro.frontend.shed", "requests shed (queue full)")
        self._m_errors = by_scene(
            "repro.frontend.errors", "scene requests answered not-ok"
        )
        self._m_deadline = by_scene(
            "repro.frontend.deadline_expired",
            "requests expired in queue past their deadline",
        )
        self._m_redirects = by_scene(
            "repro.frontend.redirects", "requests re-routed after a worker death"
        )
        self._m_latency = reg.histogram(
            "repro.frontend.latency_seconds", "end-to-end request latency",
            labels=["scene", "verb"], overflow="other",
        )
        self._m_batch = reg.histogram(
            "repro.frontend.batch_size", "dispatched batch sizes",
            labels=["worker"], buckets=DEFAULT_SIZE_BUCKETS,
        )
        self._m_updates = by_scene(
            "repro.frontend.updates", "scene-generation rollovers published"
        )
        self._m_update_errors = by_scene(
            "repro.frontend.update_errors", "scene updates rejected or failed"
        )
        self._m_generation = reg.gauge(
            "repro.scene.generation",
            "current published generation of each scene",
            labels=["scene"], overflow="other",
        )
        self.scene_metrics: dict[str, _SceneMetrics] = {
            name: _SceneMetrics(name, self) for name in scenes
        }
        # the update path: scene name -> {"scene": Scene, "idx": index or
        # None} for every scene whose geometry the front-end knows (it is
        # what deltas apply to); one lock serializes rollovers
        self._scene_state: dict[str, dict] = {}
        self._generations: dict[str, int] = {name: 0 for name in scenes}
        self._update_lock = asyncio.Lock()
        self.log = get_logger("frontend")
        self._t_start = time.monotonic()

    # legacy counter attributes, now views over the registry ------------
    @property
    def requests(self) -> int:
        return int(self._m_requests.total())

    @property
    def sheds(self) -> int:
        return int(self._m_shed.total())

    @property
    def deadline_expired(self) -> int:
        return int(self._m_deadline.total())

    # -- startup --------------------------------------------------------
    def _prepare_specs(self) -> list[dict]:
        """Publish every scene; returns the full spec list (every worker
        gets all of it — materialization is lazy)."""
        self.publisher = SnapshotPublisher()
        return [
            self._publish(name, self.scene_sources[name])
            for name in sorted(self.scene_sources)
        ]

    def _publish(self, name: str, src: dict) -> dict:
        """One scene source as a published snapshot file and the worker
        spec that loads it."""
        from repro.scene import Scene

        assert self.publisher is not None
        scene = None
        if "obstacles" in src:
            scene = Scene.from_obstacles(
                src["obstacles"],
                container=src.get("container"),
                extra_points=src.get("extra_points") or (),
            )
        if "snapshot" in src:
            path = self.publisher.publish_file(name, src["snapshot"])
            spec = {"name": name, "kind": "snapshot", "path": path}
            if scene is not None:
                # rebuild-from-scene fallback: if the artifact is corrupt
                # at load time the worker quarantines it and builds from
                # geometry instead of crashing
                self._scene_state[name] = {"scene": scene, "idx": None}
                spec["scene"] = scene.to_dict()
                spec["engine"] = self.engine
            return spec
        if "index" in src:
            idx = src["index"]
            # a pipeline-built index carries its Scene, which is what the
            # `update` verb needs; indexes without one serve fine but
            # cannot take deltas
            if getattr(idx, "scene", None) is not None:
                self._scene_state[name] = {"scene": idx.scene, "idx": idx}
        elif scene is not None:
            idx = self._build(scene)
            self._scene_state[name] = {"scene": scene, "idx": idx}
        else:
            raise ClusterError(f"scene {name!r}: unrecognized source {sorted(src)}")
        path = self.publisher.publish(name, idx)
        return {"name": name, "kind": "snapshot", "path": path}

    def _build(self, scene):
        """Build ``scene`` through the staged pipeline (process-default
        stage cache: scenes that share geometry reuse stage artifacts);
        incremental=True seeds the separator-subtree cache, so the first
        `update` already reuses unaffected subtree solves."""
        from repro.pipeline import build_index

        return build_index(scene, engine=self.engine, incremental=True)

    def _spawn_worker(self, wid: int) -> _Worker:
        """Fork/spawn one worker process on the shared spec list."""
        ctx = multiprocessing.get_context(self.start_method)
        options: dict = {}
        if self.faults is not None:
            fault_opts = self.faults.worker_options()
            if fault_opts:
                options["faults"] = fault_opts
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(
            target=worker_main,
            args=(child_conn, wid, self._worker_specs, options),
            daemon=True,
            name=f"repro-cluster-worker-{wid}",
        )
        proc.start()
        child_conn.close()
        return _Worker(wid, proc, parent_conn, self.queue_depth)

    async def _ready_worker(self, worker: _Worker) -> None:
        """Readiness gate: one full batch round trip through the worker
        loop (imports done, store registered, pipe serviced) before any
        client traffic may route to it."""
        try:
            worker.conn.send({"op": "batch", "seq": 0, "requests": [{"op": "ping"}]})
            reply = await asyncio.wait_for(_reply(worker.conn), self.ready_timeout_s)
        except (asyncio.TimeoutError, EOFError, OSError) as exc:
            raise ClusterError(
                f"worker {worker.id} failed readiness: {exc!r:.120}"
            ) from exc
        results = reply.get("results") or []
        if not results or not results[0].get("ok"):
            raise ClusterError(
                f"worker {worker.id} failed readiness: bad ping reply {reply!r:.120}"
            )

    async def start(self) -> None:
        """Publish scenes, spawn workers, readiness-gate them, bind TCP."""
        if self._started:
            raise ClusterError("cluster already started")
        self._started = True
        try:
            self._worker_specs = self._prepare_specs()
            self.workers = [self._spawn_worker(wid) for wid in range(self.n_workers)]
            await asyncio.gather(*(self._ready_worker(w) for w in self.workers))
            for worker in self.workers:
                worker.task = asyncio.create_task(self._dispatch_loop(worker))
            self._server = await asyncio.start_server(
                self._handle_client, self.host, self.port
            )
            self.port = self._server.sockets[0].getsockname()[1]
            if self.metrics_port is not None:
                self._metrics_server = await asyncio.start_server(
                    self._handle_metrics, self.host, self.metrics_port
                )
                self.metrics_port = self._metrics_server.sockets[0].getsockname()[1]
        except BaseException:
            await self.stop()
            raise

    async def __aenter__(self) -> "ClusterFrontend":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    async def serve_forever(self) -> None:
        """Block until :meth:`request_stop` (or ``stop``) is called."""
        await self._stopped.wait()

    def request_stop(self) -> None:
        self._stopped.set()

    # -- routing --------------------------------------------------------
    def _route(self, scene: Optional[str]) -> Optional[_Worker]:
        """The live worker that owns ``scene`` right now: the pin if its
        worker is up, else rendezvous hashing over the live set.  With
        everyone alive this equals the static :attr:`assignment`."""
        if scene is None:
            return None
        pinned = self.pins.get(scene)
        if (
            pinned is not None
            and 0 <= pinned < len(self.workers)
            and not self.workers[pinned].dead
        ):
            return self.workers[pinned]
        live = [w for w in self.workers if not w.dead]
        if not live:
            return None
        return max(live, key=lambda w: hrw_score(scene, w.id))

    # -- per-worker dispatch --------------------------------------------
    async def _dispatch_loop(self, worker: _Worker) -> None:
        batch: list[_Item] = []
        try:
            while True:
                item = await worker.queue.get()
                if self._expire_if_late(item):
                    continue
                self._trace_dequeue(item)
                batch = [item]
                # take only what is already queued: never wait for batchmates
                while len(batch) < self.max_batch:
                    try:
                        got = worker.queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if not self._expire_if_late(got):
                        self._trace_dequeue(got)
                        batch.append(got)
                worker.seq += 1
                worker.inflight = len(batch)
                payload = {
                    "op": "batch",
                    "seq": worker.seq,
                    "requests": [it.wire for it in batch],
                }
                rpc_t0 = time.time()
                try:
                    # the worker sits in recv() between batches (one batch
                    # in flight per worker), so it drains even a payload
                    # larger than the pipe buffer
                    worker.conn.send(payload)
                    reply = await _reply(worker.conn)
                except (EOFError, OSError) as exc:
                    worker.inflight = 0
                    self._on_worker_death(
                        worker, batch, f"worker {worker.id} died: {exc!r:.80}"
                    )
                    return
                worker.inflight = 0
                if self.obs:
                    self._m_batch.observe(len(batch), worker=str(worker.id))
                self._trace_rpc(batch, worker, rpc_t0, time.time())
                results = reply.get("results") or []
                now = time.perf_counter()
                for k, it in enumerate(batch):
                    res = (
                        results[k]
                        if k < len(results)
                        else {"ok": False, "error": reply.get("error", "no result")}
                    )
                    self._record(it, res, now)
                    self._finish_item(it, res)
                batch = []
        except asyncio.CancelledError:
            worker.inflight = 0
            self._fail_batch(batch, f"worker {worker.id} shutting down")
            raise

    def _expire_if_late(self, item: _Item) -> bool:
        """Expire one queued request whose deadline already passed; the
        distinct error (and flag) tells clients the work was *not* done."""
        if item.deadline is None:
            return False
        if asyncio.get_running_loop().time() <= item.deadline:
            return False
        if item.scene:
            self._m_deadline.inc(scene=item.scene)
        waited_ms = (time.perf_counter() - item.t0) * 1e3
        self.log.event("deadline_expired", scene=item.scene,
                       waited_ms=round(waited_ms, 3))
        self._trace_dequeue(item)
        self._finish_item(
            item,
            {
                "ok": False,
                "deadline_expired": True,
                "error": (
                    f"deadline expired after {waited_ms:.0f}ms in queue "
                    f"(scene {item.scene!r})"
                ),
            },
        )
        return True

    def _record(self, item: _Item, res: dict, now: float) -> None:
        if not item.scene:
            return
        self._m_scene_requests.inc(scene=item.scene)
        if not res.get("ok"):
            self._m_errors.inc(scene=item.scene)
        if self.obs:  # only _SCENE_OPS carry a scene: the verb set is closed
            self._m_latency.observe(now - item.t0, scene=item.scene, verb=item.wire["op"])

    # -- tracing hooks ---------------------------------------------------
    def _trace_enqueue(self, item: _Item, worker: _Worker) -> None:
        """Open a queue-wait span for one (re-)enqueued traced request."""
        if item.trace is None:
            return
        tr = item.trace
        sp = span(
            "queue_wait",
            tr["trace_id"],
            tr["root"]["span_id"],
            worker=worker.id,
            hop=item.redirects,
        )
        tr["queue"] = sp
        tr["spans"].append(sp)

    def _trace_dequeue(self, item: _Item) -> None:
        if item.trace is not None:
            sp = item.trace.pop("queue", None)
            if sp is not None:
                finish(sp)

    def _trace_rpc(self, batch, worker: _Worker, t0: float, t1: float) -> None:
        """One worker_rpc span per traced batch member (send → recv)."""
        for it in batch:
            if it.trace is None:
                continue
            tr = it.trace
            sp = span(
                "worker_rpc",
                tr["trace_id"],
                tr["root"]["span_id"],
                t0=t0,
                worker=worker.id,
                seq=worker.seq,
                batch_size=len(batch),
            )
            finish(sp, t1)
            tr["spans"].append(sp)

    def _finish_item(self, item: _Item, res: dict) -> None:
        """Single exit point for a scene request: fold the worker's span,
        close the root, publish the trace, resolve the future."""
        if item.future.done():
            return
        ws = res.pop("worker_span", None) if isinstance(res, dict) else None
        if item.trace is not None:
            tr = item.trace
            self._trace_dequeue(item)
            if isinstance(ws, dict):
                sp = span(
                    ws.get("name", "worker.service"),
                    tr["trace_id"],
                    tr["root"]["span_id"],
                    t0=ws.get("t0"),
                    **(ws.get("attrs") or {}),
                )
                finish(sp, float(ws.get("t0", 0.0)) + float(ws.get("dur") or 0.0))
                tr["spans"].append(sp)
            finish(
                tr["root"],
                ok=bool(res.get("ok")),
                redirects=item.redirects or None,
            )
            self.span_buffer.extend(tr["spans"])
            res = dict(res)
            res["trace"] = {
                "trace_id": tr["trace_id"],
                "spans": [dict(sp) for sp in tr["spans"]],
            }
        item.future.set_result(res)

    # -- failure handling -----------------------------------------------
    def _on_worker_death(self, worker: _Worker, batch: list, reason: str) -> None:
        """A worker's pipe broke: redirect its work, then (optionally)
        hand the slot to the supervisor for a backoff-gated respawn."""
        worker.dead = True
        pending: list[_Item] = list(batch)
        while not worker.queue.empty():
            try:
                pending.append(worker.queue.get_nowait())
            except asyncio.QueueEmpty:  # pragma: no cover - race with put
                break
        for item in pending:
            self._redirect(item, reason)
        if self._closing:
            return
        self.supervisor.record_crash(worker.id, reason)
        self.log.event("worker_death", force=True, worker=worker.id,
                       reason=str(reason)[:200])
        if self.supervise:
            task = asyncio.get_running_loop().create_task(
                self._restart_worker(worker.id)
            )
            self._restart_tasks.add(task)
            task.add_done_callback(self._restart_tasks.discard)

    def _redirect(self, item: _Item, reason: str) -> None:
        """Re-route one orphaned request to a surviving worker.  Every
        scene op is an idempotent read, so re-executing a request whose
        worker died mid-batch is safe; the redirect cap bounds ping-pong
        during a cascading failure."""
        if item.future.done():
            return
        item.redirects += 1
        self._trace_dequeue(item)
        target = self._route(item.scene)
        if target is None or target.dead or item.redirects > _MAX_REDIRECTS:
            self._finish_item(
                item, {"ok": False, "retryable": True, "error": reason}
            )
            return
        if self._expire_if_late(item):
            return
        if item.scene:
            self._m_redirects.inc(scene=item.scene)
        if item.trace is not None:
            tr = item.trace
            sp = span(
                "redirect",
                tr["trace_id"],
                tr["root"]["span_id"],
                hop=item.redirects,
                to_worker=target.id,
                reason=str(reason)[:120],
            )
            finish(sp)
            tr["spans"].append(sp)
        self._trace_enqueue(item, target)
        try:
            target.queue.put_nowait(item)
        except asyncio.QueueFull:
            if item.scene:
                self._m_shed.inc(scene=item.scene)
            self.log.event("shed", scene=item.scene, worker=target.id,
                           failover=True)
            self._trace_dequeue(item)
            self._finish_item(
                item,
                {
                    "ok": False,
                    "shed": True,
                    "error": (
                        f"overloaded during failover: worker {target.id} "
                        f"queue is full; retry later"
                    ),
                },
            )

    async def _restart_worker(self, wid: int) -> None:
        """Supervised respawn of one worker slot: backoff, spawn,
        readiness-gate, swap into routing.  Loops on failed attempts
        until the circuit breaker opens."""
        loop = asyncio.get_running_loop()
        while not self._closing:
            if not self.supervisor.allow_restart(wid):
                return  # breaker open: slot stays down, scenes stay failed over
            await asyncio.sleep(self.supervisor.next_backoff(wid))
            if self._closing:
                return
            old = self.workers[wid]
            await loop.run_in_executor(None, self._reap, old)
            new: Optional[_Worker] = None
            swapped = False
            try:
                new = self._spawn_worker(wid)
                await self._ready_worker(new)
                new.task = loop.create_task(self._dispatch_loop(new))
                self.workers[wid] = new
                swapped = True
                self.supervisor.record_restart(wid)
                return
            except ClusterError as exc:
                self.supervisor.record_crash(wid, str(exc))
            except Exception as exc:  # noqa: BLE001 - spawn machinery failed
                self.supervisor.record_crash(wid, f"respawn failed: {exc!r:.120}")
            finally:
                if new is not None and not swapped:
                    self._reap(new, timeout=1.0)

    def _reap(self, worker: _Worker, timeout: float = 5.0) -> None:
        """Close the pipe and collect the process (terminate if needed)."""
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        try:
            worker.proc.join(timeout=timeout)
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=2.0)
        except (OSError, ValueError):  # pragma: no cover - proc already reaped
            pass

    def _fail_batch(self, batch: Sequence[_Item], reason: str) -> None:
        for it in batch:
            self._finish_item(it, {"ok": False, "error": reason})

    # -- client connections ---------------------------------------------
    async def _handle_client(self, reader, writer) -> None:
        pending: asyncio.Queue = asyncio.Queue()
        writer_task = asyncio.create_task(self._write_loop(pending, writer))
        try:
            while True:
                try:
                    body = await read_body(reader)
                    if body is None:
                        break
                    c0 = time.perf_counter()
                    msg = decode_body(body)
                    decoded = (c0, time.perf_counter())
                except ClusterError as exc:
                    await pending.put(
                        ({"id": None, "ok": False, "error": f"bad frame: {exc}"}, None)
                    )
                    break
                await pending.put((self._admit(msg), decoded))
        finally:
            await pending.put(None)
            try:
                await writer_task
            except (ConnectionError, asyncio.CancelledError):  # pragma: no cover
                pass

    async def _write_loop(self, pending: asyncio.Queue, writer) -> None:
        """Drain responses *in request order*: entries are either ready
        dicts or (id, future) pairs awaited in sequence, each with the
        perf-counter bounds of its request's frame decode."""
        try:
            while True:
                item = await pending.get()
                if item is None:
                    break
                entry, decoded = item
                if isinstance(entry, dict):
                    resp = entry
                else:
                    rid, fut = entry
                    res = await fut
                    resp = dict(res)
                    resp["id"] = rid
                if self.injector is not None and await self.injector.on_response(
                    writer, resp
                ):
                    continue
                if "trace" in resp:
                    writer.write(self._traced_frame(resp, decoded))
                else:
                    writer.write(encode_frame(resp))
                await writer.drain()
        except (ConnectionError, OSError):  # client went away mid-write
            pass
        finally:
            await close_writer(writer)

    def _traced_frame(self, resp: dict, decoded: tuple) -> bytes:
        """A traced response's wire bytes, with one ``codec`` span for
        the request's frame decode plus this response's encode.  The
        trace is encoded after the timed part and appended as the last
        member, so the span it carries covers the codec work only."""
        tr = resp.pop("trace")
        c0 = time.perf_counter()
        head = encode_body(resp)
        c1 = time.perf_counter()
        d0, d1 = decoded
        sp = span(
            "codec",
            tr["trace_id"],
            tr["spans"][0]["span_id"],  # the request root
            t0=time.time() - (c1 - d0),
            decode_ms=round((d1 - d0) * 1e3, 4),
            encode_ms=round((c1 - c0) * 1e3, 4),
        )
        sp["dur"] = (d1 - d0) + (c1 - c0)
        self.span_buffer.add(sp)
        tr["spans"].append(dict(sp))
        return frame(head[:-1] + b',"trace":' + encode_body(tr) + b"}")

    def _admit(self, msg: dict):
        """Route one request: an immediate response dict, or (id, future)."""
        rid = msg.get("id")
        op = msg.get("op")
        self._m_requests.inc(
            verb=op if op in _SCENE_OPS or op in _LOCAL_OPS else "other"
        )
        if op == "ping":
            return {"id": rid, "ok": True, "result": "pong"}
        if op == "health":
            return {"id": rid, "ok": True, "result": self._health()}
        if op == "drain":
            fut = asyncio.ensure_future(self._drain_and_ack())
            return (rid, fut)
        if op == "scenes":
            return {
                "id": rid,
                "ok": True,
                "result": {
                    "scenes": dict(self.assignment),
                    "workers": self.n_workers,
                    "alive": [w.id for w in self.workers if not w.dead],
                    "generations": dict(self._generations),
                    "updatable": sorted(self._scene_state),
                },
            }
        if op in ("update", "describe"):
            scene = msg.get("scene")
            if scene not in self.assignment:
                known = ", ".join(sorted(self.assignment)) or "<none>"
                return {
                    "id": rid,
                    "ok": False,
                    "error": f"unknown scene {scene!r} (serving: {known})",
                }
            if op == "describe":
                return dict(self._describe(scene), id=rid)
            if self._draining:
                return {
                    "id": rid,
                    "ok": False,
                    "draining": True,
                    "error": "front-end is draining; no new updates accepted",
                }
            fut = asyncio.ensure_future(self._update_scene(scene, msg.get("delta")))
            return (rid, fut)
        if op == "stats":
            fut = asyncio.ensure_future(self._cluster_stats())
            return (rid, fut)
        if op == "metrics":
            fut = asyncio.ensure_future(self._cluster_metrics())
            return (rid, fut)
        if op == "trace":
            limit = msg.get("limit")
            return {
                "id": rid,
                "ok": True,
                "result": {
                    "spans": self.span_buffer.snapshot(
                        limit=int(limit) if limit is not None else 512,
                        trace_id=msg.get("trace_id"),
                    ),
                    "dropped": self.span_buffer.dropped,
                },
            }
        if op not in _SCENE_OPS:
            return {"id": rid, "ok": False, "error": f"unknown op {op!r}"}
        scene = msg.get("scene")
        if scene not in self.assignment:
            known = ", ".join(sorted(self.assignment)) or "<none>"
            return {
                "id": rid,
                "ok": False,
                "error": f"unknown scene {scene!r} (serving: {known})",
            }
        if self._draining:
            return {
                "id": rid,
                "ok": False,
                "draining": True,
                "error": "front-end is draining; no new requests accepted",
            }
        if self.injector is not None:
            self.injector.on_request(self)
        deadline = None
        raw_deadline = msg.get("deadline_ms")
        if raw_deadline is not None:
            try:
                deadline_ms = float(raw_deadline)
            except (TypeError, ValueError):
                return {
                    "id": rid,
                    "ok": False,
                    "error": f"bad deadline_ms {raw_deadline!r}: expected a number",
                }
            deadline = asyncio.get_running_loop().time() + deadline_ms / 1e3
        worker = self._route(scene)
        if worker is None:
            return {
                "id": rid,
                "ok": False,
                "retryable": True,
                "error": "no live workers (crashed or restarting); retry",
            }
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        item = _Item(msg, fut, scene, deadline)
        if self.obs and msg.get("trace"):
            trace_id = str(msg.get("trace_id") or new_trace_id())
            msg["trace_id"] = trace_id  # propagated to the worker verbatim
            root = span("request", trace_id, scene=scene, verb=op)
            item.trace = {"trace_id": trace_id, "root": root, "spans": [root]}
        self._trace_enqueue(item, worker)
        try:
            worker.queue.put_nowait(item)
        except asyncio.QueueFull:
            # load shedding: fast one-line rejection, nothing queued
            self._m_shed.inc(scene=scene)
            self.log.event("shed", scene=scene, worker=worker.id,
                           depth=self.queue_depth)
            self._trace_dequeue(item)
            self._finish_item(
                item,
                {
                    "ok": False,
                    "shed": True,
                    "error": (
                        f"overloaded: worker {worker.id} queue is full "
                        f"({self.queue_depth} deep); retry later"
                    ),
                },
            )
        return (rid, fut)

    # -- scene updates (zero-downtime rollover) --------------------------
    def _describe(self, name: str) -> dict:
        """The ``describe`` verb: a scene's full geometry + generation —
        what a client needs to compute deltas (and, for checked load
        generation, to build a local oracle)."""
        state = self._scene_state.get(name)
        if state is None:
            return {
                "ok": False,
                "error": (
                    f"scene {name!r} has no geometry source (snapshot- or "
                    f"index-only scenes cannot be described or updated)"
                ),
            }
        return {
            "ok": True,
            "result": {
                "scene": state["scene"].to_dict(),
                "generation": self._generations.get(name, 0),
                "scene_hash": state["scene"].content_hash(),
            },
        }

    async def _update_scene(self, name: str, delta_data) -> dict:
        """The ``update`` verb: apply an obstacle delta to ``name`` and
        roll every worker to the new generation with zero downtime.

        Protocol: (1) repair the front-end's index incrementally
        (:func:`repro.pipeline.update_index` — byte-identical to a cold
        rebuild, reusing unaffected separator-subtree solves), or build
        it for a snapshot-sourced scene; (2) publish it as a new snapshot
        file (generation+1); (3) broadcast the new spec to every live
        worker, which swaps resident scenes and lazily re-sources the
        rest — in-flight batches finish on the old generation they hold;
        (4) once all live workers acked, unlink the superseded file.  A worker that dies mid-rollover is
        tolerated: its respawn registers from the updated spec list.
        """
        from repro.errors import GeometryError, QueryError
        from repro.scene import SceneDelta

        async with self._update_lock:
            state = self._scene_state.get(name)
            if state is None:
                self._m_update_errors.inc(scene=name)
                return self._describe(name)  # carries the canonical error
            loop = asyncio.get_running_loop()
            trace_id = new_trace_id()
            root = span("scene.update", trace_id, scene=name)
            t0 = time.perf_counter()
            try:
                delta = SceneDelta.from_dict(delta_data)
                if state["idx"] is not None:
                    from repro.pipeline import update_index

                    new_idx = await loop.run_in_executor(
                        None, update_index, state["idx"], delta
                    )
                    repair = new_idx.provenance.get("repair")
                else:
                    # a snapshot-sourced scene: the front-end holds no
                    # index to repair, so it builds the new generation
                    new_scene = state["scene"].apply_delta(delta)
                    new_idx = await loop.run_in_executor(None, self._build, new_scene)
                    repair = None
                new_scene = new_idx.scene
                path = await loop.run_in_executor(
                    None, self.publisher.republish, name, new_idx
                )
                spec = {"name": name, "kind": "snapshot", "path": path}
                generation = self._generations.get(name, 0) + 1
            except (GeometryError, QueryError, ClusterError) as exc:
                self._m_update_errors.inc(scene=name)
                finish(root, ok=False, error=str(exc)[:160])
                self.span_buffer.extend([root])
                return {"ok": False, "error": str(exc)}
            # respawned workers must register the new generation, not the
            # one they were born with
            for i, s in enumerate(self._worker_specs):
                if s.get("name") == name:
                    self._worker_specs[i] = spec
                    break
            acked, skipped, failures = await self._broadcast_update(spec)
            state["scene"] = new_scene
            state["idx"] = new_idx
            self._generations[name] = generation
            if not failures:
                # every live worker acked the new file; the old one can
                # go (mappings stay valid past the unlink, so a reader
                # still holding the old index is safe)
                self.publisher.release_retired(name)
            wall = time.perf_counter() - t0
            self._m_updates.inc(scene=name)
            if self.obs:
                self._m_generation.set(float(generation), scene=name)
            finish(root, ok=not failures, generation=generation, workers=acked)
            self.span_buffer.extend([root])
            self.log.event(
                "scene_update", force=True, scene=name, generation=generation,
                ops=delta.describe(), workers_acked=acked,
                wall_ms=round(wall * 1e3, 3),
            )
            result = {
                "scene": name,
                "generation": generation,
                "scene_hash": new_scene.content_hash(),
                "ops": delta.describe(),
                "workers_updated": acked,
                "workers_restarting": skipped,
                "wall_s": wall,
            }
            if repair is not None:
                result["repair"] = repair
            if failures:
                self._m_update_errors.inc(scene=name)
                detail = "; ".join(
                    f"worker {wid}: {err}" for wid, err in sorted(failures.items())
                )
                return {
                    "ok": False,
                    "error": f"rollover to generation {generation} failed ({detail})",
                    "result": result,
                }
            return {"ok": True, "result": result}

    async def _broadcast_update(self, spec: dict) -> tuple:
        """Push one rollover spec through every live worker's queue;
        returns ``(acked, skipped, failures)`` where skipped counts
        workers that died mid-rollover (their respawn re-registers from
        the updated spec list) and failures maps live worker ids to
        errors."""
        loop = asyncio.get_running_loop()
        waits = []
        failures: dict[int, str] = {}
        skipped = 0
        for w in self.workers:
            if w.dead:
                skipped += 1
                continue
            fut: asyncio.Future = loop.create_future()
            item = _Item({"op": "update", "spec": spec}, fut, None)
            try:
                w.queue.put_nowait(item)
            except asyncio.QueueFull:
                try:
                    await asyncio.wait_for(w.queue.put(item), timeout=30.0)
                except asyncio.TimeoutError:
                    failures[w.id] = "queue full; rollover enqueue timed out"
                    continue
            waits.append((w, fut))
        acked = 0
        for w, fut in waits:
            res = await fut
            if res.get("ok"):
                acked += 1
            elif res.get("retryable"):
                skipped += 1  # died mid-rollover; supervision heals it
            else:
                failures[w.id] = str(res.get("error"))[:200]
        return acked, skipped, failures

    # -- lifecycle verbs -------------------------------------------------
    def _health(self) -> dict:
        alive = [w.id for w in self.workers if not w.dead]
        if self._draining:
            status = "draining"
        elif len(alive) == self.n_workers:
            status = "serving"
        elif alive:
            status = "degraded"
        else:
            status = "down"
        return {
            "status": status,
            "workers": self.n_workers,
            "workers_alive": len(alive),
            "restarts": self.supervisor.total_restarts,
            "draining": self._draining,
        }

    async def drain(self, poll_s: float = 0.02) -> None:
        """Refuse new scene requests, then wait until every worker queue
        and in-flight batch is empty."""
        self._draining = True
        while any(
            w.queue.qsize() + w.inflight for w in self.workers if not w.dead
        ):
            await asyncio.sleep(poll_s)

    async def _drain_and_ack(self) -> dict:
        await self.drain()
        return {"ok": True, "result": "drained", "draining": True}

    def request_drain(self) -> None:
        """Signal-handler-safe graceful shutdown: drain, then stop."""
        if self._draining:
            return
        self._draining = True
        task = asyncio.ensure_future(self._drain_then_stop())
        self._restart_tasks.add(task)
        task.add_done_callback(self._restart_tasks.discard)

    async def _drain_then_stop(self) -> None:
        await self.drain()
        self.request_stop()

    # -- stats ----------------------------------------------------------
    async def _cluster_stats(self) -> dict:
        worker_stats: dict[str, dict] = {}
        waits = []
        for w in self.workers:
            if w.dead:
                worker_stats[str(w.id)] = {
                    "dead": True,
                    "last_crash": self.supervisor.last_crash(w.id),
                }
                continue
            fut: asyncio.Future = asyncio.get_running_loop().create_future()
            item = _Item({"op": "stats"}, fut, None)
            try:
                w.queue.put_nowait(item)
            except asyncio.QueueFull:
                worker_stats[str(w.id)] = {"busy": True}
                continue
            waits.append((w, fut))
        for w, fut in waits:
            res = await fut
            worker_stats[str(w.id)] = (
                res.get("result") if res.get("ok") else {"error": res.get("error")}
            )
        return {"ok": True, "result": self._stats_payload(worker_stats)}

    def _stats_payload(self, worker_stats: dict) -> dict:
        payload = {
            "uptime_s": time.monotonic() - self._t_start,
            "workers": worker_stats,
            "assignment": dict(self.assignment),
            "supervisor": self.supervisor.stats(),
            "health": self._health(),
            "frontend": {
                "requests": self.requests,
                "sheds": self.sheds,
                "deadline_expired": self.deadline_expired,
                "qps": self.requests / max(time.monotonic() - self._t_start, 1e-9),
                "batch_size_hist": self._m_batch.size_hist(),
                "generations": dict(self._generations),
                "scenes": {
                    name: m.summary() for name, m in self.scene_metrics.items()
                },
            },
        }
        if self.injector is not None:
            payload["faults"] = self.injector.stats()
        return payload

    def stats(self) -> dict:
        """Front-end-side metrics only (synchronous; no worker round trip)."""
        return self._stats_payload({})

    # -- metrics exposition ---------------------------------------------
    async def _merged_snapshot(self) -> dict:
        """The front-end registry snapshot merged with every live
        worker's, the worker series labeled ``worker="<id>"``."""
        worker_snaps: dict[str, dict] = {}
        waits = []
        for w in self.workers:
            if w.dead:
                continue
            fut: asyncio.Future = asyncio.get_running_loop().create_future()
            item = _Item({"op": "metrics"}, fut, None)
            try:
                w.queue.put_nowait(item)
            except asyncio.QueueFull:
                continue  # busy worker: scrape covers it next time
            waits.append((w, fut))
        for w, fut in waits:
            res = await fut
            if res.get("ok") and isinstance(res.get("result"), dict):
                worker_snaps[str(w.id)] = res["result"]
        base = self.registry.snapshot()
        process = default_registry()
        if process is not self.registry:
            # scene builds run in *this* process and profile into the
            # process-default registry (repro.pipeline.*); fold them into
            # the scrape without letting them shadow front-end families
            for fam, data in process.snapshot().items():
                base.setdefault(fam, data)
        return merge_snapshots(base, worker_snaps)

    async def _cluster_metrics(self) -> dict:
        snapshot = await self._merged_snapshot()
        return {"ok": True, "result": snapshot}

    async def _handle_metrics(self, reader, writer) -> None:
        """A deliberately minimal HTTP/1.0 responder for ``GET /metrics``
        on the event loop — enough for a Prometheus scrape or curl, with
        no HTTP dependency."""
        try:
            request_line = await asyncio.wait_for(reader.readline(), 10.0)
            while True:  # drain headers up to the blank line
                line = await asyncio.wait_for(reader.readline(), 10.0)
                if line in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1", "replace").split()
            path = parts[1] if len(parts) >= 2 else ""
            if parts and parts[0] == "GET" and path.split("?")[0] == "/metrics":
                body = render_openmetrics(await self._merged_snapshot()).encode()
                head = (
                    "HTTP/1.0 200 OK\r\n"
                    f"Content-Type: {CONTENT_TYPE}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode()
            else:
                body = b"try GET /metrics\n"
                head = (
                    "HTTP/1.0 404 Not Found\r\n"
                    "Content-Type: text/plain\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode()
            writer.write(head + body)
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionError, OSError):
            pass
        finally:
            await close_writer(writer)

    # -- shutdown -------------------------------------------------------
    async def stop(self) -> None:
        """Stop accepting, drain workers, remove published files (idempotent)."""
        self._closing = True
        self._stopped.set()
        for task in list(self._restart_tasks):
            task.cancel()
        for task in list(self._restart_tasks):
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self._restart_tasks.clear()
        if self._server is not None:
            self._server.close()
            try:
                await self._server.wait_closed()
            except Exception:  # pragma: no cover - server already gone
                pass
            self._server = None
        if self._metrics_server is not None:
            self._metrics_server.close()
            try:
                await self._metrics_server.wait_closed()
            except Exception:  # pragma: no cover - server already gone
                pass
            self._metrics_server = None
        for w in self.workers:
            if w.task is not None:
                w.task.cancel()
        for w in self.workers:
            if w.task is not None:
                try:
                    await w.task
                except (asyncio.CancelledError, Exception):  # noqa: BLE001
                    pass
                w.task = None
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._shutdown_workers)
        self.workers.clear()
        if self.publisher is not None:
            self.publisher.close()
            self.publisher = None

    def _shutdown_workers(self) -> None:
        for w in self.workers:
            if w.proc.is_alive():
                try:
                    w.conn.send({"op": "shutdown"})
                except (OSError, BrokenPipeError, ValueError):
                    pass
        deadline = time.monotonic() + 5.0
        for w in self.workers:
            w.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if w.proc.is_alive():  # pragma: no cover - hung worker
                w.proc.terminate()
                w.proc.join(timeout=2.0)
            try:
                w.conn.close()
            except OSError:  # pragma: no cover
                pass


def _reply(conn) -> asyncio.Future:
    """The worker's next message on ``conn``, read by the event loop
    itself: a reader on the pipe's fd does one ``recv`` once the reply
    starts to arrive.  ``EOFError``/``OSError`` (the worker died) become
    the future's exception.  The reader is gone once the future is done,
    whether it resolved or was cancelled (shutdown, readiness timeout)."""
    loop = asyncio.get_running_loop()
    fut: asyncio.Future = loop.create_future()
    fd = conn.fileno()

    def on_readable() -> None:
        loop.remove_reader(fd)
        if fut.done():
            return
        try:
            fut.set_result(conn.recv())
        except (EOFError, OSError) as exc:
            fut.set_exception(exc)

    loop.add_reader(fd, on_readable)
    fut.add_done_callback(lambda _: loop.remove_reader(fd))
    return fut


async def run_cluster(frontend: ClusterFrontend) -> None:
    """Convenience: start, serve until stop is requested, then clean up."""
    await frontend.start()
    try:
        await frontend.serve_forever()
    finally:
        await frontend.stop()
