"""The pool executor: the one §5/§6 recursion on worker processes.

``parallel-mp`` is :class:`~repro.core.allpairs.ParallelEngine` driven by
:class:`PoolExecutor` instead of the inline executor.  The recursion, its
Forks, PRAM charges and chain-tag minting stay the engine's own; this
module adds what real cores need:

* **What goes remote.**  Leaf solves; whole subtrees from depth
  ``log2(TASKS_PER_WORKER × jobs)`` down when the build has no subtree
  cache (with one, the parent visits every node itself — cache probe,
  stats, deposit — so repairs reuse exactly what ``parallel`` leaves);
  conquer column blocks of at least :data:`MIN_REMOTE_CONQUER_OPS`.
* **Deterministic interleaving.**  The parent advances the runnable
  branch earliest in recursion pre-order; when every branch waits on a
  worker it blocks for the earliest one.  Arrival order changes when the
  parent computes, never what.
* **Persistent workers** (:func:`get_pool`) outlive builds; handlers are
  ``"module:function"`` names resolved in the worker.  Every result,
  matrix included, comes back pickled through the one result queue in
  the build's matrix dtype: nothing but the queues outlives a task,
  under ``fork`` or ``spawn``.
* **Crash containment.**  A worker death with tasks outstanding tears the
  pool down (survivors terminated) and raises one
  :class:`~repro.errors.EngineError` line; the next build gets a fresh
  pool.

``repro.build.pool.*`` counters (see ``metrics.md``) and one
``build.solve.subtree`` span per node task record the pool traffic.
"""

from __future__ import annotations

import atexit
import heapq
import importlib
import itertools
import multiprocessing as mp
import os
import queue as _queue
import threading
import time
import traceback
from dataclasses import dataclass, field
from types import GeneratorType
from typing import Callable, Dict, Optional

import numpy as np

from repro.core.allpairs import Fork, InlineExecutor, ParallelEngine, minplus_block
from repro.errors import EngineError
from repro.obs.registry import default_registry
from repro.pram.machine import PRAM

__all__ = ["PoolExecutor", "WorkerPool", "get_pool", "shutdown_pool",
           "default_jobs", "pool_stats"]

#: ship whole subtrees once the recursion has about this many nodes per
#: worker on its frontier (cache-less builds only)
TASKS_PER_WORKER = 4

#: dispatch a conquer column block to the pool only above this many
#: fused multiply-min element operations (below it the hop costs more)
MIN_REMOTE_CONQUER_OPS = 1 << 18

#: how often the result loop wakes to check worker liveness (seconds)
_POLL_S = 0.1

_task_ids = itertools.count(1)


def default_jobs() -> int:
    """Worker count when ``--jobs`` is not given: the visible cores,
    capped — build task DAGs rarely keep more than 8 workers busy."""
    try:
        n = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        n = os.cpu_count() or 1
    return max(1, min(n, 8))


def _resolve(fn_name: str):
    mod_name, _, attr = fn_name.partition(":")
    return getattr(importlib.import_module(mod_name), attr)


def _worker_main(task_q, result_q) -> None:
    """Worker process body: pull tasks until the ``None`` sentinel."""
    while True:
        try:
            task = task_q.get()
        except (EOFError, OSError, KeyboardInterrupt):  # pragma: no cover
            break
        if task is None:
            break
        tid = task["id"]
        try:
            if task["kind"] == "__crash__":
                # test hook: die the way a segfault would — no cleanup,
                # no exception, just a vanished process
                os._exit(int(task.get("code", 3)))
            t0 = time.perf_counter()
            result, arrays = _resolve(task["fn"])(task["payload"])
            wall = time.perf_counter() - t0
            result_q.put(("ok", tid, wall, result, arrays))
        except BaseException as exc:  # noqa: BLE001 - must reach the parent
            detail = traceback.format_exc(limit=8)
            result_q.put(
                ("error", tid, 0.0, f"{type(exc).__name__}: {exc}", detail)
            )


class WorkerPool:
    """``jobs`` persistent worker processes fed through one task queue."""

    def __init__(self, jobs: int, start_method: Optional[str] = None) -> None:
        self.jobs = max(1, int(jobs))
        self._ctx = mp.get_context(start_method) if start_method else mp.get_context()
        self._tasks = self._ctx.SimpleQueue()
        self._results = self._ctx.Queue()
        self._lock = threading.RLock()
        self._outstanding: set = set()  # task ids submitted, not yet returned
        self._kinds: Dict[int, str] = {}  # task id -> kind (for metrics)
        self._workers: list = []
        self.closed = False
        c = default_registry().counter
        self._c_tasks = c("repro.build.pool.tasks",
                          "build tasks dispatched to pool workers", labels=["kind"])
        self._c_wall = c("repro.build.pool.task_seconds",
                         "worker-side task wall clock", labels=["kind"])
        self._c_bytes = c("repro.build.pool.result_bytes",
                          "result payload bytes by transport (always pipe)",
                          labels=["transport"])
        self._c_workers = c("repro.build.pool.workers_spawned",
                            "pool worker processes started")
        self._c_crashes = c("repro.build.pool.worker_crashes",
                            "pool workers that died mid-build")
        for _ in range(self.jobs):
            self._spawn()

    def _spawn(self) -> None:
        proc = self._ctx.Process(
            target=_worker_main,
            args=(self._tasks, self._results),
            daemon=True,
            name=f"repro-build-{len(self._workers)}",
        )
        proc.start()
        self._workers.append(proc)
        self._c_workers.inc()

    # -- build serialization -------------------------------------------
    def exclusive(self):
        """One build drives the pool at a time (reentrant for the owner)."""
        return self._lock

    # -- submission ------------------------------------------------------
    def submit(self, fn: str, payload: dict, kind: str = "task") -> int:
        """Queue one task; returns its id.  ``fn`` is a ``"module:func"``
        handler returning ``(result_dict, arrays_dict)``."""
        if self.closed:
            raise EngineError("build pool is closed")
        tid = next(_task_ids)
        task = {"id": tid, "kind": kind, "fn": fn, "payload": payload}
        self._outstanding.add(tid)
        self._kinds[tid] = kind
        try:
            self._tasks.put(task)
        except BaseException:
            self._outstanding.discard(tid)
            self._kinds.pop(tid, None)
            raise
        self._c_tasks.inc(kind=kind)
        return tid

    # -- collection ------------------------------------------------------
    def next_result(self) -> tuple:
        """Block until one outstanding task completes; returns
        ``(task_id, worker_wall_s, result, arrays)``.  Raises
        :class:`EngineError` (after tearing the pool down) on a task
        exception or a worker death."""
        if not self._outstanding:
            raise EngineError("next_result() with no outstanding pool tasks")
        while True:
            try:
                msg = self._results.get(timeout=_POLL_S)
            except _queue.Empty:
                self._check_alive()
                continue
            status, tid, wall, body = msg[0], msg[1], msg[2], msg[3]
            if tid not in self._outstanding:
                continue  # stale result from an abandoned build
            self._outstanding.discard(tid)
            if status == "error":
                self.fail(f"build task failed in worker: {body}")
            arrays = msg[4]
            if arrays:
                self._c_bytes.inc(
                    sum(a.nbytes for a in arrays.values()), transport="pipe"
                )
            kind = self._kinds.pop(tid, "task")
            self._c_wall.inc(max(0.0, float(wall)), kind=kind)
            return tid, float(wall), body, arrays

    def abandon(self) -> None:
        """Forget all outstanding tasks (a build aborted mid-flight);
        late results are dropped on sight."""
        self._outstanding.clear()
        self._kinds.clear()

    def _check_alive(self) -> None:
        dead = [p for p in self._workers if not p.is_alive()]
        if not dead:
            return
        if not self._outstanding and self.closed:
            return
        self._c_crashes.inc(len(dead))
        codes = ", ".join(str(p.exitcode) for p in dead)
        self.fail(
            f"{len(dead)} build worker(s) died mid-build (exit code(s): "
            f"{codes}); pool torn down, partial results discarded"
        )

    def fail(self, message: str) -> None:
        """Tear the pool down and raise one EngineError line."""
        self.shutdown(force=True)
        raise EngineError(message)

    # -- lifecycle -------------------------------------------------------
    def shutdown(self, force: bool = False) -> None:
        """Stop all workers (gracefully unless ``force``) and close the
        queues.  Idempotent."""
        if self.closed:
            return
        self.closed = True
        if not force:
            try:
                for _ in self._workers:
                    self._tasks.put(None)
            except BaseException:  # pragma: no cover - broken pipe
                force = True
        deadline = time.monotonic() + (0.0 if force else 5.0)
        for proc in self._workers:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for proc in self._workers:
            if proc.is_alive():
                proc.terminate()
        for proc in self._workers:
            proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - terminate ignored
                proc.kill()
                proc.join(timeout=5.0)
        self._workers.clear()
        self._outstanding.clear()
        try:
            self._results.close()
            self._results.join_thread()
            self._tasks.close()
        except BaseException:  # pragma: no cover
            pass

    def __del__(self):  # pragma: no cover - GC timing
        try:
            self.shutdown(force=True)
        except BaseException:
            pass


# ----------------------------------------------------------------------
# the module-level pool (one per process, resized on demand)

_POOL: Optional[WorkerPool] = None
_POOL_LOCK = threading.Lock()


def get_pool(jobs: int) -> WorkerPool:
    """The shared pool, (re)created when absent, closed, or sized
    differently than ``jobs``."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is not None and (_POOL.closed or _POOL.jobs != int(jobs)):
            _POOL.shutdown()
            _POOL = None
        if _POOL is None:
            _POOL = WorkerPool(jobs)
        return _POOL


def shutdown_pool() -> None:
    global _POOL
    with _POOL_LOCK:
        if _POOL is not None:
            _POOL.shutdown()
            _POOL = None


atexit.register(shutdown_pool)


# ----------------------------------------------------------------------
# the executor: ParallelEngine's recursion with work shipped to the pool

def pool_stats(workers: int = 0) -> dict:
    """The zeroed ``provenance["pool"]`` record of one build."""
    return {
        "workers": workers, "inline": workers == 0, "tasks": 0,
        "leaf_tasks": 0, "subtree_tasks": 0, "conquer_tasks": 0,
        "worker_wall_s": 0.0,
    }


@dataclass
class Task:
    """One unit of work for a pool worker.  ``finish(body, matrix)``
    folds the worker's result into the parent and returns the value the
    recursion receives in its place."""

    fn: str
    payload: dict
    kind: str
    finish: Callable
    span: Optional[dict] = None


@dataclass
class _Fiber:
    """A branch of the recursion: its pre-order key, its generator
    (``None`` for a bare task), the branch slot it fills in ``parent``,
    and — while suspended on a Fork — that Fork's machines and results."""

    key: tuple
    gen: object = None
    parent: Optional["_Fiber"] = None
    slot: int = 0
    fork: Optional[Fork] = None
    machines: list = field(default_factory=list)
    results: list = field(default_factory=list)
    pending: int = 0


class PoolExecutor(InlineExecutor):
    """Drives the recursion with independent work on a :class:`WorkerPool`
    (see the module docstring for what goes remote and in what order)."""

    def __init__(self, pool: WorkerPool, jobs: int) -> None:
        self.pool = pool
        self.stats = pool_stats(jobs)
        self._ship_depth = (TASKS_PER_WORKER * jobs - 1).bit_length()

    # -- the two offload hooks -------------------------------------------
    def node_task(self, engine, rect_idx, pts, pram, depth):
        leaf = len(rect_idx) <= engine.leaf_size
        if not leaf and (engine._sub_cache is not None or depth < self._ship_depth):
            return None
        tags = {}
        if not leaf:
            # the chains the subtree's conquers may group by: every point
            # it can see lies in its tracked points' bounding box
            xs, ys = zip(*pts)
            x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
            tags = {
                p: t for p, t in engine._chain_tags.items()
                if x0 <= p[0] <= x1 and y0 <= p[1] <= y1
            }
        ctx = {k: getattr(engine, k)
               for k in ("rects", "seams", "leaf_size", "monge_dispatch", "divide")}
        payload = {"ctx": ctx, "rect_idx": rect_idx, "pts": pts, "depth": depth,
                   "tags": tags, "next_chain_id": engine._next_chain_id,
                   "dtype": engine.dtype}

        def finish(body, mat):
            t, w, width = body["pram"]
            pram.charge(time=t, work=w, width=width)
            engine.stats.merge(body["stats"])
            # re-id the worker's new chains; setdefault keeps any tag the
            # parent minted meanwhile (ids are labels, only the partition
            # of points into chains matters)
            for members in body["chains"]:
                cid = engine._fresh_chain_id()
                for p, k in members:
                    engine._chain_tags.setdefault(p, (cid, k))
            return (pts, mat), body["aux"]

        span = {"n_rects": len(rect_idx), "n_points": len(pts), "depth": depth}
        return Task("repro.core.pool:_solve_task", payload,
                    "leaf" if leaf else "subtree", finish, span)

    def block_job(self, engine, a, b, certify):
        if a.shape[0] * b.shape[1] * max(1, a.shape[1]) < MIN_REMOTE_CONQUER_OPS:
            return super().block_job(engine, a, b, certify)

        def remote(m: PRAM) -> Task:
            def finish(body, out):
                t, w, width = body["pram"]
                m.charge(time=t, work=w, width=width)
                engine.stats.monge_fast_blocks += body["fast"]
                return out

            payload = {"a": a, "b": np.ascontiguousarray(b), "certify": certify}
            return Task("repro.core.pool:_block_task", payload, "conquer", finish)

        return remote

    # -- running the recursion -------------------------------------------
    def run(self, gen):
        with self.pool.exclusive():
            try:
                return self._drive(gen)
            except BaseException:
                self.pool.abandon()  # late results are dropped on sight
                raise

    def _drive(self, gen):
        ready: list = []  # heap of (pre-order key, seq, fiber, value to send)
        waiting: Dict[int, tuple] = {}  # task id -> (fiber, task)
        arrived: Dict[int, tuple] = {}
        out: list = []
        seq = itertools.count()

        def push(fiber, value):
            heapq.heappush(ready, (fiber.key, next(seq), fiber, value))

        def complete(fiber, value):
            parent = fiber.parent
            if parent is None:
                out.append(value)
                return
            parent.results[fiber.slot] = value
            parent.pending -= 1
            if parent.pending == 0:
                parent.fork.pram.join(parent.machines)
                push(parent, parent.results)

        def submit(fiber, task):
            tid = self.pool.submit(task.fn, task.payload, kind=task.kind)
            waiting[tid] = (fiber, task)
            self.stats["tasks"] += 1
            self.stats[f"{task.kind}_tasks"] += 1

        def fork(fiber, req: Fork):
            n = len(req.branches)
            fiber.fork, fiber.pending, fiber.results = req, n, [None] * n
            fiber.machines = [req.pram.child(i) for i in range(n)]
            for i, (branch, m) in enumerate(zip(req.branches, fiber.machines)):
                r = branch(m)
                child = _Fiber(fiber.key + (i,), parent=fiber, slot=i)
                if isinstance(r, GeneratorType):
                    child.gen = r
                    push(child, None)
                elif isinstance(r, Task):
                    submit(child, r)
                else:
                    complete(child, r)

        push(_Fiber((), gen), None)
        while not out:
            if ready:
                _, _, fiber, value = heapq.heappop(ready)
                try:
                    req = fiber.gen.send(value)
                except StopIteration as stop:
                    complete(fiber, stop.value)
                    continue
                if isinstance(req, Task):
                    submit(fiber, req)
                else:
                    fork(fiber, req)
                continue
            tid = min(waiting, key=lambda t: waiting[t][0].key)
            while tid not in arrived:
                got, wall, body, arrays = self.pool.next_result()
                arrived[got] = (wall, body, arrays)
            wall, body, arrays = arrived.pop(tid)
            fiber, task = waiting.pop(tid)
            self.stats["worker_wall_s"] += float(wall)
            if task.span is not None:
                _emit_span(task, wall)
            value = task.finish(body, arrays["matrix"])
            if fiber.gen is None:
                complete(fiber, value)
            else:
                push(fiber, value)
        return out[0]


def _emit_span(task: Task, wall: float) -> None:
    from repro.obs.tracing import finish, span
    from repro.pipeline import BUILD_SPANS, current_build_trace

    now = time.time()
    sp = span("build.solve.subtree", current_build_trace(),
              t0=now - max(0.0, float(wall)), kind=task.kind, **task.span)
    BUILD_SPANS.add(finish(sp, t1=now))


# -- worker-side task handlers (resolved by name in the worker) ---------
def _solve_task(payload: dict):
    """A node body (leaf or whole subtree) on an inline engine, plus the
    PRAM charges, stats and new chains the parent folds back."""
    eng = ParallelEngine(validate=False, **payload["ctx"])
    # the build's dtype was chosen from the whole scene, extra points
    # included, which the worker's engine does not see
    eng.dtype = payload["dtype"]
    eng._chain_tags.update(payload["tags"])
    eng._next_chain_id = payload["next_chain_id"]
    w = PRAM("pool-task")
    (_, mat), aux = eng._executor.run(
        eng._solve_node(payload["rect_idx"], payload["pts"], w, payload["depth"])
    )
    chains: Dict[int, list] = {}
    for p, (cid, k) in eng._chain_tags.items():
        if p not in payload["tags"]:
            chains.setdefault(cid, []).append((p, k))
    body = {
        "pram": (w.time, w.work, w.max_ops),
        "aux": aux,
        "stats": vars(eng.stats),
        "chains": [sorted(chains[c], key=lambda pk: pk[1]) for c in sorted(chains)],
    }
    return body, {"matrix": np.ascontiguousarray(mat)}


def _block_task(payload: dict):
    """One conquer column block (:func:`repro.core.allpairs.minplus_block`)."""
    m = PRAM("pool-block")
    out, fast = minplus_block(payload["a"], payload["b"], payload["certify"], m)
    body = {"pram": (m.time, m.work, m.max_ops), "fast": fast}
    return body, {"matrix": np.ascontiguousarray(out)}
