"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``                        build + query + render on a random scene
``query SCENE P Q``             length/path between two points; SCENE is a
                                JSON scene or a ``.rsp`` snapshot
``snapshot SCENE.json OUT.rsp`` build once, persist the index
``serve-bench SCENE [...]``     replay a request workload through the
                                batching server (per-request vs coalesced)
``cluster SCENE [...]``         serve scenes from N worker processes over
                                mapped snapshot files behind an async TCP
                                front-end (``--workers N --port P``)
``loadgen``                     drive a running cluster: ``--closed``
                                capacity runs or ``--open --rps R``
                                latency runs, percentile reports
``fuzz``                        differential fuzz smoke: cross-check the
                                parallel/sequential/baseline engines on
                                random mixed rect+polygon scenes
                                (``--engine`` adds another registered
                                engine to the comparison)
``plan SCENE [--json]``         run the staged build pipeline and print
                                the stage graph with per-stage wall-clock
                                and simulated PRAM timings
``figures [N]``                 print paper figure(s)
``bench-info SCENE``            build a JSON scene and report simulated
                                PRAM costs + per-stage timings, or print
                                the stored stage provenance of a ``.rsp``
                                snapshot (``--require-provenance`` exits
                                nonzero when a snapshot predates it)

Scene files are JSON (schema v2, see :class:`repro.scene.Scene`)::

    {"version": 2, "rects": [[xlo, ylo, xhi, yhi], ...],
     "polygons": [[[x, y], ...], ...], "container": [[x, y], ...]}

The bare v1 form ``{"rects": [...]}`` is still accepted.  Points are given
as ``x,y``.  Snapshot artifacts are produced by ``snapshot`` (or
:func:`repro.serve.save`) and load in milliseconds.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Optional, Sequence

from repro import ShortestPathIndex
from repro.errors import ReproError, SnapshotError
from repro.geometry.polygon import RectilinearPolygon
from repro.pipeline import engine_names
from repro.pram import PRAM, speedup_table
from repro.scene import load_scene_cli
from repro.viz.ascii import render_scene
from repro.workloads.generators import random_disjoint_rects


def _parse_point(text: str) -> tuple[int, int]:
    try:
        x, y = text.split(",")
        return (int(x), int(y))
    except ValueError:
        raise SystemExit(f"bad point {text!r}: expected 'x,y'")


def _looks_like_snapshot(path: str) -> bool:
    from repro.serve.snapshot import SNAPSHOT_SUFFIX, is_snapshot

    return path.endswith(SNAPSHOT_SUFFIX) or is_snapshot(path)


def cmd_demo(args: argparse.Namespace) -> int:
    if args.polygons:
        from repro.workloads.generators import random_polygon_scene

        obstacles = random_polygon_scene(
            n_polygons=args.polygons, n_rects=args.n, seed=args.seed
        )
    else:
        obstacles = random_disjoint_rects(args.n, seed=args.seed)
    idx = ShortestPathIndex.build(
        obstacles, engine=args.engine, jobs=args.jobs
    )
    t, w = idx.build_stats()
    vs = idx.vertices()
    p, q = vs[0], vs[-1]
    path = idx.shortest_path(p, q)
    print(
        f"n={len(obstacles)} obstacles ({len(idx.rects)} rects after "
        f"decomposition), engine={args.engine}: simulated T={t}, W={w}"
    )
    print(f"length {p} -> {q} = {idx.length(p, q)}; path has {len(path)-1} segments")
    print(render_scene(obstacles, paths=[path], points=[(p, 'A'), (q, 'B')],
                       title="demo scene"))
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    p = _parse_point(args.p)
    q = _parse_point(args.q)
    if _looks_like_snapshot(args.scene):
        from repro.serve.snapshot import load

        try:
            idx = load(args.scene)
        except (SnapshotError, OSError) as exc:
            raise SystemExit(str(exc))
        scene_obs = list(idx.rects)
    else:
        scene = load_scene_cli(args.scene)
        print(
            f"note: rebuilding the index from {args.scene}; snapshot it once "
            f"with `python -m repro snapshot {args.scene} "
            f"{pathlib.Path(args.scene).stem}.rsp` to skip this on every query",
            file=sys.stderr,
        )
        try:
            idx = ShortestPathIndex.build(
                scene.obstacles,
                extra_points=[p, q, *scene.extra_points],
                engine=args.engine,
                container=scene.container,
                jobs=args.jobs,
            )
        except ReproError as exc:
            raise SystemExit(str(exc))
        scene_obs = list(scene.obstacles)
    # capability gating (a snapshot whose format version predates a verb)
    # and off-grid/outside-container rejections are one-line answers,
    # never tracebacks
    try:
        print(f"length = {idx.length(p, q)}")
        if args.minlink:
            links = idx.min_links(p, q)
            links = int(links) if links != float("inf") else links
            bends = max(links - 1, 0) if links != float("inf") else links
            print(f"links  = {links} (bends = {bends})")
        if args.pareto:
            frontier = idx.bicriteria(p, q, with_paths=False)
            front = ", ".join(
                f"(length {length}, {bends} bend{'s' if bends != 1 else ''})"
                for length, bends, _ in frontier
            )
            print(f"pareto = [{front}]")
        if args.path:
            path = idx.shortest_path(p, q)
            print("path   =", " -> ".join(map(str, path)))
            if args.render:
                print(render_scene(scene_obs, paths=[path], points=[(p, 'A'), (q, 'B')]))
    except ReproError as exc:
        raise SystemExit(str(exc))
    return 0


def cmd_snapshot(args: argparse.Namespace) -> int:
    from repro.serve.snapshot import save

    scene = load_scene_cli(args.scene)
    t0 = time.perf_counter()
    try:
        idx = ShortestPathIndex.build(
            scene.obstacles,
            extra_points=scene.extra_points,
            engine=args.engine,
            container=scene.container,
            jobs=args.jobs,
        )
    except ReproError as exc:
        raise SystemExit(str(exc))
    build_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    try:
        out = save(
            idx, args.out, include_query=not args.no_query,
            include_links=args.links,
        )
    except ReproError as exc:
        raise SystemExit(str(exc))
    save_s = time.perf_counter() - t0
    size = out.stat().st_size
    extras = " +links" if args.links else ""
    print(
        f"{args.scene}: n={len(scene.obstacles)} built in {build_s:.3f}s "
        f"({args.engine} engine), snapshot{extras} {out} ({size:,} bytes) "
        f"written in {save_s:.3f}s"
    )
    return 0


def cmd_serve_bench(args: argparse.Namespace) -> int:
    from repro.serve.server import QueryServer, Request
    from repro.serve.store import SceneStore
    from repro.workloads.requests import random_request_stream, scene_endpoints

    store = SceneStore()
    names: list[str] = []
    for i, scene in enumerate(args.scenes):
        # stable names (the file stem) so a recorded workload replays
        # against the same scene set regardless of argument order
        name = pathlib.Path(scene).stem
        if name in store:
            name = f"{name}#{i}"
        names.append(name)
        if _looks_like_snapshot(scene):
            store.add_snapshot(name, scene)
        else:
            parsed = load_scene_cli(scene)
            store.add_scene(
                name,
                parsed.obstacles,
                engine=args.engine,
                container=parsed.container,
                extra_points=parsed.extra_points,
            )
    t0 = time.perf_counter()
    try:
        # materialization happens here: snapshot loads and engine builds
        # alike must exit with one line, not a traceback
        endpoints = {n: scene_endpoints(store.get(n), seed=args.seed) for n in names}
    except (ReproError, OSError) as exc:
        raise SystemExit(str(exc))
    warm_s = time.perf_counter() - t0
    if args.workload:
        with open(args.workload) as fh:
            reqs = [
                Request(r["scene"], tuple(r["p"]), tuple(r["q"]), r.get("op", "length"))
                for r in json.load(fh)["requests"]
            ]
    else:
        reqs = random_request_stream(
            endpoints, args.requests, seed=args.seed, mix=(args.arbitrary, args.paths)
        )
    if args.record:
        payload = {
            "requests": [
                {"scene": r.scene, "op": r.op, "p": list(r.p), "q": list(r.q)}
                for r in reqs
            ]
        }
        pathlib.Path(args.record).write_text(json.dumps(payload))
        print(f"recorded {len(reqs)} requests to {args.record}")
    server = QueryServer(store)
    from repro.errors import QueryError
    from repro.obs.recorders import LatencyRecorder, format_latency

    per_lat = LatencyRecorder()
    batch_lat = LatencyRecorder()
    try:
        # untimed warm pass: lazy §6.4/§8 structures are built here so
        # neither timed phase pays one-time construction costs
        server.submit(reqs)
        t0 = time.perf_counter()
        for r in reqs:
            t1 = time.perf_counter()
            server.submit([r])
            per_lat.record(time.perf_counter() - t1)
        per_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        for k in range(0, len(reqs), args.batch):
            t1 = time.perf_counter()
            server.submit(reqs[k : k + args.batch])
            batch_lat.record(time.perf_counter() - t1)
        co_s = time.perf_counter() - t0
    except QueryError as exc:  # e.g. a workload naming an unknown scene
        raise SystemExit(str(exc))
    n = len(reqs)
    print(
        f"{len(names)} scene(s), {n} requests (warm-up {warm_s:.3f}s); "
        f"batch size {args.batch}"
    )
    print(f"per-request: {per_s:.3f}s  ({n / per_s:,.0f} req/s)  "
          f"[{format_latency(per_lat.summary())}]")
    print(f"coalesced:   {co_s:.3f}s  ({n / co_s:,.0f} req/s)  "
          f"speedup {per_s / co_s:.1f}x  "
          f"[per-batch {format_latency(batch_lat.summary())}]")
    stats = server.stats()
    print(f"batch-size histogram: {stats['batch_size_hist']}")
    print(f"store: {store.stats()}")
    print(f"server: {stats}")
    return 0


def _cluster_scene_specs(paths: Sequence[str]) -> dict:
    """Scene files → ``ClusterFrontend`` source specs, named by stem."""
    specs: dict[str, dict] = {}
    for i, scene in enumerate(paths):
        name = pathlib.Path(scene).stem
        if name in specs:
            name = f"{name}#{i}"
        if _looks_like_snapshot(scene):
            specs[name] = {"snapshot": scene}
        else:
            parsed = load_scene_cli(scene)
            specs[name] = {
                "obstacles": list(parsed.obstacles),
                "container": parsed.container,
                "extra_points": list(parsed.extra_points),
            }
    return specs


def _parse_pins(pin_args: Sequence[str]) -> dict:
    pins: dict[str, int] = {}
    for text in pin_args or ():
        try:
            scene, _, wid = text.partition("=")
            pins[scene] = int(wid)
        except ValueError:
            raise SystemExit(f"bad --pin {text!r}: expected SCENE=WORKER_ID")
    return pins


def cmd_cluster(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.cluster.faults import FaultPlan
    from repro.cluster.frontend import ClusterFrontend
    from repro.cluster.supervisor import RestartPolicy
    from repro.errors import ClusterError

    specs = _cluster_scene_specs(args.scenes)
    try:
        faults = FaultPlan.from_file(args.faults) if args.faults else None
        frontend = ClusterFrontend(
            specs,
            workers=args.workers,
            host=args.host,
            port=args.port,
            max_batch=args.max_batch,
            batch_window_ms=args.window_ms,
            queue_depth=args.queue_depth,
            pins=_parse_pins(args.pin),
            start_method=args.start_method,
            engine=args.engine,
            supervise=not args.no_supervise,
            restart_policy=RestartPolicy(
                max_restarts=args.max_restarts, window_s=args.restart_window_s
            ),
            faults=faults,
            metrics_port=args.metrics_port,
        )
    except (ClusterError, ValueError) as exc:  # e.g. a pin out of range
        raise SystemExit(str(exc))

    async def run() -> None:
        loop = asyncio.get_running_loop()
        # SIGINT stops immediately; SIGTERM drains first (stops admitting,
        # finishes queued + in-flight work, then exits) — the shutdown a
        # process manager should send
        try:
            loop.add_signal_handler(signal.SIGINT, frontend.request_stop)
            loop.add_signal_handler(signal.SIGTERM, frontend.request_drain)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
        await frontend.start()
        shard_note = ", ".join(
            f"{name}->w{wid}" for name, wid in sorted(frontend.assignment.items())
        )
        print(
            f"cluster listening on {frontend.host}:{frontend.port} "
            f"({args.workers} workers; "
            f"{shard_note})",
            flush=True,
        )
        if frontend.metrics_port is not None:
            print(
                f"metrics: http://{frontend.host}:{frontend.metrics_port}/metrics",
                flush=True,
            )
        if args.ready_file:
            pathlib.Path(args.ready_file).write_text(
                f"{frontend.host} {frontend.port}\n"
            )
        if args.duration:
            loop.call_later(args.duration, frontend.request_stop)
        try:
            await frontend.serve_forever()
        finally:
            await frontend.stop()
            fstats = frontend.stats()["frontend"]
            print(
                f"cluster stopped: {fstats['requests']} requests, "
                f"{fstats['sheds']} shed",
                flush=True,
            )

    try:
        asyncio.run(run())
    except ReproError as exc:  # cluster failures and scene-build failures
        raise SystemExit(str(exc))
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from repro.cluster import loadgen
    from repro.errors import ClusterError
    from repro.obs.recorders import format_latency

    mode = "open" if args.open else "closed"
    try:
        verb_mix = loadgen.parse_mix(args.mix) if args.mix else None
        report = asyncio.run(
            loadgen.run(
                args.host,
                args.port,
                mode=mode,
                n_requests=args.requests,
                rps=args.rps,
                conns=args.conns,
                seed=args.seed,
                mix=(args.bulk, args.arbitrary, args.paths),
                verb_mix=verb_mix,
                pairs_per_request=args.pairs,
                retries=args.retries,
                retry_budget=args.retry_budget,
                deadline_ms=args.deadline_ms,
                timeout_s=args.timeout_s,
                trace_sample=args.trace_sample,
                mutate_every=args.mutate_every,
                check_updates=args.check and args.mutate_every > 0,
            )
        )
    except (ClusterError, OSError) as exc:
        raise SystemExit(f"loadgen: {exc}")
    summary = report.summary()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(
            f"{mode} loop: {summary['sent']} sent, {summary['ok']} ok, "
            f"{summary['errors']} errors, {summary['shed']} shed, "
            f"{summary['retries']} retries, "
            f"{summary['deadline_expired']} deadline-expired "
            f"in {summary['elapsed_s']:.3f}s ({summary['qps']:,.0f} req/s)"
        )
        print(f"latency: {format_latency(summary['latency'])}")
        for verb, vb in (summary.get("verbs") or {}).items():
            print(
                f"  {verb}: {vb['sent']} sent, {vb['ok']} ok, "
                f"{vb['errors']} errors, {vb['shed']} shed; "
                f"{format_latency(vb['latency'])}"
            )
        split = report.split_line()
        if split:
            print(split)
        if summary.get("mutations") or summary.get("mutation_errors"):
            print(
                f"mutations: {summary.get('mutations', 0)} rollovers "
                f"(last generation {summary.get('last_generation', 0)}), "
                f"{summary.get('mutation_errors', 0)} errors, "
                f"{summary.get('stale_answers', 0)} stale answers"
            )
        if summary.get("first_error"):
            print(f"first error: {summary['first_error']}")
        if summary.get("first_stale"):
            print(f"first stale answer: {summary['first_stale']}")
    if args.check and (
        summary["errors"]
        or summary["shed"]
        or summary.get("mutation_errors")
        or summary.get("stale_answers")
    ):
        print(
            f"loadgen --check failed: {summary['errors']} errors, "
            f"{summary['shed']} shed, "
            f"{summary.get('mutation_errors', 0)} mutation errors, "
            f"{summary.get('stale_answers', 0)} stale answers"
        )
        return 1
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Dump request spans — from a running cluster front-end (the
    ``trace`` protocol verb) or from a self-contained in-process demo —
    as plain JSON or Chrome trace-event format (``chrome://tracing``)."""
    import asyncio

    from repro.errors import ClusterError
    from repro.obs.tracing import chrome_trace

    async def fetch() -> dict:
        from repro.cluster.loadgen import _rpc

        reader, writer = await asyncio.open_connection(args.host, args.port)
        try:
            msg: dict = {"id": 0, "op": "trace", "limit": args.limit}
            if args.trace_id:
                msg["trace_id"] = args.trace_id
            resp = await _rpc(reader, writer, msg)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
        if not resp.get("ok"):
            raise ClusterError(f"trace verb failed: {resp.get('error')}")
        return resp["result"]

    try:
        if args.demo:
            result = asyncio.run(_trace_demo(args.limit))
        else:
            if args.port is None:
                raise SystemExit(
                    "trace: --port required (or --demo for a self-contained run)"
                )
            result = asyncio.run(fetch())
    except (ClusterError, OSError, ReproError) as exc:
        raise SystemExit(f"trace: {exc}")

    spans = result["spans"]
    if args.chrome:
        doc = chrome_trace(spans)
    else:
        doc = {"spans": spans, "dropped": result.get("dropped", 0)}
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        pathlib.Path(args.out).write_text(text + "\n")
        kind = "chrome trace" if args.chrome else "span dump"
        print(f"wrote {kind} ({len(spans)} spans) to {args.out}")
    else:
        print(text)
    return 0


async def _trace_demo(limit: int) -> dict:
    """A self-contained traced run: build a small scene through the
    pipeline, serve it from an in-process 2-worker cluster, issue a few
    traced requests, and return build spans + request spans together.
    Used by CI as an end-to-end tracing smoke with no background
    process management."""
    import asyncio

    from repro.cluster.frontend import ClusterFrontend
    from repro.cluster.loadgen import _rpc
    from repro.errors import ClusterError
    from repro.pipeline import BUILD_SPANS
    from repro.workloads.generators import random_disjoint_rects

    obstacles = list(random_disjoint_rects(8, seed=7))
    frontend = ClusterFrontend({"demo": {"obstacles": obstacles}}, workers=2)
    await frontend.start()
    try:
        reader, writer = await asyncio.open_connection(frontend.host, frontend.port)
        try:
            ep = await _rpc(
                reader, writer,
                {"id": 0, "op": "endpoints", "scene": "demo", "k": 8, "seed": 1},
            )
            verts = ep["result"]["vertices"]
            for i in range(3):
                p, q = verts[i % len(verts)], verts[-1 - i % len(verts)]
                resp = await _rpc(
                    reader, writer,
                    {
                        "id": i + 1, "op": "length", "scene": "demo",
                        "p": p, "q": q, "trace": True,
                    },
                )
                if not resp.get("ok"):
                    raise ClusterError(f"demo request failed: {resp.get('error')}")
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
        spans = BUILD_SPANS.snapshot() + frontend.span_buffer.snapshot(limit=limit)
        return {"spans": spans, "dropped": frontend.span_buffer.dropped}
    finally:
        await frontend.stop()


def cmd_figures(args: argparse.Namespace) -> int:
    from repro.viz.figures import ALL_FIGURES, figure_text

    which = [args.n] if args.n else list(ALL_FIGURES)
    for k in which:
        print(figure_text(k))
        print()
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Differential fuzz smoke: random mixed scenes, the default engine
    set (parallel, sequential, parallel-mp) plus any ``--engine``."""
    from repro.core.crosscheck import check_scene, shrink_scene
    from repro.workloads.generators import (
        random_container_polygon,
        random_disjoint_rects,
        random_polygon_scene,
    )
    from repro.core.crosscheck import DEFAULT_ENGINES
    from repro.scene import Scene

    engines = list(DEFAULT_ENGINES)
    if getattr(args, "engine", None) and args.engine not in engines:
        engines.append(args.engine)
    if getattr(args, "updates", 0) > 0:
        from repro.core.crosscheck import check_update

        failures = 0
        for i in range(args.scenes):
            seed = args.seed * 10007 + i
            kind = i % 3
            if kind == 0:  # small rect scene
                obstacles = list(random_disjoint_rects(10, seed=seed))
            elif kind == 1:  # bigger rect scene (deeper separator tree)
                obstacles = list(random_disjoint_rects(18, seed=seed))
            else:  # polygons + rects
                obstacles = random_polygon_scene(2, 3, seed=seed)
            problems = check_update(
                obstacles, n_edits=args.updates, seed=seed, engines=engines
            )
            label = ("rects", "rects-xl", "mixed")[kind]
            if not problems:
                print(f"scene {i:3d} [{label:9s}] ok "
                      f"({len(obstacles)} obstacles, {args.updates} edits)")
                continue
            failures += 1
            print(f"scene {i:3d} [{label:9s}] FAILED: {problems[0]}")
            out = pathlib.Path(args.out_dir) / f"updatefuzz_fail_{seed}.json"
            out.parent.mkdir(parents=True, exist_ok=True)
            Scene.from_obstacles(obstacles).save(out)
            print(f"  replay scene (seed {seed}): {out}")
        print(f"{args.scenes} scenes update-fuzzed, {failures} failure(s)")
        return 1 if failures else 0
    if getattr(args, "queries", "all") == "minlink":
        # differential link-query fuzz: the layered-DP link index vs the
        # independent grid-Dijkstra oracle, per engine (min-link counts,
        # full Pareto frontiers, witness validity)
        from repro.core.api import split_obstacles
        from repro.core.crosscheck import check_links

        failures = 0
        for i in range(args.scenes):
            seed = args.seed * 10007 + i
            kind = i % 3
            container = None
            if kind == 0:  # pure rectangles (the paper's model)
                obstacles = list(random_disjoint_rects(8, seed=seed))
            elif kind == 1:  # polygons + rects
                obstacles = random_polygon_scene(2, 3, seed=seed)
            else:  # polygons + rects inside a convex container
                obstacles = random_polygon_scene(1, 2, seed=seed)
                _, _, all_rects, _ = split_obstacles(obstacles)
                container = random_container_polygon(all_rects, seed=seed)
            problems = check_links(
                obstacles, container, seed=seed, engines=engines
            )
            label = ("rects", "mixed", "container")[kind]
            if not problems:
                print(f"scene {i:3d} [{label:9s}] ok ({len(obstacles)} obstacles)")
                continue
            failures += 1
            print(f"scene {i:3d} [{label:9s}] FAILED: {problems[0]}")
            small, small_container = shrink_scene(
                obstacles, container,
                lambda obs, cont: bool(
                    check_links(obs, cont, seed=seed, engines=engines)
                ),
            )
            out = pathlib.Path(args.out_dir) / f"linkfuzz_fail_{seed}.json"
            out.parent.mkdir(parents=True, exist_ok=True)
            Scene.from_obstacles(small, small_container).save(out)
            print(f"  shrunk to {len(small)} obstacles, replay scene: {out}")
        print(f"{args.scenes} scenes link-fuzzed, {failures} failure(s)")
        return 1 if failures else 0
    failures = 0
    for i in range(args.scenes):
        seed = args.seed * 10007 + i
        kind = i % 4
        container: Optional[RectilinearPolygon] = None
        if kind == 0:  # pure rectangles (the paper's model)
            obstacles = list(random_disjoint_rects(8, seed=seed))
        elif kind == 1:  # polygons + rects
            obstacles = random_polygon_scene(2, 3, seed=seed)
        elif kind == 2:  # polygons only
            obstacles = random_polygon_scene(2, 0, seed=seed)
        else:  # polygons + rects inside a convex container
            obstacles = random_polygon_scene(1, 2, seed=seed)
            from repro.core.api import split_obstacles

            _, _, all_rects, _ = split_obstacles(obstacles)
            container = random_container_polygon(all_rects, seed=seed)
        problems = check_scene(obstacles, container, seed=seed, engines=engines)
        label = ("rects", "mixed", "polygons", "container")[kind]
        if not problems:
            print(f"scene {i:3d} [{label:9s}] ok ({len(obstacles)} obstacles)")
            continue
        failures += 1
        print(f"scene {i:3d} [{label:9s}] FAILED: {problems[0]}")
        small, small_container = shrink_scene(
            obstacles, container,
            lambda obs, cont: bool(
                check_scene(obs, cont, seed=seed, engines=engines)
            ),
        )
        out = pathlib.Path(args.out_dir) / f"fuzz_fail_{seed}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        Scene.from_obstacles(small, small_container).save(out)
        print(f"  shrunk to {len(small)} obstacles, replay scene: {out}")
    print(f"{args.scenes} scenes checked, {failures} failure(s)")
    return 1 if failures else 0


def cmd_plan(args: argparse.Namespace) -> int:
    """Run the staged pipeline once (cold cache) and print the stage
    graph with per-stage wall-clock and simulated PRAM timings."""
    from repro.pipeline import StageCache, build_index, format_plan

    scene = load_scene_cli(args.scene)
    # a fresh private cache: `plan` reports what a cold build costs, and
    # must neither read nor pollute the process-default artifact cache
    try:
        idx = build_index(
            scene, engine=args.engine, cache=StageCache(),
            jobs=args.jobs,
        )
    except ReproError as exc:
        raise SystemExit(str(exc))
    prov = idx.provenance
    profile = _build_profile_rows() if args.profile else None
    if args.json:
        doc = {"scene": str(args.scene), **prov}
        if profile is not None:
            doc["profile"] = profile
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(f"{args.scene}: {scene.describe()}  (scene hash {prov['scene_hash'][:12]})")
    print(
        f"pipeline: scene -> decompose -> graph -> solve[{args.engine}] "
        f"-> query-structures"
    )
    print(f"registered engines: {', '.join(engine_names())}")
    print(format_plan(prov))
    t, w = idx.build_stats()
    print(f"simulated PRAM: T={t}, W={w}")
    if profile is not None:
        print(f"{'stage':<18} {'wall_ms':>9} {'pram_T':>8} {'pram_W':>10} cached")
        for row in profile:
            print(
                f"{row['stage']:<18} {row['wall_ms']:>9.3f} "
                f"{row['pram_time']:>8} {row['pram_work']:>10} {row['cached']}"
            )
    return 0


def _build_profile_rows() -> list:
    """Per-stage profile rows for the most recent ``build_index`` call,
    read back from the observability layer (``repro.pipeline.BUILD_SPANS``)
    rather than from the index itself — `plan --profile` doubles as a
    smoke test that build profiling actually flows through ``repro.obs``.

    A ``parallel-mp`` build also leaves one ``build.solve.subtree`` span
    per pool-dispatched leaf/subtree task on the same trace; those are
    folded in as indented sub-rows of the solve stage."""
    from repro.pipeline import BUILD_SPANS, STAGES

    stage_spans = BUILD_SPANS.snapshot(limit=len(STAGES))
    if not stage_spans:
        return []
    # the newest stage span's trace id identifies the build that just
    # ran; its subtree spans (if any) share it
    trace = stage_spans[-1]["trace_id"]
    rows = []
    for sp in BUILD_SPANS.snapshot(limit=512, trace_id=trace):
        attrs = sp.get("attrs", {})
        if sp["name"] == "build.solve.subtree":
            rows.append(
                {
                    "stage": "  solve:{} r{} p{}".format(
                        attrs.get("kind", "task"),
                        attrs.get("n_rects", 0),
                        attrs.get("n_points", 0),
                    ),
                    "wall_ms": (sp["dur"] or 0.0) * 1e3,
                    "pram_time": 0,
                    "pram_work": 0,
                    "cached": False,
                    "trace_id": sp["trace_id"],
                }
            )
        else:
            rows.append(
                {
                    "stage": sp["name"].removeprefix("build."),
                    "wall_ms": (sp["dur"] or 0.0) * 1e3,
                    "pram_time": attrs.get("pram_time", 0),
                    "pram_work": attrs.get("pram_work", 0),
                    "cached": bool(attrs.get("cached")),
                    "trace_id": sp["trace_id"],
                }
            )
    return rows


def cmd_bench_info(args: argparse.Namespace) -> int:
    if _looks_like_snapshot(args.scene):
        from repro.pipeline import format_plan
        from repro.serve.snapshot import read_header

        try:
            header = read_header(args.scene)
        except (SnapshotError, OSError) as exc:
            raise SystemExit(str(exc))
        print(
            f"{args.scene}: engine={header.get('engine')}, "
            f"n_points={header.get('n_points')}, n_rects={header.get('n_rects')}, "
            f"simulated T={header.get('build_time')}, W={header.get('build_work')}"
        )
        prov = header.get("provenance")
        if prov:
            print(format_plan(prov))
        else:
            print("no stage provenance (pre-pipeline snapshot)")
            if args.require_provenance:
                print(
                    f"{args.scene}: provenance required but missing; re-snapshot "
                    f"the scene with this version to record it"
                )
                return 1
        return 0
    from repro.pipeline import format_plan

    if args.require_provenance:
        # a CI gate pointed at the wrong artifact must fail loudly, not
        # pass vacuously: only snapshots store provenance to check
        raise SystemExit(
            f"{args.scene}: --require-provenance applies to .rsp snapshots, "
            f"not JSON scenes"
        )
    scene = load_scene_cli(args.scene)
    pram = PRAM("cli")
    try:
        idx = ShortestPathIndex.build(
            scene.obstacles,
            extra_points=scene.extra_points,
            engine=args.engine,
            pram=pram,
            container=scene.container,
        )
    except ReproError as exc:
        raise SystemExit(str(exc))
    print(
        f"n={len(scene.obstacles)}: simulated time T={pram.time}, "
        f"work W={pram.work} ({args.engine} engine)"
    )
    print(format_plan(idx.provenance))
    print(f"{'p':>8} {'T_p':>12} {'speedup':>9}")
    for p_, tp, s, _ in speedup_table(pram.work, pram.time, [1, 16, 256, 4096]):
        print(f"{p_:>8} {tp:>12} {s:>9.1f}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Parallel rectilinear shortest paths with rectangular "
        "obstacles (Atallah & Chen 1990/91)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # every --engine flag below accepts exactly the registry's engines, so
    # a newly registered engine is a first-class CLI citizen immediately
    engines = engine_names()

    def _add_build_args(sp):
        sp.add_argument("--jobs", type=int, default=None,
                        help="worker processes for --engine parallel-mp "
                        "(default: visible cores, capped at 8; 1 = inline)")

    d = sub.add_parser("demo", help="random scene demo")
    d.add_argument("-n", type=int, default=12)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--polygons", type=int, default=0,
                   help="also place this many random polygonal obstacles")
    d.add_argument("--engine", choices=engines, default="parallel")
    _add_build_args(d)
    d.set_defaults(fn=cmd_demo)

    q = sub.add_parser("query", help="query a scene file or snapshot")
    q.add_argument("scene", help="JSON scene or .rsp snapshot")
    q.add_argument("p")
    q.add_argument("q")
    q.add_argument("--path", action="store_true")
    q.add_argument("--render", action="store_true")
    q.add_argument("--minlink", action="store_true",
                   help="also report the minimum link count (and bends)")
    q.add_argument("--pareto", action="store_true",
                   help="also report the (length, bends) Pareto frontier")
    q.add_argument("--engine", choices=engines, default="sequential")
    _add_build_args(q)
    q.set_defaults(fn=cmd_query)

    s = sub.add_parser("snapshot", help="build a scene once and persist it")
    s.add_argument("scene", help="JSON scene file")
    s.add_argument("out", help="output .rsp artifact")
    s.add_argument("--engine", choices=engines, default="parallel")
    s.add_argument("--no-query", action="store_true",
                   help="skip persisting the arbitrary-point query structure")
    s.add_argument("--links", action="store_true",
                   help="also precompute and embed the all-pairs min-link "
                   "matrix (minlink queries become lookups on load)")
    _add_build_args(s)
    s.set_defaults(fn=cmd_snapshot)

    pl = sub.add_parser(
        "plan", help="print the staged build pipeline with per-stage timings"
    )
    pl.add_argument("scene", help="JSON scene file")
    pl.add_argument("--engine", choices=engines, default="parallel")
    pl.add_argument("--json", action="store_true",
                    help="print the provenance record as JSON")
    pl.add_argument("--profile", action="store_true",
                    help="also print per-stage profile rows (wall vs "
                    "simulated PRAM) read back from the obs span buffer, "
                    "plus per-subtree dispatch spans for parallel-mp")
    _add_build_args(pl)
    pl.set_defaults(fn=cmd_plan)

    sb = sub.add_parser("serve-bench", help="replay a workload through the server")
    sb.add_argument("scenes", nargs="+", help="JSON scenes and/or .rsp snapshots")
    sb.add_argument("--requests", type=int, default=2000)
    sb.add_argument("--batch", type=int, default=256)
    sb.add_argument("--seed", type=int, default=0)
    sb.add_argument("--arbitrary", type=float, default=0.2,
                    help="fraction of arbitrary-point length requests")
    sb.add_argument("--paths", type=float, default=0.02,
                    help="fraction of path-report requests")
    sb.add_argument("--engine", choices=engines, default="parallel")
    sb.add_argument("--record", help="write the generated workload to this JSON file")
    sb.add_argument("--workload", help="replay a recorded workload JSON file")
    sb.set_defaults(fn=cmd_serve_bench)

    cl = sub.add_parser(
        "cluster",
        help="serve scenes from N worker processes sharing mapped snapshots over TCP",
    )
    cl.add_argument("scenes", nargs="+", help="JSON scenes and/or .rsp snapshots")
    cl.add_argument("--workers", type=int, default=2)
    cl.add_argument("--host", default="127.0.0.1")
    cl.add_argument("--port", type=int, default=0,
                    help="TCP port (0 picks a free one; printed on startup)")
    cl.add_argument("--max-batch", type=int, default=64,
                    help="micro-batch size cap per worker dispatch")
    cl.add_argument("--window-ms", type=float, default=2.0,
                    help="micro-batch time window")
    cl.add_argument("--queue-depth", type=int, default=256,
                    help="bounded per-worker queue; overflow is shed")
    cl.add_argument("--pin", action="append", default=[], metavar="SCENE=WID",
                    help="pin a scene to a worker id (overrides HRW hashing)")
    cl.add_argument("--engine", choices=engines, default="parallel")
    cl.add_argument("--start-method", choices=["fork", "spawn", "forkserver"],
                    default=None)
    cl.add_argument("--ready-file",
                    help="write 'host port' here once the server is listening")
    cl.add_argument("--duration", type=float, default=None,
                    help="stop after this many seconds (default: run until signal)")
    cl.add_argument("--no-supervise", action="store_true",
                    help="do not restart crashed workers (scenes still fail "
                    "over to survivors)")
    cl.add_argument("--max-restarts", type=int, default=5,
                    help="crashes tolerated per worker inside the restart "
                    "window before its circuit breaker opens")
    cl.add_argument("--restart-window-s", type=float, default=30.0,
                    help="sliding crash-window length for the circuit breaker")
    cl.add_argument("--faults", metavar="PLAN.json", default=None,
                    help="chaos harness: a FaultPlan JSON file "
                    "(kill_every, delay_every/delay_ms, duplicate_every, "
                    "truncate_every, stall_every/stall_ms)")
    cl.add_argument("--metrics-port", type=int, default=None,
                    help="also serve GET /metrics (OpenMetrics text, merged "
                    "front-end + worker registries) on this port; 0 picks "
                    "a free one (printed on startup)")
    cl.set_defaults(fn=cmd_cluster)

    lg = sub.add_parser("loadgen", help="drive a running cluster front-end")
    lg.add_argument("--host", default="127.0.0.1")
    lg.add_argument("--port", type=int, required=True)
    mode = lg.add_mutually_exclusive_group()
    mode.add_argument("--closed", action="store_true",
                      help="closed loop: conns connections, one in flight each"
                      " (default)")
    mode.add_argument("--open", action="store_true",
                      help="open loop: fire at --rps regardless of completions")
    lg.add_argument("--rps", type=float, default=500.0)
    lg.add_argument("--conns", type=int, default=4)
    lg.add_argument("--requests", type=int, default=500)
    lg.add_argument("--seed", type=int, default=0)
    lg.add_argument("--pairs", type=int, default=16,
                    help="vertex pairs per bulk 'lengths' request")
    lg.add_argument("--bulk", type=float, default=0.5,
                    help="fraction of bulk lengths requests")
    lg.add_argument("--arbitrary", type=float, default=0.2,
                    help="fraction of arbitrary-point requests (§6.4 path)")
    lg.add_argument("--paths", type=float, default=0.02,
                    help="fraction of path-report requests")
    lg.add_argument("--mix", default=None, metavar="VERB:W,...",
                    help="weighted verb mix superseding --bulk/--arbitrary/"
                    "--paths, e.g. length:0.6,minlink:0.3,pareto:0.1 "
                    "(verbs: length, lengths, arbitrary, path, minlink, "
                    "links, pareto); the report carries per-verb stats")
    lg.add_argument("--retries", type=int, default=0,
                    help="closed loop: per-request retries for retryable "
                    "failures (shed, worker death, timeout, deadline expiry)")
    lg.add_argument("--retry-budget", type=int, default=None,
                    help="run-wide cap on total retries "
                    "(default: half the request count)")
    lg.add_argument("--deadline-ms", type=float, default=None,
                    help="stamp every scene request with this latency budget")
    lg.add_argument("--timeout-s", type=float, default=30.0,
                    help="closed loop: per-attempt response timeout")
    lg.add_argument("--trace-sample", type=int, default=0,
                    help="mark this many scene requests with trace: true and "
                    "report a queue-wait vs service-time latency split")
    lg.add_argument("--mutate-every", type=int, default=0, metavar="N",
                    help="closed loop: roll one updatable scene to a new "
                    "generation (delete/re-insert a seeded rectangle via the "
                    "update verb) every N completed requests; with --check, "
                    "post-rollover answers are verified byte-for-byte against "
                    "locally built oracles of both scene versions")
    lg.add_argument("--json", action="store_true", help="print the report as JSON")
    lg.add_argument("--check", action="store_true",
                    help="exit nonzero if any request errored, was shed, or "
                    "(with --mutate-every) any rollover failed or any "
                    "post-rollover answer was stale")
    lg.set_defaults(fn=cmd_loadgen)

    tr = sub.add_parser(
        "trace",
        help="dump request spans from a cluster front-end (or a "
        "self-contained demo) as JSON or Chrome trace format",
    )
    tr.add_argument("--host", default="127.0.0.1")
    tr.add_argument("--port", type=int, default=None,
                    help="cluster front-end port (omit with --demo)")
    tr.add_argument("--limit", type=int, default=512,
                    help="newest spans to fetch from the buffer")
    tr.add_argument("--trace-id", default=None,
                    help="only spans belonging to this trace")
    tr.add_argument("--chrome", action="store_true",
                    help="emit Chrome trace-event JSON (load in "
                    "chrome://tracing or https://ui.perfetto.dev)")
    tr.add_argument("--out", default=None, help="write JSON here instead of stdout")
    tr.add_argument("--demo", action="store_true",
                    help="self-contained: build a scene, run an in-process "
                    "2-worker cluster, trace a few requests, dump the spans")
    tr.set_defaults(fn=cmd_trace)

    fz = sub.add_parser(
        "fuzz", help="cross-check parallel/sequential/baseline on random scenes"
    )
    fz.add_argument("--scenes", type=int, default=25)
    fz.add_argument("--seed", type=int, default=0)
    fz.add_argument("--engine", choices=engines, default=None,
                    help="cross-check this registered engine too (on top "
                    "of parallel, sequential, and parallel-mp)")
    fz.add_argument("--out-dir", default=".",
                    help="directory for shrunk failing-scene JSON dumps")
    fz.add_argument("--updates", type=int, default=0, metavar="N",
                    help="update-fuzz mode: per scene, random-walk N obstacle "
                    "deletes/re-inserts through update_index and require each "
                    "repaired index to be byte-identical to a cold rebuild "
                    "(lengths AND paths), cross-checked against the other "
                    "engines")
    fz.add_argument("--queries", choices=("all", "minlink"), default="all",
                    help="'minlink': fuzz the link-query family instead — "
                    "min-link counts and (length, bends) Pareto frontiers "
                    "must byte-agree with the grid-Dijkstra oracle, with a "
                    "valid witness path per frontier point")
    fz.set_defaults(fn=cmd_fuzz)

    f = sub.add_parser("figures", help="print paper figure(s)")
    f.add_argument("n", nargs="?", type=int)
    f.set_defaults(fn=cmd_figures)

    b = sub.add_parser(
        "bench-info",
        help="simulated PRAM costs for a scene, or a snapshot's stored "
        "stage provenance",
    )
    b.add_argument("scene", help="JSON scene or .rsp snapshot")
    b.add_argument("--engine", choices=engines, default="parallel")
    b.add_argument("--require-provenance", action="store_true",
                   help="exit nonzero if a snapshot lacks stage provenance")
    b.set_defaults(fn=cmd_bench_info)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
