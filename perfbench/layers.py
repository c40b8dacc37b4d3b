"""The per-layer metric catalogue and the code that fills it.

Every traced run reports every metric below.  A layer the workload does
not reach reads 0: that is the measurement (the workload bypasses it).
Times are per timed op unless the name says otherwise; counts are totals
over the traced pass, whose work is fixed by the seed and ``--seconds``,
so they repeat exactly between runs of the same code.
"""

from __future__ import annotations

import json

from common import ROOT, median, percentile

#: name -> unit, in report order: BENCHMARK.json's per-layer list
with open(ROOT / "BENCHMARK.json") as _fh:
    CATALOGUE = {m["name"]: m["unit"] for m in json.load(_fh)["per_layer"]}

#: clock slack when a span is compared with another span or with the
#: stage time the program measured (both read the same host clock)
SLACK_S = 1e-6

#: solve layers whose self time is attributed (span names, metric stems)
_SOLVE_LAYERS = (
    "solve.leaf",
    "solve.separator",
    "solve.minplus_naive",
    "solve.minplus_monge",
    "solve.smawk",
    "solve.rayshoot",
    "solve.staircase_crossings",
    "solve.projection_table",
)


def solve_layers(tracer, provenances: list[dict]) -> dict:
    """Stage times from provenance, solve phases from the tracer's spans.

    ``solve.unattributed_ms`` is the solve stage minus the listed layers'
    self time; ``solve.span_cover_frac`` is the engine span over the
    stage time the program itself measured.  :func:`solve_check` holds
    both to their bounds (>= 0; in (0, 1]) op by op."""
    n = max(1, len(provenances))
    stage_ms: dict[str, float] = {}
    sim_time = sim_work = 0
    for prov in provenances:
        for st in prov["stages"]:
            stage_ms[st["name"]] = stage_ms.get(st["name"], 0.0) + st["wall_s"] * 1e3
            sim_time += st["pram_time"]
            sim_work += st["pram_work"]
    out = {
        "pipeline.decompose_ms": stage_ms.get("decompose", 0.0) / n,
        "pipeline.graph_ms": stage_ms.get("graph", 0.0) / n,
        "pipeline.solve_ms": stage_ms.get("solve", 0.0) / n,
        "pipeline.query_structures_ms": stage_ms.get("query-structures", 0.0) / n,
        "pram.sim_time": sim_time,
        "pram.sim_work": sim_work,
    }
    summ = tracer.summary()
    listed = 0.0
    for stem in _SOLVE_LAYERS:
        row = summ.get(stem, {"calls": 0, "self_s": 0.0, "cells": 0})
        out[f"{stem}.self_ms"] = row["self_s"] * 1e3 / n
        if f"{stem}.calls" in CATALOGUE:
            out[f"{stem}.calls"] = row["calls"]
        if f"{stem}.cells" in CATALOGUE:
            out[f"{stem}.cells"] = row["cells"]
        listed += row["self_s"] * 1e3 / n
    out["solve.unattributed_ms"] = out["pipeline.solve_ms"] - listed
    naive = out["solve.minplus_naive.calls"]
    monge = out["solve.minplus_monge.calls"]
    out["solve.monge_share"] = monge / (naive + monge) if naive + monge else 0.0
    engine = summ.get("solve.engine", {"total_s": 0.0})["total_s"] * 1e3 / n
    out["solve.span_cover_frac"] = engine / out["pipeline.solve_ms"] if out["pipeline.solve_ms"] else 0.0
    return out


def solve_check(tracer, provenances: list[dict]) -> list[str]:
    """How the solve spans break their nesting, one line per failure.

    Every layer span must sit inside a ``solve.engine`` span, one engine
    span per solve stage the program ran (uncached); each engine span
    must fit inside the stage time the program measured for its op, so
    each op's unattributed time (stage minus listed self time) is >= 0;
    and no span may be outlasted by its children (self time >= 0)."""
    spans = tracer.spans
    own = tracer.self_seconds()
    bad = [
        f"span {spans[i][0]} #{i}: children outlast it by {-own[i] * 1e3:.3f} ms"
        for i in range(len(spans)) if own[i] < -SLACK_S
    ]
    roots = [i for i, rec in enumerate(spans) if rec[3] < 0]
    bad += [f"span {spans[i][0]} #{i} outside the solve engine"
            for i in roots if spans[i][0] != "solve.engine"]
    walls = [st["wall_s"] for prov in provenances for st in prov["stages"]
             if st["name"] == "solve" and not st["cached"]]
    if len(walls) != len(roots):
        return bad + [f"{len(roots)} root spans for {len(walls)} solve stages"]
    for k, (root, wall) in enumerate(zip(roots, walls)):
        end = roots[k + 1] if k + 1 < len(roots) else len(spans)
        engine = spans[root][2] - spans[root][1]
        listed = sum(own[root + 1:end])
        if not 0 < engine <= wall + SLACK_S:
            bad.append(f"op {k}: engine span {engine * 1e3:.3f} ms vs solve stage {wall * 1e3:.3f} ms")
        if wall - listed < -SLACK_S:
            bad.append(f"op {k}: layer self time {listed * 1e3:.3f} ms exceeds solve stage {wall * 1e3:.3f} ms")
    return bad


def _series(snapshot: dict, family: str) -> dict:
    """``{label value tuple: value}`` of one counter family."""
    fam = snapshot.get(family) or {}
    return {
        tuple(s["labels"].values()): s["value"] for s in fam.get("series", [])
    }


def _delta(before: dict, after: dict, family: str) -> dict:
    b = _series(before, family)
    return {k: v - b.get(k, 0.0) for k, v in _series(after, family).items()}


def pool_layers(before: dict, after: dict, provs: list[dict], wall_s: float, jobs: int) -> dict:
    secs = _delta(before, after, "repro.build.pool.task_seconds")
    nbytes = _delta(before, after, "repro.build.pool.result_bytes")
    task_s = sum(secs.values())
    out = {
        "pool.tasks.leaf": sum(p.get("leaf_tasks", 0) for p in provs),
        "pool.tasks.subtree": sum(p.get("subtree_tasks", 0) for p in provs),
        "pool.tasks.conquer": sum(p.get("conquer_tasks", 0) for p in provs),
        "pool.task_s": task_s,
        "pool.result_mb.shm": nbytes.get(("shm",), 0.0) / 1e6,
        "pool.result_mb.pipe": nbytes.get(("pipe",), 0.0) / 1e6,
        "pool.busy_frac": task_s / (jobs * wall_s) if wall_s else 0.0,
    }
    return out


def repair_layers(provenances: list[dict], cache_stats: dict) -> dict:
    fracs = [p["repair"]["reused_fraction"] for p in provenances]
    subs = [p.get("subtree") or {} for p in provenances]
    return {
        "repair.reused_frac.p10": percentile(fracs, 10) if fracs else 0.0,
        "repair.reused_frac.p50": median(fracs) if fracs else 0.0,
        "repair.subtree_hits": sum(s.get("hits", 0) for s in subs),
        "repair.subtree_patches": sum(s.get("patches", 0) for s in subs),
        "repair.subtree_misses": sum(s.get("misses", 0) for s in subs),
        "repair.delta_conquers": sum(s.get("delta_conquers", 0) for s in subs),
        "cache.entries": cache_stats["entries"],
        "cache.mb": cache_stats["bytes"] / 1e6,
    }


def complete(values: dict) -> dict:
    """Every catalogue metric as ``{"value", "unit"}``; unreached layers 0."""
    unknown = set(values) - set(CATALOGUE)
    if unknown:
        raise KeyError(f"metrics outside the catalogue: {sorted(unknown)}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in CATALOGUE.items()
    }
