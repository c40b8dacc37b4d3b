"""E3 — §6.3: the V_R-to-V_R structure.

Paper claims: O(log² n) time with O(n²) processors (work O(n² log² n)).
Our conquer substitutes the flow pipeline (DESIGN.md §2): time matches the
paper's Θ(log² n); the measured work exponent carries an extra ~n^0.6 from
the vectorised fallback product on scattered blocks — reported honestly
below next to the paper column.

Wall-clock is tracked against ``SEED_WALL_S`` (the pre-vectorization
build times): the batched array-SMAWK conquer plus the corner-graph /
batched-Dijkstra leaf brute-force must keep the build ≥3× the seed at the
largest sweep point, and ``BENCH_allpairs_build.json`` records the
before/after pairs.
"""

import os
import time

import pytest

from benchmarks.common import (
    SEED_ASSERT,
    SMOKE,
    emit,
    emit_json,
    fit_loglog,
    format_table,
    host_context,
    log2,
)
from repro.core.allpairs import ParallelEngine
from repro.pram import PRAM
from repro.workloads.generators import random_disjoint_rects

SIZES = [16, 32] if SMOKE else [16, 32, 64, 128, 192]

#: the measured (not simulated) multicore curve: wall clock of the same
#: build dispatched across a real worker pool.  1 worker is the honest
#: inline baseline (no pool at all)
POOL_WORKERS = (1, 2) if SMOKE else (1, 2, 4)
POOL_N = 32 if SMOKE else 128

#: wall-clock seconds of ``ParallelEngine(...).build()`` at the seed
#: commit (same sweep, same seeds) — the "before" column of this PR
SEED_WALL_S = {16: 0.046, 32: 0.18, 64: 0.714, 128: 3.153, 192: 7.502}


def test_e3_allpairs_build(benchmark):
    rows, ns, times, works = [], [], [], []
    json_rows = []
    for n in SIZES:
        rects = random_disjoint_rects(n, seed=1)
        pram = PRAM()
        engine = ParallelEngine(rects, [], pram, leaf_size=6)
        t0 = time.perf_counter()
        engine.build()
        wall = time.perf_counter() - t0
        ns.append(n)
        times.append(pram.time)
        works.append(pram.work)
        s = engine.stats
        seed_s = SEED_WALL_S.get(n)
        speedup = round(seed_s / wall, 1) if seed_s else None
        rows.append(
            [
                n,
                pram.time,
                round(pram.time / log2(n) ** 2, 1),
                pram.work,
                round(pram.work / (n**2 * log2(n) ** 2), 1),
                pram.work // max(1, pram.time),
                s.nodes,
                s.max_interface,
                round(wall, 3),
                seed_s if seed_s is not None else float("nan"),
            ]
        )
        json_rows.append(
            {
                "n": n,
                "sim_time": pram.time,
                "sim_work": pram.work,
                "nodes": s.nodes,
                "max_interface": s.max_interface,
                "wall_s": round(wall, 4),
                "seed_wall_s": seed_s,
                "speedup_vs_seed": speedup,
            }
        )
    t_slope = fit_loglog(ns, times)
    w_slope = fit_loglog(ns, works)
    text = format_table(
        ["n", "simT", "simT/log²n", "work", "work/(n²log²n)", "procs=W/T",
         "nodes", "max|S_v|", "wall s", "seed wall s"],
        rows,
        title=(
            "E3  §6.3 V_R-to-V_R build — paper: T=O(log²n), W=O(n²log²n)\n"
            f"measured: T ~ n^{t_slope:.2f}, W ~ n^{w_slope:.2f} "
            "(substituted conquer; see DESIGN.md §2)"
        ),
    )
    emit("E3_allpairs_build", text)
    pool_scaling = _measure_pool_scaling()
    emit_json(
        "allpairs_build",
        {
            "bench": "E3 V_R-to-V_R parallel build",
            "kernels": [
                "smawk_row_minima_array conquer",
                "corner-graph + batched CSR Dijkstra leaves",
            ],
            "sim_time_slope": round(t_slope, 3),
            "sim_work_slope": round(w_slope, 3),
            "rows": json_rows,
            "pool_scaling": pool_scaling,
        },
    )
    if not SMOKE:
        assert t_slope < 0.7  # time really is polylog
        assert w_slope < 3.0  # and work strictly subcubic
        if SEED_ASSERT:
            largest = json_rows[-1]
            assert largest["speedup_vs_seed"] >= 3, (
                f"vectorized build must be ≥3× the seed at n={largest['n']}: "
                f"got {largest['speedup_vs_seed']}× (baselines were recorded "
                "on the PR machine — on much slower hardware set "
                "BENCH_SEED_ASSERT=0 to skip this comparison)"
            )
    rects = random_disjoint_rects(48, seed=1)
    benchmark(lambda: ParallelEngine(rects, [], PRAM(), leaf_size=6).build())


def _measure_pool_scaling() -> dict:
    """Wall-clock the n=POOL_N build across real worker pools of 1/2/4
    processes (byte-identity re-checked on the way) — the measured
    companion to the simulated PRAM table above.  The ≥2× target at 4
    workers only means something on a machine that *has* 4 cores, so the
    assertion is gated on the host, never the recording."""
    from repro.core.pool import PoolExecutor, get_pool, shutdown_pool

    def executor(jobs):
        # 1 worker is the inline executor: no pool at all
        return PoolExecutor(get_pool(jobs), jobs) if jobs > 1 else None

    rects = random_disjoint_rects(POOL_N, seed=1)
    walls, rows = {}, []
    baseline_bytes = None
    for jobs in POOL_WORKERS:
        if jobs > 1:
            # absorb fork/compile cost before timing: one throwaway build
            ParallelEngine(
                random_disjoint_rects(12, seed=2), [], PRAM(),
                leaf_size=6, executor=executor(jobs),
            ).build()
        ex = executor(jobs)
        t0 = time.perf_counter()
        index = ParallelEngine(
            rects, [], PRAM(), leaf_size=6, executor=ex
        ).build()
        wall = time.perf_counter() - t0
        walls[jobs] = wall
        if baseline_bytes is None:
            baseline_bytes = index.matrix.tobytes()
        else:
            assert index.matrix.tobytes() == baseline_bytes, (
                f"{jobs}-worker build diverged from the 1-worker bytes"
            )
        rows.append(
            {
                "workers": jobs,
                "wall_s": round(wall, 4),
                "speedup_vs_1w": round(walls[POOL_WORKERS[0]] / wall, 2),
                "pool_tasks": ex.stats["tasks"] if ex is not None else 0,
            }
        )
    shutdown_pool()
    emit(
        "E3_pool_scaling",
        format_table(
            ["workers", "wall s", "speedup", "pool tasks"],
            [[r["workers"], r["wall_s"], r["speedup_vs_1w"], r["pool_tasks"]]
             for r in rows],
            title=(
                f"E3b  measured multicore build (parallel-mp, n={POOL_N}, "
                f"{host_context()['physical_cores']} physical cores)"
            ),
        ),
    )
    out = {"n": POOL_N, "rows": rows, "target_speedup_at_4w": 2.0}
    if not SMOKE and (os.cpu_count() or 1) >= 4 and POOL_N >= 128:
        speedup = rows[-1]["speedup_vs_1w"]
        assert rows[-1]["workers"] >= 4
        assert speedup >= 2.0, (
            f"multicore build only {speedup:.2f}x at 4 workers on a "
            f"{os.cpu_count()}-core host (need >= 2x at n={POOL_N})"
        )
    return out
