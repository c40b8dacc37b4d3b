"""E8 — Lemmas 3–5: Monge (min,+) multiplication.

Paper claims: two Monge matrices multiply with O(αβ) work (vs naive αβγ)
in O(log γ) time.  Measured: charged work ratio grows linearly with the
inner dimension, and — since the batched array SMAWK kernel
(``smawk_row_minima_array``) replaced the per-row callable recursion —
the SMAWK product also wins on wall clock once square products grow
past m≈128.  ``SEED_SMAWK_MS`` records the pre-vectorization wall times so
the speedup stays visible in the table and in ``BENCH_monge.json``.

Square products flatter SMAWK.  The conquer's real blocks are mostly
narrow: :func:`conquer_blocks` replays every (min,+) block of one seeded
128-rect build and reports each kernel's wall time per
naive-equivalent cell (``α·β·γ``), the unit in which a block's two
kernels can be compared (table ``E8b``, ``conquer_blocks`` in the JSON).
"""

import time

import numpy as np
import pytest

from benchmarks.common import SEED_ASSERT, SMOKE, emit, emit_json, fit_loglog, format_table
from repro.core.allpairs import InlineExecutor, ParallelEngine
from repro.monge.matrix import MongeFlag
from repro.monge.multiply import minplus_monge, minplus_naive
from repro.pram import PRAM
from repro.workloads.generators import random_disjoint_rects

SIZES = [32, 64] if SMOKE else [32, 64, 128, 256]

#: wall-clock ms of the per-row callable-SMAWK product at the seed commit
#: (same sweep, same seeds) — the "before" column of the vectorization PR
SEED_SMAWK_MS = {32: 3.72, 64: 15.87, 128: 54.19, 256: 213.37}


def random_monge(rows, cols, seed):
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.integers(0, 4 * rows, rows))
    ys = np.sort(rng.integers(0, 4 * cols, cols))
    return np.abs(xs[:, None] - ys[None, :]).astype(float)


#: obstacles and seed of the build whose conquer blocks are replayed
CONQUER_N, CONQUER_SEED = 128, 7


class _BlockRecorder(InlineExecutor):
    """Inline executor that keeps a copy of every conquer column block."""

    def __init__(self) -> None:
        self.blocks: list[tuple[np.ndarray, np.ndarray, bool]] = []

    def block_job(self, engine, a, b, certify):
        self.blocks.append((np.array(a), np.array(b), certify))
        return super().block_job(engine, a, b, certify)


def _best_s(fn, reps=3) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def conquer_blocks() -> dict:
    """Replay every conquer block of one seeded build through both
    kernels; emit table E8b and return its figures."""
    rec = _BlockRecorder()
    rects = random_disjoint_rects(CONQUER_N, seed=CONQUER_SEED)
    ParallelEngine(rects, executor=rec).build()
    # per block: (shape, cells, naive s, SMAWK s or None when not Monge)
    timed = []
    for a, b, certify in rec.blocks:
        cells = a.shape[0] * a.shape[1] * b.shape[1]
        naive_s = _best_s(lambda: minplus_naive(a, b, PRAM()))
        smawk_s = None
        if certify and MongeFlag(b).monge():
            smawk_s = _best_s(lambda: minplus_monge(a, b, PRAM(), check=False))
            assert (minplus_monge(a, b, PRAM(), check=False)
                    == minplus_naive(a, b, PRAM())).all()
        timed.append(((a.shape[0], a.shape[1], b.shape[1]), cells, naive_s, smawk_s))
    monge = [t for t in timed if t[3] is not None]
    other = [t for t in timed if t[3] is None]
    assert monge and other

    def ns_per_cell(rows, col):
        return 1e9 * sum(r[col] for r in rows) / sum(r[1] for r in rows)

    kernels = [
        ("naive, non-Monge blocks", other, 2),
        ("naive, Monge blocks", monge, 2),
        ("SMAWK, Monge blocks", monge, 3),
    ]
    summary = [
        {"kernel": name, "blocks": len(rows), "cells": sum(r[1] for r in rows),
         "ms": round(1e3 * sum(r[col] for r in rows), 2),
         "ns_per_cell": round(ns_per_cell(rows, col), 2)}
        for name, rows, col in kernels
    ]
    by_cells = sorted(monge, key=lambda r: r[1])
    examples = [
        ("Monge, median block", by_cells[len(by_cells) // 2]),
        ("Monge, largest block", by_cells[-1]),
        ("non-Monge, largest block", max(other, key=lambda r: r[1])),
    ]
    shape_rows = [
        {"block": label, "shape": "×".join(map(str, r[0])), "cells": r[1],
         "naive_ns_per_cell": round(1e9 * r[2] / r[1], 2),
         "smawk_ns_per_cell": None if r[3] is None else round(1e9 * r[3] / r[1], 2)}
        for label, r in examples
    ]
    widths = sorted(r[0][2] for r in monge)
    text = format_table(
        ["kernel", "blocks", "naive-eq cells", "ms", "ns/cell"],
        [[r["kernel"], r["blocks"], r["cells"], r["ms"], r["ns_per_cell"]] for r in summary],
        title=(
            f"E8b conquer (min,+) blocks of one n={CONQUER_N} build (seed "
            f"{CONQUER_SEED}), best of 3 per block; median Monge width "
            f"{widths[len(widths) // 2]} columns"
        ),
    ) + "\n\n" + format_table(
        ["block", "α×β×γ", "cells", "naive ns/cell", "SMAWK ns/cell"],
        [[r["block"], r["shape"], r["cells"], r["naive_ns_per_cell"],
          r["smawk_ns_per_cell"] if r["smawk_ns_per_cell"] is not None else float("nan")]
         for r in shape_rows],
    )
    emit("E8b_conquer_blocks", text)
    return {
        "n": CONQUER_N, "seed": CONQUER_SEED, "kernels": summary,
        "shapes": shape_rows, "median_monge_width": widths[len(widths) // 2],
    }


def test_e8_monge_multiply(benchmark):
    rows = []
    ns, fast_works = [], []
    json_rows = []
    for m in SIZES:
        a = random_monge(m, m, 1)
        b = random_monge(m, m, 2)
        p_fast, p_slow = PRAM(), PRAM()
        fast = minplus_monge(a, b, p_fast, check=False)
        slow = minplus_naive(a, b, p_slow)
        assert (fast == slow).all()
        t_fast = _best_s(lambda: minplus_monge(a, b, PRAM(), check=False))
        t_slow = _best_s(lambda: minplus_naive(a, b, PRAM()))
        ns.append(m)
        fast_works.append(p_fast.work)
        seed_ms = SEED_SMAWK_MS.get(m)
        speedup = round(seed_ms / (t_fast * 1e3), 1) if seed_ms else None
        rows.append(
            [
                m,
                p_fast.work,
                p_slow.work,
                round(p_slow.work / p_fast.work, 1),
                round(t_fast * 1e3, 2),
                seed_ms if seed_ms is not None else float("nan"),
                round(t_slow * 1e3, 2),
            ]
        )
        json_rows.append(
            {
                "m": m,
                "smawk_work": p_fast.work,
                "naive_work": p_slow.work,
                "smawk_ms": round(t_fast * 1e3, 3),
                "seed_smawk_ms": seed_ms,
                "naive_ms": round(t_slow * 1e3, 3),
                "speedup_vs_seed": speedup,
            }
        )
    w_slope = fit_loglog(ns, fast_works)
    text = format_table(
        ["m", "SMAWK work", "naive work", "work ratio", "SMAWK ms",
         "seed SMAWK ms", "naive(np) ms"],
        rows,
        title=(
            "E8  Lemma 3 Monge (min,+) product, m×m×m, best of 3\n"
            f"measured SMAWK work ~ m^{w_slope:.2f} (paper 2.0; naive 3.0); "
            "work ratio must grow ~m"
        ),
    )
    emit("E8_monge", text)
    emit_json(
        "monge",
        {
            "bench": "E8 Monge (min,+) product",
            "kernel": "smawk_row_minima_array (batched array SMAWK)",
            "work_slope": round(w_slope, 3),
            "rows": json_rows,
            "conquer_blocks": conquer_blocks(),
        },
    )
    if not SMOKE:
        assert w_slope < 2.4
        ratios = [r[3] for r in rows]
        assert ratios[-1] > 3 * ratios[0]
        # same-machine check (portable): the array engine vs the seed's
        # callable engine on the largest sweep point, best of 3 each so a
        # single scheduling stall cannot fail the assertion
        m = SIZES[-1]
        a = random_monge(m, m, 1)
        b = random_monge(m, m, 2)
        t_callable = t_array = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            minplus_monge(a, b, PRAM(), check=False, engine="callable")
            t_callable = min(t_callable, time.perf_counter() - t0)
            t0 = time.perf_counter()
            minplus_monge(a, b, PRAM(), check=False, engine="array")
            t_array = min(t_array, time.perf_counter() - t0)
        assert t_callable >= 3 * t_array, (
            f"array SMAWK must be ≥3× the callable SMAWK at m={m}: "
            f"{t_callable * 1e3:.1f}ms vs {t_array * 1e3:.1f}ms"
        )
        if SEED_ASSERT:
            largest = json_rows[-1]
            assert largest["speedup_vs_seed"] >= 3, (
                f"array SMAWK must be ≥3× the seed callable SMAWK at "
                f"m={largest['m']}: got {largest['speedup_vs_seed']}× "
                "(baselines were recorded on the PR machine — on much "
                "slower hardware set BENCH_SEED_ASSERT=0 to skip this "
                "comparison)"
            )
    a = random_monge(128, 128, 1)
    b = random_monge(128, 128, 2)
    benchmark(lambda: minplus_monge(a, b, PRAM(), check=False))
