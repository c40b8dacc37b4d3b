"""Shared helpers for the experiment benchmarks (E1–E10, F1–F14).

Every benchmark prints and writes a table into ``benchmarks/results/``:
one row per sweep point, with the measured quantity next to the paper's
predicted scaling column, plus a fitted log-log slope.  The README's
"Performance notes" section is the narrative over these tables.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
from typing import Sequence

RESULTS = pathlib.Path(__file__).resolve().parent / "results"
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: CI smoke mode: benchmarks shrink their sweeps and skip the scaling
#: assertions that need a wide size range (set ``BENCH_SMOKE=1``)
SMOKE = os.environ.get("BENCH_SMOKE", "") == "1"

#: set ``BENCH_SEED_ASSERT=1`` to also *assert* on the wall-clock
#: comparisons against the recorded seed-machine baselines.  Off by
#: default: the baselines were measured on one specific machine, so the
#: comparison fails spuriously on slower hardware — the BENCH_*.json
#: artifacts always record the before/after numbers, and bench_monge's
#: same-machine array-vs-callable assertion guards the speedup portably.
SEED_ASSERT = os.environ.get("BENCH_SEED_ASSERT", "0") == "1"


def fit_loglog(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    pts = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len(pts) < 2:
        return float("nan")
    n = len(pts)
    sx = sum(p[0] for p in pts)
    sy = sum(p[1] for p in pts)
    sxx = sum(p[0] * p[0] for p in pts)
    sxy = sum(p[0] * p[1] for p in pts)
    denom = n * sxx - sx * sx
    return (n * sxy - sx * sy) / denom if denom else float("nan")


def format_table(headers: Sequence[str], rows: Sequence[Sequence], title: str = "") -> str:
    cols = len(headers)
    srows = [[_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in srows)) if srows else len(headers[c])
        for c in range(cols)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in srows:
        lines.append("  ".join(v.rjust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)


def _fmt(v) -> str:
    if isinstance(v, float):
        if v != v:  # nan
            return "nan"
        if abs(v) >= 1000:
            return f"{v:,.0f}"
        return f"{v:.3g}" if abs(v) < 10 else f"{v:.1f}"
    if isinstance(v, int) and abs(v) >= 10000:
        return f"{v:,}"
    return str(v)


def emit(name: str, text: str) -> str:
    """Print the table and persist it under benchmarks/results/."""
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)
    return text


def host_context() -> dict:
    """The machine every wall-clock number in a BENCH_*.json was taken
    on: logical and *physical* core counts, the CPU model string, and
    whether this was a smoke run.  A scaling curve without its core
    count is unreproducible — two hosts disagreeing on a ratio is
    expected, two hosts disagreeing on the same core count is a bug.
    """
    logical = os.cpu_count() or 1
    try:
        visible = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        visible = logical
    physical, model = None, None
    try:
        cores = set()
        for block in pathlib.Path("/proc/cpuinfo").read_text().split("\n\n"):
            fields = dict(
                line.split(":", 1) for line in block.splitlines() if ":" in line
            )
            fields = {k.strip(): v.strip() for k, v in fields.items()}
            if "processor" not in fields:
                continue
            if model is None:
                model = fields.get("model name")
            cores.add((fields.get("physical id", "0"), fields.get("core id", "0")))
        physical = len(cores) or None
    except OSError:
        pass
    return {
        "cpu_model": model,
        "logical_cpus": logical,
        "visible_cpus": visible,
        "physical_cores": physical if physical is not None else logical,
        "smoke": SMOKE,
    }


def emit_json(name: str, payload: dict) -> pathlib.Path:
    """Persist a machine-readable ``BENCH_<name>.json`` at the repo root.

    The payload carries the sweep rows (point, wall time, fitted slope,
    …) plus any recorded before/after baselines, so speedups are diffable
    by tooling and CI without parsing the pretty tables.  Every artifact
    gets a ``host`` header (:func:`host_context`) identifying the machine
    the wall-clock numbers came from.  Smoke runs write
    ``BENCH_<name>_smoke.json`` instead, so a truncated CI sweep never
    overwrites the recorded full-sweep artifacts.
    """
    suffix = "_smoke" if SMOKE else ""
    path = REPO_ROOT / f"BENCH_{name}{suffix}.json"
    payload = dict(payload, smoke=SMOKE, host=host_context())
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def log2(n: float) -> float:
    return math.log2(max(2.0, n))
