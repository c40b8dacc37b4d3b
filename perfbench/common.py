"""Shared helpers: import path, host context, statistics, memory.

The benchmark runs from the root of a source checkout and imports the
library from its ``src`` directory, so it measures the code it was
checked out with and nothing installed elsewhere.
"""

from __future__ import annotations

import ctypes
import os
import pathlib
import platform
import resource
import signal
import statistics
import sys
import time
from typing import Iterable, Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space for one run (snapshots, the traced run's span dump);
#: lives inside the checkout and is listed in the root .gitignore
OUT = pathlib.Path(__file__).resolve().parent / "out"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no library sources)."""


def use_checkout_sources() -> None:
    """Put the checkout's ``src`` first on the import path, or fail."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no library sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def host_context() -> dict:
    model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "visible_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
    }


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default), ``q`` in [0, 100]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def self_peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reset_peak_rss() -> None:
    """Restart this process's peak resident set (``VmHWM``) from its
    current resident set, so the next reading is the peak of what ran in
    between."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def descendants(pid: int) -> list[int]:
    """Every live process whose ancestry reaches ``pid``."""
    parent_of: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the command name may contain spaces; fields resume after ')'
        fields = stat.rsplit(")", 1)[1].split()
        parent_of[int(entry)] = int(fields[1])
    out = []
    for child in parent_of:
        p = parent_of.get(child)
        while p is not None and p != pid and p > 1:
            p = parent_of.get(p)
        if p == pid:
            out.append(child)
    return sorted(out)


#: prctl option that makes orphaned descendants re-parent to the caller
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Become the child subreaper of every process this one starts, so a
    helper whose parent exits first (multiprocessing's resource tracker,
    a cluster's worker) is re-parented here and can be waited for."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # not Linux: nothing to adopt
        pass


def _children(pid: int) -> list[int]:
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                if int(fh.read().rsplit(")", 1)[1].split()[1]) == pid:
                    out.append(int(entry))
        except (OSError, ValueError, IndexError):
            continue
    return out


def stop_children(timeout_s: float = 20.0) -> None:
    """Stop multiprocessing's resource tracker, then wait for every child
    process (adopted orphans included) to end; a child still running
    after ``timeout_s`` gets SIGTERM, and SIGKILL after as long again."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        try:
            stop()  # closes its pipe, so it cleans up and exits; reaps it
        except (OSError, ChildProcessError):
            pass
    me = os.getpid()
    t0 = time.monotonic()
    sent = None
    while True:
        kids = _children(me)
        if not kids:
            return
        for pid in kids:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        waited = time.monotonic() - t0
        sig = signal.SIGKILL if waited > 2 * timeout_s else (
            signal.SIGTERM if waited > timeout_s else None)
        if sig is not None and sig != sent:
            for pid in _children(me):
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
            sent = sig
        time.sleep(0.005)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def e2e_metrics(setups_s, op_seconds, elapsed_s: float, peak_rss: float) -> tuple[dict, dict]:
    """The end-to-end metrics of one run, and the tail figures that go
    into the run's info line (p99 is not steady enough on shared hosts to
    gate on, and has ten samples beyond it only in the serve workload)."""
    lat = latency_summary(op_seconds)
    metrics = {
        "setup_s": metric(median(setups_s), "s"),
        "latency_ms.p50": metric(lat["p50"], "ms"),
        "throughput_ops": metric(len(op_seconds) / elapsed_s, "ops/s"),
        "peak_rss_mb": metric(peak_rss, "MB"),
    }
    return metrics, {"samples": lat["n"], "latency_ms.p99": lat["p99"], "setup_runs_s": list(setups_s)}


def latency_summary(seconds: Sequence[float]) -> dict:
    """p50/p99 in ms and the sample count behind them."""
    ms = [s * 1e3 for s in seconds]
    return {
        "p50": percentile(ms, 50),
        "p99": percentile(ms, 99),
        "n": len(ms),
    }
