"""The unified metrics registry: counters, gauges, histograms.

Every layer of the system — :class:`~repro.serve.store.SceneStore`,
:class:`~repro.pipeline.StageCache`, the query server, the cluster
front-end, workers, the supervisor — registers its series here under
stable dotted names (``repro.frontend.requests``) with small, *bounded*
label sets (``scene``, ``verb``, ``worker``, ``engine``, ``stage``).
One registry snapshot is therefore the whole system's state, renderable
as OpenMetrics text (:mod:`repro.obs.openmetrics`) or returned over the
cluster protocol's ``metrics`` verb.

Design constraints, in order:

* **Cheap on the hot path.**  ``Counter.inc`` / ``Histogram.observe``
  are a dict lookup (plus a ``bisect`` for a histogram) and a float add
  under one registry lock — no allocation once a series exists.  A
  serving layer may call them per request.
* **Bounded cardinality.**  Metrics systems die by label explosion, so
  a family refuses new label *combinations* past ``max_series`` (64 by
  default) with a one-line :class:`~repro.errors.ObsError` naming the
  family — a caller labeling by request id finds out immediately, not
  after the scrape payload hits a gigabyte.  A serving layer whose label
  values are bounded but may outnumber the cap (scenes × verbs) passes
  ``overflow="other"`` instead: past the cap, new combinations fold
  into one all-``other`` series, and recording never raises mid-request.
* **Thread- and fork-safe.**  One lock per registry serializes writers;
  every live registry re-creates its lock in a forked child
  (``os.register_at_fork``), so a worker forked mid-record never
  deadlocks on a lock the parent held.  Forked children that want a
  clean slate call :meth:`MetricsRegistry.reset` (cluster workers do).
* **Snapshot is data.**  :meth:`MetricsRegistry.snapshot` returns plain
  JSON-able dicts, so worker registries travel over the pipe and merge
  into the front-end's exposition with a ``worker`` label added.
* **One distribution type.**  :class:`Histogram` is also what the
  serving layers' ``stats`` summaries read (:meth:`Histogram.summary`,
  :meth:`Histogram.size_hist`), so ``stats``, the ``metrics`` verb and
  ``GET /metrics`` report the same samples, each recorded once.
"""

from __future__ import annotations

import bisect
import math
import os
import threading
import time
import weakref
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from repro.errors import ObsError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "default_registry",
    "set_default_registry",
]

#: latency histogram bounds, in seconds (sub-ms serving to slow builds)
DEFAULT_LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: power-of-two size buckets (batch sizes, group sizes); their
#: :meth:`Histogram.size_hist` labels are ``1``, ``2``, ``3-4``, ``5-8``, …
DEFAULT_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

#: cap on distinct label combinations per family (see module docstring)
DEFAULT_MAX_SERIES = 64

# every live registry, so a fork can re-arm all their locks in the child
_LIVE_REGISTRIES: "weakref.WeakSet[MetricsRegistry]" = weakref.WeakSet()


def _after_fork_in_child() -> None:  # pragma: no cover - exercised via os.fork test
    for reg in list(_LIVE_REGISTRIES):
        reg._lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


class _Family:
    """One named metric family: a set of series keyed by label values."""

    kind = "untyped"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str,
        labelnames: Tuple[str, ...],
        max_series: int,
        overflow: Optional[str] = None,
    ) -> None:
        self._registry = registry
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self.max_series = max_series
        self.overflow = overflow
        self._series: Dict[Tuple[str, ...], object] = {}

    # -- label handling --------------------------------------------------
    def _key(self, labels: dict) -> Tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ObsError(
                f"metric {self.name!r} takes labels {list(self.labelnames)}, "
                f"got {sorted(labels)}"
            )
        key = tuple(str(labels[n]) for n in self.labelnames)
        if key not in self._series and len(self._series) >= self.max_series:
            if self.overflow is not None:
                return (self.overflow,) * len(self.labelnames)
            raise ObsError(
                f"metric {self.name!r} would exceed {self.max_series} label "
                f"combinations (unbounded label value? got {dict(labels)!r})"
            )
        return key

    def _snapshot_series(self) -> list:
        raise NotImplementedError

    def snapshot(self) -> dict:
        out = {
            "type": self.kind,
            "help": self.help,
            "labels": list(self.labelnames),
            "series": self._snapshot_series(),
        }
        if self.kind == "histogram":
            out["buckets"] = list(self.buckets)  # type: ignore[attr-defined]
        return out


class Counter(_Family):
    """Monotonically increasing float per label combination."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ObsError(f"counter {self.name!r} cannot decrease (inc {amount})")
        with self._registry._lock:
            key = self._key(labels)
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        with self._registry._lock:
            return float(self._series.get(self._key(labels), 0.0))

    def total(self) -> float:
        """Sum over every label combination."""
        with self._registry._lock:
            return float(sum(self._series.values()))

    def _snapshot_series(self) -> list:
        return [
            {"labels": dict(zip(self.labelnames, key)), "value": float(v)}
            for key, v in sorted(self._series.items())
        ]


class Gauge(_Family):
    """A value that can go anywhere (residency bytes, queue depth)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        with self._registry._lock:
            self._series[self._key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        with self._registry._lock:
            key = self._key(labels)
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        with self._registry._lock:
            return float(self._series.get(self._key(labels), 0.0))

    def total(self) -> float:
        with self._registry._lock:
            return float(sum(self._series.values()))

    _snapshot_series = Counter._snapshot_series


class _HistSeries:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * (n_buckets + 1)  # +1: the +Inf overflow bucket
        self.sum = 0.0
        self.count = 0


class Histogram(_Family):
    """Fixed-boundary histogram (cumulative on render, flat in memory)."""

    kind = "histogram"

    def __init__(self, registry, name, help, labelnames, max_series, buckets,
                 overflow=None):
        super().__init__(registry, name, help, labelnames, max_series, overflow)
        bs = tuple(float(b) for b in buckets)
        if not bs or any(b2 <= b1 for b1, b2 in zip(bs, bs[1:])):
            raise ObsError(
                f"histogram {name!r} needs strictly increasing bucket bounds, "
                f"got {buckets!r}"
            )
        self.buckets = bs

    def observe(self, value: float, **labels) -> None:
        value = float(value)
        with self._registry._lock:
            key = self._key(labels)
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistSeries(len(self.buckets))
            # first bound >= value: the `value <= bound` bucket rule
            series.counts[bisect.bisect_left(self.buckets, value)] += 1
            series.sum += value
            series.count += 1

    def _merged(self, labels: dict) -> Tuple[list, float, int]:
        """Bucket counts, sum and count summed over every series whose
        labels include ``labels`` (an empty subset matches them all)."""
        unknown = set(labels) - set(self.labelnames)
        if unknown:
            raise ObsError(
                f"metric {self.name!r} takes labels {list(self.labelnames)}, "
                f"got {sorted(unknown)}"
            )
        want = [(self.labelnames.index(n), str(v)) for n, v in labels.items()]
        counts = [0] * (len(self.buckets) + 1)
        total, n = 0.0, 0
        with self._registry._lock:
            for key, s in self._series.items():
                if all(key[i] == v for i, v in want):
                    counts = [a + b for a, b in zip(counts, s.counts)]
                    total += s.sum
                    n += s.count
        return counts, total, n

    def _quantile(self, counts: list, n: int, q: float) -> float:
        """Prometheus ``histogram_quantile``: linear interpolation inside
        the bucket holding rank ``q·n`` (the first bucket starts at 0;
        the overflow bucket answers with the highest finite bound)."""
        rank = q * n
        seen = 0
        for i, c in enumerate(counts):
            if c and seen + c >= rank:
                if i == len(self.buckets):
                    return self.buckets[-1]
                lo = self.buckets[i - 1] if i else 0.0
                return lo + (self.buckets[i] - lo) * (rank - seen) / c
            seen += c
        return self.buckets[-1]

    def summary(self, **labels) -> dict:
        """``{"count", "mean_ms", "p50_ms", "p95_ms", "p99_ms"}`` over the
        series matching the label subset ``labels`` — seconds in,
        milliseconds out, percentiles interpolated within buckets (so no
        ``max``: a bucketed histogram does not keep one).  ``nan`` stands
        for every figure of an empty selection."""
        counts, total, n = self._merged(labels)
        out = {"count": n, "mean_ms": total / n * 1e3 if n else math.nan}
        for q in (50, 95, 99):
            out[f"p{q}_ms"] = self._quantile(counts, n, q / 100) * 1e3 if n else math.nan
        return out

    def size_hist(self, **labels) -> dict[str, int]:
        """Non-empty buckets of the matching series as size-range labels
        (``"1"``, ``"2"``, ``"3-4"``, ``"5-8"``, … and ``"<last+1>+"`` for
        the overflow bucket), ascending — the batch-size view."""
        counts, _, _ = self._merged(labels)
        out: dict[str, int] = {}
        lo = 1
        for bound, c in zip(self.buckets, counts):
            hi = int(bound)
            if c:
                out[str(hi) if lo == hi else f"{lo}-{hi}"] = c
            lo = hi + 1
        if counts[-1]:
            out[f"{lo}+"] = counts[-1]
        return out

    def _snapshot_series(self) -> list:
        return [
            {
                "labels": dict(zip(self.labelnames, key)),
                "counts": list(s.counts),
                "sum": float(s.sum),
                "count": int(s.count),
            }
            for key, s in sorted(self._series.items())
        ]


class MetricsRegistry:
    """A namespace of metric families; see the module docstring."""

    def __init__(self, max_series: int = DEFAULT_MAX_SERIES) -> None:
        self.max_series = max_series
        self._families: "Dict[str, _Family]" = {}
        self._collectors: list[Callable[[], None]] = []
        self._lock = threading.Lock()
        self.created_at = time.time()
        _LIVE_REGISTRIES.add(self)

    # -- family constructors (idempotent by name) -----------------------
    def _family(self, cls, name: str, help: str, labels: Sequence[str], **kw):
        labelnames = tuple(labels)
        with self._lock:
            fam = self._families.get(name)
            if fam is not None:
                if type(fam) is not cls or fam.labelnames != labelnames:
                    raise ObsError(
                        f"metric {name!r} already registered as {fam.kind} "
                        f"with labels {list(fam.labelnames)}"
                    )
                return fam
            fam = cls(self, name, help, labelnames, self.max_series, **kw)
            self._families[name] = fam
            return fam

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = (),
        overflow: Optional[str] = None,
    ) -> Counter:
        return self._family(Counter, name, help, labels, overflow=overflow)

    def gauge(
        self, name: str, help: str = "", labels: Sequence[str] = (),
        overflow: Optional[str] = None,
    ) -> Gauge:
        return self._family(Gauge, name, help, labels, overflow=overflow)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
        overflow: Optional[str] = None,
    ) -> Histogram:
        return self._family(
            Histogram, name, help, labels, buckets=tuple(buckets), overflow=overflow
        )

    # -- collectors ------------------------------------------------------
    def add_collector(self, fn: Callable[[], None]) -> None:
        """Register a callable run at every :meth:`snapshot` — the hook a
        stats-holding object (store, cache, server) uses to refresh its
        gauges right before exposition instead of on every mutation."""
        with self._lock:
            self._collectors.append(fn)

    # -- introspection ---------------------------------------------------
    def snapshot(self) -> dict:
        """Every family as plain JSON-able data (collectors run first)."""
        with self._lock:
            collectors = list(self._collectors)
        for fn in collectors:
            fn()  # outside the lock: collectors call gauge.set themselves
        with self._lock:
            return {name: fam.snapshot() for name, fam in sorted(self._families.items())}

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._families)

    def reset(self) -> None:
        """Drop every family, series, and collector (forked worker start)."""
        with self._lock:
            self._families.clear()
            self._collectors.clear()


_DEFAULT = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-default registry (library layers without an explicit
    registry — the pipeline, stage cache — record here)."""
    return _DEFAULT


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process default (tests; forked workers reset instead)."""
    global _DEFAULT
    old = _DEFAULT
    _DEFAULT = registry
    return old
