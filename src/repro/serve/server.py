"""The batching query front-end over a :class:`SceneStore`.

``QueryServer`` is the request-facing layer: callers hand it a mixed
stream of requests (lengths, path reports, min-link counts and Pareto
frontiers, possibly spanning several scenes) and it answers them in
request order while *coalescing* same-scene same-verb requests into one
vectorized call — :meth:`ShortestPathIndex.lengths`,
:meth:`ShortestPathIndex.link_counts` or
:meth:`ShortestPathIndex.paretos` — so a group pays one containment
check and one gather (or one shared link-DP run per distinct source)
instead of a Python round-trip per request.  That amortization is the
serving-side twin of the paper's build-side batching, and
``BENCH_serve.json`` / ``BENCH_links.json`` record the resulting
throughput multiples.

Every answered request also lands in the ``repro.query.*`` metric
families (per-verb counters, the ``repro.query.batch_size`` and
``repro.query.group_size`` histograms and answer-shape histograms, see
``metrics.md``) of the registry the server is given — the process
default unless the caller passes one, as a cluster worker passes its
own — so the in-process server, the cluster workers, and
``GET /metrics`` all expose one truth.  ``stats()`` is a view of those
families and keeps no count of its own.

The API is an in-process, thread-safe one: ``submit`` may be called from
many threads at once (the store's per-scene locks serialize
materialization; the index's query paths are read-only after that).
Each group reads the index ``SceneStore.get`` returned, so a rollover
that lands mid-batch never changes the generation a group is reading.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.errors import QueryError
from repro.geometry.primitives import Point
from repro.obs.registry import DEFAULT_SIZE_BUCKETS, MetricsRegistry, default_registry
from repro.serve.store import SceneStore

#: request kinds understood by :meth:`QueryServer.submit`
OP_LENGTH = "length"
OP_PATH = "path"
OP_MINLINK = "minlink"
OP_PARETO = "pareto"

#: every request op
_OPS = (OP_LENGTH, OP_MINLINK, OP_PARETO, OP_PATH)


@dataclass(frozen=True)
class Request:
    """One query: ``op`` is ``"length"`` (default), ``"path"``,
    ``"minlink"`` (minimum maximal-segment count) or ``"pareto"`` (the
    (length, bends) frontier as ``[(length, bends), ...]``)."""

    scene: str
    p: Point
    q: Point
    op: str = OP_LENGTH

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise QueryError(f"unknown request op {self.op!r}")


RequestLike = Union[Request, tuple]


def _coerce(req: RequestLike) -> Request:
    if isinstance(req, Request):
        return req
    if isinstance(req, tuple) and len(req) in (3, 4):
        return Request(*req)
    raise QueryError(
        f"cannot interpret {req!r} as a request "
        "(want Request or (scene, p, q[, op]))"
    )


class QueryServer:
    """Order-preserving batch answering with same-scene coalescing.

    >>> server = QueryServer(store)                      # doctest: +SKIP
    >>> server.submit([("a", p, q), ("b", r, s)])        # doctest: +SKIP
    [7.0, 12.0]
    """

    def __init__(
        self, store: SceneStore, registry: Optional[MetricsRegistry] = None
    ) -> None:
        self.store = store
        reg = registry if registry is not None else default_registry()
        self._m_batch = reg.histogram(
            "repro.query.batch_size", "requests per submit() call",
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        self._m_group = reg.histogram(
            "repro.query.group_size",
            "requests per (scene, verb) group of a submit() call",
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        self._m_requests = reg.counter(
            "repro.query.requests",
            "queries answered by the batching server, per verb",
            labels=("verb",),
        )
        self._m_link_count = reg.histogram(
            "repro.query.link_count",
            "min-link answers (maximal segment counts)",
            buckets=(1, 2, 3, 4, 6, 8, 12, 16),
        )
        self._m_pareto_points = reg.histogram(
            "repro.query.pareto_points",
            "Pareto frontier sizes returned by pareto queries",
            buckets=(1, 2, 3, 4, 6, 8, 12, 16),
        )

    # -- single-call conveniences --------------------------------------
    def length(self, scene: str, p: Point, q: Point) -> float:
        return self.submit([Request(scene, p, q)])[0]

    def lengths(self, scene: str, pairs: Sequence[tuple[Point, Point]]) -> np.ndarray:
        """All-one-scene fast path: one coalesced call, array result."""
        vals = np.asarray(self.store.get(scene).lengths(list(pairs)))
        self._m_requests.inc(len(pairs), verb=OP_LENGTH)
        return vals

    def shortest_path(self, scene: str, p: Point, q: Point) -> List[Point]:
        return self.submit([Request(scene, p, q, op=OP_PATH)])[0]

    def min_links(self, scene: str, p: Point, q: Point) -> int:
        return self.submit([Request(scene, p, q, op=OP_MINLINK)])[0]

    def pareto(self, scene: str, p: Point, q: Point) -> list:
        return self.submit([Request(scene, p, q, op=OP_PARETO)])[0]

    # -- the batched entry point ---------------------------------------
    def submit(self, requests: Iterable[RequestLike]) -> list:
        """Answer a mixed batch, returning results in request order.

        Requests are grouped by (scene, verb).  Length, min-link and
        pareto groups are each answered with one vectorized/shared-solve
        call; path reports are answered per request (path assembly is
        inherently per-pair, §8).
        """
        reqs = [_coerce(r) for r in requests]
        out: list = [None] * len(reqs)
        groups: dict[tuple[str, str], list[int]] = {}
        for i, r in enumerate(reqs):
            groups.setdefault((r.scene, r.op), []).append(i)
        for (scene, op), positions in groups.items():
            idx = self.store.get(scene)
            pairs = [(reqs[i].p, reqs[i].q) for i in positions]
            if op == OP_LENGTH:
                vals = idx.lengths(pairs)
                for k, i in enumerate(positions):
                    out[i] = float(vals[k])
            elif op == OP_MINLINK:
                counts = idx.link_counts(pairs)
                for k, i in enumerate(positions):
                    if np.isfinite(counts[k]):
                        out[i] = int(counts[k])
                        self._m_link_count.observe(counts[k])
                    else:  # enclosed point; keep the histogram finite
                        out[i] = float("inf")
            elif op == OP_PARETO:
                fronts = idx.paretos(pairs)
                for k, i in enumerate(positions):
                    out[i] = [
                        (float(length), int(bends)) for length, bends in fronts[k]
                    ]
                    self._m_pareto_points.observe(len(fronts[k]))
            else:  # OP_PATH
                for i, (p, q) in zip(positions, pairs):
                    out[i] = idx.shortest_path(p, q)
        if reqs:
            self._m_batch.observe(len(reqs))
        for (_, verb), positions in groups.items():
            self._m_group.observe(len(positions))
            self._m_requests.inc(len(positions), verb=verb)
        return out

    # -- introspection --------------------------------------------------
    def stats(self) -> dict:
        """Views of the registry: ``requests`` counts every answered query
        (``lengths`` pairs included), ``batches`` the non-empty ``submit``
        calls, and the two histograms their batch and group sizes."""
        return {
            "requests": int(self._m_requests.total()),
            "batches": self._m_batch.summary()["count"],
            "batch_size_hist": self._m_batch.size_hist(),
            "group_size_hist": self._m_group.size_hist(),
        }
