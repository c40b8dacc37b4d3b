"""A registry of named scenes with lazy materialization and LRU eviction.

``SceneStore`` is the resident-memory layer of the serving stack: it maps
scene names to *sources* (a snapshot on disk, a rect list to build, or an
arbitrary builder callable) and materializes each
:class:`~repro.core.api.ShortestPathIndex` at most once, on first use,
under a per-scene lock — concurrent callers for the same scene block on
that one materialization instead of duplicating an expensive build.

Residency is bounded by ``max_bytes`` (the distance matrix dominates, at
8·n² bytes per scene): when an insert pushes the total over budget, the
least-recently-used *other* scenes are dropped back to their sources.  An
evicted scene is not an error — the next ``get`` simply re-materializes it
(snapshot-backed scenes reload in milliseconds, which is the point of
:mod:`repro.serve.snapshot`).
"""

from __future__ import annotations

import contextlib
import mmap
import pathlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.core.api import Engine, ShortestPathIndex
from repro.errors import QueryError, SnapshotError
from repro.geometry.polygon import RectilinearPolygon
from repro.geometry.primitives import Point, Rect
from repro.serve.snapshot import load as load_snapshot
from repro.serve.snapshot import quarantine as quarantine_snapshot

Builder = Callable[[], ShortestPathIndex]


def resident_bytes(idx: ShortestPathIndex) -> int:
    """Estimated resident footprint of one materialized index.

    The n×n matrix dominates; points, rects, and any persisted §6.4
    forests are accounted with flat per-element costs.  An index whose
    matrix is mapped from a snapshot file (:func:`repro.serve.snapshot.load`)
    charges only its small private structures — its matrix is page cache
    shared with every process mapping the file, not a private copy, which
    is what lets a worker keep many scenes resident under a byte bound
    sized for private memory.
    """
    n = len(idx.index)
    small = 16 * n + 32 * len(idx.rects)
    if _file_mapped(idx.index.matrix):
        return small
    total = idx.index.matrix.nbytes + small
    if idx._query_parents is not None:
        total += idx._query_parents.nbytes
    return total


def _file_mapped(arr) -> bool:
    """Whether ``arr`` is a view of a file mapping (an ``np.memmap``)."""
    while arr is not None:
        if isinstance(arr, (np.memmap, mmap.mmap)):
            return True
        arr = getattr(arr, "base", None)
    return False


@dataclass
class _Entry:
    source: Builder
    kind: str  # "snapshot" | "build" | "builder"
    idx: Optional[ShortestPathIndex] = None
    nbytes: int = 0
    pins: int = 0  # in-flight readers; pinned entries are never evicted
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: snapshot entries only: the on-disk artifact (for quarantine)
    path: Optional[pathlib.Path] = None
    #: snapshot entries only: rebuild-from-scene fallback used when the
    #: artifact fails to load (checksum mismatch, truncation, ...)
    fallback: Optional[Builder] = None
    #: bumped by every :meth:`SceneStore.swap`; generation 0 is the
    #: originally registered source
    generation: int = 0


@dataclass
class _Retired:
    """A superseded generation still pinned by in-flight readers.

    ``swap`` moves the old index here instead of dropping it: the readers
    keep exact answers from the snapshot they started on, and the entry
    (with its byte accounting) is freed the moment the last pin drains.
    """

    generation: int
    idx: ShortestPathIndex
    pins: int
    nbytes: int
    since: float  # monotonic retirement time, for leak triage


class SceneStore:
    """Thread-safe name → index registry with bounded residency.

    >>> store = SceneStore(max_bytes=64 << 20)
    >>> store.add_snapshot("campus", "campus.rsp")   # doctest: +SKIP
    >>> store.get("campus").length(p, q)             # doctest: +SKIP
    """

    def __init__(
        self, max_bytes: Optional[int] = None, stage_cache: Optional[object] = None
    ) -> None:
        self.max_bytes = max_bytes
        #: the repro.pipeline StageCache scene builds go through (None →
        #: the process default, so a scene the front-end built and a
        #: worker rebuilds from its fallback reuse geometry artifacts)
        self.stage_cache = stage_cache
        self._entries: Dict[str, _Entry] = {}
        self._lru: "OrderedDict[str, None]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.loads = 0  # snapshot materializations
        self.builds = 0  # engine-build materializations
        self.swaps = 0  # generation rollovers (see :meth:`swap`)
        #: scene name → one-line reason for every quarantined snapshot
        self.quarantines: Dict[str, str] = {}
        #: superseded-but-still-pinned generations, per scene
        self._retired: Dict[str, List[_Retired]] = {}

    # -- registration ---------------------------------------------------
    def add_snapshot(
        self,
        name: str,
        path: Union[str, pathlib.Path],
        *,
        fallback: Optional[Builder] = None,
    ) -> None:
        """Register a scene backed by a ``.rsp`` snapshot (lazy load).

        If the artifact turns out to be corrupt at load time it is
        *quarantined* (renamed to ``<name>.quarantined``) rather than
        retried; with a ``fallback`` builder the scene then rebuilds from
        source instead of erroring — degraded (slow first query) but
        alive, which is what a serving worker needs."""
        p = pathlib.Path(path)
        self._register(
            name,
            _Entry(
                source=lambda: load_snapshot(p),
                kind="snapshot",
                path=p,
                fallback=fallback,
            ),
        )

    def add_scene(
        self,
        name: str,
        obstacles: Sequence[Union[Rect, RectilinearPolygon]],
        *,
        engine: Engine = "parallel",
        container: Optional[RectilinearPolygon] = None,
        extra_points: Sequence[Point] = (),
    ) -> None:
        """Register a scene built from raw obstacles (``Rect`` and/or
        ``RectilinearPolygon``) on first use.

        Materialization runs through the staged pipeline
        (:func:`repro.pipeline.build_index`), so two registered scenes
        sharing geometry — or one scene registered under two engines —
        reuse the cached decompose/graph stage artifacts."""
        from repro.scene import Scene

        scene = Scene.from_obstacles(
            obstacles, container=container, extra_points=extra_points
        )

        def build() -> ShortestPathIndex:
            from repro.pipeline import build_index

            return build_index(scene, engine=engine, cache=self.stage_cache)

        self._register(name, _Entry(source=build, kind="build"))

    def add_builder(self, name: str, builder: Builder) -> None:
        """Register a scene produced by an arbitrary callable."""
        self._register(name, _Entry(source=builder, kind="builder"))

    def _register(self, name: str, entry: _Entry) -> None:
        with self._lock:
            if name in self._entries:
                raise QueryError(f"scene {name!r} is already registered")
            self._entries[name] = entry

    # -- access ---------------------------------------------------------
    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def get(self, name: str) -> ShortestPathIndex:
        """The materialized index for ``name`` (loading/building at most
        once across all threads); raises ``QueryError`` for unknown names."""
        with self._lock:
            try:
                entry = self._entries[name]
            except KeyError:
                known = ", ".join(sorted(self._entries)) or "<none>"
                raise QueryError(
                    f"unknown scene {name!r} (registered: {known})"
                ) from None
            if entry.idx is not None:
                self.hits += 1
                self._lru.move_to_end(name)
                return entry.idx
        # materialize outside the registry lock so unrelated scenes stay
        # responsive; the per-entry lock makes this build-or-load-once
        with entry.lock:
            if entry.idx is None:
                gen = entry.generation
                idx = self._materialize(name, entry)
                with self._lock:
                    self.misses += 1
                    if entry.kind == "snapshot":
                        self.loads += 1
                    else:
                        self.builds += 1
                    if entry.generation == gen:
                        entry.idx = idx
                        entry.nbytes = resident_bytes(idx)
                        self._lru[name] = None
                        self._lru.move_to_end(name)
                        self._evict_over_budget(keep=name)
                        return idx
                    # a swap landed while we were building the old
                    # source: the rollover wins, our build is stale
                    if entry.idx is not None:
                        return entry.idx
            with self._lock:
                self.hits += 1
                if name in self._lru:
                    self._lru.move_to_end(name)
                # capture under the lock: a concurrent insert may evict
                # this entry the moment the lock is released
                idx = entry.idx
            if idx is not None:
                return idx
        return self.get(name)  # evicted while we waited; re-materialize

    def _materialize(self, name: str, entry: _Entry) -> ShortestPathIndex:
        """Run the entry's source; a corrupt snapshot is quarantined and —
        when a fallback builder exists — transparently rebuilt from its
        scene instead of failing every caller forever.  Caller holds
        ``entry.lock``."""
        try:
            return entry.source()
        except SnapshotError as exc:
            if entry.kind != "snapshot":
                raise
            if entry.path is not None:
                quarantine_snapshot(entry.path)
            with self._lock:
                self.quarantines[name] = str(exc).splitlines()[0][:200]
            if entry.fallback is None:
                raise
            # permanently demote the entry: later evict/re-materialize
            # cycles rebuild from scene, never re-touch the bad artifact
            entry.source = entry.fallback
            entry.kind = "builder"
            return entry.source()

    # -- pinning --------------------------------------------------------
    #: pin() re-materialization attempts before giving up — a scene that
    #: keeps vanishing this many times in a row is being evicted by a
    #: budget far too small for it, and spinning forever would wedge the
    #: calling worker silently
    PIN_ATTEMPTS = 8

    def pin(self, name: str) -> ShortestPathIndex:
        """Materialize-and-pin: the returned index is guaranteed to stay
        resident (no LRU or explicit eviction) until the matching
        :meth:`unpin`.  This is what lets a ``QueryServer`` batch read a
        scene's matrix while an unrelated insert squeezes the byte budget
        — eviction of a pinned scene mid-gather would free (or, for a
        file-mapped scene, unmap) memory the reader is still touching.

        Bounded: after :data:`PIN_ATTEMPTS` evict-between-get-and-pin
        races it raises ``QueryError`` instead of spinning.
        """
        for _ in range(self.PIN_ATTEMPTS):
            idx = self.get(name)
            with self._lock:
                entry = self._entries.get(name)
                if entry is not None and entry.idx is idx:
                    entry.pins += 1
                    return idx
            # evicted between get() and the pin; re-materialize and retry
        raise QueryError(
            f"scene {name!r} was evicted {self.PIN_ATTEMPTS} times before it "
            f"could be pinned; raise max_bytes (scene does not fit the budget)"
        )

    def unpin(self, name: str, idx: Optional[ShortestPathIndex] = None) -> None:
        """Release one pin.  Pass the pinned index back to hit the right
        *generation*: after a :meth:`swap`, pins taken on the old index
        belong to its retired record, not the live entry.  Without ``idx``
        the live generation is unpinned first, then the oldest retired
        one — correct whenever at most one generation is in flight."""
        with self._lock:
            entry = self._entries.get(name)
            if idx is None:
                if entry is not None and entry.pins > 0:
                    entry.pins -= 1
                    return
                if self._unpin_retired(name, None):
                    return
            else:
                if entry is not None and entry.idx is idx and entry.pins > 0:
                    entry.pins -= 1
                    return
                if self._unpin_retired(name, idx):
                    return
            raise QueryError(f"scene {name!r} is not pinned")

    def _unpin_retired(self, name: str, idx: Optional[ShortestPathIndex]) -> bool:
        """Drop one pin from a retired generation (oldest first when
        ``idx`` is None); frees the record once fully unpinned.  Caller
        holds ``self._lock``."""
        for rec in self._retired.get(name, ()):
            if rec.pins > 0 and (idx is None or rec.idx is idx):
                rec.pins -= 1
                if rec.pins == 0:
                    self._retired[name].remove(rec)
                    if not self._retired[name]:
                        del self._retired[name]
                return True
        return False

    @contextlib.contextmanager
    def using(self, name: str) -> Iterator[ShortestPathIndex]:
        """``with store.using("campus") as idx:`` — pinned for the block.
        Unpins by index identity, so the block stays correct across a
        concurrent :meth:`swap`."""
        idx = self.pin(name)
        try:
            yield idx
        finally:
            self.unpin(name, idx)

    # -- zero-downtime rollover -----------------------------------------
    def swap(self, name: str, new_idx: ShortestPathIndex, *,
             source: Optional[Builder] = None) -> int:
        """Atomically publish ``new_idx`` as scene ``name``'s next
        generation; returns the new generation number.

        Every ``get``/``pin`` from the moment this returns sees the new
        index.  In-flight readers pinned to the old generation keep it:
        the old index is moved to a *retired* record that stays resident
        (and byte-accounted) until its pins drain to zero — eviction of a
        generation therefore waits for ``pins == 0``, there is no window
        where a reader's matrix is freed underneath it.  An unknown name
        is registered on the fly.

        ``source`` replaces the entry's re-materialization source; by
        default the swapped-in index is its own source (it stays
        reachable through the entry even if evicted — pass a real source,
        e.g. a snapshot loader for the new artifact, to let eviction
        actually free memory).
        """
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                entry = _Entry(source=source or (lambda: new_idx), kind="builder")
                self._entries[name] = entry
            else:
                if entry.idx is not None and entry.pins > 0:
                    self._retired.setdefault(name, []).append(
                        _Retired(
                            entry.generation, entry.idx, entry.pins,
                            entry.nbytes, time.monotonic(),
                        )
                    )
                entry.source = source or (lambda: new_idx)
                entry.kind = "builder"
                entry.path = None
                entry.fallback = None
            entry.generation += 1
            entry.idx = new_idx
            entry.pins = 0
            entry.nbytes = resident_bytes(new_idx)
            self._lru[name] = None
            self._lru.move_to_end(name)
            self.swaps += 1
            gen = entry.generation
            self._evict_over_budget(keep=name)
        return gen

    def replace_source(self, name: str, source: Builder, *, kind: str = "builder") -> int:
        """The *lazy* sibling of :meth:`swap`: install a new source for
        the next generation without materializing it; returns the new
        generation number.

        Nothing is built here — the next ``get`` materializes the new
        source — which is what lets a cluster worker that does not have
        a scene resident acknowledge a rollover in O(1) and load the
        new snapshot file only if routing ever sends it a request.
        Readers pinned to the current index keep it (retired, as in
        :meth:`swap`); an unpinned resident index is dropped immediately.
        An unknown name is registered on the fly.
        """
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                entry = _Entry(source=source, kind=kind)
                self._entries[name] = entry
            else:
                if entry.idx is not None:
                    if entry.pins > 0:
                        self._retired.setdefault(name, []).append(
                            _Retired(
                                entry.generation, entry.idx, entry.pins,
                                entry.nbytes, time.monotonic(),
                            )
                        )
                    entry.idx = None
                    entry.nbytes = 0
                    entry.pins = 0
                    self._lru.pop(name, None)
                entry.source = source
                entry.kind = kind
                entry.path = None
                entry.fallback = None
            entry.generation += 1
            self.swaps += 1
            return entry.generation

    def generation(self, name: str) -> int:
        """The scene's current generation (0 = as registered)."""
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                raise QueryError(f"unknown scene {name!r}")
            return entry.generation

    def leaked_pins(self, older_than_s: float = 0.0) -> dict:
        """Retired generations still pinned after ``older_than_s`` seconds
        — the pin-leak detector.  A healthy rollover drains these in one
        batch round-trip; anything lingering means some reader pinned a
        generation and never unpinned (returns ``{scene: [(generation,
        pins, age_s), ...]}``, empty when clean)."""
        now = time.monotonic()
        out: dict = {}
        with self._lock:
            for name, recs in self._retired.items():
                rows = [
                    (r.generation, r.pins, now - r.since)
                    for r in recs
                    if r.pins > 0 and (now - r.since) >= older_than_s
                ]
                if rows:
                    out[name] = rows
        return out

    # -- residency ------------------------------------------------------
    def resident(self) -> dict[str, int]:
        """Currently materialized scenes and their byte estimates."""
        with self._lock:
            return {
                name: e.nbytes for name, e in self._entries.items() if e.idx is not None
            }

    def resident_total(self) -> int:
        with self._lock:
            return sum(e.nbytes for e in self._entries.values() if e.idx is not None)

    def evict(self, name: str) -> bool:
        """Drop one scene back to its source; True if it was resident.
        Pinned scenes are never dropped (returns False)."""
        with self._lock:
            entry = self._entries.get(name)
            if entry is None or entry.idx is None or entry.pins > 0:
                return False
            self._drop(name, entry)
            return True

    def clear_resident(self) -> None:
        """Drop every materialized, unpinned scene (registrations kept)."""
        with self._lock:
            for name, entry in self._entries.items():
                if entry.idx is not None and entry.pins == 0:
                    self._drop(name, entry)

    def _drop(self, name: str, entry: _Entry) -> None:
        entry.idx = None
        entry.nbytes = 0
        self._lru.pop(name, None)
        self.evictions += 1

    def _evict_over_budget(self, keep: str) -> None:
        """LRU-evict other scenes until back under ``max_bytes``.  The one
        just materialized is never evicted (even if it alone overflows),
        and neither is any pinned scene — a pinned matrix is being read
        by an in-flight batch right now."""
        if self.max_bytes is None:
            return
        total = sum(e.nbytes for e in self._entries.values() if e.idx is not None)
        # retired generations occupy memory until their pins drain; they
        # cannot be evicted (readers hold them) but they do squeeze the
        # budget for everyone else
        total += sum(r.nbytes for recs in self._retired.values() for r in recs)
        for name in list(self._lru):
            if total <= self.max_bytes:
                break
            if name == keep:
                continue
            entry = self._entries[name]
            if entry.pins > 0:
                continue
            total -= entry.nbytes
            self._drop(name, entry)

    # -- introspection --------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            return {
                "quarantined": len(self.quarantines),
                "quarantined_scenes": sorted(self.quarantines),
                "scenes": len(self._entries),
                "resident": sum(1 for e in self._entries.values() if e.idx is not None),
                "resident_bytes": sum(
                    e.nbytes for e in self._entries.values() if e.idx is not None
                ),
                "pinned": sum(1 for e in self._entries.values() if e.pins > 0),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "loads": self.loads,
                "builds": self.builds,
                "swaps": self.swaps,
                "retired_generations": sum(
                    len(recs) for recs in self._retired.values()
                ),
                "retired_pins": sum(
                    r.pins for recs in self._retired.values() for r in recs
                ),
            }
