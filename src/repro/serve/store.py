"""A registry of named scenes, each materialized at most once.

``SceneStore`` maps scene names to *sources* (a snapshot on disk, a rect
list to build, or an arbitrary builder callable) and materializes each
:class:`~repro.core.api.ShortestPathIndex` at most once, on first use,
under a per-scene lock — concurrent callers for the same scene block on
that one materialization instead of duplicating an expensive build.

One residency rule: an entry holds its source and at most one *current*
index.  :meth:`SceneStore.swap` replaces the index and
:meth:`SceneStore.replace_source` drops it for a new source; the store
keeps no superseded generation.  A reader's own reference is its pin: an
index returned by ``get`` stays valid for as long as the reader holds it
(for a snapshot-backed scene that includes the ``np.memmap`` of its
matrix, which outlives an unlink of the file), and CPython frees a
superseded generation when its last reader drops it.
"""

from __future__ import annotations

import os
import pathlib
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Union

from repro.core.api import Engine, ShortestPathIndex
from repro.errors import QueryError, SnapshotError
from repro.geometry.polygon import RectilinearPolygon
from repro.geometry.primitives import Point, Rect
from repro.serve.snapshot import load as load_snapshot
from repro.serve.snapshot import quarantine as quarantine_snapshot

Builder = Callable[[], ShortestPathIndex]


@dataclass
class _Entry:
    source: Builder
    kind: str  # "snapshot" | "build" | "builder"
    idx: Optional[ShortestPathIndex] = None
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: snapshot entries only: the on-disk artifact (for quarantine)
    path: Optional[pathlib.Path] = None
    #: snapshot entries only: rebuild-from-scene fallback used when the
    #: artifact fails to load (checksum mismatch, truncation, ...)
    fallback: Optional[Builder] = None
    #: bumped by every :meth:`SceneStore.swap` / ``replace_source``;
    #: generation 0 is the originally registered source
    generation: int = 0


class SceneStore:
    """Thread-safe name → index registry.

    >>> store = SceneStore()
    >>> store.add_snapshot("campus", "campus.rsp")   # doctest: +SKIP
    >>> store.get("campus").length(p, q)             # doctest: +SKIP
    """

    def __init__(self, stage_cache: Optional[object] = None) -> None:
        #: the repro.pipeline StageCache scene builds go through (None →
        #: the process default, so a scene the front-end built and a
        #: worker rebuilds from its fallback reuse geometry artifacts)
        self.stage_cache = stage_cache
        self._entries: Dict[str, _Entry] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.loads = 0  # snapshot file loads (aliases of a file share one)
        self.builds = 0  # engine-build materializations
        self.swaps = 0  # generation rollovers (see :meth:`swap`)
        #: scene name → one-line reason for every quarantined snapshot
        self.quarantines: Dict[str, str] = {}

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
        alive, which is what a serving worker needs.

        Names registered on the same file share one load: an alias whose
        sibling is resident gets the sibling's index (one mapping, one
        checksum pass), and aliases share a materialization lock so two
        of them never load the file concurrently."""
        p = pathlib.Path(os.path.abspath(path))
        with self._lock:
            lock = next(
                (e.lock for e in self._entries.values() if e.path == p),
                threading.Lock(),
            )
        self._register(
            name,
            _Entry(
                source=lambda: self._load_file(p),
                kind="snapshot",
                path=p,
                fallback=fallback,
                lock=lock,
            ),
        )

    def _load_file(self, path: pathlib.Path) -> ShortestPathIndex:
        """A resident alias's index for ``path``, else a fresh load; a
        file an alias already quarantined fails as corrupt, so this name
        falls back too.  Caller holds the aliases' shared entry lock."""
        with self._lock:
            for name, e in self._entries.items():
                if e.path != path:
                    continue
                if e.kind == "snapshot" and e.idx is not None:
                    return e.idx
                if name in self.quarantines:
                    raise SnapshotError(
                        f"{path}: quarantined via scene {name!r}: "
                        f"{self.quarantines[name]}"
                    )
        idx = load_snapshot(path)
        with self._lock:
            self.loads += 1
        return idx

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
        """The scene's current index (loading/building it at most once
        across all threads); raises ``QueryError`` for unknown names."""
        while True:
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
                    return entry.idx
            # materialize outside the registry lock so unrelated scenes stay
            # responsive; the per-entry lock makes this build-or-load-once
            with entry.lock:
                if entry.idx is not None:
                    continue  # a concurrent caller materialized it
                gen = entry.generation
                idx = self._materialize(name, entry)
                with self._lock:
                    self.misses += 1
                    if entry.kind != "snapshot":
                        self.builds += 1
                    if entry.generation == gen:
                        entry.idx = idx
                        return idx
                # a swap or source replacement landed while we were
                # materializing the old source: the rollover wins, and the
                # next pass reads (or materializes) the new generation

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
            # permanently demote the entry: an alias or a retry rebuilds
            # from scene, never re-touches the bad artifact
            entry.source = entry.fallback
            entry.kind = "builder"
            return entry.source()

    # -- zero-downtime rollover -----------------------------------------
    def swap(self, name: str, new_idx: ShortestPathIndex) -> int:
        """Atomically publish ``new_idx`` as scene ``name``'s next
        generation; returns the new generation number.

        Every ``get`` from the moment this returns sees the new index.  A
        reader that got the old one keeps it through its own reference;
        the store lets go of it here.  An unknown name is registered on
        the fly.
        """
        return self._roll(name, lambda: new_idx, new_idx)

    def replace_source(self, name: str, source: Builder) -> int:
        """The *lazy* sibling of :meth:`swap`: drop the current index and
        install a new source for the next generation without
        materializing it; returns the new generation number.

        Nothing is built here — the next ``get`` materializes the new
        source — which is what lets a cluster worker that does not have
        a scene resident acknowledge a rollover in O(1) and load the
        new snapshot file only if routing ever sends it a request.
        An unknown name is registered on the fly.
        """
        return self._roll(name, source, None)

    def _roll(
        self, name: str, source: Builder, idx: Optional[ShortestPathIndex]
    ) -> int:
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                entry = self._entries[name] = _Entry(source=source, kind="builder")
            entry.source, entry.kind, entry.idx = source, "builder", idx
            entry.path = entry.fallback = None
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

    # -- residency ------------------------------------------------------
    def resident(self) -> list[str]:
        """Names of the scenes whose current index is materialized."""
        with self._lock:
            return sorted(n for n, e in self._entries.items() if e.idx is not None)

    # -- introspection --------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            return {
                "quarantined": len(self.quarantines),
                "quarantined_scenes": sorted(self.quarantines),
                "scenes": len(self._entries),
                "resident": sum(1 for e in self._entries.values() if e.idx is not None),
                "hits": self.hits,
                "misses": self.misses,
                "loads": self.loads,
                "builds": self.builds,
                "swaps": self.swaps,
            }
