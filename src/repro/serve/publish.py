"""Publishing scenes to worker processes as snapshot files.

A built matrix crosses processes one way: the front-end writes the index
with :func:`repro.serve.snapshot.save` into a private directory, and every
worker loads the file with :func:`repro.serve.snapshot.load`, which maps
its arrays read-only — one page-cache copy per matrix however many
workers serve it.  An operator's own ``.rsp`` file is handed out as it is.

The directory is ``rsp-<pid>-<hex>`` in ``/dev/shm`` (tmpfs), or in
:func:`tempfile.gettempdir` on machines without ``/dev/shm``.  The
publisher holds a read-only, pre-faulted mapping of every file it has
handed out until the file is released: a page two processes map is
shared, so a worker's *private* memory does not grow with the matrices
it maps (``benchmarks/bench_cluster.py`` asserts this).  A rollover
writes the next generation to a new file and unlinks the old one once
every worker acknowledged (mappings already held stay valid past the
unlink).  :meth:`SnapshotPublisher.close` removes the directory; a
front-end killed before it could close leaves it behind, and the next
publisher started on the machine removes every directory whose pid is
dead.
"""

from __future__ import annotations

import itertools
import mmap
import os
import pathlib
import secrets
import shutil
import tempfile
from typing import Dict, List

from repro.core.api import ShortestPathIndex
from repro.errors import ClusterError
from repro.serve.snapshot import save

#: every publisher directory is named ``rsp-<pid>-<hex>``, so tests, CI
#: and operators can audit the root for leaks
PREFIX = "rsp-"

#: where publisher directories live: tmpfs wherever the machine has one
ROOT = pathlib.Path("/dev/shm" if os.path.isdir("/dev/shm") else tempfile.gettempdir())


def list_published() -> List[str]:
    """Names of the ``rsp-`` publisher directories under :data:`ROOT`
    (the leak-detection primitive for tests and the CI smoke steps)."""
    try:
        return sorted(e for e in os.listdir(ROOT) if e.startswith(PREFIX))
    except OSError:
        return []


def reap_dead() -> None:
    """Remove the directories of publishers whose process is gone (a
    front-end killed with SIGKILL could not remove its own)."""
    for name in list_published():
        pid = name[len(PREFIX):].split("-", 1)[0]
        if not pid.isdigit():
            continue
        try:
            os.kill(int(pid), 0)
        except ProcessLookupError:
            shutil.rmtree(ROOT / name, ignore_errors=True)
        except (PermissionError, OverflowError):  # someone else's, or no pid
            pass


class _File:
    """One handed-out file: a read-only mapping with every page faulted
    in now (so the pages count as shared the moment a worker maps them
    too), its scene refcount, and whether the publisher wrote it (only
    those are unlinked)."""

    def __init__(self, path: str, owned: bool) -> None:
        with open(path, "rb") as fh:
            self.mapping = mmap.mmap(
                fh.fileno(), 0, prot=mmap.PROT_READ,
                flags=mmap.MAP_SHARED | getattr(mmap, "MAP_POPULATE", 0),
            )
        self.owned = owned
        self.refs = 0


class SnapshotPublisher:
    """Publishes scenes as snapshot files; owns and removes its directory.

    >>> with SnapshotPublisher() as pub:               # doctest: +SKIP
    ...     path = pub.publish("campus", idx)
    ...     # workers register {"name": "campus", "kind": "snapshot",
    ...     # "path": path} and load it with repro.serve.snapshot.load
    """

    def __init__(self) -> None:
        reap_dead()
        self._pid = os.getpid()
        self.dir = ROOT / f"{PREFIX}{self._pid}-{secrets.token_hex(6)}"
        self.dir.mkdir(mode=0o700)
        self._files: Dict[str, _File] = {}  # path -> handed-out file
        # id(index) -> (index, path): one file per published index object
        self._written: Dict[int, tuple] = {}
        self._scenes: Dict[str, str] = {}  # scene name -> current path
        # scene name -> superseded paths, kept until release_retired()
        # (workers finish in-flight batches on the old generation first)
        self._retired: Dict[str, List[str]] = {}
        self._seq = itertools.count()
        self.closed = False

    # -- publishing -----------------------------------------------------
    def publish(self, scene: str, idx: ShortestPathIndex) -> str:
        """Write ``idx`` as a snapshot file (once per index object, however
        many scene names it is published under); returns its path."""
        self._check_new(scene)
        written = self._written.get(id(idx))
        if written is not None and written[0] is idx:
            return self._hand_out(scene, written[1], owned=True)
        # an already-computed link matrix rides along (workers never
        # recompute it); publishing never forces the all-pairs link DP
        links = getattr(idx._links, "_link_matrix", idx._link_matrix)
        path = str(save(idx, self.dir / f"{next(self._seq)}.rsp",
                        include_links=links is not None))
        self._written[id(idx)] = (idx, path)
        return self._hand_out(scene, path, owned=True)

    def publish_file(self, scene: str, path) -> str:
        """Hand out an existing snapshot file as it is (never copied, never
        unlinked); returns its path."""
        self._check_new(scene)
        try:
            return self._hand_out(scene, str(path), owned=False)
        except (OSError, ValueError) as exc:  # missing, unreadable, empty
            raise ClusterError(f"scene {scene!r}: cannot publish {path}: {exc}")

    def republish(self, scene: str, idx: ShortestPathIndex) -> str:
        """Publish the next generation of ``scene`` to a new file; the old
        file stays until :meth:`release_retired`.  A failed write leaves
        the current generation published."""
        old = self._scenes.pop(scene, None)
        try:
            path = self.publish(scene, idx)
        except BaseException:
            if old is not None:
                self._scenes[scene] = old
            raise
        if old is not None:
            self._retired.setdefault(scene, []).append(old)
        return path

    def release_retired(self, scene: str) -> int:
        """Drop ``scene``'s superseded generations (call once every worker
        acknowledged the new one); returns how many were released."""
        paths = self._retired.pop(scene, [])
        for path in paths:
            self._drop(path)
        return len(paths)

    def release(self, scene: str) -> None:
        """Drop one scene, current and retired generations."""
        self._drop(self.path(scene))
        del self._scenes[scene]
        self.release_retired(scene)

    def path(self, scene: str) -> str:
        try:
            return self._scenes[scene]
        except KeyError:
            known = ", ".join(sorted(self._scenes)) or "<none>"
            raise ClusterError(
                f"scene {scene!r} is not published (published: {known})"
            ) from None

    def _check_new(self, scene: str) -> None:
        if self.closed:
            raise ClusterError("publisher is closed")
        if scene in self._scenes:
            raise ClusterError(
                f"scene {scene!r} is already published "
                f"(use republish() to roll a new generation)"
            )

    def _hand_out(self, scene: str, path: str, owned: bool) -> str:
        f = self._files.get(path)
        if f is None:
            f = self._files[path] = _File(path, owned)
        f.refs += 1
        self._scenes[scene] = path
        return path

    def _drop(self, path: str) -> None:
        f = self._files[path]
        f.refs -= 1
        if f.refs > 0:
            return
        del self._files[path]
        self._written = {k: v for k, v in self._written.items() if v[1] != path}
        f.mapping.close()
        if f.owned:
            os.unlink(path)

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Unmap every file and remove the directory (idempotent; a no-op
        in a forked child, which does not own the directory)."""
        if self.closed or os.getpid() != self._pid:
            return
        self.closed = True
        for f in self._files.values():
            f.mapping.close()
        self._files.clear()
        self._written.clear()
        self._scenes.clear()
        self._retired.clear()
        shutil.rmtree(self.dir, ignore_errors=True)

    def __enter__(self) -> "SnapshotPublisher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
