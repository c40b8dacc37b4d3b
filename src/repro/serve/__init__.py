"""Serving layer: snapshots, shared memory, a multi-scene store, batching.

The build side of this library is the paper's contribution; this package
is the *online* half an actual deployment needs:

* :mod:`repro.serve.snapshot` — ``save``/``load`` a built
  :class:`~repro.core.api.ShortestPathIndex` as one ``.rsp`` artifact
  (format v3: an mmap-friendly raw layout; v1/v2 npz archives still
  load), so the expensive parallel build is paid once per scene;
* :mod:`repro.serve.shm` — publish a built index into
  ``multiprocessing.shared_memory`` and reattach zero-copy from worker
  processes (the memory model behind :mod:`repro.cluster`);
* :mod:`repro.serve.store` — :class:`SceneStore`, a thread-safe registry
  of many named scenes with lazy materialization, build-or-load-once
  locking, pin/unpin read refcounts, and LRU eviction bounded by
  resident bytes;
* :mod:`repro.serve.server` — :class:`QueryServer`, the batching
  front-end that coalesces same-scene length requests into single
  vectorized matrix gathers;
The latency/batch recorders live in :mod:`repro.obs` (the unified
observability subsystem); the re-exports below are kept for
compatibility.
"""

from repro.obs.recorders import BatchHistogram, LatencyRecorder, percentile
from repro.serve.snapshot import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_SUFFIX,
    SNAPSHOT_VERSION,
    is_snapshot,
    load,
    load_arrays,
    read_header,
    save,
)
from repro.serve.server import OP_LENGTH, OP_PATH, QueryServer, Request
from repro.serve.store import SceneStore, resident_bytes

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_SUFFIX",
    "SNAPSHOT_VERSION",
    "is_snapshot",
    "load",
    "load_arrays",
    "read_header",
    "save",
    "OP_LENGTH",
    "OP_PATH",
    "QueryServer",
    "Request",
    "SceneStore",
    "resident_bytes",
    "BatchHistogram",
    "LatencyRecorder",
    "percentile",
]
