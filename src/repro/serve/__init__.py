"""Serving layer: snapshots, scene publishing, a multi-scene store, batching.

The build side of this library is the paper's contribution; this package
is the *online* half an actual deployment needs:

* :mod:`repro.serve.snapshot` — ``save``/``load`` a built
  :class:`~repro.core.api.ShortestPathIndex` as one ``.rsp`` artifact
  (format v5: an mmap-friendly raw layout holding the matrix in the
  build's dtype), so the expensive parallel build is paid once per scene;
* :mod:`repro.serve.publish` — write built indexes as snapshot files in
  a private tmpfs directory that worker processes map read-only, one
  page-cache copy per matrix (the memory model behind
  :mod:`repro.cluster`);
* :mod:`repro.serve.store` — :class:`SceneStore`, a thread-safe registry
  of many named scenes with lazy materialization and build-or-load-once
  locking; each scene holds its source and at most one current index,
  and a reader's own reference keeps the index it got alive;
* :mod:`repro.serve.server` — :class:`QueryServer`, the batching
  front-end that coalesces same-scene same-verb requests into single
  vectorized calls.

Every layer records its counters and distributions into a
:mod:`repro.obs` registry; ``stats`` summaries are views of it.
"""

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
from repro.serve.store import SceneStore

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
]
