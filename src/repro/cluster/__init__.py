"""Horizontal serving: sharded workers over published snapshot files.

``repro.serve`` answers queries in one process; this package is the
layer that spreads the same stack across N processes without copying a
single distance matrix — and keeps it serving while pieces of it fail:

* :mod:`repro.cluster.hashing` — rendezvous (HRW) scene → worker
  routing with explicit pin overrides;
* :mod:`repro.cluster.protocol` — the length-prefixed JSON wire format,
  including deadlines and the ``health``/``drain`` lifecycle verbs;
* :mod:`repro.cluster.worker` — the worker process: a
  :class:`~repro.serve.server.QueryServer` over a
  :class:`~repro.serve.store.SceneStore` whose scenes map the snapshot
  files :mod:`repro.serve.publish` wrote;
* :mod:`repro.cluster.frontend` — the asyncio TCP front-end:
  micro-batching, bounded queues, load shedding, deadline expiry,
  ordered responses, and failover routing over the live worker set;
* :mod:`repro.cluster.supervisor` — restart backoff policy and the
  crash-loop circuit breaker behind worker supervision;
* :mod:`repro.cluster.faults` — the deterministic fault-injection
  harness (worker kills, frame faults, batch stalls, snapshot bitflips);
* :mod:`repro.cluster.loadgen` — open/closed-loop load generation with
  percentile reporting and retry/backoff with a run-wide retry budget.

``python -m repro cluster`` and ``python -m repro loadgen`` are the CLI
faces of this package; see README "Cluster serving" and "Failure
semantics".
"""

from repro.cluster.faults import FaultInjector, FaultPlan, bitflip_file
from repro.cluster.frontend import ClusterFrontend, run_cluster
from repro.cluster.hashing import assign_worker, assignment, hrw_score, shards
from repro.cluster.loadgen import Report, build_requests, discover
from repro.cluster.protocol import (
    MAX_FRAME,
    encode_frame,
    read_frame,
    recv_frame,
    send_frame,
    write_frame,
)
from repro.cluster.supervisor import RestartPolicy, Supervisor
from repro.cluster.worker import register_scene, worker_main

__all__ = [
    "ClusterFrontend",
    "run_cluster",
    "assign_worker",
    "assignment",
    "hrw_score",
    "shards",
    "Report",
    "build_requests",
    "discover",
    "MAX_FRAME",
    "encode_frame",
    "read_frame",
    "recv_frame",
    "send_frame",
    "write_frame",
    "register_scene",
    "worker_main",
    "FaultPlan",
    "FaultInjector",
    "bitflip_file",
    "RestartPolicy",
    "Supervisor",
]
