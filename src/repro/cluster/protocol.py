"""The cluster wire protocol: length-prefixed JSON frames.

One frame = a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON encoding one object.  Requests carry a client-chosen
``id`` that the response echoes; responses on one connection always come
back in request order (the front-end guarantees it), so a lockstep client
never needs the id at all — it exists for pipelined clients.

Request objects::

    {"id": 7, "op": "length",  "scene": "a", "p": [x, y], "q": [x, y]}
    {"id": 8, "op": "lengths", "scene": "a", "pairs": [[[x,y],[x,y]], ...]}
    {"id": 9, "op": "path",    "scene": "a", "p": [x, y], "q": [x, y]}
    {"id": 4, "op": "minlink", "scene": "a", "p": [x, y], "q": [x, y]}
    {"id": 5, "op": "links",   "scene": "a", "pairs": [[[x,y],[x,y]], ...]}
    {"id": 6, "op": "pareto",  "scene": "a", "p": [x, y], "q": [x, y]}
    {"id": 0, "op": "endpoints", "scene": "a", "k": 32, "seed": 0}
    {"id": 1, "op": "scenes"}          # scene → worker assignment + live set
    {"id": 2, "op": "stats"}           # cluster-wide stats (registry view)
    {"id": 3, "op": "ping"}
    {"id": 4, "op": "health"}          # liveness: status/workers_alive/restarts
    {"id": 5, "op": "drain"}           # graceful drain; acks once queues empty
    {"id": 6, "op": "metrics"}         # merged MetricsRegistry snapshot
                                       # (front-end + every live worker,
                                       # worker series labeled worker="<id>")
    {"id": 7, "op": "trace",           # recent spans from the front-end's
     "limit": 512,                     # bounded SpanBuffer; optionally one
     "trace_id": "..."}                # trace only
    {"id": 8, "op": "describe",        # a scene's full geometry (the v2
     "scene": "a"}                     # JSON dict), generation, and hash
    {"id": 9, "op": "update",          # apply an obstacle delta: zero-
     "scene": "a",                     # downtime rollover to the next
     "delta": {"ops": [               # scene generation
         {"op": "delete", "rect": [xlo, ylo, xhi, yhi]},
         {"op": "insert", "polygon": [[x, y], ...]}]}}

The link-query family rides the same scene-op plumbing as lengths:
``minlink`` answers ``{"links": k, "bends": max(k-1, 0)}`` (the string
``"inf"`` for both when the pair is disconnected), ``links`` is its bulk
form answering a list of counts (paralleling ``lengths``), and
``pareto`` answers the full (length, bends) frontier as
``[[length, bends], ...]`` sorted by increasing bends with strictly
decreasing length.  All three coalesce inside the worker's QueryServer
— same-scene same-verb requests in one micro-batch share DP runs — and
all three honor ``deadline_ms`` and ``trace`` like any scene op.

The ``update`` verb is the cluster's only mutation path.  The delta is
the JSON form of :class:`repro.scene.SceneDelta`; the front-end repairs
its index incrementally (byte-identical to a cold rebuild of the edited
scene), publishes generation N+1 as a new snapshot file, and broadcasts
its path to every worker.  In-flight batches
finish on the *pinned* old generation; requests admitted after the
``update`` response returns ``ok`` are answered from the new one — the
response is the linearization point.  The result carries the new
``generation``, the new ``scene_hash``, and a ``repair`` provenance dict
(entries reused vs recomputed).  ``describe`` returns the geometry that
deltas apply to — only scenes registered with geometry (obstacle lists,
or pipeline-built indexes) are describable/updatable.

Every scene op may carry ``"deadline_ms": <number>`` — a *relative*
latency budget.  A request still queued when its budget runs out is
expired with a distinct error instead of serving stale work.

Every scene op may also carry ``"trace": true`` to request end-to-end
tracing: the front-end generates (or adopts, from ``"trace_id"``) a
trace id, records spans for queue wait, worker RPC, redirect hops, and
the worker's service time, and attaches them to the response as
``"trace": {"trace_id": ..., "spans": [...]}``.  Traced responses also
land in the front-end's span buffer, where the ``trace`` verb (and
``python -m repro trace``) can read them later.

Response objects::

    {"id": 7, "ok": true,  "result": 42.0}
    {"id": 8, "ok": false, "error": "one-line reason"}
    {"id": 9, "ok": false, "error": "overloaded: ...", "shed": true}
    {"id": 5, "ok": false, "error": "worker 1 died: ...", "retryable": true}
    {"id": 6, "ok": false, "error": "deadline expired ...",
     "deadline_expired": true}

``shed: true`` marks a load-shedding rejection — the request was never
queued and it is safe (and expected) for the client to retry elsewhere
or later.  ``retryable: true`` marks a failure the front-end could not
redirect (a worker died and no survivor could take the work *right
now*); every scene op is an idempotent read, so re-sending is always
safe and usually succeeds once the supervisor restarts the worker.
``deadline_expired: true`` means the work was *not* executed — the
request aged out in a queue; a retry starts a fresh budget.  Any other
error is a real per-request failure that a retry will not fix.

Frames above :data:`MAX_FRAME` are refused on both sides: a front-end
must never be OOM-able by one client, and a malformed length prefix
(e.g. a client speaking HTTP at us) dies quickly with a one-line error.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Optional

from repro.errors import ClusterError

#: frame length prefix: 4-byte big-endian unsigned
_PREFIX = struct.Struct(">I")

#: hard cap on one frame's body (requests *and* responses)
MAX_FRAME = 32 << 20


def encode_frame(obj) -> bytes:
    """Serialize one protocol object to its wire bytes."""
    body = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise ClusterError(f"frame of {len(body)} bytes exceeds MAX_FRAME")
    return _PREFIX.pack(len(body)) + body


def decode_body(body: bytes) -> dict:
    try:
        obj = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ClusterError(f"undecodable frame: {exc}")
    if not isinstance(obj, dict):
        raise ClusterError(f"frame must encode an object, got {type(obj).__name__}")
    return obj


async def read_frame(reader: asyncio.StreamReader) -> Optional[dict]:
    """One frame from an asyncio stream; ``None`` on clean EOF."""
    try:
        prefix = await reader.readexactly(_PREFIX.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ClusterError("connection closed mid-frame")
    (length,) = _PREFIX.unpack(prefix)
    if length > MAX_FRAME:
        raise ClusterError(f"frame of {length} bytes exceeds MAX_FRAME")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ClusterError("connection closed mid-frame")
    return decode_body(body)


async def write_frame(writer: asyncio.StreamWriter, obj) -> None:
    writer.write(encode_frame(obj))
    await writer.drain()


# -- synchronous helpers (simple clients, tests, examples) --------------
def send_frame(sock: socket.socket, obj) -> None:
    sock.sendall(encode_frame(obj))


def recv_frame(sock: socket.socket) -> Optional[dict]:
    """One frame from a blocking socket; ``None`` on clean EOF."""
    prefix = _recv_exactly(sock, _PREFIX.size)
    if prefix is None:
        return None
    (length,) = _PREFIX.unpack(prefix)
    if length > MAX_FRAME:
        raise ClusterError(f"frame of {length} bytes exceeds MAX_FRAME")
    body = _recv_exactly(sock, length)
    if body is None:
        raise ClusterError("connection closed mid-frame")
    return decode_body(body)


def _recv_exactly(sock: socket.socket, n: int) -> Optional[bytes]:
    chunks = []
    got = 0
    while got < n:
        chunk = sock.recv(n - got)
        if not chunk:
            return None if not chunks else _raise_midframe()
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def _raise_midframe():
    raise ClusterError("connection closed mid-frame")
