"""Snapshot persistence for a built :class:`ShortestPathIndex`.

The paper's structure is *build once expensively, query forever cheaply*
(abstract: O(log² n) parallel build, O(1)/O(log n) queries), which makes
the build output the natural unit of persistence.  A snapshot is a single
``.rsp`` file capturing everything the query side needs:

``header``       JSON: format name + version, repro version, engine,
                 element counts, simulated build cost, matrix checksum,
                 and (when present) the pipeline's stage provenance
``points``       ``(n, 2)`` int64 — the vertex order of the matrix rows
                 (float64 when a non-integer extra point is indexed; the
                 TOC/npz member records the dtype either way)
``matrix``       ``(n, n)`` float64 — all-pairs lengths (§6.3 output)
``rects``        ``(m, 4)`` int64 — obstacles: plain rects, polygon
                 decomposition tiles, pocket rects
``container``    ``(k, 2)`` int64 — container polygon loop (``k = 0``
                 when the scene has no container)
``qs_parents``   ``(4, m)`` int64 — the §6.4 query structure's four
                 NE tracing forests (absent when not exported; polygon
                 scenes never export them — they use the corner-graph
                 query fallback, which needs nothing beyond the matrix)
``poly_offsets`` ``(P + 1,)`` int64 — *v2+*: prefix offsets into
                 ``poly_vertices`` delimiting each original polygon
                 obstacle's vertex loop
``poly_vertices`` ``(K, 2)`` int64 — *v2+*: concatenated polygon
                 loops (seams are recomputed from the loops on load —
                 the decomposition is deterministic)
``link_matrix``  ``(n, n)`` int32 — *v4+, optional* (``save(...,
                 include_links=True)``): all-pairs min-link counts among
                 the registered points, ``-1`` marking disconnected
                 pairs; loaded snapshots use it as the fast path for
                 ``minlink`` queries between registered points

*v4* also added a ``verbs`` header key naming the query verbs the
artifact supports.  Older artifacts (v1–v3) still load, but their
indices advertise ``("length", "path")`` only — the link-query family
was specified after v3 froze, so a pre-v4 artifact makes no promise
about it and the facade's capability gate turns ``minlink``/``pareto``
into a one-line :class:`~repro.errors.QueryError` instead of an answer
that silently bypassed the artifact's contract.  Re-snapshot the scene
to upgrade.

Two container layouts exist:

* **formats v3/v4 (current, "raw")** — a flat binary file: an 8-byte magic,
  a little-endian ``uint64`` header length, the JSON header (which
  carries a table of contents of dtype/shape/offset per array), then the
  raw C-order array payloads at 64-byte-aligned offsets.  The layout is
  mmap-friendly: :func:`load` maps the arrays read-only straight out of
  the page cache (no decompression, no second copy) — which is also how
  cluster workers share one copy of each matrix
  (:mod:`repro.serve.publish`).
* **formats v1/v2 ("npz")** — a NumPy ``.npz`` archive with the same
  members.  Still fully readable (the copy path); still writable via
  ``save(..., layout="npz")`` for compatibility fixtures.

Loading never re-runs an engine: the matrix is mapped back into a
:class:`DistanceIndex`, the §6.4 forests (when present) are handed to
:class:`QueryStructure`, and only the cheap ray shooters are rebuilt.
Corrupt, truncated, or version-mismatched artifacts raise
:class:`~repro.errors.SnapshotError` — never a deep traceback from NumPy.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pathlib
import struct
import tempfile
import zipfile
import zlib
from typing import Optional, Union

import numpy as np

from repro import __version__
from repro.core.allpairs import DistanceIndex
from repro.core.api import ShortestPathIndex
from repro.errors import SnapshotError
from repro.geometry.polygon import RectilinearPolygon
from repro.geometry.primitives import Rect
from repro.pram.machine import PRAM

PathLike = Union[str, pathlib.Path]

#: snapshot format identity; bump ``SNAPSHOT_VERSION`` on layout changes
SNAPSHOT_FORMAT = "repro-snapshot"
SNAPSHOT_VERSION = 4
#: every format version this build can read back
SUPPORTED_VERSIONS = (1, 2, 3, 4)
#: verbs a pre-v4 artifact is assumed to support (the link family was
#: introduced with v4; see the module docstring)
LEGACY_VERBS = ("length", "path")
#: the version written by ``save(..., layout="npz")`` (the legacy container)
NPZ_VERSION = 2

#: conventional file extension (the CLI sniffs content, not the name)
SNAPSHOT_SUFFIX = ".rsp"

#: first 8 bytes of a raw-layout (v3) artifact; deliberately not ``PK``
#: (zip) and not ``\x93NUMPY`` (bare .npy), and unprintable enough that a
#: text file can never collide
RAW_MAGIC = b"\x93RSP\r\n\x1a\n"
#: raw-layout arrays start at multiples of this (mmap/SIMD friendly)
RAW_ALIGN = 64
#: sanity bound on the embedded JSON header
_MAX_HEADER = 64 << 20


def _align(n: int, a: int = RAW_ALIGN) -> int:
    return (n + a - 1) // a * a


def _matrix_digest(matrix: np.ndarray) -> str:
    # hash the buffer in place: every load and every publish runs this,
    # and a .tobytes() copy would double its memory and time
    return hashlib.sha256(np.ascontiguousarray(matrix)).hexdigest()


def _export_arrays(
    idx: ShortestPathIndex, include_query: bool, include_links: bool = False
) -> tuple[dict, bool]:
    """All snapshot array members of ``idx`` (shared by both layouts)."""
    arrays = idx.index.export_arrays()
    arrays["rects"] = np.array(
        [[r.xlo, r.ylo, r.xhi, r.yhi] for r in idx.rects], dtype=np.int64
    ).reshape(len(idx.rects), 4)
    if idx.container is not None:
        arrays["container"] = np.array(idx.container.loop, dtype=np.int64)
    else:
        arrays["container"] = np.empty((0, 2), dtype=np.int64)
    polygons = getattr(idx, "polygons", [])
    offsets = [0]
    flat_loop: list = []
    for poly in polygons:
        flat_loop.extend(poly.loop)
        offsets.append(len(flat_loop))
    arrays["poly_offsets"] = np.array(offsets, dtype=np.int64)
    arrays["poly_vertices"] = np.array(flat_loop, dtype=np.int64).reshape(
        len(flat_loop), 2
    )
    # polygon scenes answer arbitrary-point queries through the corner-
    # graph fallback — there are no §6.4 forests to persist
    include_query = include_query and not getattr(idx, "seams", [])
    if include_query:
        arrays["qs_parents"] = idx.query.export_world_parents()
    if include_links:
        # all-pairs min-link counts among the registered points — forces
        # the link index (and one DP run per source) now so a loaded
        # snapshot answers registered-pair minlink queries by lookup
        arrays["link_matrix"] = np.ascontiguousarray(
            idx.links.link_matrix(), dtype=np.int32
        )
    return arrays, include_query


def _base_header(idx: ShortestPathIndex, include_query: bool, matrix) -> dict:
    polygons = getattr(idx, "polygons", [])
    header = {
        "format": SNAPSHOT_FORMAT,
        "repro_version": __version__,
        "engine": idx.engine,
        "n_points": len(idx.index),
        "n_rects": len(idx.rects),
        "n_polygons": len(polygons),
        "has_container": idx.container is not None,
        "has_query_structure": include_query,
        "build_time": idx.pram.time,
        "build_work": idx.pram.work,
        "matrix_sha256": _matrix_digest(matrix),
        # v4+: the query verbs this artifact supports; readers gate the
        # facade's capabilities on it (absent on pre-v4 artifacts, which
        # therefore narrow to LEGACY_VERBS on load)
        "verbs": list(getattr(idx, "capabilities", LEGACY_VERBS)),
    }
    # stage provenance from repro.pipeline (engine + per-stage wall/PRAM
    # timings + cache hits): carried verbatim so `repro bench-info SNAP`
    # can report how the artifact was built.  Pre-pipeline snapshots
    # simply lack the key — old readers ignore it, old artifacts load.
    provenance = getattr(idx, "provenance", None)
    if provenance is not None:
        header["provenance"] = provenance
    return header


def save(
    idx: ShortestPathIndex,
    path: PathLike,
    include_query: bool = True,
    layout: str = "raw",
    include_links: bool = False,
) -> pathlib.Path:
    """Serialize ``idx`` to ``path``; returns the path written.

    ``include_query=True`` (default) also exports the §6.4 arbitrary-point
    query structure — forcing its construction now if it was never queried
    — so a loaded snapshot answers arbitrary-point queries without any
    tracing work.

    ``include_links=True`` additionally precomputes and embeds the
    all-pairs min-link matrix (one DP run per registered point now, a
    lookup per ``minlink`` query forever after).  Link *queries* do not
    require it — any v4 artifact answers them through the lazy link
    index — it only trades build time for query latency.

    ``layout="raw"`` (default) writes the mmap-friendly format-v4 file;
    ``layout="npz"`` writes the legacy format-v2 ``.npz`` archive (smaller
    on disk, but loads through a decompress-and-copy path, so every
    process that loads it holds a private copy).
    """
    path = pathlib.Path(path)
    arrays, include_query = _export_arrays(idx, include_query, include_links)
    header = _base_header(idx, include_query, arrays["matrix"])
    if layout == "raw":
        header["version"] = SNAPSHOT_VERSION
        header["layout"] = "raw"
        blob = _encode_raw(header, arrays)
    elif layout == "npz":
        header["version"] = NPZ_VERSION
        arrays["header"] = np.frombuffer(
            json.dumps(header, sort_keys=True).encode("utf-8"), dtype=np.uint8
        )
        buf = io.BytesIO()
        np.savez_compressed(buf, **arrays)
        blob = buf.getvalue()
    else:
        raise ValueError(f"unknown snapshot layout {layout!r} (want raw or npz)")
    # atomic publish: a crash mid-write (or a concurrent saver of the
    # same path) must never leave a truncated artifact where a
    # SceneStore will try to load it — hence a unique temp sibling
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def _encode_raw(header: dict, arrays: dict) -> bytes:
    """The raw (v3) container: magic + header length + JSON + aligned
    C-order payloads.  TOC offsets are relative to the payload base (which
    is itself ``_align(16 + header length)``), so the header's own length
    never feeds back into the offsets it describes."""
    toc: dict[str, dict] = {}
    rel = 0
    blobs: list[bytes] = []
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        toc[name] = {
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "offset": rel,
            "nbytes": arr.nbytes,
        }
        blobs.append(arr.tobytes())
        rel = _align(rel + arr.nbytes)
    header = dict(header, toc=toc)
    hbytes = json.dumps(header, sort_keys=True).encode("utf-8")
    base = _align(16 + len(hbytes))
    out = bytearray(base + rel)
    out[:8] = RAW_MAGIC
    out[8:16] = struct.pack("<Q", len(hbytes))
    out[16 : 16 + len(hbytes)] = hbytes
    for name, blob in zip(sorted(arrays), blobs):
        off = base + toc[name]["offset"]
        out[off : off + len(blob)] = blob
    return bytes(out)


def read_header(path: PathLike) -> dict:
    """The snapshot's JSON header alone (no array payloads are decoded)."""
    if _is_raw(path):
        header, _ = _read_raw_header(path)
        return header
    with _open_archive(path) as npz:
        return _parse_header(path, npz)


def is_snapshot(path: PathLike) -> bool:
    """Cheap content sniff: is this file a repro snapshot archive?"""
    try:
        read_header(path)
        return True
    except (SnapshotError, FileNotFoundError, IsADirectoryError):
        return False


def quarantine(path: PathLike) -> Optional[pathlib.Path]:
    """Move a corrupt snapshot aside as ``<name>.quarantined`` so nothing
    retries loading (or overwrites the evidence); returns the new path,
    or ``None`` if the artifact could not be moved (already gone, or a
    read-only filesystem).

    Collision-safe: a second quarantine of the same scene picks the next
    free ``.quarantined.N`` suffix instead of clobbering the earlier
    corpse on POSIX (``os.replace`` overwrites silently there) or raising
    on Windows (where it refuses to) — every piece of evidence survives,
    with a deterministic name for each."""
    p = pathlib.Path(path)
    for k in range(1000):
        suffix = ".quarantined" if k == 0 else f".quarantined.{k}"
        target = p.with_name(p.name + suffix)
        if target.exists():
            continue
        try:
            os.replace(p, target)
        except OSError:
            return None
        return target
    return None  # pragma: no cover - a thousand corpses of one scene


def load(path: PathLike, mmap: bool = True) -> ShortestPathIndex:
    """Reconstruct a fully queryable :class:`ShortestPathIndex` from a
    snapshot; raises :class:`SnapshotError` on any malformed artifact.

    Raw (v3) artifacts map their arrays read-only straight from the file
    (``mmap=False`` forces an in-memory copy instead); npz (v1/v2)
    artifacts always load through the decompress-and-copy path.
    """
    header, arrays = load_arrays(path, mmap=mmap)
    digest = _matrix_digest(np.asarray(arrays["matrix"], dtype=float))
    if digest != header.get("matrix_sha256"):
        raise SnapshotError(
            f"{path}: matrix checksum mismatch (corrupt or tampered artifact)"
        )
    idx = reconstruct(header, arrays, label=str(path))
    idx.snapshot_meta = header
    return idx


def load_arrays(path: PathLike, mmap: bool = True) -> tuple[dict, dict]:
    """``(header, arrays)`` of any supported snapshot, layout-agnostic.

    Missing optional members are normalized: ``qs_parents`` maps to
    ``None``, pre-polygon (v1) artifacts get empty polygon members.
    """
    if _is_raw(path):
        header, base = _read_raw_header(path)
        arrays = _read_raw_arrays(path, header, base, mmap=mmap)
    else:
        with _open_archive(path) as npz:
            header = _parse_header(path, npz)
            try:
                arrays = {name: npz[name] for name in npz.files if name != "header"}
            except (
                KeyError,
                ValueError,
                zipfile.BadZipFile,
                OSError,
                zlib.error,
            ) as exc:
                raise SnapshotError(f"{path}: missing or corrupt array member: {exc}")
    for required in ("points", "matrix", "rects", "container"):
        if required not in arrays:
            raise SnapshotError(f"{path}: snapshot has no {required!r} member")
    arrays.setdefault("qs_parents", None)
    arrays.setdefault("link_matrix", None)  # v4 optional member
    if "poly_offsets" not in arrays:  # format v1: pre-polygon artifact
        arrays["poly_offsets"] = np.zeros(1, dtype=np.int64)
        arrays["poly_vertices"] = np.empty((0, 2), dtype=np.int64)
    return header, arrays


def reconstruct(header: dict, arrays: dict, label: str = "<arrays>") -> ShortestPathIndex:
    """Rebuild a queryable index from snapshot-shaped ``arrays``.

    Everything rebuilt here (``Rect`` objects, polygon seams, ray
    shooters) is small; the matrix stays wherever ``arrays`` holds it
    (for :func:`load`, a read-only file mapping).
    """
    try:
        index = DistanceIndex.from_arrays(arrays["points"], arrays["matrix"])
        rects = [Rect(*row) for row in np.asarray(arrays["rects"]).tolist()]
        loop_arr = np.asarray(arrays["container"])
        container = None
        if len(loop_arr):
            container = RectilinearPolygon([(x, y) for x, y in loop_arr.tolist()])
        offs = [int(v) for v in np.asarray(arrays["poly_offsets"]).tolist()]
        verts = [
            (int(x), int(y)) for x, y in np.asarray(arrays["poly_vertices"]).tolist()
        ]
        polygons = [RectilinearPolygon(verts[a:b]) for a, b in zip(offs, offs[1:])]
        # seams are a pure function of each loop: recompute instead of
        # trusting (or bloating) the artifact
        seams = [s for poly in polygons for s in poly.decomposition()[1]]
    except Exception as exc:  # noqa: BLE001 - any geometry rejection is corruption
        raise SnapshotError(f"{label}: invalid snapshot payload: {exc}")
    parents = arrays.get("qs_parents")
    if parents is not None:
        parents = np.asarray(parents)
        if parents.shape != (4, len(rects)):
            raise SnapshotError(
                f"{label}: query-structure parents shape {parents.shape} does "
                f"not match {len(rects)} obstacles"
            )
    link_matrix = arrays.get("link_matrix")
    if link_matrix is not None:
        link_matrix = np.asarray(link_matrix)
        n = len(index)
        if link_matrix.shape != (n, n):
            raise SnapshotError(
                f"{label}: link matrix shape {link_matrix.shape} does not "
                f"match {n} registered points"
            )
    idx = ShortestPathIndex(
        rects,
        index,
        PRAM("snapshot-load"),
        container=container,
        engine=str(header.get("engine", "parallel")),
        query_parents=parents,
        polygons=polygons,
        seams=seams,
    )
    # round-trip the build provenance (None for pre-pipeline artifacts)
    idx.provenance = header.get("provenance")
    idx._link_matrix = link_matrix
    # capability gate: a header that names its verbs is believed; one
    # that predates the "verbs" key is a pre-v4 artifact and narrows to
    # the legacy verb set
    verbs = header.get("verbs")
    if verbs is not None:
        idx.capabilities = tuple(str(v) for v in verbs)
    else:
        idx.capabilities = LEGACY_VERBS
        idx.capability_note = (
            f"snapshot format v{header.get('version')} predates link queries; "
            f"re-snapshot the scene to enable them"
        )
    return idx


# -- raw (v3) container ------------------------------------------------
def _is_raw(path: PathLike) -> bool:
    try:
        with open(path, "rb") as fh:
            return fh.read(len(RAW_MAGIC)) == RAW_MAGIC
    except IsADirectoryError:
        raise SnapshotError(f"{path}: not a snapshot archive (directory)")


def _read_raw_header(path: PathLike) -> tuple[dict, int]:
    """``(header, payload_base)`` of a raw artifact."""
    with open(path, "rb") as fh:
        head = fh.read(16)
        if len(head) < 16 or head[:8] != RAW_MAGIC:
            raise SnapshotError(f"{path}: not a snapshot archive")
        (hlen,) = struct.unpack("<Q", head[8:16])
        if not 2 <= hlen <= _MAX_HEADER:
            raise SnapshotError(f"{path}: implausible snapshot header size {hlen}")
        hbytes = fh.read(hlen)
    if len(hbytes) < hlen:
        raise SnapshotError(f"{path}: truncated snapshot header")
    try:
        header = json.loads(hbytes.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise SnapshotError(f"{path}: unreadable snapshot header: {exc}")
    _validate_header(path, header)
    if header.get("layout") != "raw" or not isinstance(header.get("toc"), dict):
        raise SnapshotError(f"{path}: raw container with a non-raw header")
    return header, _align(16 + hlen)


def _read_raw_arrays(
    path: PathLike, header: dict, base: int, mmap: bool = True
) -> dict:
    size = os.path.getsize(path)
    out: dict[str, np.ndarray] = {}
    for name, ent in header["toc"].items():
        try:
            dtype = np.dtype(ent["dtype"])
            shape = tuple(int(s) for s in ent["shape"])
            offset = base + int(ent["offset"])
            nbytes = int(ent["nbytes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(f"{path}: malformed TOC entry for {name!r}: {exc}")
        want = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
        if want != nbytes:
            raise SnapshotError(
                f"{path}: TOC size mismatch for {name!r}: {nbytes} != {want}"
            )
        if int(ent["offset"]) < 0:
            # a negative offset would silently map header bytes as data
            raise SnapshotError(
                f"{path}: TOC offset for {name!r} points outside the payload"
            )
        if offset + nbytes > size:
            raise SnapshotError(
                f"{path}: truncated artifact ({name!r} extends past end of file)"
            )
        if nbytes == 0:
            out[name] = np.empty(shape, dtype=dtype)
        elif mmap:
            out[name] = np.memmap(path, mode="r", dtype=dtype, shape=shape, offset=offset)
        else:
            with open(path, "rb") as fh:
                fh.seek(offset)
                buf = fh.read(nbytes)
            if len(buf) < nbytes:
                raise SnapshotError(f"{path}: truncated artifact member {name!r}")
            arr = np.frombuffer(buf, dtype=dtype).reshape(shape).copy()
            out[name] = arr
    return out


# -- npz (v1/v2) container ---------------------------------------------
def _open_archive(path: PathLike):
    try:
        npz = np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise SnapshotError(f"{path}: not a snapshot archive: {exc}")
    if not hasattr(npz, "files"):  # a bare .npy loads as a plain array
        raise SnapshotError(f"{path}: not a snapshot archive (single array)")
    return npz


def _parse_header(path: PathLike, npz) -> dict:
    if "header" not in npz.files:
        raise SnapshotError(f"{path}: no snapshot header member")
    try:
        header = json.loads(bytes(npz["header"].tobytes()).decode("utf-8"))
    except (ValueError, UnicodeDecodeError, zipfile.BadZipFile, OSError, zlib.error) as exc:
        raise SnapshotError(f"{path}: unreadable snapshot header: {exc}")
    _validate_header(path, header)
    if header.get("version", 0) >= 3:
        raise SnapshotError(
            f"{path}: version {header['version']} snapshots use the raw "
            f"layout, but this is an npz archive"
        )
    return header


def _validate_header(path: PathLike, header) -> None:
    if not isinstance(header, dict) or header.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(f"{path}: not a {SNAPSHOT_FORMAT} artifact")
    if header.get("version") not in SUPPORTED_VERSIONS:
        raise SnapshotError(
            f"{path}: snapshot format version {header.get('version')!r}; "
            f"this build reads versions {SUPPORTED_VERSIONS}"
        )
