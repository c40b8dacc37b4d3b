"""``repro.scene`` — the canonical scene layer.

A :class:`Scene` is the one domain object every entry point shares: the
obstacle list (``Rect`` and/or ``RectilinearPolygon``), the optional
rectilinear-convex container ``P`` of the paper, and any extra points to
index.  Parsing, validation, and normalization live *here* and nowhere
else — the CLI, the
:class:`~repro.serve.store.SceneStore`, the cluster worker's scene specs,
and the fuzz/bench drivers all call this single authoritative path, so a
malformed scene produces the identical one-line
:class:`~repro.errors.GeometryError`-family message no matter which door
it came in through.

The JSON interchange schema (shared with the fuzz tools)::

    {"version": 2,
     "rects": [[xlo, ylo, xhi, yhi], ...],
     "polygons": [[[x, y], [x, y], ...], ...],
     "container": [[x, y], ...],          # optional, rectilinear convex
     "extra_points": [[x, y], ...]}       # optional, indexed free points

The bare v1 form ``{"rects": [...]}`` is still accepted.
``Scene.to_dict`` / ``Scene.from_dict`` round-trip every rect, polygon,
container, and extra point exactly, which is what makes shrunk fuzz
failures replayable.  One normalization is inherent to the schema: rects
and polygons live in separate JSON lists, so a *mixed* scene's obstacle
interleaving comes back rects-first (same geometry and answers; the
vertex ordering of a rebuilt index — and hence ``content_hash`` — can
differ from the original's).

A scene also has a stable :meth:`Scene.content_hash` — the
content-addressed identity used by :mod:`repro.pipeline` to key its
per-stage artifact cache (same geometry ⇒ same hash ⇒ cached decompose
and graph stages, whatever engine solves on top).
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import pathlib
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

from repro.errors import GeometryError
from repro.geometry.polygon import RectilinearPolygon
from repro.geometry.primitives import Point, Rect, validate_disjoint

#: current scene-file schema version (v1 scenes still load)
SCENE_VERSION = 2

Obstacle = Union[Rect, RectilinearPolygon]
PathLike = Union[str, pathlib.Path]

__all__ = [
    "SCENE_VERSION",
    "Obstacle",
    "Scene",
    "SceneDelta",
    "load_scene_cli",
]


@dataclass(frozen=True)
class Scene:
    """One immutable scene: obstacles + optional container + extra points.

    Construct through :meth:`from_obstacles` (programmatic),
    :meth:`from_dict` (JSON payloads), or :meth:`load` (scene files) —
    all three funnel every entry through the real geometry constructors,
    so a malformed scene fails with one ``GeometryError`` message.
    """

    obstacles: Tuple[Obstacle, ...]
    container: Optional[RectilinearPolygon] = None
    extra_points: Tuple[Point, ...] = ()

    # -- construction ---------------------------------------------------
    @classmethod
    def from_obstacles(
        cls,
        obstacles: Sequence[Obstacle],
        container: Optional[RectilinearPolygon] = None,
        extra_points: Sequence[Point] = (),
    ) -> "Scene":
        """Normalize a raw obstacle sequence into a ``Scene``."""
        obs = tuple(obstacles)
        for o in obs:
            if isinstance(o, Rect):
                coords = (o.xlo, o.ylo, o.xhi, o.yhi)
            elif isinstance(o, RectilinearPolygon):
                coords = tuple(c for v in o.loop for c in v)
            else:
                raise GeometryError(
                    f"obstacle must be a Rect or RectilinearPolygon, got {o!r}"
                )
            # fractional obstacles are rejected loudly: the engines
            # *silently disagree* on them (the parallel engine's Hanan
            # machinery returns sub-metric values like d=2 for two
            # corners 2.5 apart), and the int-typed JSON schema could
            # only truncate them
            if not all(_integral(c) for c in coords):
                raise GeometryError(
                    f"obstacle coordinates must be integers: {o!r}"
                )
        if container is not None:
            if not isinstance(container, RectilinearPolygon):
                raise GeometryError(
                    f"container must be a RectilinearPolygon, got {container!r}"
                )
            if not all(_integral(c) for v in container.loop for c in v):
                raise GeometryError(
                    f"container coordinates must be integers: {container!r}"
                )
        try:
            # value-preserving (2.5 stays 2.5; integral values normalize
            # to exact ints) but validated: non-numeric or non-finite
            # coordinates must fail here with one line, not deep inside
            # an engine or the hash
            extras = tuple((_coord(x), _coord(y)) for x, y in extra_points)
        except (TypeError, ValueError, OverflowError) as exc:
            raise GeometryError(f"bad extra point list: {exc}") from None
        return cls(obs, container, extras)

    @classmethod
    def from_dict(cls, data: object) -> "Scene":
        """Parse and construct a v1/v2 scene dict (the authoritative JSON
        path; every entry is validated through the geometry constructors)."""
        if not isinstance(data, dict):
            raise GeometryError("scene file must be a JSON object")
        version = data.get("version", 1)
        if version not in (1, SCENE_VERSION):
            raise GeometryError(
                f"scene schema version {version!r}; this build reads 1 and {SCENE_VERSION}"
            )
        obstacles: list[Obstacle] = []
        rows = data.get("rects", [])
        if not isinstance(rows, list):
            raise GeometryError("'rects' must be a list of [xlo, ylo, xhi, yhi] rows")
        for row in rows:
            try:
                obstacles.append(Rect(*map(_int_coord, row)))
            except (TypeError, ValueError, OverflowError) as exc:
                raise GeometryError(f"bad rect row {row!r}: {exc}") from None
        loops = data.get("polygons", [])
        if version == 1 and loops:
            raise GeometryError("schema v1 scenes cannot carry polygons")
        if not isinstance(loops, list):
            raise GeometryError("'polygons' must be a list of vertex loops")
        for loop in loops:
            try:
                obstacles.append(
                    RectilinearPolygon(
                        [(_int_coord(x), _int_coord(y)) for x, y in loop]
                    )
                )
            except (TypeError, ValueError, OverflowError) as exc:
                raise GeometryError(f"bad polygon loop {loop!r}: {exc}") from None
        container = None
        if data.get("container") is not None:
            loop = data["container"]
            try:
                container = RectilinearPolygon(
                    [(_int_coord(x), _int_coord(y)) for x, y in loop]
                )
            except (TypeError, ValueError, OverflowError) as exc:
                raise GeometryError(f"bad container loop {loop!r}: {exc}") from None
        extras: tuple = ()
        rows = data.get("extra_points") or []
        if rows:  # a stray empty list is ignored, matching the polygons guard
            if version == 1:
                raise GeometryError("schema v1 scenes cannot carry extra points")
            try:
                # the exact validator the programmatic door uses, so both
                # entry points accept/reject (and normalize) identically
                extras = tuple((_coord(x), _coord(y)) for x, y in rows)
            except (TypeError, ValueError, OverflowError) as exc:
                raise GeometryError(
                    f"bad extra point list {rows!r}: {exc}"
                ) from None
        if not obstacles and not extras:
            # an obstacle-free scene is meaningful only when it carries
            # extra points to index (free-plane distances) — and must
            # round-trip, since from_obstacles/cluster specs allow it
            raise GeometryError("scene has no obstacles")
        return cls(tuple(obstacles), container, extras)

    @classmethod
    def load(cls, path: PathLike) -> "Scene":
        """Parse a scene file (raises ``GeometryError`` / ``OSError``)."""
        with open(path) as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:
                raise GeometryError(f"{path}: not valid JSON: {exc}") from None
        return cls.from_dict(data)

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict:
        """The v2 JSON-ready dict of this scene.  Round-trips all
        geometry and extras; a mixed scene's rect/polygon interleaving is
        normalized rects-first (see the module docstring)."""
        # geometry is integral by construction (from_obstacles/from_dict
        # both enforce it); int() only normalizes numpy scalars and
        # integral floats to JSON-native ints
        rects = [
            [int(o.xlo), int(o.ylo), int(o.xhi), int(o.yhi)]
            for o in self.obstacles
            if isinstance(o, Rect)
        ]
        polygons = [
            [[int(x), int(y)] for x, y in o.loop]
            for o in self.obstacles
            if isinstance(o, RectilinearPolygon)
        ]
        out: dict = {"version": SCENE_VERSION, "rects": rects, "polygons": polygons}
        if self.container is not None:
            out["container"] = [[int(x), int(y)] for x, y in self.container.loop]
        if self.extra_points:
            out["extra_points"] = [[_canon(x), _canon(y)] for x, y in self.extra_points]
        return out

    def save(self, path: PathLike) -> pathlib.Path:
        path = pathlib.Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=1))
        return path

    # -- validation -----------------------------------------------------
    def validate(self) -> "Scene":
        """Disjointness / degeneracy / containment checks; raises with a
        one-line message naming the offending geometry, returns ``self``
        so ``Scene.load(p).validate()`` chains."""
        from repro.core.api import split_obstacles

        _, _, all_rects, _ = split_obstacles(self.obstacles)
        validate_disjoint(all_rects)
        if self.container is not None:
            if not self.container.is_convex:
                raise GeometryError("container polygon is not rectilinear convex")
            for r in all_rects:
                if not self.container.contains_rect(r):
                    raise GeometryError(
                        f"obstacle rect {r} is not inside the container"
                    )
        return self

    # -- views ----------------------------------------------------------
    @property
    def rects(self) -> list[Rect]:
        """The plain rectangle obstacles (polygon tiles not included)."""
        return [o for o in self.obstacles if isinstance(o, Rect)]

    @property
    def polygons(self) -> list[RectilinearPolygon]:
        return [o for o in self.obstacles if isinstance(o, RectilinearPolygon)]

    def describe(self) -> str:
        """One human line: obstacle counts + container + extras."""
        parts = [f"{len(self.rects)} rects", f"{len(self.polygons)} polygons"]
        parts.append("container" if self.container is not None else "no container")
        if self.extra_points:
            parts.append(f"{len(self.extra_points)} extra points")
        return ", ".join(parts)

    # -- identity -------------------------------------------------------
    def geometry_hash(self) -> str:
        """Content hash of the geometry alone (obstacles + container).

        This keys the engine-independent pipeline stages: two builds that
        differ only in ``extra_points`` (or engine) still share their
        decompose artifact.  Memoized — the dataclass is frozen.
        """
        h = self.__dict__.get("_geometry_hash")
        if h is None:
            h = _digest(self._geometry_key())
            object.__setattr__(self, "_geometry_hash", h)
        return h

    def content_hash(self) -> str:
        """Content hash of the full scene (geometry + extra points).

        Coordinates are canonicalized (``2.0`` hashes like ``2``, numpy
        scalars like their exact Python value), so equal scenes hash
        equally across the ``to_dict``/``from_dict`` boundary.  Memoized.
        """
        h = self.__dict__.get("_content_hash")
        if h is None:
            extras = [[_canon(x), _canon(y)] for x, y in self.extra_points]
            h = _digest(self._geometry_key() + [["extras", extras]])
            object.__setattr__(self, "_content_hash", h)
        return h

    # -- mutation (the only mutation path) ------------------------------
    def apply_delta(self, delta: "SceneDelta") -> "Scene":
        """Apply an obstacle insert/delete batch and return the **new**
        scene.

        This is the one supported mutation path: the result is built from
        scratch through :meth:`from_obstacles` (then disjointness-checked),
        so it can never inherit this scene's memoized hashes — a repaired
        index keyed by the new scene's ``content_hash`` is a genuinely new
        generation.  Raises ``GeometryError`` with a one-line message when
        a delete names an obstacle the scene does not contain, an insert
        duplicates an existing obstacle, or the edited scene is no longer
        disjoint.
        """
        obstacles = list(self.obstacles)
        for op, obstacle in delta.ops:
            if op == "insert":
                if any(_same_obstacle(obstacle, o) for o in obstacles):
                    raise GeometryError(
                        f"delta inserts an obstacle already in the scene: {obstacle}"
                    )
                obstacles.append(obstacle)
            elif op == "delete":
                for i, o in enumerate(obstacles):
                    if _same_obstacle(obstacle, o):
                        del obstacles[i]
                        break
                else:
                    raise GeometryError(
                        f"delta deletes an obstacle not in the scene: {obstacle}"
                    )
            else:  # pragma: no cover - SceneDelta construction forbids it
                raise GeometryError(f"unknown delta op {op!r}")
        scene = Scene.from_obstacles(obstacles, self.container, self.extra_points)
        return scene.validate()

    def _geometry_key(self) -> list:
        # every coordinate goes through _canon so numerically equal
        # scenes (Rect(2.0, ...) vs Rect(2, ...), numpy scalars) key the
        # same cache entries
        key: list = []
        for o in self.obstacles:
            if isinstance(o, Rect):
                key.append(["r", *map(_canon, (o.xlo, o.ylo, o.xhi, o.yhi))])
            else:
                key.append(["p", [[_canon(x), _canon(y)] for x, y in o.loop]])
        key.append(
            ["c", [[_canon(x), _canon(y)] for x, y in self.container.loop]]
            if self.container is not None
            else ["c", None]
        )
        return key


@dataclass(frozen=True)
class SceneDelta:
    """An ordered batch of obstacle edits: ``("insert"|"delete", obstacle)``.

    Built through :meth:`insert` / :meth:`delete` (chainable) or the JSON
    form :meth:`from_dict`; applied with :meth:`Scene.apply_delta` — the
    single supported scene-mutation path.  Deletes match obstacles by
    geometry (a ``Rect`` by coordinates, a polygon by its normalized
    vertex loop), so a delta serialized by one process applies cleanly to
    another process's copy of the same scene.

    The JSON interchange form (used by the cluster ``update`` verb)::

        {"ops": [{"op": "insert", "rect": [xlo, ylo, xhi, yhi]},
                 {"op": "delete", "polygon": [[x, y], ...]}]}
    """

    ops: Tuple[Tuple[str, Obstacle], ...] = ()

    @classmethod
    def insert(cls, *obstacles: Obstacle) -> "SceneDelta":
        return cls()._extend("insert", obstacles)

    @classmethod
    def delete(cls, *obstacles: Obstacle) -> "SceneDelta":
        return cls()._extend("delete", obstacles)

    def then_insert(self, *obstacles: Obstacle) -> "SceneDelta":
        return self._extend("insert", obstacles)

    def then_delete(self, *obstacles: Obstacle) -> "SceneDelta":
        return self._extend("delete", obstacles)

    def _extend(self, op: str, obstacles: Sequence[Obstacle]) -> "SceneDelta":
        ops = list(self.ops)
        for o in obstacles:
            if not isinstance(o, (Rect, RectilinearPolygon)):
                raise GeometryError(
                    f"delta obstacle must be a Rect or RectilinearPolygon, got {o!r}"
                )
            ops.append((op, o))
        return SceneDelta(tuple(ops))

    def __len__(self) -> int:
        return len(self.ops)

    def describe(self) -> str:
        ins = sum(1 for op, _ in self.ops if op == "insert")
        return f"{ins} inserts, {len(self.ops) - ins} deletes"

    def to_dict(self) -> dict:
        rows = []
        for op, o in self.ops:
            if isinstance(o, Rect):
                rows.append(
                    {"op": op, "rect": [int(o.xlo), int(o.ylo), int(o.xhi), int(o.yhi)]}
                )
            else:
                rows.append({"op": op, "polygon": [[int(x), int(y)] for x, y in o.loop]})
        return {"ops": rows}

    @classmethod
    def from_dict(cls, data: object) -> "SceneDelta":
        if not isinstance(data, dict) or not isinstance(data.get("ops"), list):
            raise GeometryError("scene delta must be a JSON object with an 'ops' list")
        ops: list[Tuple[str, Obstacle]] = []
        for row in data["ops"]:
            if not isinstance(row, dict) or row.get("op") not in ("insert", "delete"):
                raise GeometryError(f"bad delta op row {row!r}")
            try:
                if "rect" in row:
                    obstacle: Obstacle = Rect(*map(_int_coord, row["rect"]))
                elif "polygon" in row:
                    obstacle = RectilinearPolygon(
                        [(_int_coord(x), _int_coord(y)) for x, y in row["polygon"]]
                    )
                else:
                    raise GeometryError("op row carries neither 'rect' nor 'polygon'")
            except (TypeError, ValueError, OverflowError) as exc:
                raise GeometryError(f"bad delta op row {row!r}: {exc}") from None
            ops.append((row["op"], obstacle))
        return cls(tuple(ops))


def _same_obstacle(a: Obstacle, b: Obstacle) -> bool:
    """Geometry equality: rects by coordinates, polygons by normalized loop."""
    if isinstance(a, Rect) and isinstance(b, Rect):
        return a == b
    if isinstance(a, RectilinearPolygon) and isinstance(b, RectilinearPolygon):
        return tuple(a.loop) == tuple(b.loop)
    return False


def _num(v):
    """A JSON scalar as an exact coordinate: int when integral, else a
    finite float.  Ints pass through untouched (no float round trip, so
    magnitudes beyond 2^53 stay exact); inf/nan raise for the caller's
    one-line rejection."""
    if isinstance(v, bool):
        raise TypeError(f"not a coordinate: {v!r}")
    if isinstance(v, int):
        return v
    f = float(v)
    i = int(f)  # OverflowError on inf, ValueError on nan — caller catches
    return i if i == f else f


def _int_coord(v):
    """A JSON scalar as an exact integer coordinate.  Digit strings stay
    accepted (the legacy ``int(row)`` parser allowed them), but a
    fractional value is *rejected*, never truncated — a scene file saying
    ``2.5`` must not silently load as different geometry."""
    n = _num(v)
    if not isinstance(n, int):
        raise ValueError(f"not an integer coordinate: {v!r}")
    return n


def _coord(v):
    """A finite real coordinate, exact: integral values (python or numpy,
    ``2.0`` included) normalize to ``int``; fractional floats pass
    through unchanged; anything else raises for the caller's one-line
    rejection."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise TypeError(f"not a coordinate: {v!r}")
    if isinstance(v, numbers.Integral):
        return int(v)
    f = float(v)
    if not math.isfinite(f):
        raise ValueError(f"non-finite coordinate: {v!r}")
    i = int(f)
    return i if i == f else f


def _integral(c) -> bool:
    """Is this coordinate an exact integer value (2, 2.0, np.int64(2))?"""
    try:
        return int(c) == c
    except (TypeError, OverflowError, ValueError):
        return False


def _canon(v):
    """A coordinate's canonical hash form — total (never raises), exact
    for integers of any magnitude (numpy scalars included), and identical
    for numerically equal values like ``2`` and ``2.0``."""
    try:
        i = int(v)
    except (OverflowError, ValueError):  # inf/nan: stable, non-numeric token
        return repr(float(v))
    return i if i == v else float(v)


def _digest(key: list) -> str:
    # every scalar in the key went through _canon, so the payload is
    # JSON-native and exact (no numpy scalars, no large-int collapse)
    blob = json.dumps(key, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def load_scene_cli(path: str) -> Scene:
    """Parse **and validate** a scene file for a CLI verb, exiting with
    the canonical one-line message on any failure.

    This is the single CLI-facing door (the old per-command ``_load_scene``
    duplicates are gone); the error text is locked by tests so server-side
    consumers of :meth:`Scene.from_dict` fail identically.
    """
    try:
        return Scene.load(path).validate()
    except GeometryError as exc:
        raise SystemExit(f"{path}: invalid scene: {exc}")
    except OSError as exc:
        raise SystemExit(str(exc))
