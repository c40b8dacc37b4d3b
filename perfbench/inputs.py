"""Seeded inputs: build scene sets, the repair edit stream, the request pool.

Every function here is pure: the same arguments give the same inputs in
any process (the generators seed ``random.Random`` from strings, which
are not subject to hash randomization).  The program under test only
ever sees what these functions return.
"""

from __future__ import annotations

import random
from typing import Iterator

from repro.geometry.primitives import Rect
from repro.workloads.generators import random_disjoint_rects, random_free_points

#: obstacles per cold-build scene
BUILD_N = 128
#: independent repair streams (base scenes) a repair run interleaves,
#: obstacles per base scene, and held-back obstacles per stream's pool
#: (the stream inserts one per two edits)
REPAIR_STREAMS = 8
REPAIR_N = 64
REPAIR_POOL = 96
#: scenes served by the cluster, and obstacles per scene
SERVE_SCENES = 3
SERVE_N = 64
#: distinct requests in the serving pool (replayed cyclically)
SERVE_POOL = 600
#: share of ``minlink`` requests in the serving mix
SERVE_MINLINK = 0.05
#: serving mix: verb -> weight.  The cluster load generator's default
#: mix (``repro.cluster.loadgen.DEFAULT_MIX``: 50% bulk ``lengths``, 20%
#: arbitrary, 2% path, 28% single vertex ``length``) renormalised over
#: the single-request verbs (28 : 20 : 2), then scaled to make room for
#: the ``SERVE_MINLINK`` share.
SERVE_MIX = (
    ("length", 0.56 * (1 - SERVE_MINLINK)),
    ("arbitrary", 0.40 * (1 - SERVE_MINLINK)),
    ("path", 0.04 * (1 - SERVE_MINLINK)),
    ("minlink", SERVE_MINLINK),
)


def build_scene(seed: int, k: int) -> list[Rect]:
    """The ``k``-th scene of a build run's scene sequence."""
    return random_disjoint_rects(BUILD_N, seed=f"perfbench-build|{seed}|{k}")


def warmup_scene(seed: int) -> list[Rect]:
    return random_disjoint_rects(BUILD_N, seed=f"perfbench-warmup|{seed}")


def repair_scene(seed: int, stream: int) -> tuple[list[Rect], list[Rect]]:
    """``(base, pool)`` of one repair stream: one disjoint set split into
    the base scene and the held-back insert pool, so inserts never
    collide with anything and never repeat a deleted obstacle's
    coordinates."""
    rects = random_disjoint_rects(
        REPAIR_N + REPAIR_POOL, seed=f"perfbench-repair|{seed}|{stream}", world=32 * REPAIR_N
    )
    rng = random.Random(f"perfbench-repair-split|{seed}|{stream}")
    held = set(rng.sample(range(len(rects)), REPAIR_POOL))
    base = [r for i, r in enumerate(rects) if i not in held]
    pool = [r for i, r in enumerate(rects) if i in held]
    return base, pool


def edit_stream(
    seed: int, stream: int, base: list[Rect], pool: list[Rect]
) -> Iterator[tuple[str, Rect]]:
    """Alternating ``("delete", rect)`` / ``("insert", rect)`` edits.

    A delete removes a seeded-random current obstacle (chosen from the
    current set in coordinate order, so the choice does not depend on
    how the library orders a scene); an insert adds the next held-back
    obstacle.  A deleted obstacle is never inserted again, so no edit
    recreates a scene whose solve is already cached.  The stream ends
    when the pool is used up.
    """
    rng = random.Random(f"perfbench-edits|{seed}|{stream}")
    current = sorted(base)
    for fresh in pool:
        victim = current.pop(rng.randrange(len(current)))
        yield ("delete", victim)
        current.append(fresh)
        current.sort()
        yield ("insert", fresh)


def repair_edits(seed: int) -> Iterator[tuple[int, str, Rect]]:
    """``(stream, op, rect)``: the streams' edits taken round-robin, until
    the first stream ends."""
    streams = [
        edit_stream(seed, s, *repair_scene(seed, s)) for s in range(REPAIR_STREAMS)
    ]
    while True:
        for s, edits in enumerate(streams):
            edit = next(edits, None)
            if edit is None:
                return
            yield (s, *edit)


def serve_scenes(seed: int) -> dict[str, list[Rect]]:
    return {
        f"s{k}": random_disjoint_rects(SERVE_N, seed=f"perfbench-serve|{seed}|{k}")
        for k in range(SERVE_SCENES)
    }


def request_pool(seed: int, scenes: dict[str, list[Rect]], vertices: dict[str, list]) -> list[dict]:
    """``SERVE_POOL`` wire requests, each tagged with its mix verb.

    ``vertices`` maps scene name to the index's vertex list (the O(1)
    lookup population).  ``arbitrary`` requests put at least one
    endpoint on an obstacle-free off-vertex point (the §6.4 path).
    """
    rng = random.Random(f"perfbench-requests|{seed}")
    names = sorted(scenes)
    free = {
        name: random_free_points(scenes[name], 32, seed=f"perfbench-free|{seed}|{name}")
        for name in names
    }
    verbs = [v for v, _ in SERVE_MIX]
    weights = [w for _, w in SERVE_MIX]
    out = []
    for _ in range(SERVE_POOL):
        name = names[rng.randrange(len(names))]
        verts = [list(p) for p in vertices[name]]
        verb = rng.choices(verbs, weights)[0]
        if verb == "arbitrary":
            p = list(rng.choice(free[name]))
            q = list(rng.choice(free[name])) if rng.random() < 0.5 else rng.choice(verts)
            op = "length"
        else:
            p, q = rng.sample(verts, 2)
            op = verb
        out.append({"verb": verb, "wire": {"op": op, "scene": name, "p": p, "q": q}})
    return out
