"""Seeded differential fuzz: polygon/rect mixed scenes, four engines.

Every scene is solved by the parallel D&C engine, the multiprocessing
``parallel-mp`` engine (held to *byte* identity with ``parallel``, not
just value equality), the sequential engine, and the grid-Dijkstra
baseline; matrices must agree exactly, sampled paths must be valid, and
arbitrary-point queries must match the oracle (see ``tests/harness.py``).
Failing scenes are shrunk and dumped as replayable JSON under
``tests/failures/``.

≥ 200 scenes total: 120 mixed polygon+rect, 40 polygon-only (one per
generator family and seed), 24 container + polygon-obstacle combos, and
16 adversarial hand-picked seam configurations.
"""

import pytest

from harness import assert_engines_agree
from repro.core.api import split_obstacles
from repro.geometry.polygon import RectilinearPolygon
from repro.geometry.primitives import Rect
from repro.workloads.generators import (
    POLYGON_KINDS,
    _make_polygon,
    _translate_loop,
    plus_polygon,
    random_container_polygon,
    random_polygon_scene,
    spiral_polygon,
    staircase_polygon,
)

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@pytest.mark.parametrize("batch", range(12))
def test_fuzz_mixed_scenes(batch):
    """120 scenes: 2 polygons + 3 rects, every generator family."""
    for k in range(10):
        seed = batch * 10 + k
        obstacles = random_polygon_scene(n_polygons=2, n_rects=3, seed=seed)
        assert_engines_agree(obstacles, seed=seed, label="mixed")


@pytest.mark.parametrize("kind", POLYGON_KINDS)
def test_fuzz_single_family(kind):
    """40 scenes: two polygons of one family, no rects."""
    for k in range(10):
        seed = 9000 + k
        a = _make_polygon(kind, seed)
        bbox = a.bbox
        b = _translate_loop(
            _make_polygon(kind, seed + 1), bbox[2] - bbox[0] + 25, 3 * (k % 3)
        )
        assert_engines_agree([a, b], seed=seed, label=f"family-{kind}")


@pytest.mark.parametrize("batch", range(4))
def test_fuzz_container_with_polygons(batch):
    """24 scenes: polygon obstacles inside a random convex container."""
    for k in range(6):
        seed = 500 + batch * 6 + k
        obstacles = random_polygon_scene(n_polygons=1, n_rects=2, seed=seed)
        _, _, all_rects, _ = split_obstacles(obstacles)
        container = random_container_polygon(all_rects, seed=seed)
        assert_engines_agree(obstacles, container, seed=seed, label="container")


ADVERSARIAL = [
    # the plus: both chords of the decomposition are seams
    [plus_polygon(6, 6, 5, 2)],
    # plus next to a rect that invites a through-seam shortcut
    [plus_polygon(6, 6, 5, 2), Rect(13, 5, 15, 7)],
    # two interlocking Us (cavities facing each other)
    [
        RectilinearPolygon([(0, 0), (10, 0), (10, 10), (6, 10), (6, 4), (4, 4), (4, 10), (0, 10)]),
        RectilinearPolygon(
            [(14, 2), (24, 2), (24, 12), (14, 12), (14, 8), (20, 8), (20, 6), (14, 6)]
        ),
    ],
    # spiral: a free courtyard reachable only through the winding corridor
    [spiral_polygon(0, 0, 2)],
    # staircase band with a rect wedged under the steps
    [staircase_polygon(0, 0, 3, 3, 3, 5), Rect(7, -4, 9, -1)],
    # tall seam column: U with a deep narrow cavity
    [RectilinearPolygon([(0, 0), (9, 0), (9, 20), (6, 20), (6, 3), (3, 3), (3, 20), (0, 20)])],
    # seam endpoints exactly aligned with a neighbouring rect's edges
    [plus_polygon(6, 6, 5, 2), Rect(4, 14, 8, 16)],
    # two plus shapes sharing grid lines
    [plus_polygon(6, 6, 5, 2), plus_polygon(20, 6, 5, 2)],
]


@pytest.mark.parametrize("case", range(len(ADVERSARIAL)))
def test_fuzz_adversarial_seams(case):
    """16 checks: hand-picked seam geometries, two sample seeds each."""
    for seed in (1, 2):
        assert_engines_agree(
            ADVERSARIAL[case], seed=seed, label=f"adversarial-{case}", n_paths=8
        )


def test_tracing_reporter_refuses_polygon_scenes():
    """The §8 reporter is rectangle-only; exposing it on a polygon scene
    would hand back through-seam paths, so the property must refuse."""
    from repro.core.api import ShortestPathIndex
    from repro.errors import QueryError

    idx = ShortestPathIndex.build([plus_polygon(0, 0, 5, 2)])
    with pytest.raises(QueryError, match="rectangle-only"):
        _ = idx.reporter


def test_solid_semantics_blocks_seam_shortcut():
    """The canonical witness: crossing a plus via its decomposition seams
    must cost the full detour, in every engine, with a valid polyline."""
    from repro.core.api import ShortestPathIndex

    plus = plus_polygon(0, 0, 5, 2)
    for engine in ("parallel", "sequential"):
        idx = ShortestPathIndex.build([plus], engine=engine)
        # (2, -2) -> (2, 2): straight through the east arm seam would be 4;
        # the legal route rounds the arm tip at x = 5
        assert idx.length((2, -2), (2, 2)) == 10, engine
        path = idx.shortest_path((2, -2), (2, 2))
        from harness import assert_valid_path

        assert_valid_path(idx, path, (2, -2), (2, 2), 10)


def test_fuzz_parallel_mp_seam_parity():
    """parallel-mp on seam-heavy scenes, inline and on a 2-worker pool:
    the matrix must be byte-identical to the single-process parallel
    engine's."""
    from repro.pipeline import StageCache, build_index
    from repro.scene import Scene

    for seed in (0, 4):
        obstacles = random_polygon_scene(n_polygons=2, n_rects=3, seed=seed)
        scene = Scene.from_obstacles(obstacles)
        ref = build_index(
            scene, engine="parallel", cache=StageCache(max_entries=0)
        )
        for jobs in (1, 2):
            mp = build_index(
                scene, engine="parallel-mp", jobs=jobs,
                cache=StageCache(max_entries=0),
            )
            assert list(mp.index.points) == list(ref.index.points)
            assert mp.index.matrix.tobytes() == ref.index.matrix.tobytes()
