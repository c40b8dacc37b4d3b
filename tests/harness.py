"""Shared verification toolkit for the test suite.

Thin assertion wrappers around :mod:`repro.core.crosscheck` so every test
validates paths and cross-checks engines the same way:

``assert_valid_path(idx, path, p, q, expected_len)``
    the polyline is rectilinear, endpoint-correct, clear of every obstacle
    interior (polygon interiors included), inside the container, and
    exactly as long as reported.  The polyline is normalized (duplicate
    vertices dropped, collinear runs merged) and the exact bend count is
    returned — pass ``expected_bends`` to assert it, as the link-query
    tests do.

``assert_engines_agree(obstacles, ...)``
    parallel vs sequential vs grid-Dijkstra baseline report identical
    vertex matrices, valid sampled paths, and oracle-exact arbitrary-point
    queries.  On failure the scene is shrunk and dumped as replayable JSON
    under ``tests/failures/`` (load it back with
    ``python -m repro query <dump> ...`` or ``repro.scene.Scene.load``).
"""

from __future__ import annotations

import pathlib

from repro.core.crosscheck import check_scene, shrink_scene, validate_path
from repro.scene import Scene

FAILURE_DIR = pathlib.Path(__file__).parent / "failures"


def assert_valid_path(idx, path, p, q, expected_len=None, expected_bends=None) -> int:
    """Assert one reported polyline is fully valid (see module docstring)
    and return its exact bend count (counted on the normalized polyline,
    so collinear or duplicate vertices never inflate it)."""
    from repro.links.solver import count_bends

    if expected_len is None:
        expected_len = idx.length(p, q)
    problems = validate_path(
        idx, path, p, q, expected_len, expected_bends=expected_bends
    )
    assert not problems, "; ".join(problems)
    return count_bends(path)


def assert_valid_path_raw(
    rects, path, p, q, expected_len, seams=(), container=None,
    expected_bends=None,
) -> int:
    """assert_valid_path for engine-level tests that have no facade index:
    pass the obstacle rects (and seams/container) directly."""
    from repro.links.solver import count_bends

    class _Shim:
        def __init__(self):
            self.rects = list(rects)
            self.seams = list(seams)
            self.container = container

    problems = validate_path(
        _Shim(), path, p, q, expected_len, expected_bends=expected_bends
    )
    assert not problems, "; ".join(problems)
    return count_bends(path)


def assert_engines_agree(
    obstacles, container=None, extra_points=(), seed=0, label="scene", **kw
) -> None:
    """Assert the three engines agree on one scene; dump a shrunk
    replayable counterexample JSON if they do not."""
    problems = check_scene(
        obstacles, container, extra_points=extra_points, seed=seed, **kw
    )
    if not problems:
        return
    small, small_container = shrink_scene(
        obstacles, container,
        lambda obs, cont: bool(check_scene(obs, cont, seed=seed, **kw)),
    )
    FAILURE_DIR.mkdir(exist_ok=True)
    dump = FAILURE_DIR / f"{label}_{seed}.json"
    Scene.from_obstacles(small, small_container).save(dump)
    raise AssertionError(
        f"engines disagree on {label} (seed {seed}): {problems[0]} "
        f"[{len(problems)} problem(s); shrunk replay scene: {dump}]"
    )
