"""Unit tests for the min-link / bicriteria query family.

The exhaustive differential coverage lives in ``test_fuzz_links.py``
(210 seeded scenes against the grid oracle); these are the known-answer
and plumbing tests: hand-checkable frontiers, batched-vs-single
agreement, snapshot round-trips, header-verb capability gating, the
QueryServer verbs, and the CLI surfaces.
"""

import json

import numpy as np
import pytest

from repro.__main__ import main
from repro.core.api import ShortestPathIndex
from repro.errors import QueryError, SnapshotError
from repro.geometry.primitives import Rect
from repro.serve.server import QueryServer, Request
from repro.serve.snapshot import (
    SNAPSHOT_VERSION,
    _write_raw,
    load,
    load_arrays,
    read_header,
    reconstruct,
    save,
)
from repro.serve.store import SceneStore
from tests.harness import assert_valid_path

# S on a tall tower, T on a low flat block, a mid block between them
# whose bottom sits one unit above the flat block's: flying over
# everything is long but straight, threading under the mid block and
# over the flat one is shortest but weaves.  Frontier worked out by
# hand: (88, 2 bends), (84, 3), (82, 4).
BLOCKS = [Rect(0, 0, 10, 20), Rect(40, 15, 46, 30), Rect(54, 14, 70, 22)]
S, T = (0, 20), (70, 22)


@pytest.fixture(scope="module")
def blocks_idx():
    return ShortestPathIndex.build(BLOCKS, engine="parallel")


class TestKnownAnswers:
    def test_three_point_frontier(self, blocks_idx):
        frontier = blocks_idx.bicriteria(S, T)
        assert [(length, bends) for length, bends, _ in frontier] == [
            (88.0, 2),
            (84.0, 3),
            (82.0, 4),
        ]
        for length, bends, path in frontier:
            assert_valid_path(
                blocks_idx, path, S, T, expected_len=length, expected_bends=bends
            )

    def test_extremes_match_frontier_ends(self, blocks_idx):
        assert blocks_idx.min_links(S, T) == 3
        assert blocks_idx.length(S, T) == 82.0
        witness = blocks_idx.min_link_path(S, T)
        # min-link witness: fewest bends, minimum length among those
        assert_valid_path(
            blocks_idx, witness, S, T, expected_len=88.0, expected_bends=2
        )

    def test_degenerate_and_straight(self, blocks_idx):
        assert blocks_idx.min_links(S, S) == 0
        assert blocks_idx.bicriteria(S, S) == [(0, 0, [S])]
        # an unobstructed collinear pair is one segment, zero bends
        assert blocks_idx.min_links((0, 40), (70, 40)) == 1

    def test_batched_agree_with_singles(self, blocks_idx):
        vs = blocks_idx.vertices()
        pairs = [(vs[i], vs[-1 - i]) for i in range(len(vs) // 2)] + [(S, T)]
        singles = [blocks_idx.min_links(p, q) for p, q in pairs]
        assert blocks_idx.link_counts(pairs) == singles
        fronts = blocks_idx.paretos(pairs)
        for (p, q), front in zip(pairs, fronts):
            expect = [
                (length, bends)
                for length, bends, _ in blocks_idx.bicriteria(p, q, with_paths=False)
            ]
            assert front == expect

    def test_arbitrary_endpoints_extend_the_grid(self, blocks_idx):
        # off-grid endpoints route through an ad-hoc extended index
        p, q = (3, 33), (67, 3)
        links = blocks_idx.min_links(p, q)
        path = blocks_idx.min_link_path(p, q)
        assert_valid_path(
            blocks_idx, path, p, q,
            expected_len=sum(
                abs(a[0] - b[0]) + abs(a[1] - b[1])
                for a, b in zip(path, path[1:])
            ),
            expected_bends=max(links - 1, 0),
        )


class TestSnapshotV4:
    def test_roundtrip_with_link_matrix(self, blocks_idx, tmp_path):
        snap = save(blocks_idx, tmp_path / "b.rsp", include_links=True)
        header = read_header(snap)
        assert header["version"] == SNAPSHOT_VERSION
        assert set(header["verbs"]) == {"length", "path", "minlink", "pareto"}
        idx = load(snap)
        assert idx._link_matrix is not None
        assert idx.min_links(S, T) == 3
        assert idx.bicriteria(S, T)[0][:2] == (88.0, 2)
        # the persisted matrix is the lookup the loaded index serves from
        n = len(idx.index)
        assert np.asarray(idx._link_matrix).shape == (n, n)

    def test_default_save_has_no_matrix_but_full_verbs(self, blocks_idx, tmp_path):
        snap = save(blocks_idx, tmp_path / "b.rsp")
        idx = load(snap)
        assert idx._link_matrix is None
        # v4 artifacts answer the whole family either way (lazy DP)
        assert idx.min_links(S, T) == 3

    def test_header_verbs_gate_link_queries(self, blocks_idx, tmp_path):
        snap = save(blocks_idx, tmp_path / "b.rsp")
        header, arrays = load_arrays(snap)
        header["verbs"] = ["length", "path"]
        header.pop("toc")
        narrowed = tmp_path / "narrowed.rsp"
        with open(narrowed, "wb") as fh:
            _write_raw(fh, header, {k: v for k, v in arrays.items() if v is not None})
        idx = load(narrowed)
        assert idx.capabilities == ("length", "path")
        assert idx.length(S, T) == 82.0  # the named verbs still answer
        with pytest.raises(QueryError, match="minlink"):
            idx.min_links(S, T)
        with pytest.raises(QueryError, match="pareto"):
            idx.paretos([(S, T)])

    def test_corrupt_link_matrix_shape_rejected(self, blocks_idx, tmp_path):
        snap = save(blocks_idx, tmp_path / "b.rsp", include_links=True)
        header, arrays = load_arrays(snap)
        arrays = {k: v for k, v in arrays.items() if v is not None}
        arrays["link_matrix"] = np.zeros((2, 2), dtype=np.int32)
        with pytest.raises(SnapshotError, match="link matrix shape"):
            reconstruct(header, arrays)


class TestServer:
    def test_minlink_and_pareto_ops(self, blocks_idx, tmp_path):
        snap = save(blocks_idx, tmp_path / "b.rsp", include_links=True)
        store = SceneStore()
        store.add_snapshot("b", snap)
        server = QueryServer(store)
        out = server.submit(
            [
                Request("b", S, T, op="minlink"),
                Request("b", S, T, op="length"),
                Request("b", S, T, op="pareto"),
                Request("b", S, T, op="minlink"),
            ]
        )
        assert out[0] == 3 and out[3] == 3
        assert out[1] == 82.0
        assert out[2] == [(88.0, 2), (84.0, 3), (82.0, 4)]
        assert server.min_links("b", S, T) == 3
        assert server.pareto("b", S, T)[-1] == (82.0, 4)

    def test_unknown_op_rejected(self):
        with pytest.raises(QueryError, match="unknown request op"):
            Request("b", S, T, op="teleport")


class TestCLI:
    def _scene(self, tmp_path):
        scene = tmp_path / "scene.json"
        scene.write_text(
            json.dumps(
                {"rects": [[r.xlo, r.ylo, r.xhi, r.yhi] for r in BLOCKS]}
            )
        )
        return scene

    def test_query_minlink_pareto(self, tmp_path, capsys):
        scene = self._scene(tmp_path)
        assert main(["query", str(scene), "0,20", "70,22",
                     "--minlink", "--pareto"]) == 0
        out = capsys.readouterr().out
        assert "links  = 3 (bends = 2)" in out
        assert "2 bends" in out and "(length 82" in out

    def test_snapshot_links_flag(self, tmp_path, capsys):
        scene = self._scene(tmp_path)
        snap = tmp_path / "scene.rsp"
        assert main(["snapshot", str(scene), str(snap), "--links"]) == 0
        assert "+links" in capsys.readouterr().out
        idx = load(snap)
        assert idx._link_matrix is not None

    def test_query_legacy_snapshot_capability_error(self, tmp_path, capsys):
        scene = self._scene(tmp_path)
        snap = tmp_path / "scene.rsp"
        assert main(["snapshot", str(scene), str(snap)]) == 0
        header, arrays = load_arrays(snap)
        header.pop("verbs")
        header.pop("toc")
        header["version"] = 4
        legacy = tmp_path / "legacy.rsp"
        with open(legacy, "wb") as fh:
            _write_raw(fh, header, {k: v for k, v in arrays.items() if v is not None})
        # one-line re-snapshot error, not a traceback
        with pytest.raises(SystemExit) as exc:
            main(["query", str(legacy), "0,20", "70,22", "--minlink"])
        assert "re-snapshot" in str(exc.value) and "\n" not in str(exc.value)
