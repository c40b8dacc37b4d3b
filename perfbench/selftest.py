"""Smoke-sized self-tests of the benchmark itself.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

They check that the seeded inputs are identical across invocations
(including a fresh interpreter with another hash seed), that every
workload's checker counts an injected wrong answer, that the span checks
of the traced runs trip on spans that cannot be right, that the
exact per-layer counts of a traced build repeat, and that the run's
cleanup leaves no child process behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

import common

common.use_checkout_sources()

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import wl_build  # noqa: E402
import wl_repair  # noqa: E402
import wl_serve  # noqa: E402
from layers import solve_check, solve_layers  # noqa: E402
from tracer import Tracer, solve_targets  # noqa: E402

SEED = 5


def inputs_digest(seed: int) -> str:
    """A digest over every kind of generated input for ``seed``."""
    from itertools import islice

    serve = inputs.serve_scenes(seed)
    verts = {name: sorted({v for r in rects for v in r.vertices}) for name, rects in serve.items()}
    doc = {
        "build": [inputs.build_scene(seed, k) for k in range(3)],
        "warmup": inputs.warmup_scene(seed),
        "repair": [inputs.repair_scene(seed, s) for s in range(inputs.REPAIR_STREAMS)],
        "edits": list(islice(inputs.repair_edits(seed), 40)),
        "serve": serve,
        "requests": inputs.request_pool(seed, serve, verts),
    }
    return hashlib.sha256(repr(doc).encode()).hexdigest()


def test_inputs_identical_across_invocations():
    here = inputs_digest(SEED)
    assert inputs_digest(SEED) == here
    assert inputs_digest(SEED + 1) != here
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import selftest; "
        "print(selftest.inputs_digest(int(sys.argv[2])))"
    )
    env = dict(os.environ, PYTHONHASHSEED="12345")
    out = subprocess.run(
        [sys.executable, "-c", code, os.path.dirname(os.path.abspath(__file__)), str(SEED)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert out.stdout.strip() == here


def test_edit_stream_never_repeats_an_obstacle():
    base, pool = inputs.repair_scene(SEED, 0)
    seen = set(base)
    current = set(base)
    for op, rect in inputs.edit_stream(SEED, 0, base, pool):
        if op == "delete":
            assert rect in current
            current.remove(rect)
        else:
            assert rect not in seen
            seen.add(rect)
            current.add(rect)
    assert len(current) == len(base)


def test_build_checker_counts_a_wrong_answer():
    scene = wl_build._scene(inputs.build_scene(SEED, 0))
    sample = wl_build._sample(SEED, 0, wl_build._build(scene))
    assert wl_build.check(SEED, [sample]) == 0
    bad = dict(sample, values=sample["values"].copy())
    bad["values"][0, -1] += 1
    assert wl_build.check(SEED, [sample, bad]) == 1


def test_repair_checker_counts_a_wrong_answer():
    idxs, _ = wl_repair.setup(SEED)
    _, samples, _, _ = wl_repair.repairs(SEED, idxs, count=wl_repair.COLD_EVERY)
    cold = [s for s in samples if "digest" in s]
    assert cold, "one op in every COLD_EVERY is checked against a cold rebuild"
    assert wl_repair.check(samples) == 0
    wrong_row = dict(samples[0], values=samples[0]["values"].copy())
    wrong_row["values"][0, -1] += 1
    # bytes that differ from the cold rebuild, the oracle rows notwithstanding
    wrong_bytes = dict(cold[0], digest=hashlib.sha256(b"not the matrix").hexdigest())
    assert wl_repair.check([wrong_row, wrong_bytes]) == 2


def _serve_answers():
    from repro.pipeline import StageCache, build_index
    from repro.scene import Scene

    scenes = inputs.serve_scenes(SEED)
    indexes = {
        name: build_index(Scene.from_obstacles(r), cache=StageCache())
        for name, r in scenes.items()
    }
    pool = inputs.request_pool(SEED, scenes, {n: i.vertices() for n, i in indexes.items()})
    records = []
    for i, req in enumerate(pool[:80]):
        w = req["wire"]
        idx = indexes[w["scene"]]
        p, q = tuple(w["p"]), tuple(w["q"])
        if w["op"] == "path":
            result = [list(v) for v in idx.shortest_path(p, q)]
        elif w["op"] == "minlink":
            result = {"links": int(idx.min_links(p, q))}
        else:
            result = float(idx.length(p, q))
        records.append((i, 0.0, 0.0, {"ok": True, "result": result}))
    return records, pool, indexes


def test_serve_checker_counts_wrong_answers():
    records, pool, indexes = _serve_answers()
    assert {pool[i]["verb"] for i, *_ in records} == {"length", "arbitrary", "path", "minlink"}
    assert wl_serve.check(records, pool, indexes) == 0
    by_op = {}
    for rec in records:
        by_op.setdefault(pool[rec[0]]["wire"]["op"], rec)
    i, _, _, resp = by_op["length"]
    injected = [(i, 0.0, 0.0, {"ok": True, "result": resp["result"] + 2})]
    i, _, _, resp = by_op["minlink"]
    injected.append((i, 0.0, 0.0, {"ok": True, "result": {"links": resp["result"]["links"] + 1}}))
    i, _, _, resp = by_op["path"]
    p, q = resp["result"][0], resp["result"][-1]
    up = max(v[1] for v in resp["result"]) + 1000  # a rectilinear detour
    detour = [p, [p[0], up], [q[0], up], q]
    injected.append((i, 0.0, 0.0, {"ok": True, "result": detour}))
    injected.append((i, 0.0, 0.0, {"ok": True, "result": resp["result"][:-1]}))
    injected.append((i, 0.0, 0.0, {"ok": False, "error": "injected"}))
    assert wl_serve.check(records + injected, pool, indexes) == len(injected)


def test_traced_counts_repeat_exactly():
    scene = wl_build._scene(inputs.build_scene(SEED, 1))
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install(solve_targets())
        try:
            prov = wl_build._build(scene).provenance
        finally:
            tracer.uninstall()
        assert solve_check(tracer, [prov]) == []
        values = solve_layers(tracer, [prov])
        counts.append({k: v for k, v in values.items()
                       if k.endswith((".calls", ".cells")) or k.startswith("pram.")})
    assert counts[0] == counts[1]
    assert counts[0]["solve.minplus_naive.calls"] > 0
    assert counts[0]["solve.rayshoot.calls"] > 0
    # the wrappers are gone again: untraced code runs untouched
    from repro.core import allpairs

    assert not hasattr(allpairs.minplus_naive, "__wrapped__")


def test_tracer_self_time_sums_to_root():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: sum(range(20000)))
    root = tracer.wrap("root", lambda: [leaf() for _ in range(3)])
    root()
    summ = tracer.summary()
    total = summ["root"]["total_s"]
    assert summ["leaf"]["calls"] == 3
    assert abs(summ["root"]["self_s"] + summ["leaf"]["self_s"] - total) < 1e-9
    assert np.isclose(summ["leaf"]["self_s"], summ["leaf"]["total_s"])


def _solve_spans(spans, solve_wall_s=1.0):
    """A tracer holding ``spans`` ([name, t0, t1, parent, cells] each)
    and the provenance of one op whose solve stage took ``solve_wall_s``."""
    tracer = Tracer()
    tracer.spans.extend([list(sp) for sp in spans])
    prov = {"stages": [{"name": "solve", "wall_s": solve_wall_s, "cached": False}]}
    return tracer, [prov]


def test_solve_check_trips_on_misnested_spans():
    engine = ["solve.engine", 0.0, 1.0, -1, 0]
    assert solve_check(*_solve_spans([engine, ["solve.leaf", 0.1, 0.5, 0, 0]])) == []
    # a child that outlasts its parent, and so exceeds the solve stage
    outlasts = solve_check(*_solve_spans([engine, ["solve.leaf", 0.1, 1.2, 0, 0]]))
    assert len(outlasts) == 2
    # a layer called outside the solve engine
    assert solve_check(*_solve_spans([engine, ["solve.leaf", 1.1, 1.2, -1, 0]]))
    # an engine span longer than the solve stage that holds it
    assert solve_check(*_solve_spans([engine], solve_wall_s=0.5))


def test_serve_span_check_trips_on_negative_gaps():
    pool = [{"verb": "length", "wire": {"op": "length", "scene": "s0", "p": [0, 0], "q": [1, 1]}}]

    def traced(rtt, request, rpc, service):
        spans = [{"name": "request", "t0": 0.0, "dur": request},
                 {"name": "queue_wait", "t0": 0.0, "dur": 1e-4},
                 {"name": "worker_rpc", "t0": 0.0, "dur": rpc},
                 {"name": "worker.service", "t0": 0.0, "dur": service}]
        return (0, 0.0, rtt, {"ok": True, "result": 1.0, "trace": {"spans": spans}})

    good = traced(0.004, 0.003, 0.001, 0.0008)
    records = [good,
               traced(0.004, 0.005, 0.001, 0.0008),  # request span longer than the rtt
               traced(0.004, 0.003, 0.001, 0.0012),  # service longer than the rpc
               (0, 0.0, 0.004, {"ok": True, "result": 1.0})]  # no spans at all
    _, bad = wl_serve.serve_layers([good], [good], pool, {}, {}, Tracer())
    assert bad == []
    _, bad = wl_serve.serve_layers([good], records, pool, {}, {}, Tracer())
    assert len(bad) == 3


def test_serve_mix_follows_the_load_generator_default():
    from repro.cluster.loadgen import DEFAULT_MIX

    bulk, arbitrary, path = DEFAULT_MIX
    single = {"length": 1 - bulk - arbitrary - path, "arbitrary": arbitrary, "path": path}
    scale = (1 - inputs.SERVE_MINLINK) / sum(single.values())
    want = {verb: w * scale for verb, w in single.items()}
    want["minlink"] = inputs.SERVE_MINLINK
    got = dict(inputs.SERVE_MIX)
    assert got.keys() == want.keys()
    assert all(np.isclose(got[verb], want[verb]) for verb in want)


def test_benchmark_json_matches_the_code():
    with open(common.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    metrics, _ = common.e2e_metrics([1.0], [0.5, 0.7], 1.2, 100.0)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        k: v["unit"] for k, v in metrics.items()
    }
    import run

    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_fails_without_library_sources():
    """Alone with BENCHMARK.json and its own files, a run exits nonzero
    and prints no result."""
    common.OUT.mkdir(exist_ok=True)
    bare = pathlib.Path(tempfile.mkdtemp(prefix="bare-", dir=common.OUT))
    try:
        shutil.copy(common.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(pathlib.Path(__file__).parent, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "build", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare)
    assert out.returncode != 0
    assert out.stdout == ""


_ORPHAN_SCRIPT = """
import os, subprocess, sys, time
sys.path.insert(0, sys.argv[1])
import common
from multiprocessing import shared_memory
common.adopt_orphans()
seg = shared_memory.SharedMemory(create=True, size=64)  # starts the tracker
seg.close(); seg.unlink()
# a child that exits at once, leaving its own child orphaned
subprocess.Popen([sys.executable, "-c",
    "import subprocess, sys; subprocess.Popen([sys.executable, '-c', "
    "'import time; time.sleep(0.3)'])"]).wait()
time.sleep(0.05)
adopted = common._children(os.getpid())
common.stop_children(timeout_s=5.0)
print(len(adopted), len(common._children(os.getpid())))
"""


def test_run_leaves_no_process_behind():
    """The resource tracker and an orphaned grandchild are adopted and
    waited for: no child, not even a zombie, outlives the cleanup."""
    out = subprocess.run(
        [sys.executable, "-c", _ORPHAN_SCRIPT, os.path.dirname(os.path.abspath(__file__))],
        capture_output=True, text=True, timeout=60, check=True,
    )
    adopted, left = map(int, out.stdout.split())
    assert adopted >= 2  # the tracker and the orphan
    assert left == 0


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    for name, fn in tests:
        fn()
        print(json.dumps({"test": name, "ok": True}))
    print(f"{len(tests)} self-tests passed")
