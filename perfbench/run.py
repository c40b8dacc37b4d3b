"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload build --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``build``  cold parallel builds of distinct seeded 128-obstacle scenes;
* ``repair`` a seeded delete/insert edit stream through ``update_index``;
* ``serve``  a closed loop on two connections against a one-worker
  ``repro cluster`` process serving snapshots of seeded scenes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload's traced pass and prints every per-layer metric, 0 for a layer
the workload does not reach (the spans are written to
``perfbench/out/``).  Every answer is checked outside the timed region;
in a traced run, so is the spans' nesting, and each span that cannot be
right counts as a failure.
The last line of standard output is the result object ``{"correct",
"attempted", "failed", "metrics"}``; the line before it carries the
host context, the seed, the sample count, the p99 latency and each
set-up's time.  Run from the root of a source checkout: the library is
imported from its ``src`` directory.  ``perfbench/selftest.py`` holds
the benchmark's own smoke-sized tests.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys
import time

import common

WORKLOADS = ("build", "repair", "serve")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run(args: argparse.Namespace) -> dict:
    import layers
    from tracer import Tracer

    module = importlib.import_module(f"wl_{args.workload}")
    if not args.trace:
        return module.run(args.seed, args.seconds)
    tracer = Tracer()
    res = module.run_traced(args.seed, args.seconds, tracer)
    res["layers"]["error_frac"] = res["failed"] / max(1, res["attempted"])
    # a span nesting that cannot be right fails the run like a wrong answer
    violations = res.pop("violations")
    res["failed"] += len(violations)
    res.setdefault("info", {})["span_check_failures"] = violations[:20]
    res["metrics"] = layers.complete(res.pop("layers"))
    common.OUT.mkdir(exist_ok=True)
    tracer.dump(common.OUT / f"spans-{args.workload}-{args.seed}.jsonl.gz")
    return res


def _terminate(signum, frame):
    # unwind through the workloads' cleanup (the serve workload stops its
    # cluster process in a finally block)
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        common.use_checkout_sources()
    except common.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    common.adopt_orphans()
    t0 = time.perf_counter()
    try:
        res = run(args)
    finally:
        # no process the run started, or that one of them started, may
        # outlive it: not even as a zombie nobody waits for
        common.stop_children()
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": common.host_context(),
        "wall_s": time.perf_counter() - t0,
        **res.get("info", {}),
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": res["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
