"""Layer spans recorded from outside the library.

:class:`Tracer` replaces public layer functions, at the module attribute
the caller looks them up through, with wrappers that record one span per
call: name, start, end and the index of the enclosing span.  Spans stay
in memory; :meth:`Tracer.dump` writes them out when the run ends.  A
layer's self time is its span minus the spans nested directly in it, so
self times of all spans under a root add up to the root's duration.
"""

from __future__ import annotations

import gzip
import json
import time
from typing import Callable, Optional

import numpy as np


def solve_targets() -> list[tuple[object, str, str, Optional[Callable]]]:
    """``(owner, attribute, span name, work counter)`` for every solve
    layer, patched where ``repro.core.allpairs`` (and, for SMAWK,
    ``repro.monge.multiply``) looks them up.  The counter maps a call's
    arguments to a cell count."""
    from repro.core import allpairs
    from repro.geometry.rayshoot import RayShooter
    from repro.geometry.staircase import Staircase
    from repro.monge import multiply

    def cells(a, b, *_, **__):
        a_shape = np.shape(getattr(a, "array", a))
        b_shape = np.shape(getattr(b, "array", b))
        return int(a_shape[0]) * int(a_shape[1]) * int(b_shape[1])

    return [
        (allpairs.ParallelEngine, "build", "solve.engine", None),
        (allpairs, "corner_graph_matrix", "solve.leaf", None),
        (allpairs, "staircase_separator", "solve.separator", None),
        (allpairs, "minplus_naive", "solve.minplus_naive", cells),
        (allpairs, "minplus_monge", "solve.minplus_monge", None),
        (multiply, "smawk_row_minima_array", "solve.smawk", None),
        (allpairs, "_projection_table", "solve.projection_table", None),
        (RayShooter, "shoot", "solve.rayshoot", None),
        (Staircase, "crossings_with_vline", "solve.staircase_crossings", None),
        (Staircase, "crossings_with_hline", "solve.staircase_crossings", None),
    ]


class Tracer:
    """Span recorder over patched layer functions (single-threaded)."""

    def __init__(self) -> None:
        #: one list per span: [name, t0, t1, parent index, cells]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            if count is not None:
                rec[4] = count(*args, **kwargs)
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self, targets) -> None:
        for owner, attr, name, count in targets:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn, count))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def self_seconds(self) -> list[float]:
        """Each span's duration minus its direct children's durations
        (negative if its children outlast it)."""
        own = [rec[2] - rec[1] for rec in self.spans]
        for rec in self.spans:
            if rec[3] >= 0:
                own[rec[3]] -= rec[2] - rec[1]
        return own

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, cells."""
        out: dict[str, dict] = {}
        for rec, own in zip(self.spans, self.self_seconds()):
            row = out.setdefault(rec[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "cells": 0})
            row["calls"] += 1
            row["total_s"] += rec[2] - rec[1]
            row["self_s"] += own
            row["cells"] += rec[4]
        return out

    def dump(self, path) -> None:
        """Write the recorded spans as gzipped JSON lines, one span each."""
        with gzip.open(path, "wt") as fh:
            for i, (name, t0, t1, parent, cells) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "t0": t0, "dur": t1 - t0,
                    "parent": parent, "cells": cells,
                }) + "\n")
