"""The paper's algorithms: separators, engines, queries, path reporting.

Module map (paper section → module):

* §3 Theorem 2 → :mod:`repro.core.separator`
* §3 Lemma 6 → :mod:`repro.core.tracing`
* §5/§6.3 → :mod:`repro.core.allpairs` (parallel engine), run on worker
  processes by :mod:`repro.core.pool`
* §6.4 → :mod:`repro.core.query`
* §7 → :mod:`repro.core.implicit`
* §8 → :mod:`repro.core.pathreport`
* §9 → :mod:`repro.core.sequential`
* oracle/baselines → :mod:`repro.core.baseline`
* cross-engine differential checking → :mod:`repro.core.crosscheck`
* facade → :mod:`repro.core.api`
"""

from repro.core.allpairs import DistanceIndex, ParallelEngine, build_vertex_index
from repro.core.api import ShortestPathIndex, split_obstacles
from repro.core.crosscheck import check_scene, shrink_scene
from repro.core.baseline import GridOracle, repeated_single_source_matrix
from repro.core.discretize import DiscretizedBoundary
from repro.core.implicit import ImplicitBoundaryStructure
from repro.core.pathreport import PathReporter, ShortestPathTree
from repro.core.query import QueryStructure
from repro.core.separator import Separator, staircase_separator
from repro.core.sequential import SequentialEngine, build_sequential_index
from repro.core.tracing import TraceForests, TracedPath, combine_traces

__all__ = [
    "DistanceIndex",
    "ParallelEngine",
    "build_vertex_index",
    "ShortestPathIndex",
    "split_obstacles",
    "check_scene",
    "shrink_scene",
    "GridOracle",
    "repeated_single_source_matrix",
    "DiscretizedBoundary",
    "ImplicitBoundaryStructure",
    "PathReporter",
    "ShortestPathTree",
    "QueryStructure",
    "Separator",
    "staircase_separator",
    "SequentialEngine",
    "build_sequential_index",
    "TraceForests",
    "TracedPath",
    "combine_traces",
]
