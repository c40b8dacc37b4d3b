"""Exception hierarchy for :mod:`repro`.

Every error raised on purpose by the library derives from :class:`ReproError`
so callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GeometryError(ReproError):
    """Invalid geometric input (malformed rectangle, non-monotone chain...)."""


class DisjointnessError(GeometryError):
    """Obstacle set violates the pairwise-disjoint-interiors requirement."""


class ConvexityError(GeometryError):
    """A polygon that must be rectilinear convex is not."""


class PRAMError(ReproError):
    """Misuse of the simulated CREW-PRAM."""


class ConcurrentWriteError(PRAMError):
    """Two processors wrote the same shared cell in one step (CREW violation)."""


class MongeError(ReproError):
    """A matrix required to be Monge is not (and no fallback was allowed)."""


class EngineError(ReproError, ValueError):
    """An unknown or misconfigured build engine was requested.

    Also a :class:`ValueError`: engine names used to be checked by a
    string ``if/elif`` that raised ``ValueError``, and callers catching
    that keep working against the registry.
    """


class QueryError(ReproError):
    """A query was made against a structure that cannot answer it."""


class SnapshotError(ReproError):
    """A snapshot artifact is corrupt, truncated, or format-incompatible."""


class ClusterError(ReproError):
    """A cluster component failed: bad wire frame, dead worker, scene publish."""


class ObsError(ReproError):
    """Metrics/tracing misuse: bad label set, cardinality overflow, bad buckets."""
