"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class. Subsystems raise the more specific
subclasses below; the exception messages always name the offending object
(table, node, schema element) to make integration failures debuggable.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ValidationError",
    "StorageError",
    "IntegrityError",
    "SchemaError",
    "GraphError",
    "CycleError",
    "QueryError",
    "EmptyAnswerError",
    "ShardError",
    "RankingError",
    "OverloadedError",
    "AnalysisError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (e.g. probability outside [0, 1])."""


class StorageError(ReproError):
    """Generic storage-engine failure (unknown table, bad column, ...)."""


class IntegrityError(StorageError):
    """A constraint (primary key, foreign key, type) was violated."""


class SchemaError(ReproError):
    """An E/R schema is malformed or an operation on it is undefined."""


class GraphError(ReproError):
    """A graph operation failed (unknown node, missing source, ...)."""


class CycleError(GraphError):
    """A DAG-only algorithm was applied to a cyclic graph."""


class QueryError(ReproError):
    """An exploratory query could not be executed against the mediator."""


class EmptyAnswerError(QueryError):
    """A well-formed query produced an empty answer set.

    ``kind`` says at which stage emptiness surfaced — ``"no-seeds"``
    (no record matches the predicate), ``"dangling-seeds"`` (every
    matching record was dangling) or ``"no-answers"`` (the expansion
    reached no record of any output set). The sharded scatter/gather
    executor relies on the distinction: a shard whose *partition* is
    empty is an empty result fragment, not a failure, and only when
    every shard comes back empty is the single-engine error re-raised.
    """

    #: emptiness kinds, ordered by how far execution got
    KINDS = ("no-seeds", "dangling-seeds", "no-answers")

    def __init__(self, message: str, kind: str = "no-answers"):
        super().__init__(message)
        if kind not in self.KINDS:
            raise ValueError(f"unknown emptiness kind {kind!r}")
        self.kind = kind


class ShardError(QueryError):
    """A shard could not answer: its worker stayed unreachable despite
    bounded restarts, or it raised an error the other relevant shards
    did not. Infrastructure trouble, not a property of the query — the
    HTTP layer answers it with ``502``."""


class RankingError(ReproError):
    """A ranking method failed or was configured inconsistently."""


class OverloadedError(ReproError):
    """A request was shed by admission control: the session's in-flight
    cap was reached and its admission queue was full.

    Shedding is deliberate backpressure, not a failure of the query —
    the same request retried after :attr:`retry_after` seconds (the
    value the HTTP layer surfaces as a ``Retry-After`` header with its
    503 response) is expected to succeed once load drains.
    """

    def __init__(self, message: str, retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = float(retry_after)


class AnalysisError(ReproError):
    """Static analysis refused a schema (``open_session(lint="error")``)
    or could not run at all (unloadable CLI target).

    ``detections`` carries the error-severity
    :class:`~repro.analysis.Detection` objects that triggered the
    refusal, so callers can inspect the REPRO codes programmatically.
    """

    def __init__(self, message: str, detections: tuple = ()):
        super().__init__(message)
        self.detections = tuple(detections)
