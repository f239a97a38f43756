"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch one type to handle all library
failures while still letting programming errors (``TypeError`` and friends)
propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "QueryError",
    "ConstraintError",
    "InfeasibleConstraintsError",
    "DatasetError",
    "AlgorithmError",
    "UnknownAlgorithmError",
    "BudgetExceededError",
    "ServiceError",
    "UnknownGraphError",
    "AdmissionError",
    "WorkerCrashedError",
    "StreamingError",
    "UnknownSubscriptionError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Invalid data-graph construction or access (bad vertex id, bad edge)."""


class QueryError(ReproError):
    """Invalid query graph (duplicate edge, self loop, missing label, ...)."""


class ConstraintError(ReproError):
    """Invalid temporal-constraint set (bad edge index, negative gap, ...)."""


class InfeasibleConstraintsError(ConstraintError):
    """The temporal-constraint set admits no timestamp assignment at all.

    Detected by a negative cycle in the difference-constraint graph, e.g.
    ``(0, 1, 5)`` together with ``(1, 0, 3)`` forces ``t0 == t1`` which is
    feasible, but ``(0, 1, 5)`` with an implied strict ordering the other way
    is not.  Raised eagerly by :meth:`TemporalConstraints.closed` so matchers
    can skip work that provably yields zero matches.
    """


class DatasetError(ReproError):
    """Problems loading or generating datasets."""


class AlgorithmError(ReproError):
    """A matcher was invoked with inputs it cannot process."""


class UnknownAlgorithmError(AlgorithmError):
    """An algorithm name passed to the engine is not registered."""


class BudgetExceededError(ReproError):
    """A matcher exceeded its configured time or match budget.

    Only raised when the caller opts in (``on_budget="raise"``); by default
    matchers stop quietly and flag :attr:`SearchStats.budget_exhausted`.
    """


class ServiceError(ReproError):
    """Base class for errors raised by the query-serving subsystem."""


class UnknownGraphError(ServiceError):
    """A request referenced a graph name not present in the registry."""


class AdmissionError(ServiceError):
    """The service refused a query because it is at its in-flight limit.

    Load shedding, not failure: the request was never executed and can be
    retried once in-flight queries drain.
    """


class WorkerCrashedError(ServiceError):
    """A process-pool worker died while the query was in flight.

    The executor kills that query's workers; the next process-pool query
    forks replacements, so a retry is safe.
    """


class StreamingError(ReproError):
    """Invalid standing-subscription or edge-ingest request."""


class UnknownSubscriptionError(StreamingError):
    """A request referenced a subscription id not registered on the engine."""
