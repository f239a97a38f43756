"""The blessed public facade: one stable import for embedding repro.

Three call shapes cover the supported ways in (see docs/API.md for the
stability tiers)::

    from repro import api

    # One-shot matching -------------------------------------------------
    result = api.match(query, constraints, graph,
                       options=api.MatchOptions(limit=10))

    # Prepare once, match many (plan reuse) -----------------------------
    matcher = api.prepare(query, constraints, graph, algorithm="tcsm-eve")
    result = api.match(query, constraints, graph, matcher=matcher)

    # A long-lived serving stack ---------------------------------------
    service = api.serve()
    service.load_graph("g", graph)
    response = service.submit({"op": "query", "graph": "g", ...})

Everything exported here is **stable**: additions are backwards
compatible and removals go through a deprecation cycle.  Deeper imports
(``repro.core.engine``, ``repro.service.executor``, ...) are internal —
they move without notice.  Run behaviour is chosen only through
:class:`MatchOptions` (callers) and :class:`RunContext` (matchers).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .core import (
    CountEstimate,
    MatchOptions,
    Matcher,
    MatchResult,
    RunContext,
    create_matcher,
    find_matches,
    matcher_kwargs,
)
from .graphs import GraphView, QueryGraph, TemporalConstraints
from .obs import Tracer

if TYPE_CHECKING:
    from .service import ServiceConfig, TCSMService

__all__ = [
    "CountEstimate",
    "MatchOptions",
    "MatchResult",
    "RunContext",
    "match",
    "prepare",
    "serve",
]


def match(
    query: QueryGraph,
    constraints: TemporalConstraints,
    graph: GraphView,
    algorithm: str = "tcsm-eve",
    *,
    options: MatchOptions | None = None,
    matcher: Matcher | None = None,
    tracer: Tracer | None = None,
) -> MatchResult:
    """Run one TCSM query end to end and return matches plus timings.

    The facade twin of :func:`repro.core.find_matches`: all run
    behaviour is chosen through *options*.  Pass a *matcher* from :func:`prepare` to reuse a warm
    plan (its algorithm wins over the *algorithm* argument).
    """
    return find_matches(
        query,
        constraints,
        graph,
        algorithm=algorithm,
        options=options,
        matcher=matcher,
        tracer=tracer,
    )


def prepare(
    query: QueryGraph,
    constraints: TemporalConstraints,
    graph: GraphView,
    algorithm: str = "tcsm-eve",
    *,
    options: MatchOptions | None = None,
    **matcher_options: Any,
) -> Matcher:
    """Build and prepare a matcher for repeated :func:`match` calls.

    Preparation (TCQ/TCQ+ compilation, candidate filtering, window
    plans) runs once here; the returned matcher can then serve many
    ``match(..., matcher=...)`` calls against the same graph without
    re-preparing.  ``options.plan`` shapes the prepared plan, by the
    same rule :func:`match` applies; the remaining
    option fields are per-run and take effect at :func:`match` time.
    """
    implied = matcher_kwargs(options or MatchOptions())
    built = create_matcher(
        algorithm, query, constraints, graph, **{**implied, **matcher_options}
    )
    built.prepare()
    return built


def serve(config: "ServiceConfig | None" = None) -> "TCSMService":
    """A ready :class:`~repro.service.TCSMService` (the serving stack).

    Imports the service subsystem lazily so ``import repro.api`` stays
    cheap for library embedders.  Close the returned service (or use it
    as a context manager) to release its worker pools and any
    shared-memory graph segments.
    """
    from .service import TCSMService

    return TCSMService(config)
