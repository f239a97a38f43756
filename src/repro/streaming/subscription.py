"""Standing subscriptions: a registered pattern plus its compiled plans.

A subscription is a TCSM pattern registered once against a live edge
stream.  Registration front-loads everything the per-edge delta search
needs, so ingest pays no per-edge planning cost:

* one connected query-edge **pin order** per query edge (the new data
  edge can arrive at any position of a future match, so every position
  gets an order that starts there — the classic continuous-matching
  delta decomposition);
* one **window plan** per pin order, from
  :func:`repro.core.windows.build_edge_window_plan` over the STN closure
  — at each search position the already-bound timestamps intersect into
  one feasible ``[lo, hi]`` interval, and candidates outside it are
  never materialised.  Because the closure bounds are checked pairwise
  at bind time, a completed embedding has already satisfied every raw
  constraint — the delta search needs no leaf post-filter;
* the **maximum feasible span**: the largest finite closure distance
  between any two query edges.  An ingested edge at time ``t`` can only
  join matches whose other timestamps lie in ``[t - span, t + span]``,
  which is what lets the engine expire dead partials once the stream's
  watermark has passed that window.

Infeasible constraint sets are rejected at subscribe time
(:class:`~repro.errors.StreamingError`) — they can never emit a match.
"""

from __future__ import annotations

import math
from collections.abc import Hashable
from dataclasses import dataclass, field
from typing import Any

from ..core.match import Match
from ..core.sinks import BoundedQueueSink
from ..core.stats import SearchStats
from ..core.windows import (
    WindowBounds,
    build_edge_window_plan,
    connected_edge_order,
)
from ..errors import StreamingError
from ..graphs import QueryGraph, TemporalConstraints, TemporalEdge

__all__ = [
    "Emission",
    "Subscription",
    "SubscriptionOptions",
    "build_subscription",
]


@dataclass(frozen=True)
class SubscriptionOptions:
    """Per-subscription knobs (all optional).

    Parameters
    ----------
    queue_capacity:
        Maximum undelivered emissions buffered between ``poll`` calls;
        when full, the oldest emission is dropped and counted in
        ``emissions_dropped`` (bounded memory beats unbounded backlog
        for a dashboard consumer).
    lateness:
        How far (in timestamp units) behind the watermark an edge may
        arrive and still be considered in-order for partial expiry.
        Purely an accounting knob — match emission is exact under any
        arrival order regardless.
    search_budget:
        Wall-clock ceiling in seconds for a single per-edge delta
        search.  ``None`` (the default) searches exhaustively, which is
        what makes streamed emissions exactly equal the one-shot match
        multiset; setting a budget trades that exactness for bounded
        ingest stalls on pathological patterns (a hit is recorded in the
        subscription's ``stats.deadline_hit``).
    """

    queue_capacity: int = 1024
    lateness: int = 0
    search_budget: float | None = None

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise StreamingError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.lateness < 0:
            raise StreamingError(
                f"lateness must be >= 0, got {self.lateness}"
            )
        # Written so that NaN, which compares false, fails it too.
        if self.search_budget is not None and not self.search_budget > 0:
            raise StreamingError(
                f"search_budget must be positive, got {self.search_budget}"
            )


@dataclass(frozen=True)
class Emission:
    """One match pushed to a subscription's queue.

    ``seq`` increments per subscription; ``edge`` is the ingested edge
    that completed the match (its last-arriving edge); ``latency_seconds``
    measures append-to-emission wall clock for that edge.
    """

    subscription_id: str
    seq: int
    match: Match
    edge: TemporalEdge
    latency_seconds: float

    def to_dict(self) -> dict[str, Any]:
        """Plain-data view used for JSONL ``poll`` responses."""
        return {
            "subscription_id": self.subscription_id,
            "seq": self.seq,
            "vertices": list(self.match.vertex_map),
            "edges": [list(edge) for edge in self.match.edge_map],
            "edge": list(self.edge),
            "latency_seconds": self.latency_seconds,
        }


@dataclass
class Subscription:
    """One standing pattern plus its compiled delta-search plans.

    Built by :func:`build_subscription`; owned and mutated exclusively by
    the :class:`~repro.streaming.StreamingEngine` under its lock (the
    queue, partial-ledger and counter fields are engine-private state).
    """

    id: str
    query: QueryGraph
    constraints: TemporalConstraints
    options: SubscriptionOptions
    #: Per pin position: a connected query-edge order starting there.
    pin_orders: tuple[tuple[int, ...], ...]
    #: Pin positions per (source label, target label) of the data edge,
    #: ascending, so a new edge finds its pins in one lookup.  Label
    #: pairs no position accepts are absent.
    pin_index: dict[tuple[Hashable, Hashable], tuple[int, ...]]
    #: Per pin position: the STN-closure window plan for its pin order.
    window_plans: tuple[tuple[WindowBounds, ...], ...]
    #: Largest finite closure distance between any two query edges
    #: (``math.inf`` when some pair is unconstrained — such partials
    #: never expire).
    max_span: float
    stats: SearchStats = field(default_factory=SearchStats)
    #: Undelivered emissions, buffered by the shared drop-oldest sink
    #: from :mod:`repro.core.sinks` (capacity =
    #: ``options.queue_capacity``; drops counted by the sink itself).
    queue: BoundedQueueSink[Emission] = field(init=False)
    #: Min-heap of ``(expiry_time, token)`` for live partial candidacies.
    partials: list[tuple[float, int]] = field(default_factory=list)
    next_seq: int = 0
    matches_emitted: int = 0
    edges_seen: int = 0
    searches: int = 0
    searches_skipped: int = 0
    partials_expired: int = 0
    #: Wall-clock spent inside this subscription's delta searches.
    search_seconds: float = 0.0
    #: Append-to-emission latency of the most recent emission.
    last_latency_seconds: float = 0.0

    def __post_init__(self) -> None:
        self.queue = BoundedQueueSink(self.options.queue_capacity)

    @property
    def emissions_dropped(self) -> int:
        """Oldest-first drops the bounded queue made past its capacity."""
        return self.queue.dropped

    def describe(self) -> dict[str, Any]:
        """Plain-data summary for ``metrics_snapshot`` / JSONL responses."""
        return {
            "id": self.id,
            "query_edges": self.query.num_edges,
            "constraints": len(self.constraints),
            "matches_emitted": self.matches_emitted,
            "queue_depth": len(self.queue),
            "emissions_dropped": self.emissions_dropped,
            "edges_seen": self.edges_seen,
            "searches": self.searches,
            "searches_skipped": self.searches_skipped,
            "partials_live": len(self.partials),
            "partials_expired": self.partials_expired,
            "search_seconds": self.search_seconds,
            "last_latency_seconds": self.last_latency_seconds,
        }


def build_subscription(
    sub_id: str,
    query: QueryGraph,
    constraints: TemporalConstraints,
    options: SubscriptionOptions | None = None,
) -> Subscription:
    """Validate the pattern and compile its per-pin delta-search plans."""
    if query.num_edges == 0:
        raise StreamingError("subscriptions need at least one query edge")
    if constraints.num_edges != query.num_edges:
        raise StreamingError(
            f"constraints expect {constraints.num_edges} query edges, "
            f"query has {query.num_edges}"
        )
    if not constraints.is_feasible():
        raise StreamingError(
            "constraint set is infeasible: no timestamp assignment can "
            "satisfy it, so the subscription would never emit"
        )
    pin_orders = tuple(
        tuple(connected_edge_order(query, e)) for e in range(query.num_edges)
    )
    index: dict[tuple[Hashable, Hashable], list[int]] = {}
    for pin, (u, v) in enumerate(query.edges):
        index.setdefault((query.label(u), query.label(v)), []).append(pin)
    window_plans = tuple(
        build_edge_window_plan(order, constraints, closure=True)
        for order in pin_orders
    )
    dist = constraints.distance_matrix()
    max_span = 0.0
    for x in range(query.num_edges):
        row = dist[x]
        for y in range(query.num_edges):
            if x == y:
                continue
            bound = row[y]
            if bound == math.inf:
                max_span = math.inf
            elif bound > max_span:
                max_span = bound
    return Subscription(
        id=sub_id,
        query=query,
        constraints=constraints,
        options=options or SubscriptionOptions(),
        pin_orders=pin_orders,
        pin_index={key: tuple(pins) for key, pins in index.items()},
        window_plans=window_plans,
        max_span=max_span,
    )
