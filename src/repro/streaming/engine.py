"""The streaming engine: delta-driven TCSM over a segmented graph.

:class:`StreamingEngine` owns one :class:`~repro.graphs.SegmentedGraph`
and a set of standing :class:`~repro.streaming.Subscription` objects.
``ingest`` appends each edge to the graph and runs one **pinned delta
search** per subscription: the new edge is pinned at every query-edge
position whose vertex labels (and optional edge label) it satisfies, and
the rest of the pattern is searched over the edges already ingested.

Correctness under *any* arrival order — including fully shuffled streams
— follows from two facts:

* a match is completed exactly when its **last-arriving** edge is
  ingested (before that, some member edge is absent from the graph), and
* for simple query graphs every data edge occupies at most one position
  of a given match (the vertex map is injective, so distinct query edges
  map to distinct ordered vertex pairs), so the completed match is found
  under exactly one pin.

Hence the streamed emission multiset equals the one-shot match multiset
on the final graph — pinned by ``tests/streaming/test_equivalence.py``
across all TCSM algorithms and both graph backends.

Temporal pruning reuses the one-shot stack's window kernel: each search
position intersects the STN-closure bounds against the already-bound
timestamps (:func:`repro.core.windows.feasible_window`) and bisects the
candidate runs down to the feasible interval
(:func:`repro.core.windows.windowed_times`).  Because the closure bounds
are validated pairwise at bind time, completed embeddings satisfy every
raw constraint and no leaf post-filter is needed.

The **partial ledger** is bounded accounting, not a correctness
mechanism: every label-compatible ingested edge opens a candidacy window
``[t - span, t + span]`` (``span`` = the subscription's largest finite
closure distance) during which future arrivals could still extend it
into a match; once the watermark passes ``t + span + lateness`` the
partial is provably dead and is expired from the ledger, feeding the
``partials_live`` / ``partials_expired`` metrics.  Expiry runs once per
``ingest`` call, after its last edge (also when the call fails
partway): the watermark never decreases and the lock is held for the
whole call, so the ledger any caller can observe between calls is the
one a per-edge sweep would have left.

Per edge, ``ingest`` does only per-edge work: one append (one probe per
graph segment) and, per subscription, one dict lookup of the edge's
``(source label, target label)`` in the subscription's pin index —
searching only when some query position accepts those labels.

The engine is thread-safe behind one lock: ``ingest`` is strictly
sequential (single-writer, matching the segmented graph's contract), and
``subscribe`` / ``poll`` / ``metrics_snapshot`` interleave safely with
it.

The one-shot matcher ``tcsm-stream`` (:class:`StreamReplayMatcher`)
runs the same per-edge delta search over a whole graph: it replays the
graph's edges in time order into a growing
:class:`~repro.graphs.TemporalGraph`.
"""

from __future__ import annotations

import heapq
import math
import time
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from threading import Lock
from typing import Any, cast

from ..core.engine import register_algorithm
from ..core.match import Match
from ..core.options import RunContext
from ..core.stats import SearchStats
from ..core.windows import feasible_window, windowed_times
from ..errors import (
    AlgorithmError,
    GraphError,
    StreamingError,
    UnknownSubscriptionError,
)
from ..graphs import (
    GraphSnapshot,
    GraphView,
    QueryGraph,
    SegmentedGraph,
    TemporalConstraints,
    TemporalEdge,
    TemporalGraph,
    ensure_snapshot,
)
from ..obs import NULL_TRACER, TraceSink, assert_lock_held, sanitize_enabled
from .subscription import (
    Emission,
    Subscription,
    SubscriptionOptions,
    build_subscription,
)

__all__ = ["IngestReport", "StreamReplayMatcher", "StreamingEngine"]

#: The engine lock's name in sanitizer errors.
_LOCK_NAME = "StreamingEngine._lock"

#: An edge to ingest: ``(u, v, t)`` or ``(u, v, t, label)``, with
#: ``u``, ``v`` and ``t`` ints (not bools).
EdgeInput = Sequence[Any]


def _is_int(value: object) -> bool:
    """Whether *value* is an int edge field (a bool is not)."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class IngestReport:
    """Outcome of one ``ingest`` call (plain data for JSONL responses)."""

    edges: int
    new_edges: int
    duplicates: int
    emitted: int
    seconds: float
    flushes: int
    compactions: int
    watermark: int | None

    def to_dict(self) -> dict[str, Any]:
        return {
            "edges": self.edges,
            "new_edges": self.new_edges,
            "duplicates": self.duplicates,
            "emitted": self.emitted,
            "seconds": self.seconds,
            "flushes": self.flushes,
            "compactions": self.compactions,
            "watermark": self.watermark,
        }


class StreamingEngine:
    """Standing subscriptions over one live, appendable graph."""

    def __init__(
        self,
        graph: SegmentedGraph,
        *,
        tracer: TraceSink = NULL_TRACER,
    ) -> None:
        self.tracer = tracer
        self._lock = Lock()
        self._graph = graph
        graph.tracer = tracer
        self._subs: dict[str, Subscription] = {}
        self._next_sub = 1
        self._edges_ingested = 0
        self._duplicates = 0
        #: Highest event timestamp ingested so far (stream time, not wall
        #: clock); drives partial expiry.
        self._watermark: int | None = None
        self._partial_tokens = 0

    # ------------------------------------------------------------------
    # subscription lifecycle
    # ------------------------------------------------------------------
    def subscribe(
        self,
        query: QueryGraph,
        constraints: TemporalConstraints,
        options: SubscriptionOptions | None = None,
        sub_id: str | None = None,
    ) -> Subscription:
        """Register a standing pattern; returns the live subscription.

        Matches involving edges ingested *before* the subscription exist
        are not replayed — a subscription sees matches completed by edges
        arriving after it (but those matches may reach back into the
        pre-existing graph).
        """
        with self._lock:
            if sub_id is None:
                sub_id = f"s{self._next_sub}"
                self._next_sub += 1
            elif sub_id in self._subs:
                raise StreamingError(
                    f"subscription id {sub_id!r} already registered"
                )
            sub = build_subscription(sub_id, query, constraints, options)
            self._subs[sub_id] = sub
            return sub

    def unsubscribe(self, sub_id: str) -> Subscription:
        """Deregister *sub_id*; returns its final state (for metrics)."""
        with self._lock:
            sub = self._subs.pop(sub_id, None)
            if sub is None:
                raise UnknownSubscriptionError(
                    f"unknown subscription {sub_id!r}"
                )
            return sub

    def subscription(self, sub_id: str) -> Subscription:
        """The live subscription registered as *sub_id*."""
        with self._lock:
            sub = self._subs.get(sub_id)
            if sub is None:
                raise UnknownSubscriptionError(
                    f"unknown subscription {sub_id!r}"
                )
            return sub

    def subscriptions(self) -> list[str]:
        """Registered subscription ids, in registration order."""
        with self._lock:
            return list(self._subs)

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def ingest(
        self,
        edges: Iterable[EdgeInput],
        *,
        tracer: TraceSink | None = None,
    ) -> IngestReport:
        """Append *edges* and deliver the matches each one completes.

        Each element is ``(u, v, t)`` or ``(u, v, t, label)``, with
        ``u``, ``v`` and ``t`` ints; any other field type (a float, a
        bool, a string) makes the edge malformed.  Edges are
        processed strictly in the given order, each visible to the
        searches of the ones after it and not before; duplicates
        (already in the graph) are counted but trigger no searches.
        Passing *tracer* routes this call's delta-search and
        segment-merge spans to it (the engine's own tracer is restored
        afterwards).

        A batch is not atomic: when an edge fails (malformed,
        out-of-range vertex, self loop, label conflict) the edges before
        it stay applied and counted, and the raised
        :class:`~repro.errors.GraphError` says how many of them there
        were.
        """
        with self._lock:
            previous = self.tracer
            if tracer is not None:
                self.tracer = tracer
                self._graph.tracer = tracer
            try:
                return self._ingest_locked(edges)
            finally:
                if tracer is not None:
                    self.tracer = previous
                    self._graph.tracer = previous

    def _ingest_locked(self, edges: Iterable[EdgeInput]) -> IngestReport:
        # One sanitizer reading per call; the per-edge helpers reuse it.
        sanitize = sanitize_enabled()
        assert_lock_held(self._lock, _LOCK_NAME, enabled=sanitize)
        start = time.perf_counter()
        graph = self._graph
        flushes_before = graph.flush_count
        compactions_before = graph.compaction_count
        total = 0
        new_edges = 0
        duplicates = 0
        emitted = 0
        try:
            for item in edges:
                total += 1
                try:
                    u, v, t = item[0], item[1], item[2]
                    label = item[3] if len(item) > 3 else None
                    # Fields are ints as given: coercing would read
                    # 9.7 as 9 and True as 1.
                    if not (_is_int(u) and _is_int(v) and _is_int(t)):
                        raise TypeError
                except (TypeError, IndexError, KeyError):
                    raise GraphError(
                        f"malformed edge {item!r}: expected (u, v, t) or "
                        "(u, v, t, label) with int u, v and t"
                    ) from None
                edge_start = time.perf_counter()
                if not graph.append(u, v, t, label=label):
                    duplicates += 1
                    continue
                new_edges += 1
                if self._watermark is None or t > self._watermark:
                    self._watermark = t
                edge = TemporalEdge(u, v, t)
                emitted += self._deliver_locked(edge, edge_start, sanitize)
        except GraphError as exc:
            raise GraphError(
                f"{exc} (edge {total} of the batch; the {new_edges} new "
                "edges before it were applied)"
            ) from exc
        finally:
            self._edges_ingested += new_edges
            self._duplicates += duplicates
            if new_edges:
                self._expire_partials_locked(sanitize)
        return IngestReport(
            edges=total,
            new_edges=new_edges,
            duplicates=duplicates,
            emitted=emitted,
            seconds=time.perf_counter() - start,
            flushes=graph.flush_count - flushes_before,
            compactions=graph.compaction_count - compactions_before,
            watermark=self._watermark,
        )

    def _deliver_locked(
        self, edge: TemporalEdge, edge_start: float, sanitize: bool
    ) -> int:
        """Run every subscription's delta search for one new edge.

        Runs two call levels below ``ingest``'s ``with self._lock:``
        (one past R013's caller analysis); the ``guarded-by`` pragmas
        assert what :func:`assert_lock_held` checks at runtime whenever
        *sanitize* (the ingest call's sanitizer reading) is set.
        """
        assert_lock_held(self._lock, _LOCK_NAME, enabled=sanitize)
        graph = self._graph  # reprolint: guarded-by(_lock)
        labels = graph.labels
        key = (labels[edge.u], labels[edge.v])
        emitted = 0
        for sub in self._subs.values():  # reprolint: guarded-by(_lock)
            sub.edges_seen += 1
            pins = sub.pin_index.get(key)
            if pins is None:
                sub.searches_skipped += 1
                continue
            sub.searches += 1
            budget = sub.options.search_budget
            deadline = None if budget is None else time.monotonic() + budget
            search_start = time.perf_counter()
            with self.tracer.span(  # reprolint: guarded-by(_lock)
                "delta-search", subscription=sub.id, pins=len(pins)
            ) as span:
                found = 0
                for pin in pins:
                    for match in _pinned_delta_search(
                        graph, sub, pin, edge, sub.stats, deadline
                    ):
                        self._emit_locked(
                            sub, match, edge, edge_start, sanitize
                        )
                        found += 1
                span.annotate(matches=found)
            sub.search_seconds += time.perf_counter() - search_start
            emitted += found
            self._open_partial_locked(sub, edge, sanitize)
        return emitted

    def _emit_locked(
        self,
        sub: Subscription,
        match: Match,
        edge: TemporalEdge,
        edge_start: float,
        sanitize: bool,
    ) -> None:
        """Queue one emission; the bounded sink drops the oldest past
        capacity (and counts the drop) so ingest never blocks on a slow
        consumer."""
        assert_lock_held(self._lock, _LOCK_NAME, enabled=sanitize)
        latency = time.perf_counter() - edge_start
        sub.queue.accept(
            Emission(
                subscription_id=sub.id,
                seq=sub.next_seq,
                match=match,
                edge=edge,
                latency_seconds=latency,
            )
        )
        sub.next_seq += 1
        sub.matches_emitted += 1
        sub.stats.matches += 1
        sub.last_latency_seconds = latency

    def _open_partial_locked(
        self, sub: Subscription, edge: TemporalEdge, sanitize: bool
    ) -> None:
        """Record the edge's candidacy window in the partial ledger.

        Unbounded constraint sets (``max_span == inf``) are not tracked:
        such a partial can never be declared dead, so the ledger would
        only grow.  ``partials_live`` then legitimately reads 0 and
        expiry never fires — documented in docs/STREAMING.md.
        """
        assert_lock_held(self._lock, _LOCK_NAME, enabled=sanitize)
        if math.isinf(sub.max_span):
            return
        self._partial_tokens += 1
        heapq.heappush(
            sub.partials, (edge.t + sub.max_span, self._partial_tokens)
        )

    def _expire_partials_locked(self, sanitize: bool) -> None:
        """Drop partials whose feasible window the watermark has passed.

        Called once per ``ingest`` call, after its last new edge: the
        horizon only grows, so one sweep at the end pops exactly what a
        sweep after every edge would have.  Like :meth:`_deliver_locked`,
        runs two call levels below the ``with self._lock:`` in
        ``ingest`` — hence the pragmas.
        """
        assert_lock_held(self._lock, _LOCK_NAME, enabled=sanitize)
        watermark = self._watermark  # reprolint: guarded-by(_lock)
        if watermark is None:
            return
        for sub in self._subs.values():  # reprolint: guarded-by(_lock)
            horizon = watermark - sub.options.lateness
            partials = sub.partials
            while partials and partials[0][0] < horizon:
                heapq.heappop(partials)
                sub.partials_expired += 1

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------
    def poll(
        self, sub_id: str, max_items: int | None = None
    ) -> list[Emission]:
        """Drain up to *max_items* queued emissions (all, when ``None``)."""
        with self._lock:
            sub = self._subs.get(sub_id)
            if sub is None:
                raise UnknownSubscriptionError(
                    f"unknown subscription {sub_id!r}"
                )
            return sub.queue.drain(max_items)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> dict[str, Any]:
        """Engine counters, graph segment state, and per-subscription rows."""
        with self._lock:
            return {
                "edges_ingested": self._edges_ingested,
                "duplicates": self._duplicates,
                "watermark": self._watermark,
                "graph": self._graph.describe(),
                "subscriptions": [
                    sub.describe() for sub in self._subs.values()
                ],
            }

    @property
    def graph(self) -> SegmentedGraph:
        """The engine's live graph (single-writer: do not append around
        the engine while ingest is active)."""
        # The reference itself is constructor-set and never rebound; only
        # its `tracer` attribute is swapped under the lock.
        return self._graph  # reprolint: guarded-by(_lock)


def _pinned_delta_search(
    graph: TemporalGraph | SegmentedGraph,
    sub: Subscription,
    pin: int,
    pinned_edge: TemporalEdge,
    stats: SearchStats,
    deadline: float | None = None,
) -> Iterator[Match]:
    """All matches containing *pinned_edge* at query position *pin*.

    The one constraint-pruned pinned search: :class:`StreamingEngine`
    runs it per ingested edge and ``tcsm-stream``
    (:class:`StreamReplayMatcher`) per replayed edge.  It binds query
    edges in the subscription's connected pin order with an injective
    vertex map; every position first intersects the STN-closure bounds
    into a feasible ``[lo, hi]`` interval and bisects candidate
    timestamp runs down to it, crediting ``timestamps_expanded`` /
    ``timestamps_skipped`` exactly like the one-shot matchers.  Checking
    the closure bounds pairwise at bind time implies every raw
    constraint, so complete embeddings are emitted without a leaf
    post-filter.

    *graph* is read through six members only — ``labels``,
    ``timestamps_list``, ``out_items``, ``in_items``,
    ``vertices_with_label`` and ``edge_label`` — which the builder, the
    segmented graph and the compiled snapshot all serve.
    """
    query = sub.query
    order = sub.pin_orders[pin]
    plan = sub.window_plans[pin]
    edge_endpoints = query.edges
    query_labels = query.labels
    data_labels = graph.labels
    m = query.num_edges
    edge_map: list[TemporalEdge | None] = [None] * m
    edge_times: list[int | None] = [None] * m
    vertex_map: list[int | None] = [None] * query.num_vertices
    used: set[int] = set()

    stats.candidates_generated += 1
    stats.validations += 1
    pin_label = query.edge_label(pin)
    if pin_label is not None and graph.edge_label(
        pinned_edge.u, pinned_edge.v, pinned_edge.t
    ) != pin_label:
        stats.record_fail(1)
        return
    qa, qb = edge_endpoints[pin]
    edge_map[pin] = pinned_edge
    edge_times[pin] = pinned_edge.t
    vertex_map[qa] = pinned_edge.u
    vertex_map[qb] = pinned_edge.v
    used.add(pinned_edge.u)
    used.add(pinned_edge.v)
    required_labels = query.edge_labels
    check_edge_labels = query.has_edge_labels

    def candidates(
        pos: int, lo: float, hi: float
    ) -> Iterator[TemporalEdge]:
        edge_index = order[pos]
        a, b = edge_endpoints[edge_index]
        da, db = vertex_map[a], vertex_map[b]
        if da is not None and db is not None:
            run = graph.timestamps_list(da, db)
            for t in windowed_times(run, (lo, hi), stats):
                yield TemporalEdge(da, db, t)
        elif da is not None:
            label_b = query_labels[b]
            for x, times in graph.out_items(da):
                if x in used or data_labels[x] != label_b:
                    continue
                for t in windowed_times(times, (lo, hi), stats):
                    yield TemporalEdge(da, x, t)
        elif db is not None:
            label_a = query_labels[a]
            for x, times in graph.in_items(db):
                if x in used or data_labels[x] != label_a:
                    continue
                for t in windowed_times(times, (lo, hi), stats):
                    yield TemporalEdge(x, db, t)
        else:
            # Disconnected component seed: label-indexed scan.
            label_a = query_labels[a]
            label_b = query_labels[b]
            for du in graph.vertices_with_label(label_a):
                if du in used:
                    continue
                for dv, times in graph.out_items(du):
                    if dv in used or data_labels[dv] != label_b:
                        continue
                    for t in windowed_times(times, (lo, hi), stats):
                        yield TemporalEdge(du, dv, t)

    def dfs(pos: int) -> Iterator[Match]:
        if deadline is not None and time.monotonic() > deadline:
            stats.budget_exhausted = True
            stats.deadline_hit = True
            return
        if pos == m:
            full = cast("list[TemporalEdge]", edge_map)  # all bound here
            yield Match(
                tuple(full), cast("tuple[int, ...]", tuple(vertex_map))
            )
            return
        edge_index = order[pos]
        if edge_index == pin:
            yield from dfs(pos + 1)
            return
        window = feasible_window(plan[pos], edge_times)
        if window is None:
            stats.record_fail(pos + 1)
            return
        stats.nodes_expanded += 1
        a, b = edge_endpoints[edge_index]
        produced = False
        required = required_labels[edge_index] if check_edge_labels else None
        for cand in candidates(pos, window[0], window[1]):
            stats.candidates_generated += 1
            stats.validations += 1
            if required is not None and graph.edge_label(
                cand.u, cand.v, cand.t
            ) != required:
                stats.record_fail(pos + 1)
                continue
            new_a = vertex_map[a] is None
            new_b = vertex_map[b] is None
            edge_map[edge_index] = cand
            edge_times[edge_index] = cand.t
            if new_a:
                vertex_map[a] = cand.u
                used.add(cand.u)
            if new_b:
                vertex_map[b] = cand.v
                used.add(cand.v)
            produced = True
            yield from dfs(pos + 1)
            if new_a:
                used.discard(cand.u)
                vertex_map[a] = None
            if new_b:
                used.discard(cand.v)
                vertex_map[b] = None
            edge_map[edge_index] = None
            edge_times[edge_index] = None
        if not produced:
            stats.record_fail(pos + 1)

    yield from dfs(0)


class StreamReplayMatcher:
    """``tcsm-stream``: the graph's edges replayed through the delta search.

    ``prepare`` compiles the pattern's subscription plans once (pin
    orders, window plans, pin index).  ``run`` adds the edges of
    ``edges_by_time()`` one by one to an initially empty
    :class:`~repro.graphs.TemporalGraph` and, per edge, runs
    :func:`_pinned_delta_search` at every pin its labels fit — the
    search :class:`StreamingEngine` runs per ingested edge, so each
    match is reported once, when its latest edge arrives.  The replay
    skips the engine itself: its bounded queue drops emissions, its
    budget is per search rather than per run, and its segmented graph
    costs more than a one-pass append.
    """

    name = "tcsm-stream"
    #: One time-ordered replay has no seed positions to partition.
    supports_partition = False

    def __init__(
        self,
        query: QueryGraph,
        constraints: TemporalConstraints,
        graph: GraphView,
    ) -> None:
        self.query = query
        self.constraints = constraints
        self.graph = graph
        self._sub: Subscription | None = None
        self._view: GraphSnapshot
        self._stream: list[TemporalEdge]

    def prepare(self, tracer: TraceSink | None = None) -> None:
        """Compile the subscription plans and the time-ordered stream."""
        if self._sub is not None:
            return
        try:
            sub = build_subscription(self.name, self.query, self.constraints)
        except StreamingError as exc:
            raise AlgorithmError(str(exc)) from exc
        self._view = ensure_snapshot(self.graph)
        self._stream = self._view.edges_by_time()
        self._sub = sub

    def run(self, ctx: RunContext) -> Iterator[Match]:
        """Replay the stream, yielding each match as it completes."""
        self.prepare()
        return self._run(cast(Subscription, self._sub), ctx)

    def _run(self, sub: Subscription, ctx: RunContext) -> Iterator[Match]:
        view = self._view
        labels = view.labels
        graph = TemporalGraph(labels)
        pin_index = sub.pin_index
        limit = ctx.limit
        deadline = ctx.deadline
        stats = ctx.stats
        emitted = 0
        for edge in self._stream:
            if deadline is not None and time.monotonic() > deadline:
                stats.budget_exhausted = True
                stats.deadline_hit = True
                return
            u, v, t = edge
            graph.add_edge(u, v, t, label=view.edge_label(u, v, t))
            for pin in pin_index.get((labels[u], labels[v]), ()):
                for match in _pinned_delta_search(
                    graph, sub, pin, edge, stats, deadline
                ):
                    emitted += 1
                    stats.matches += 1
                    yield match
                    if limit is not None and emitted >= limit:
                        stats.budget_exhausted = True
                        return


register_algorithm("tcsm-stream", StreamReplayMatcher)
