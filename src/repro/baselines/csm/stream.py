"""Shared substrate for the continuous-subgraph-matching (CSM) baselines.

The paper adapts eight CSM systems as baselines by feeding them the
temporal graph as an insertion stream and bolting the temporal-constraint
check onto match reporting ("we also modified algorithms to satisfy
temporal-constraints").  This module provides that shared machinery:

* the **edge stream**: temporal edges sorted by time, inserted one by one
  into an initially empty *snapshot* graph (all vertices/labels known up
  front, as in the CSM literature);
* **delta semantics**: after each insertion, exactly the matches that
  contain the new edge are searched for, by pinning the new edge to every
  compatible query-edge position — each match is thus reported exactly
  once, when its stream-latest edge arrives;
* a generic **backtracking search** over a connected query-edge order,
  parameterised by a per-baseline candidate test (``vertex_allowed``);
* the **temporal post-filter**: constraints are checked only on complete
  matches, never used for pruning — precisely the handicap the paper's
  TCSM algorithms remove.  The constraint-pruned delta search over the
  same stream is ``tcsm-stream`` in :mod:`repro.streaming`.

Every concrete baseline subclasses :class:`CSMMatcherBase` and supplies
its candidate index through the ``_on_prepare`` / ``_on_insert`` /
``vertex_allowed`` hooks (SJ-Tree overrides the search itself).
"""

from __future__ import annotations

import time
from collections.abc import Hashable, Iterator
from typing import cast

from ...core.match import Match
from ...core.options import RunContext
from ...core.stats import SearchStats
from ...core.windows import connected_edge_order
from ...errors import AlgorithmError
from ...obs import TraceSink
from ...graphs import (
    GraphSnapshot,
    GraphView,
    QueryGraph,
    TemporalConstraints,
    TemporalEdge,
    TemporalGraph,
    ensure_snapshot,
)

__all__ = ["CSMMatcherBase"]


class CSMMatcherBase:
    """Base class for CSM baselines (see module docstring).

    Subclass hooks
    --------------
    ``_on_prepare()``
        Build the (empty-graph) candidate index; called from ``prepare``.
    ``_on_insert(edge, pair_is_new)``
        Maintain the index after ``edge`` enters the snapshot;
        ``pair_is_new`` is True when the static pair did not exist before
        (indexes over de-temporal structure only care about those).
    ``vertex_allowed(qv, dv)``
        Necessary-condition candidate test consulted during search.
    ``_begin_insertion_searches()``
        Called once per insertion, before the pin loop (cache resets).

    No hook prunes with the temporal constraints: the baselines apply
    them only in the leaf post-filter, exactly as the paper adapted them.
    """

    name = "csm-base"
    #: Delta semantics tie the search to one global stream replay, so the
    #: CSM baselines do not honour seed partitioning.
    supports_partition = False

    def __init__(
        self,
        query: QueryGraph,
        constraints: TemporalConstraints,
        graph: GraphView,
    ) -> None:
        if constraints.num_edges != query.num_edges:
            raise AlgorithmError(
                f"constraints expect {constraints.num_edges} query edges, "
                f"query has {query.num_edges}"
            )
        if query.num_edges == 0:
            raise AlgorithmError("CSM baselines need at least one query edge")
        self.query = query
        self.constraints = constraints
        self.graph = graph
        #: The compiled stream source (set by ``prepare``).  Distinct
        #: from :attr:`snapshot`, the *growing* mutable graph the stream
        #: is replayed into.
        self._view: GraphSnapshot
        self._prepared = False

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def _on_prepare(self) -> None:
        """Index initialisation hook (default: none)."""

    def _on_insert(self, edge: TemporalEdge, pair_is_new: bool) -> None:
        """Index maintenance hook (default: none)."""

    def _begin_insertion_searches(self) -> None:
        """Per-insertion hook before pinned searches (default: none)."""

    def vertex_allowed(self, qv: int, dv: int) -> bool:
        """Candidate test; the default accepts everything label-compatible
        (labels are already enforced by candidate generation)."""
        return True

    def _expand_out(
        self, da: int, target_label: Hashable
    ) -> Iterator[TemporalEdge]:
        """All snapshot edges ``da -> x`` with ``label(x) == target_label``.

        Overridable frontier expansion (NewSP caches these lists).
        """
        labels = self.snapshot.labels
        for x, times in self.snapshot.out_items(da):
            if labels[x] != target_label:
                continue
            for t in times:
                yield TemporalEdge(da, x, t)

    def _expand_in(
        self, db: int, source_label: Hashable
    ) -> Iterator[TemporalEdge]:
        """All snapshot edges ``x -> db`` with ``label(x) == source_label``."""
        labels = self.snapshot.labels
        for x, times in self.snapshot.in_items(db):
            if labels[x] != source_label:
                continue
            for t in times:
                yield TemporalEdge(x, db, t)

    # ------------------------------------------------------------------
    # protocol
    # ------------------------------------------------------------------
    def prepare(self, tracer: TraceSink | None = None) -> None:
        """Sort the stream, allocate the snapshot, build pin orders."""
        if self._prepared:
            return
        query = self.query
        self._view = ensure_snapshot(self.graph)
        self._stream = self._view.edges_by_time()
        self.snapshot = TemporalGraph(self._view.labels)
        self._pin_orders = [
            connected_edge_order(query, e) for e in range(query.num_edges)
        ]
        self._pin_labels = [
            (query.label(u), query.label(v)) for (u, v) in query.edges
        ]
        # Hot-loop caches (avoid bounds-checked accessors during search).
        self._edge_endpoints = query.edges
        self._query_labels = query.labels
        self._on_prepare()
        self._prepared = True

    def run(self, ctx: RunContext) -> Iterator[Match]:
        """Replay the stream, reporting TC-satisfying delta matches."""
        self.prepare()
        return self._run(ctx)

    def _run(self, ctx: RunContext) -> Iterator[Match]:
        limit = ctx.limit
        deadline = ctx.deadline
        stats = ctx.stats
        emitted = 0
        for edge in self._stream:
            if deadline is not None and time.monotonic() > deadline:
                stats.budget_exhausted = True
                stats.deadline_hit = True
                return
            before_static = self.snapshot.num_static_edges
            self.snapshot.add_edge(
                edge.u, edge.v, edge.t,
                label=self._view.edge_label(edge.u, edge.v, edge.t),
            )
            pair_is_new = self.snapshot.num_static_edges != before_static
            self._on_insert(edge, pair_is_new)
            self._begin_insertion_searches()
            src_label = self.snapshot.label(edge.u)
            dst_label = self.snapshot.label(edge.v)
            for pin in range(self.query.num_edges):
                if self._pin_labels[pin] != (src_label, dst_label):
                    continue
                for match in self._pinned_search(pin, edge, stats, deadline):
                    emitted += 1
                    stats.matches += 1
                    yield match
                    if limit is not None and emitted >= limit:
                        stats.budget_exhausted = True
                        return
        return

    # ------------------------------------------------------------------
    # pinned backtracking search
    # ------------------------------------------------------------------
    def _pinned_search(
        self,
        pin: int,
        pinned_edge: TemporalEdge,
        stats: SearchStats,
        deadline: float | None,
    ) -> Iterator[Match]:
        query = self.query
        snapshot = self.snapshot
        order = self._pin_orders[pin]
        edge_endpoints = self._edge_endpoints
        query_labels = self._query_labels
        m = query.num_edges
        n = query.num_vertices
        edge_map: list[TemporalEdge | None] = [None] * m
        vertex_map: list[int | None] = [None] * n
        used: set[int] = set()

        # The CSM adaptation checks temporal constraints only on complete
        # embeddings; the bucket makes that leaf-filter cost observable.
        post_counters = stats.filter("temporal-postfilter")

        qa, qb = edge_endpoints[pin]
        stats.candidates_generated += 1
        stats.validations += 1
        if not (
            self.vertex_allowed(qa, pinned_edge.u)
            and self.vertex_allowed(qb, pinned_edge.v)
        ):
            stats.record_fail(1)
            return
        pin_label = query.edge_label(pin)
        if pin_label is not None and snapshot.edge_label(
            pinned_edge.u, pinned_edge.v, pinned_edge.t
        ) != pin_label:
            stats.record_fail(1)
            return
        required_labels = query.edge_labels
        check_edge_labels = query.has_edge_labels
        edge_map[pin] = pinned_edge
        vertex_map[qa] = pinned_edge.u
        vertex_map[qb] = pinned_edge.v
        used.add(pinned_edge.u)
        used.add(pinned_edge.v)

        def candidates(pos: int) -> Iterator[TemporalEdge]:
            edge_index = order[pos]
            a, b = edge_endpoints[edge_index]
            da, db = vertex_map[a], vertex_map[b]
            if da is not None and db is not None:
                for t in snapshot.timestamps_list(da, db):
                    yield TemporalEdge(da, db, t)
            elif da is not None:
                label_b = query_labels[b]
                for cand in self._expand_out(da, label_b):
                    if cand.v in used or not self.vertex_allowed(b, cand.v):
                        continue
                    yield cand
            elif db is not None:
                label_a = query_labels[a]
                for cand in self._expand_in(db, label_a):
                    if cand.u in used or not self.vertex_allowed(a, cand.u):
                        continue
                    yield cand
            else:
                # Disconnected component seed: label-indexed scan.
                label_a = query_labels[a]
                label_b = query_labels[b]
                data_labels = snapshot.labels
                for du in snapshot.vertices_with_label(label_a):
                    if du in used or not self.vertex_allowed(a, du):
                        continue
                    for dv, times in snapshot.out_items(du):
                        if dv in used or data_labels[dv] != label_b:
                            continue
                        if not self.vertex_allowed(b, dv):
                            continue
                        for t in times:
                            yield TemporalEdge(du, dv, t)

        def dfs(pos: int) -> Iterator[Match]:
            if deadline is not None and time.monotonic() > deadline:
                stats.budget_exhausted = True
                stats.deadline_hit = True
                return
            if pos == m:
                full = cast("list[TemporalEdge]", edge_map)  # all bound here
                times = [full[i].t for i in range(m)]
                post_counters.considered += 1
                if self.constraints.check(times):
                    yield Match(
                        tuple(full),
                        cast("tuple[int, ...]", tuple(vertex_map)),
                    )
                else:
                    post_counters.pruned += 1
                    stats.record_fail(pos)
                return
            edge_index = order[pos]
            if edge_index == pin:
                yield from dfs(pos + 1)
                return
            stats.nodes_expanded += 1
            a, b = edge_endpoints[edge_index]
            produced = False
            required = required_labels[edge_index] if check_edge_labels else None
            for cand in candidates(pos):
                stats.candidates_generated += 1
                stats.validations += 1
                if required is not None and snapshot.edge_label(
                    cand.u, cand.v, cand.t
                ) != required:
                    stats.record_fail(pos + 1)
                    continue
                new_a = vertex_map[a] is None
                new_b = vertex_map[b] is None
                if new_a and new_b and cand.u == cand.v:
                    stats.record_fail(pos + 1)
                    continue
                edge_map[edge_index] = cand
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
            if not produced:
                stats.record_fail(pos + 1)

        yield from dfs(0)
