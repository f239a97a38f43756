"""SJ-Tree baseline [30]: subgraph join tree with materialised partials.

SJ-Tree decomposes the query into a left-deep join tree over its edges and
*stores every partial match* at every level; an edge insertion joins the
new edge with the stored partials of the previous level and propagates the
deltas upward.  Enumeration work is traded for memory — the paper's
Table IV shows SJ-Tree needing 7977 MB on WT where others need hundreds —
and our reproduction keeps that character by genuinely materialising all
levels.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from typing import cast

from ...core.match import Match
from ...core.options import RunContext
from ...core.stats import SearchStats
from ...core.windows import connected_edge_order
from ...graphs import TemporalEdge
from .stream import CSMMatcherBase

__all__ = ["SJTreeMatcher"]

# A partial match: per-query-edge temporal edges (None = unmatched) plus
# the induced per-query-vertex map (None = unbound).
_Partial = tuple[tuple[TemporalEdge | None, ...], tuple[int | None, ...]]


class SJTreeMatcher(CSMMatcherBase):
    """Left-deep join-tree continuous matching (SJ-Tree)."""

    name = "sj-tree"

    def _on_prepare(self) -> None:
        self._order = connected_edge_order(self.query, 0)
        # levels[k]: all partial matches covering order[: k + 1].
        self._levels: list[list[_Partial]] = [
            [] for _ in range(self.query.num_edges)
        ]

    # The generic pinned search is replaced wholesale.
    def _run(self, ctx: RunContext) -> Iterator[Match]:
        limit = ctx.limit
        deadline = ctx.deadline
        stats = ctx.stats
        emitted = 0
        m = self.query.num_edges
        post_counters = stats.filter("temporal-postfilter")
        for edge in self._stream:
            if deadline is not None and time.monotonic() > deadline:
                stats.budget_exhausted = True
                stats.deadline_hit = True
                return
            self.snapshot.add_edge(
                edge.u, edge.v, edge.t,
                label=self._view.edge_label(edge.u, edge.v, edge.t),
            )
            deltas = self._process_insertion(edge, stats)
            for partial in deltas:
                edge_map, vertex_map = partial
                # Deltas surviving all m join levels are fully bound.
                full = cast("tuple[TemporalEdge, ...]", edge_map)
                times = [e.t for e in full]
                post_counters.considered += 1
                if not self.constraints.check(times):
                    post_counters.pruned += 1
                    stats.record_fail(m)
                    continue
                emitted += 1
                stats.matches += 1
                yield Match(full, cast("tuple[int, ...]", vertex_map))
                if limit is not None and emitted >= limit:
                    stats.budget_exhausted = True
                    return
        return

    # ------------------------------------------------------------------
    # join machinery
    # ------------------------------------------------------------------
    def _process_insertion(
        self, edge: TemporalEdge, stats: SearchStats
    ) -> list[_Partial]:
        """Join the new edge through all levels; returns complete deltas."""
        query = self.query
        m = query.num_edges
        empty_partial: _Partial = (
            (None,) * m,
            (None,) * query.num_vertices,
        )
        delta_prev: list[_Partial] = []
        for k in range(m):
            edge_index = self._order[k]
            delta_k: list[_Partial] = []
            base = [empty_partial] if k == 0 else self._levels[k - 1]
            # (a) the new edge sits at level k, joined with old partials.
            for partial in base:
                stats.validations += 1
                extended = self._try_extend(partial, edge_index, edge)
                if extended is not None:
                    delta_k.append(extended)
                else:
                    stats.record_fail(k + 1)
            # (b) deltas from below, joined with existing snapshot edges.
            for partial in delta_prev:
                for candidate in self._candidates(partial, edge_index):
                    stats.candidates_generated += 1
                    extended = self._try_extend(partial, edge_index, candidate)
                    if extended is not None:
                        delta_k.append(extended)
                    else:
                        stats.record_fail(k + 1)
            if k < m - 1:
                self._levels[k].extend(delta_k)
            stats.nodes_expanded += len(delta_k)
            delta_prev = delta_k
        return delta_prev

    def _try_extend(
        self,
        partial: _Partial,
        edge_index: int,
        candidate: TemporalEdge,
    ) -> _Partial | None:
        """Bind *candidate* at *edge_index* if labels/consistency allow."""
        query = self.query
        snapshot = self.snapshot
        qa, qb = query.edge(edge_index)
        if snapshot.label(candidate.u) != query.label(qa):
            return None
        if snapshot.label(candidate.v) != query.label(qb):
            return None
        required = query.edge_label(edge_index)
        if required is not None and snapshot.edge_label(
            candidate.u, candidate.v, candidate.t
        ) != required:
            return None
        edge_map, vertex_map = partial
        da, db = vertex_map[qa], vertex_map[qb]
        if da is not None and da != candidate.u:
            return None
        if db is not None and db != candidate.v:
            return None
        bound = set(v for v in vertex_map if v is not None)
        if da is None and candidate.u in bound:
            return None  # injectivity
        if db is None and candidate.v in bound:
            return None
        if da is None and db is None and candidate.u == candidate.v:
            return None
        new_edges = list(edge_map)
        new_edges[edge_index] = candidate
        new_vertices = list(vertex_map)
        new_vertices[qa] = candidate.u
        new_vertices[qb] = candidate.v
        return (tuple(new_edges), tuple(new_vertices))

    def _candidates(
        self, partial: _Partial, edge_index: int
    ) -> Iterator[TemporalEdge]:
        """Snapshot edges joinable at *edge_index* given *partial*."""
        query = self.query
        snapshot = self.snapshot
        qa, qb = query.edge(edge_index)
        _, vertex_map = partial
        da, db = vertex_map[qa], vertex_map[qb]
        if da is not None and db is not None:
            for t in snapshot.timestamps_list(da, db):
                yield TemporalEdge(da, db, t)
        elif da is not None:
            for x in snapshot.out_neighbor_ids(da):
                for t in snapshot.timestamps_list(da, x):
                    yield TemporalEdge(da, x, t)
        elif db is not None:
            for x in snapshot.in_neighbor_ids(db):
                for t in snapshot.timestamps_list(x, db):
                    yield TemporalEdge(x, db, t)
        else:
            label_a = query.label(qa)
            for du in snapshot.vertices_with_label(label_a):
                for dv in snapshot.out_neighbor_ids(du):
                    for t in snapshot.timestamps_list(du, dv):
                        yield TemporalEdge(du, dv, t)
