"""Brute-force TCSM oracle.

A deliberately simple enumerator implementing Definition 4 with none of
the paper's machinery: vertices are matched in id order with only label,
injectivity and edge-existence checks; per-edge timestamps are enumerated
by brute product with full constraint re-checks.  It shares no ordering,
filtering or pruning code with the real matchers, which is what makes it a
trustworthy differential-testing oracle for them.

Only use on small instances: complexity is the full
``O(|V|^{|V_q|} * prod |T(pair)|)`` search space.
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Collection, Iterator, Sequence
from typing import cast

from ..graphs import GraphView, QueryGraph, TemporalConstraints

from .match import Match
from .options import RunContext
from .partition import partition_slice
from .sink_matcher import SinkMatcherBase
from .sinks import ResultSink, StopEnumeration

__all__ = ["BruteForceMatcher", "brute_force_matches"]


class BruteForceMatcher(SinkMatcherBase):
    """Oracle matcher with the same protocol as the real matchers.

    It shares the run contract (:class:`SinkMatcherBase`) and nothing
    of the search: no plan, no filters, no generated code.
    """

    name = "brute-force"

    def __init__(
        self,
        query: QueryGraph,
        constraints: TemporalConstraints,
        graph: GraphView,
    ) -> None:
        # No ``codegen`` keyword: the oracle has no generator.
        super().__init__(query, constraints, graph)

    def _run_sink(self, ctx: RunContext, sink: ResultSink) -> None:
        deadline = ctx.deadline
        partition = ctx.partition
        search_stats = ctx.stats
        query = self.query
        graph = self._view
        n = query.num_vertices
        vertex_map: list[int | None] = [None] * n
        # Read-only view: positions below `u` are always bound in id order.
        bound = cast("list[int]", vertex_map)
        used: set[int] = set()

        # Edges checkable once vertex u is bound (both endpoints <= u).
        edges_closing_at: list[list[int]] = [[] for _ in range(n)]
        for index, (a, b) in enumerate(query.edges):
            edges_closing_at[max(a, b)].append(index)

        def assignments(full_map: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
            options: list[Sequence[int]] = []
            for index, (a, b) in enumerate(query.edges):
                required = query.edge_label(index)
                if required is None:
                    options.append(graph.timestamps(full_map[a], full_map[b]))
                else:
                    options.append(
                        graph.timestamps_with_label(
                            full_map[a], full_map[b], required
                        )
                    )
            for times in itertools.product(*options):
                if all(
                    c.is_satisfied(times[c.earlier], times[c.later])
                    for c in self.constraints
                ):
                    yield times

        root_candidates: list[int] | None = None
        if partition is not None and n > 0:
            root_candidates = partition_slice(
                graph.vertices_with_label(query.label(0)), partition
            )

        def dfs(u: int) -> None:
            if deadline is not None and time.monotonic() > deadline:
                search_stats.budget_exhausted = True
                search_stats.deadline_hit = True
                raise StopEnumeration
            if u == n:
                full_map = cast(tuple[int, ...], tuple(vertex_map))
                for times in assignments(full_map):
                    search_stats.matches += 1
                    sink.accept(Match.from_vertex_map(query, full_map, times))
                return
            base: Collection[int]
            if u == 0 and root_candidates is not None:
                base = root_candidates
            else:
                base = graph.vertices_with_label(query.label(u))
            for v in base:
                if v in used:
                    continue
                ok = True
                for index in edges_closing_at[u]:
                    a, b = query.edge(index)
                    da = v if a == u else bound[a]
                    db = v if b == u else bound[b]
                    if not graph.has_pair(da, db):
                        ok = False
                        break
                if not ok:
                    continue
                vertex_map[u] = v
                used.add(v)
                dfs(u + 1)
                used.discard(v)
                vertex_map[u] = None

        dfs(0)


def brute_force_matches(
    query: QueryGraph,
    constraints: TemporalConstraints,
    graph: GraphView,
    limit: int | None = None,
) -> list[Match]:
    """All matches of the instance, as a list (convenience wrapper).

    This is the differential-testing reference path: it deliberately
    accumulates a plain list through the pull ``run`` facade instead
    of configuring a sink, so the oracle's answer shares no result-path
    code with the pipeline under test.
    """
    matcher = BruteForceMatcher(query, constraints, graph)
    matches: list[Match] = []
    for match in matcher.run(RunContext(limit=limit)):
        matches.append(match)  # reprolint: disable=R019 -- oracle reference path stays sink-free by design
    return matches
