"""RI / RI-DS static subgraph matching with a temporal post-check.

The paper's primary baseline: *"We established a baseline using a static
subgraph matching algorithm RI-DS [26], with an additional temporal
constraint."*  RI (Bonnici et al., 2013) is a direct-enumeration matcher
built around the **GreatestConstraintFirst** vertex ordering; the **-DS**
variant additionally precomputes label/degree-compatible domains for each
query vertex and checks them during search.

Adaptation to TCSM: RI-DS enumerates *static* embeddings on the
de-temporal graph, completely ignoring timestamps; each embedding is then
post-processed by enumerating the per-edge timestamp combinations that
satisfy the constraint set (the same joint solver TCSM-V2V uses at its
leaves).  On temporally dense graphs almost all static embeddings die in
post-processing — which is exactly why the paper reports RI-DS taking
kiloseconds where TCSM-EVE takes seconds.
"""

from __future__ import annotations

import time
from collections.abc import Iterator, Sequence
from typing import cast

from ..core.filters import degree_candidates
from ..core.match import Match
from ..core.options import RunContext
from ..core.stats import SearchStats
from ..core.timestamps import iter_timestamp_assignments
from ..errors import AlgorithmError
from ..graphs import (
    GraphSnapshot,
    GraphView,
    QueryGraph,
    TemporalConstraints,
    ensure_snapshot,
)
from ..obs import NULL_TRACER, TraceSink

__all__ = ["RIMatcher", "greatest_constraint_first_order"]


def greatest_constraint_first_order(query: QueryGraph) -> list[int]:
    """RI's GreatestConstraintFirst vertex ordering.

    Iteratively select the unordered vertex maximising, in priority order:
    (1) edges to already-ordered vertices, (2) edges to unordered vertices
    that neighbour an ordered vertex, (3) remaining degree.  Seeded at the
    maximum-degree vertex; ties broken by vertex id for determinism.
    """
    n = query.num_vertices
    ordered: list[int] = []
    in_order = [False] * n
    seed = min(range(n), key=lambda u: (-query.degree(u), u))
    ordered.append(seed)
    in_order[seed] = True
    while len(ordered) < n:
        frontier_set: set[int] = set()
        for w in ordered:
            frontier_set |= query.neighbors(w)

        def rank(u: int) -> tuple[int, int, int, int]:
            neighbors = query.neighbors(u)
            v_vis = sum(1 for w in neighbors if in_order[w])
            v_neig = sum(
                1
                for w in neighbors
                if not in_order[w] and w in frontier_set
            )
            v_unv = sum(
                1
                for w in neighbors
                if not in_order[w] and w not in frontier_set
            )
            return (-v_vis, -v_neig, -v_unv, u)

        chosen = min(
            (u for u in range(n) if not in_order[u]), key=rank
        )
        ordered.append(chosen)
        in_order[chosen] = True
    return ordered


class RIMatcher:
    """RI / RI-DS adapted to TCSM by temporal post-filtering.

    Parameters
    ----------
    use_domains:
        True (default) gives RI-DS: per-vertex domains from label +
        degree-dominance compatibility, consulted during search.  False
        gives plain RI (label-only checks during search).
    """

    name = "ri-ds"
    supports_partition = False

    def __init__(
        self,
        query: QueryGraph,
        constraints: TemporalConstraints,
        graph: GraphView,
        use_domains: bool = True,
    ) -> None:
        if constraints.num_edges != query.num_edges:
            raise AlgorithmError(
                f"constraints expect {constraints.num_edges} query edges, "
                f"query has {query.num_edges}"
            )
        self.query = query
        self.constraints = constraints
        self.graph = graph
        #: The compiled data plane every read goes through (set by
        #: ``prepare``).
        self._view: GraphSnapshot
        self.use_domains = use_domains
        if not use_domains:
            self.name = "ri"
        #: Filter counters accumulated during ``prepare`` (the engine
        #: merges them into the run stats exactly once per query).
        self.prepare_stats = SearchStats()
        self._prepared = False

    def prepare(self, tracer: TraceSink | None = None) -> None:
        """Compute the GCF order and (for -DS) the vertex domains."""
        if self._prepared:
            return
        tr = tracer if tracer is not None else NULL_TRACER
        with tr.span("compile-snapshot"):
            self._view = ensure_snapshot(self.graph)
        query = self.query
        data = self._view
        self._order = greatest_constraint_first_order(query)
        self._position = [0] * query.num_vertices
        for pos, u in enumerate(self._order):
            self._position[u] = pos
        domain_counters = self.prepare_stats.filter("domains")
        with tr.span(
            "candidate-filter:domains", vertices=query.num_vertices
        ) as sp:
            domains: list[frozenset[int]] = []
            for u in query.vertices():
                label = query.label(u)
                passing = set(
                    degree_candidates(
                        data, label, query.in_degree(u), query.out_degree(u)
                    )
                    if self.use_domains
                    else data.vertices_with_label(label)
                )
                scanned = len(data.vertices_with_label(label))
                domain_counters.considered += scanned
                domain_counters.pruned += scanned - len(passing)
                domains.append(frozenset(passing))
            self._domains = domains
            sp.annotate(**domain_counters.as_dict())
        # Structural checks per position: edges towards ordered vertices.
        self._edge_checks: list[tuple[tuple[int, bool, bool], ...]] = []
        for pos, u in enumerate(self._order):
            checks: list[tuple[int, bool, bool]] = []
            for w in query.neighbors(u):
                if self._position[w] < pos:
                    checks.append(
                        (w, query.has_edge(u, w), query.has_edge(w, u))
                    )
            self._edge_checks.append(tuple(checks))
        self._prepared = True

    def run(self, ctx: RunContext) -> Iterator[Match]:
        """Enumerate static embeddings, then timestamp assignments."""
        self.prepare()
        return self._run(ctx)

    def _run(self, ctx: RunContext) -> Iterator[Match]:
        limit = ctx.limit
        deadline = ctx.deadline
        search_stats = ctx.stats
        query = self.query
        graph = self._view
        n = query.num_vertices
        vertex_map: list[int | None] = [None] * n
        # Read-only view: _edge_checks only names vertices ordered earlier,
        # so every position read below is bound.
        bound = cast("list[int]", vertex_map)
        used: set[int] = set()
        emitted = 0
        inj_counters = search_stats.filter("injectivity")
        structure_counters = search_stats.filter("structure")

        def dfs(pos: int) -> Iterator[Match]:
            if deadline is not None and time.monotonic() > deadline:
                search_stats.budget_exhausted = True
                search_stats.deadline_hit = True
                return
            if pos == n:
                yield from self._temporal_postcheck(
                    vertex_map, search_stats, pos
                )
                return
            search_stats.nodes_expanded += 1
            u = self._order[pos]
            produced = False
            for v in self._domains[u]:
                search_stats.candidates_generated += 1
                inj_counters.considered += 1
                if v in used:
                    inj_counters.pruned += 1
                    search_stats.record_fail(pos + 1)
                    continue
                search_stats.validations += 1
                structure_counters.considered += 1
                ok = True
                for w, need_uw, need_wu in self._edge_checks[pos]:
                    dw = bound[w]
                    if need_uw and not graph.has_pair(v, dw):
                        ok = False
                        break
                    if need_wu and not graph.has_pair(dw, v):
                        ok = False
                        break
                if not ok:
                    structure_counters.pruned += 1
                    search_stats.record_fail(pos + 1)
                    continue
                produced = True
                vertex_map[u] = v
                used.add(v)
                yield from dfs(pos + 1)
                used.discard(v)
                vertex_map[u] = None
                if limit is not None and emitted >= limit:
                    return
            if not produced:
                search_stats.record_fail(pos + 1)

        for match in dfs(0):
            emitted += 1
            search_stats.matches += 1
            yield match
            if limit is not None and emitted >= limit:
                search_stats.budget_exhausted = True
                return

    def _temporal_postcheck(
        self,
        vertex_map: list[int | None],
        stats: SearchStats,
        pos: int,
    ) -> Iterator[Match]:
        """The 'additional temporal constraint' applied per embedding."""
        graph = self._view
        query = self.query
        complete = cast("list[int]", vertex_map)  # all positions bound here
        options: list[Sequence[int]] = []
        for index, (a, b) in enumerate(query.edges):
            required = query.edge_label(index)
            if required is None:
                times_list = graph.timestamps_list(complete[a], complete[b])
            else:
                times_list = graph.timestamps_with_label(
                    complete[a], complete[b], required
                )
            stats.timestamps_expanded += len(times_list)
            options.append(times_list)
        post_counters = stats.filter("temporal-postfilter")
        post_counters.considered += 1
        final_map = tuple(complete)
        found = False
        # Naive enumeration (use_windows=False): the baseline has no STN
        # machinery; this is the honest cost of bolting TC onto RI-DS.
        for times in iter_timestamp_assignments(
            options, self.constraints, use_windows=False
        ):
            found = True
            yield Match.from_vertex_map(self.query, final_map, times)
        if not found:
            post_counters.pruned += 1
            stats.record_fail(pos)
