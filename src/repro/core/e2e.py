"""TCSM-E2E: edge-to-edge expansion matching (Algorithm 4).

Query edges are matched in TCQ+ order.  Each candidate is a concrete
*temporal* edge, so timestamps are bound immediately and every temporal
constraint is checked exactly once — at the position of its later edge —
with no post-hoc permutation.  Candidates come from the data adjacency of
the prec's match (Algorithm 4 line 14); endpoint consistency with the
partial vertex map subsumes the forward-edge (FE) intersection check and
additionally enforces vertex injectivity, which Definition 4's isomorphism
semantics require.

Both enumerators (this interpreted DFS and the generated one in
:mod:`repro.core.codegen`) read the adjacency through one index: LDF's
candidate pairs as CSR slot ids per matching position
(:mod:`repro.core.candidate_space`), so a slot names a candidate
neighbour and its timestamp run on the snapshot's flat planes.
"""

from __future__ import annotations

import bisect
import time
from collections.abc import Hashable, Iterable, Iterator, Sequence
from typing import cast

from ..errors import AlgorithmError
from ..graphs import GraphView, QueryGraph, TemporalConstraints, TemporalEdge
from ..obs import TraceSink

from .candidate_space import CLOSE, IN, OUT, CandidateSpace
from .filters import initial_edge_candidate_pairs
from .match import Match
from .options import RunContext
from .planner import plan_costs, validate_plan
from .sink_matcher import SinkMatcherBase
from .sinks import ResultSink, StopEnumeration
from .tcq_plus import TCQPlus, build_tcq_plus
from .windows import WindowBounds, build_edge_window_plan, feasible_window

__all__ = ["E2EMatcher"]


class E2EMatcher(SinkMatcherBase):
    """Matcher implementing TCSM-E2E.

    Parameters
    ----------
    query, constraints, graph:
        The matching problem.  Any graph backend is accepted;
        ``prepare`` compiles it once into a
        :class:`~repro.graphs.GraphSnapshot` (cached by ``freeze()``)
        and every read goes through that snapshot.
    intersect_candidates:
        When True (default), DFS candidates must belong to the initial LDF
        candidate set of their query edge (Algorithm 4 lines 1-3); line 15
        alone would filter by endpoint labels only.  Sound either way;
        ablation knob.
    plan:
        ``"paper"`` (default) uses Algorithm 3's TCF-walking matching
        order; ``"cost"`` asks :mod:`repro.core.planner` to choose the
        cheapest order under the data graph's statistics.
    codegen:
        When True, ``prepare`` compiles a specialized enumeration
        function for the concrete (query shape, matching order, window
        plan) via :mod:`repro.core.codegen` and ``run_sink`` dispatches
        to it; match multisets and every ``SearchStats`` counter are
        pinned bit-identical to the interpreted loop.
    """

    name = "tcsm-e2e"
    supports_codegen = True

    #: Subclass hook (TCSM-EVE): vertex pre-matching on newly introduced
    #: query vertices.  E2E performs no vertex look-ahead.
    vertex_prematching = False

    def __init__(
        self,
        query: QueryGraph,
        constraints: TemporalConstraints,
        graph: GraphView,
        intersect_candidates: bool = True,
        plan: str = "paper",
        codegen: bool = False,
    ) -> None:
        super().__init__(query, constraints, graph, codegen)
        if query.num_edges == 0:
            raise AlgorithmError(
                "edge-based matchers need at least one query edge"
            )
        self.intersect_candidates = intersect_candidates
        self.plan = validate_plan(plan)
        #: Per-position window bounds for the kernel (set by ``prepare``).
        self._window_plan: tuple[WindowBounds, ...] = ()
        self.pair_candidates: list[frozenset[tuple[int, int]]] | None = None
        #: The LDF pairs as CSR slot ids per matching position, the one
        #: index both enumerators read (set by ``prepare``).
        self.candidate_space: CandidateSpace | None = None
        self.tcq_plus: TCQPlus | None = None

    # ------------------------------------------------------------------
    # preparation (Algorithm 4 lines 1-4)
    # ------------------------------------------------------------------
    def _prepare(self, tracer: TraceSink) -> None:
        """Compute LDF candidates, the TCQ+ and the slot index."""
        with tracer.span(
            "candidate-filter:ldf", edges=self.query.num_edges
        ) as sp:
            self.pair_candidates = initial_edge_candidate_pairs(
                self.query,
                self._view,
                stats=self.prepare_stats,
            )
            sp.annotate(**self.prepare_stats.filter("ldf").as_dict())
        self.tcq_plus = build_tcq_plus(
            self.query,
            self.constraints,
            candidate_counts=[len(c) for c in self.pair_candidates],
            plan=self.plan,
            costs=plan_costs(self._view) if self.plan == "cost" else None,
        )
        self._window_plan = build_edge_window_plan(
            self.tcq_plus.order, self.constraints
        )
        self.candidate_space = CandidateSpace(
            self.query,
            self._view,
            self.tcq_plus.order,
            self.pair_candidates,
            self.intersect_candidates,
        )
        self._vmatch_plan = self._build_vmatch_plan()

    def _build_vmatch_plan(
        self,
    ) -> tuple[tuple[tuple[int, frozenset[Hashable]], ...], ...]:
        """Per position: (new query vertex, labels its BN requires).

        ``BN(u)`` (Definition 8) is ``N(u)`` minus the vertex shared
        between the introducing edge and its prec (for the seed edge: the
        other endpoint).  Only the *labels* of BN matter to ``Vmatch``, so
        the plan stores the deduplicated label set.
        """
        query = self.query
        tcq = self.tcq_plus
        assert tcq is not None  # prepare() builds the TCQ+ before this
        plan: list[tuple[tuple[int, frozenset[Hashable]], ...]] = []
        for pos, edge_index in enumerate(tcq.order):
            entries: list[tuple[int, frozenset[Hashable]]] = []
            endpoints = set(query.edge(edge_index))
            prec = tcq.prec[pos]
            if prec is None:
                # Seed edge (or component seed): exclude the other endpoint.
                excluded_by_vertex = {
                    u: endpoints - {u} for u in tcq.new_vertices[pos]
                }
            else:
                shared = query.edges_share_vertex(edge_index, prec)
                excluded_by_vertex = {
                    u: set(shared) for u in tcq.new_vertices[pos]
                }
            for u in tcq.new_vertices[pos]:
                backward = query.neighbors(u) - excluded_by_vertex[u]
                labels = frozenset(query.label(w) for w in backward)
                entries.append((u, labels))
            plan.append(tuple(entries))
        return tuple(plan)

    # ------------------------------------------------------------------
    # matching (Algorithm 4 lines 5-27)
    # ------------------------------------------------------------------
    def _run_sink(self, ctx: RunContext, sink: ResultSink) -> None:
        deadline = ctx.deadline
        search_stats = ctx.stats
        # prepare() populated these; the casts rebind them non-Optional
        # because narrowing does not propagate into the closures below.
        tcq = cast(TCQPlus, self.tcq_plus)
        space = cast(CandidateSpace, self.candidate_space)
        query = self.query
        graph = self._view
        m = query.num_edges
        n = query.num_vertices
        vertex_map: list[int | None] = [None] * n
        used: set[int] = set()
        edge_times: list[int | None] = [None] * m
        # Read-only view of edge_times: a constraint is checked only at the
        # position where its later edge binds, so both reads are bound.
        bound_times = cast("list[int]", edge_times)
        root_seeds = space.seeds(0, ctx.partition)
        # Per-filter pruning counters, fetched once so the hot loop only
        # touches ints.  Chained on the same candidate stream, so each
        # filter's ``considered`` equals the previous one's ``survivors``.
        inj_counters = search_stats.filter("injectivity")
        temporal_counters = search_stats.filter("temporal")
        vmatch_counters = (
            search_stats.filter("vmatch") if self.vertex_prematching else None
        )
        signature = graph.label_signature
        vmatch_plan = self._vmatch_plan

        def vmatch(pos: int, qa: int, u: int, v: int) -> bool:
            """Vmatch (Algorithm 5 lines 24-28): label look-ahead on BN.

            Every query vertex the position binds (``qa`` -> ``u`` or the
            target -> ``v``) needs a data neighbour for each BN label.
            """
            for w, required_labels in vmatch_plan[pos]:
                counts = signature(u if w == qa else v)
                for label in required_labels:
                    if label not in counts:
                        return False
            return True

        def temporal_ok(pos: int) -> bool:
            for c in tcq.check_at[pos]:
                delta = bound_times[c.later] - bound_times[c.earlier]
                if not 0 <= delta <= c.gap:
                    return False
            return True

        edge_labels = query.edge_labels
        query_edges = query.edges
        # Per position: (query edge, its source, its target).
        steps = [(e, *query_edges[e]) for e in tcq.order]
        window_plan = self._window_plan
        kinds = space.kinds
        index = space.slots
        # The snapshot's flat planes: a slot k names a neighbour and the
        # run times[toff[k] : toff[k + 1]] (see repro.core.candidate_space).
        out_offsets = graph.out_offsets
        out_nbrs = graph.out_nbrs
        out_plane = (graph.out_ts_offsets, graph.out_times)
        in_nbrs = graph.in_nbrs
        in_plane = (graph.in_ts_offsets, graph.in_times)
        label_run = graph.label_runs.get
        bl = bisect.bisect_left
        br = bisect.bisect_right

        def candidate_edges(pos: int) -> Iterator[tuple[int, int, int]]:
            """Candidates per Algorithm 4 line 14, read from the slot index.

            The feasible ``[lo, hi]`` interval for this layer's timestamp
            is computed once from the bound edge times (it does not
            depend on the candidate pair), every run is bisected down to
            it on the flat plane, and a collapsed window short-circuits
            the layer with zero expansions.
            """
            window = feasible_window(window_plan[pos], bound_times)
            if window is None:
                return
            lo, hi = window
            edge_index, qa, qb = steps[pos]
            da, db = vertex_map[qa], vertex_map[qb]
            kind = kinds[pos]
            # (u, v, slot) triples; the slot indexes ``plane``.
            slots: Iterable[tuple[int, int, int]]
            plane = out_plane
            if kind == OUT:
                assert da is not None
                slots = [(da, out_nbrs[k], k) for k in index[pos][da]]
            elif kind == IN:
                assert db is not None
                plane = in_plane
                slots = [(in_nbrs[k], db, k) for k in index[pos][db]]
            elif kind == CLOSE:
                assert da is not None and db is not None
                k = index[pos][da].get(db, -1)
                slots = [(da, db, k)] if k >= 0 else []
            else:
                # Seed edge of a (possibly disconnected) component.  Only
                # the root (pos 0) may be partitioned; later component
                # seeds must stay exhaustive or matches would be lost.
                seeds = root_seeds if pos == 0 else space.seeds(pos)
                slots = (
                    (du, dv, bl(out_nbrs, dv, out_offsets[du], out_offsets[du + 1]))
                    for du, dv in seeds
                )
            new_a = da is None
            new_b = db is None
            toff, times = plane
            label = edge_labels[edge_index]
            run: Sequence[int] = times
            for u, v, k in slots:
                if (new_a and u in used) or (new_b and v in used):
                    continue
                if label is None:
                    start, stop = toff[k], toff[k + 1]
                else:
                    run = label_run((u, v, label), ())
                    start, stop = 0, len(run)
                i0 = bl(run, lo, start, stop)
                i1 = br(run, hi, i0, stop)
                search_stats.timestamps_expanded += i1 - i0
                search_stats.timestamps_skipped += stop - start - (i1 - i0)
                for t in run[i0:i1]:
                    yield u, v, t

        def dfs(pos: int) -> None:
            if deadline is not None and time.monotonic() > deadline:
                search_stats.budget_exhausted = True
                search_stats.deadline_hit = True
                raise StopEnumeration
            if pos == m:
                search_stats.matches += 1
                bound = cast("list[int]", vertex_map)
                sink.accept(
                    Match(
                        tuple(
                            [
                                TemporalEdge(bound[a], bound[b], bound_times[e])
                                for e, (a, b) in enumerate(query_edges)
                            ]
                        ),
                        tuple(bound),
                    )
                )
                return
            search_stats.nodes_expanded += 1
            edge_index, qa, qb = steps[pos]
            new_a = vertex_map[qa] is None
            new_b = vertex_map[qb] is None
            produced = False
            for u, v, t in candidate_edges(pos):
                if deadline is not None and time.monotonic() > deadline:
                    search_stats.budget_exhausted = True
                    search_stats.deadline_hit = True
                    raise StopEnumeration
                search_stats.candidates_generated += 1
                search_stats.validations += 1
                # Injectivity: a newly bound data vertex must be fresh and
                # the two endpoints of a seed edge must differ.
                inj_counters.considered += 1
                if new_a and new_b and u == v:
                    inj_counters.pruned += 1
                    search_stats.record_fail(pos + 1)
                    continue
                edge_times[edge_index] = t
                temporal_counters.considered += 1
                if not temporal_ok(pos):
                    temporal_counters.pruned += 1
                    edge_times[edge_index] = None
                    search_stats.record_fail(pos + 1)
                    continue
                if vmatch_counters is not None:
                    vmatch_counters.considered += 1
                    if not vmatch(pos, qa, u, v):
                        vmatch_counters.pruned += 1
                        edge_times[edge_index] = None
                        search_stats.record_fail(pos + 1)
                        continue
                if new_a:
                    vertex_map[qa] = u
                    used.add(u)
                if new_b:
                    vertex_map[qb] = v
                    used.add(v)
                produced = True
                dfs(pos + 1)
                if new_a:
                    used.discard(u)
                    vertex_map[qa] = None
                if new_b:
                    used.discard(v)
                    vertex_map[qb] = None
                edge_times[edge_index] = None
            if not produced:
                search_stats.record_fail(pos + 1)

        try:
            dfs(0)
        finally:
            # dfs is recursive, so its closure holds its own cell: clear
            # it, or the run's sink, stats and slot index wait for the
            # cyclic collector.
            del dfs
