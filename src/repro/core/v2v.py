"""TCSM-V2V: vertex-to-vertex expansion matching (Algorithm 2).

The basic algorithm of the paper.  Vertices are matched in TCQ order;
candidates for each vertex come from the data neighbourhood of its prec's
match, are filtered by the initial NLF candidate sets, structurally
validated against the forward vertices (FV), and temporally validated by
an *existential* window check as soon as a constraint's last vertex is
matched.  Once all vertices are embedded, the per-edge timestamp choices
that jointly satisfy the constraint set are enumerated — the "edge
permutation" step that makes V2V pay on temporally dense instances.

Both enumerators (this interpreted DFS and the generated one in
:mod:`repro.core.codegen`) draw a position's candidates from one per-plan
list per bound prec vertex (:mod:`repro.core.candidate_space`): the
neighbours that pass the NLF intersection, in neighbour order, so no
non-candidate is scanned, and the skipped ones are credited to the
counters in bulk.  Pairs and their timestamp runs are read off the
snapshot's planes, and the joint timestamp solver is planned once in
``prepare`` (:class:`~repro.core.timestamps.TimestampPlan`).
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence
from typing import cast

from ..graphs import GraphView, QueryGraph, TemporalConstraints
from ..obs import TraceSink

from .candidate_space import (
    NeighbourCandidates,
    pair_readers,
    vertex_candidate_lists,
)
from .codegen import _flush_v2v
from .filters import initial_vertex_candidates
from .match import Match
from .options import RunContext
from .partition import partition_slice
from .planner import plan_costs, validate_plan
from .sink_matcher import SinkMatcherBase
from .sinks import ResultSink, StopEnumeration
from .tcq import TCQ, build_tcq
from .timestamps import TimestampPlan, windows_compatible
from .windows import (
    constraint_slices,
    propagate_run_windows,
    windowed_times,
)

__all__ = ["V2VMatcher"]


class V2VMatcher(SinkMatcherBase):
    """Matcher implementing TCSM-V2V.

    Parameters
    ----------
    query, constraints, graph:
        The matching problem.  Any graph backend is accepted;
        ``prepare`` compiles it once into a
        :class:`~repro.graphs.GraphSnapshot` (cached by ``freeze()``)
        and every read goes through that snapshot.
    count_based_nlf:
        Use count-based neighbour-label containment in the initial filter
        (default) rather than the set-based reading of Definition 6.
    intersect_candidates:
        When True (default), DFS candidates must also belong to the
        initial NLF candidate set of their query vertex.  Algorithm 2's
        line 15 filters by label only; the intersection is sound and
        strictly stronger (ablation knob, see DESIGN.md decision 3).
    use_windows:
        Forwarded to the joint timestamp solver (STN window pruning).
    plan:
        ``"paper"`` (default) uses Algorithm 1's tsup-greedy matching
        order; ``"cost"`` asks :mod:`repro.core.planner` to choose the
        cheapest order under the data graph's statistics.
    codegen:
        When True, ``prepare`` compiles a specialized enumeration
        function for the concrete (query shape, matching order, STN
        closure) via :mod:`repro.core.codegen` and ``run_sink``
        dispatches to it; match multisets and every ``SearchStats``
        counter are pinned bit-identical to the interpreted loop.
    """

    name = "tcsm-v2v"
    supports_codegen = True

    def __init__(
        self,
        query: QueryGraph,
        constraints: TemporalConstraints,
        graph: GraphView,
        count_based_nlf: bool = True,
        intersect_candidates: bool = True,
        use_windows: bool = True,
        plan: str = "paper",
        codegen: bool = False,
    ) -> None:
        super().__init__(query, constraints, graph, codegen)
        self.count_based_nlf = count_based_nlf
        self.intersect_candidates = intersect_candidates
        self.use_windows = use_windows
        self.plan = validate_plan(plan)
        #: STN distance matrix for the window kernel (set by ``prepare``).
        self._dist: list[list[float]] = []
        self.candidates: list[frozenset[int]] | None = None
        self.tcq: TCQ | None = None
        #: Per position, the prec's candidate neighbours (None at a seed;
        #: set by ``prepare``, filled lazily while enumerating).
        self.candidate_lists: tuple[NeighbourCandidates | None, ...] | None = None
        #: The joint timestamp solver's plan (set by ``prepare``).
        self._solver: TimestampPlan

    # ------------------------------------------------------------------
    # preparation (Algorithm 2 lines 1-4); timed separately by the engine
    # ------------------------------------------------------------------
    def _prepare(self, tracer: TraceSink) -> None:
        """Compute initial candidates and build the TCQ."""
        with tracer.span(
            "candidate-filter:nlf", vertices=self.query.num_vertices
        ) as sp:
            self.candidates = initial_vertex_candidates(
                self.query,
                self._view,
                count_based=self.count_based_nlf,
                stats=self.prepare_stats,
            )
            sp.annotate(**self.prepare_stats.filter("nlf").as_dict())
        self.tcq = build_tcq(
            self.query,
            self.constraints,
            candidate_counts=[len(c) for c in self.candidates],
            plan=self.plan,
            costs=plan_costs(self._view) if self.plan == "cost" else None,
        )
        self._dist = self.constraints.distance_matrix()
        # The joint solver's tables depend on the constraints alone: one
        # plan serves every leaf, reusing the distance matrix above.
        self._solver = TimestampPlan(
            self.constraints, self.use_windows, dist=self._dist
        )
        # Per position: the candidate neighbours of the prec's match, and
        # the forward-vertex structural checks.
        query = self.query
        tcq = self.tcq
        self.candidate_lists = vertex_candidate_lists(
            query,
            self._view,
            tcq.order,
            tcq.prec,
            self.candidates,
            self.intersect_candidates,
        )
        self._fv_checks: list[tuple[tuple[int, bool, bool], ...]] = []
        for pos, u in enumerate(tcq.order):
            checks: list[tuple[int, bool, bool]] = []
            for w in tcq.forward[pos]:
                checks.append(
                    (w, query.has_edge(u, w), query.has_edge(w, u))
                )
            self._fv_checks.append(tuple(checks))

    # ------------------------------------------------------------------
    # matching (Algorithm 2 lines 5-27)
    # ------------------------------------------------------------------
    def _run_sink(self, ctx: RunContext, sink: ResultSink) -> None:
        deadline = ctx.deadline
        partition = ctx.partition
        search_stats = ctx.stats
        # prepare() populated these; the casts rebind them non-Optional
        # because narrowing does not propagate into the closures below.
        tcq = cast(TCQ, self.tcq)
        candidates = cast("list[frozenset[int]]", self.candidates)
        lists = cast("tuple[NeighbourCandidates, ...]", self.candidate_lists)
        fv_checks = self._fv_checks
        query = self.query
        graph = self._view
        n = query.num_vertices
        vertex_map: list[int | None] = [None] * n
        # Read-only view of vertex_map: every position read below is bound,
        # since the TCQ order matches prec/forward vertices first.
        bound = cast("list[int]", vertex_map)
        used: set[int] = set()
        root_candidates: list[int] | None = None
        if partition is not None:
            root_candidates = partition_slice(candidates[tcq.order[0]], partition)
        # Per-filter pruning counters, fetched once so the hot loop only
        # touches ints.  Chained on the same candidate stream, so each
        # filter's ``considered`` equals the previous one's ``survivors``.
        intersect_counters = search_stats.filter("intersect")
        inj_counters = search_stats.filter("injectivity")
        structure_counters = search_stats.filter("structure")
        temporal_counters = search_stats.filter("temporal")
        # Per layer: failed enumerations, and the base members the
        # candidate lists skipped (non-candidates, each one generated and
        # then pruned by the intersect); folded into the stats once.
        fails = [0] * (n + 2)
        skipped = [0] * (n + 2)
        edge_endpoints = query.edges
        edge_labels = query.edge_labels
        solve = self._solver.assignments
        dist = self._dist
        has_pair, pair_run = pair_readers(graph)
        label_run = graph.label_runs.get

        def edge_run(e: int, a: int, b: int) -> Sequence[int]:
            """Timestamps of data pair ``(a, b)`` admissible for query edge
            *e* (honours the edge-label generalisation)."""
            label = edge_labels[e]
            if label is None:
                return pair_run(a, b)
            return label_run((a, b, label), ())

        def temporal_ok(pos: int) -> bool:
            """Existential window check for constraints closing at *pos*.

            Each run is first bisected to the slice the *other* run's
            endpoints allow — the pair check then touches only mutually
            feasible timestamps.
            """
            for c in tcq.check_at[pos]:
                eu, ev = edge_endpoints[c.earlier]
                lu, lv = edge_endpoints[c.later]
                earlier_times, later_times = constraint_slices(
                    edge_run(c.earlier, bound[eu], bound[ev]),
                    edge_run(c.later, bound[lu], bound[lv]),
                    c.gap,
                    search_stats,
                )
                if not windows_compatible(earlier_times, later_times, c.gap):
                    return False
            return True

        def structure_ok(pos: int, v: int) -> bool:
            for w, need_uw, need_wu in fv_checks[pos]:
                dw = bound[w]
                if need_uw and not has_pair(v, dw):
                    return False
                if need_wu and not has_pair(dw, v):
                    return False
            return True

        def leaf() -> None:
            """Joint timestamp enumeration for a complete vertex embedding.

            One interval-propagation pass over the run endpoints
            (:func:`propagate_run_windows`) shrinks every run to its
            STN-feasible slice before the joint solver expands anything
            — or proves no assignment exists without expanding at all.
            """
            runs = [
                edge_run(e, bound[a], bound[b])
                for e, (a, b) in enumerate(edge_endpoints)
            ]
            join_counters = search_stats.filter("timestamp-join")
            join_counters.considered += 1
            windows = propagate_run_windows(runs, dist)
            if windows is None:
                for run in runs:
                    search_stats.timestamps_skipped += len(run)
                join_counters.pruned += 1
                fails[n] += 1
                return
            options = [
                windowed_times(run, window, search_stats)
                for run, window in zip(runs, windows)
            ]
            final_map = tuple(bound)
            produced = False
            for times in solve(options):
                produced = True
                search_stats.matches += 1
                sink.accept(Match.from_vertex_map(query, final_map, times))
            if not produced:
                join_counters.pruned += 1
                fails[n] += 1

        def dfs(pos: int) -> None:
            if deadline is not None and time.monotonic() > deadline:
                search_stats.budget_exhausted = True
                search_stats.deadline_hit = True
                raise StopEnumeration
            if pos == n:
                leaf()
                return
            search_stats.nodes_expanded += 1
            u = tcq.order[pos]
            u_prec = tcq.prec[pos]
            # (index in the base, candidate) pairs, and the base length.
            indexed: Iterable[tuple[int, int]]
            if u_prec is None:
                # A seed iterates its own candidate set: nothing to prune.
                # Only the root (pos 0) may be partitioned; later component
                # seeds must stay exhaustive or matches would be lost.
                seeds: Sequence[int] | frozenset[int] = candidates[u]
                if pos == 0 and root_candidates is not None:
                    seeds = root_candidates
                indexed = enumerate(seeds)
                size = len(seeds)
            else:
                survivors, indices, size = lists[pos][bound[u_prec]]
                indexed = zip(indices, survivors)
            checks = fv_checks[pos]
            closing = tcq.check_at[pos]
            expected = 0
            produced = False
            for i, v in indexed:
                if deadline is not None and time.monotonic() > deadline:
                    search_stats.budget_exhausted = True
                    search_stats.deadline_hit = True
                    raise StopEnumeration
                skipped[pos + 1] += i - expected
                expected = i + 1
                search_stats.candidates_generated += 1
                intersect_counters.considered += 1
                inj_counters.considered += 1
                if v in used:
                    inj_counters.pruned += 1
                    fails[pos + 1] += 1
                    continue
                search_stats.validations += 1
                structure_counters.considered += 1
                if checks and not structure_ok(pos, v):
                    structure_counters.pruned += 1
                    fails[pos + 1] += 1
                    continue
                vertex_map[u] = v
                temporal_counters.considered += 1
                if closing and not temporal_ok(pos):
                    temporal_counters.pruned += 1
                    vertex_map[u] = None
                    fails[pos + 1] += 1
                    continue
                produced = True
                used.add(v)
                dfs(pos + 1)
                used.discard(v)
                vertex_map[u] = None
            skipped[pos + 1] += size - expected
            if not produced:
                fails[pos + 1] += 1

        try:
            dfs(0)
        finally:
            _flush_v2v(search_stats, fails, skipped)
            # dfs is recursive, so its closure holds its own cell: clear
            # it, or the run's sink, stats and candidate lists wait for
            # the cyclic collector.
            del dfs
