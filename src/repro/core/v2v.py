"""TCSM-V2V: vertex-to-vertex expansion matching (Algorithm 2).

The basic algorithm of the paper.  Vertices are matched in TCQ order;
candidates for each vertex come from the data neighbourhood of its prec's
match, are filtered by the initial NLF candidate sets, structurally
validated against the forward vertices (FV), and temporally validated by
an *existential* window check as soon as a constraint's last vertex is
matched.  Once all vertices are embedded, the per-edge timestamp choices
that jointly satisfy the constraint set are enumerated — the "edge
permutation" step that makes V2V pay on temporally dense instances.
"""

from __future__ import annotations

import time
from collections.abc import Collection, Iterator, Sequence
from typing import cast

from ..errors import AlgorithmError
from ..graphs import (
    GraphSnapshot,
    GraphView,
    QueryGraph,
    TemporalConstraints,
    ensure_snapshot,
)
from ..obs import NULL_TRACER, TraceSink

from .codegen import CompiledPlan, compile_enumerator
from .filters import initial_vertex_candidates
from .match import Match
from .options import RunContext
from .partition import partition_slice
from .planner import plan_costs, validate_plan
from .sinks import CollectSink, ResultSink, StopEnumeration
from .stats import SearchStats
from .tcq import TCQ, build_tcq
from .timestamps import iter_timestamp_assignments, windows_compatible
from .windows import (
    constraint_slices,
    propagate_run_windows,
    windowed_times,
)

__all__ = ["V2VMatcher"]


class V2VMatcher:
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
    supports_partition = True
    #: :mod:`repro.core.codegen` has a specializing generator for this
    #: matcher (the engine consults this before forwarding the
    #: ``codegen`` option to the constructor).
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
        self.count_based_nlf = count_based_nlf
        self.intersect_candidates = intersect_candidates
        self.use_windows = use_windows
        self.plan = validate_plan(plan)
        self.codegen = codegen
        #: Specialized enumerator compiled by ``prepare`` when
        #: ``codegen`` is set; None means the interpreted loop runs.
        self._compiled: CompiledPlan | None = None
        #: STN distance matrix for the window kernel (set by ``prepare``).
        self._dist: list[list[float]] = []
        self.candidates: list[frozenset[int]] | None = None
        self.tcq: TCQ | None = None
        #: Filter counters accumulated during ``prepare`` (the engine
        #: merges them into the run stats exactly once per query).
        self.prepare_stats = SearchStats()
        self._prepared = False

    # ------------------------------------------------------------------
    # preparation (Algorithm 2 lines 1-4); timed separately by the engine
    # ------------------------------------------------------------------
    def prepare(self, tracer: TraceSink | None = None) -> None:
        """Compute initial candidates and build the TCQ (idempotent)."""
        if self._prepared:
            return
        tr = tracer if tracer is not None else NULL_TRACER
        with tr.span("compile-snapshot"):
            self._view = ensure_snapshot(self.graph)
        with tr.span(
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
        # Per position: the directed query edges linking the vertex to its
        # prec, and the forward-vertex structural checks.
        query = self.query
        tcq = self.tcq
        self._prec_needs: list[tuple[bool, bool]] = []
        self._fv_checks: list[tuple[tuple[int, bool, bool], ...]] = []
        for pos, u in enumerate(tcq.order):
            u_prec = tcq.prec[pos]
            if u_prec is None:
                self._prec_needs.append((False, False))
            else:
                self._prec_needs.append(
                    (query.has_edge(u_prec, u), query.has_edge(u, u_prec))
                )
            checks: list[tuple[int, bool, bool]] = []
            for w in tcq.forward[pos]:
                checks.append(
                    (w, query.has_edge(u, w), query.has_edge(w, u))
                )
            self._fv_checks.append(tuple(checks))
        # Per constraint edge: endpoint pair for quick lookup.
        self._edge_endpoints = self.query.edges
        self._required_edge_labels = self.query.edge_labels
        if self.codegen:
            with tr.span("codegen-compile", algorithm=self.name) as sp:
                self._compiled = compile_enumerator(self)
                sp.annotate(compiled=self._compiled is not None)
        self._prepared = True

    @property
    def compiled_source(self) -> str | None:
        """Generated source of the specialized enumerator, if compiled.

        The debug hook documented in ``docs/CODEGEN.md``; ``None`` when
        ``codegen`` is off, ``prepare`` has not run, or the generator
        bailed on this query shape.
        """
        return None if self._compiled is None else self._compiled.source

    def _edge_times(
        self, edge_index: int, du: int, dv: int
    ) -> Sequence[int]:
        """Timestamps of data pair ``(du, dv)`` admissible for a query edge
        (honours the edge-label generalisation).

        Returns the full sorted run without touching counters; callers
        account expansion via :mod:`repro.core.windows`.
        """
        required = self._required_edge_labels[edge_index]
        if required is None:
            return self._view.timestamps_list(du, dv)
        return self._view.timestamps_with_label(du, dv, required)

    # ------------------------------------------------------------------
    # matching (Algorithm 2 lines 5-27)
    # ------------------------------------------------------------------
    def run(self, ctx: RunContext) -> Iterator[Match]:
        """Yield all matches (pull facade over :meth:`run_sink`).

        ``ctx.partition=(index, count)`` restricts the search to the
        slice of the *root* vertex's candidates owned by that partition
        (see :mod:`repro.core.partition`); the ``count`` partitions
        jointly enumerate exactly the unpartitioned match set, disjointly.
        ``ctx.limit`` and the deadline still stop the search early; the
        returned generator replays the collected prefix.
        """
        self.prepare()
        return self._run_collected(ctx)

    def _run_collected(self, ctx: RunContext) -> Iterator[Match]:
        sink = CollectSink(limit=ctx.limit)
        self.run_sink(ctx, sink)
        yield from sink.finish()

    def run_sink(self, ctx: RunContext, sink: ResultSink) -> None:
        """Push every match into *sink* — the primary entry point.

        A satisfied sink raises :class:`StopEnumeration`, which unwinds
        the DFS recursion directly (no further candidates generated, no
        further timestamps expanded); the stop is recorded on
        ``ctx.stats`` as ``budget_exhausted`` + ``limit_hit``.
        """
        self.prepare()
        try:
            if self._compiled is not None:
                self._compiled.entry(ctx, sink)
            else:
                self._run_sink(ctx, sink)
        except StopEnumeration:
            ctx.stats.budget_exhausted = True
            if not ctx.stats.deadline_hit:
                ctx.stats.limit_hit = True

    def _run_sink(self, ctx: RunContext, sink: ResultSink) -> None:
        deadline = ctx.deadline
        partition = ctx.partition
        search_stats = ctx.stats
        # prepare() populated these; the casts rebind them non-Optional
        # because narrowing does not propagate into the closures below.
        tcq = cast(TCQ, self.tcq)
        candidates = cast("list[frozenset[int]]", self.candidates)
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

        def temporal_ok(pos: int) -> bool:
            """Existential window check for constraints closing at *pos*.

            Each run is first bisected to the slice the *other* run's
            endpoints allow — the pair check then touches only mutually
            feasible timestamps.
            """
            for c in tcq.check_at[pos]:
                eu, ev = self._edge_endpoints[c.earlier]
                lu, lv = self._edge_endpoints[c.later]
                earlier_times = self._edge_times(c.earlier, bound[eu], bound[ev])
                later_times = self._edge_times(c.later, bound[lu], bound[lv])
                earlier_times, later_times = constraint_slices(
                    earlier_times, later_times, c.gap, search_stats
                )
                if not windows_compatible(earlier_times, later_times, c.gap):
                    return False
            return True

        def structure_ok(pos: int, v: int) -> bool:
            for w, need_uw, need_wu in self._fv_checks[pos]:
                dw = bound[w]
                if need_uw and not graph.has_pair(v, dw):
                    return False
                if need_wu and not graph.has_pair(dw, v):
                    return False
            return True

        def dfs(pos: int) -> None:
            if deadline is not None and time.monotonic() > deadline:
                search_stats.budget_exhausted = True
                search_stats.deadline_hit = True
                raise StopEnumeration
            if pos == n:
                self._emit_matches(vertex_map, search_stats, pos, sink)
                return
            search_stats.nodes_expanded += 1
            u = tcq.order[pos]
            u_prec = tcq.prec[pos]
            allowed = candidates[u]
            base: Collection[int]
            if u_prec is None:
                # Only the root (pos 0) may be partitioned; later component
                # seeds must stay exhaustive or matches would be lost.
                if pos == 0 and root_candidates is not None:
                    base = root_candidates
                else:
                    base = allowed
            else:
                d_prec = bound[u_prec]
                need_out, need_in = self._prec_needs[pos]
                if need_out and need_in:
                    # Pair probe (CSR bisect) rather than a membership
                    # test on the neighbour sequence, which would be
                    # linear on the array-backed view.
                    base = [
                        x
                        for x in graph.in_neighbor_ids(d_prec)
                        if graph.has_pair(d_prec, x)
                    ]
                elif need_out:
                    base = graph.out_neighbor_ids(d_prec)
                else:
                    base = graph.in_neighbor_ids(d_prec)
            produced = False
            for v in base:
                if deadline is not None and time.monotonic() > deadline:
                    search_stats.budget_exhausted = True
                    search_stats.deadline_hit = True
                    raise StopEnumeration
                search_stats.candidates_generated += 1
                intersect_counters.considered += 1
                if self.intersect_candidates or u_prec is None:
                    if v not in allowed:
                        intersect_counters.pruned += 1
                        search_stats.record_fail(pos + 1)
                        continue
                elif graph.label(v) != query.label(u):
                    intersect_counters.pruned += 1
                    search_stats.record_fail(pos + 1)
                    continue
                inj_counters.considered += 1
                if v in used:
                    inj_counters.pruned += 1
                    search_stats.record_fail(pos + 1)
                    continue
                search_stats.validations += 1
                structure_counters.considered += 1
                if not structure_ok(pos, v):
                    structure_counters.pruned += 1
                    search_stats.record_fail(pos + 1)
                    continue
                vertex_map[u] = v
                temporal_counters.considered += 1
                if not temporal_ok(pos):
                    temporal_counters.pruned += 1
                    vertex_map[u] = None
                    search_stats.record_fail(pos + 1)
                    continue
                produced = True
                used.add(v)
                dfs(pos + 1)
                used.discard(v)
                vertex_map[u] = None
            if not produced:
                search_stats.record_fail(pos + 1)

        dfs(0)

    def _emit_matches(
        self,
        vertex_map: list[int | None],
        stats: SearchStats,
        pos: int,
        sink: ResultSink,
    ) -> None:
        """Joint timestamp enumeration for a complete vertex embedding.

        One interval-propagation pass over the run endpoints (:func:`propagate_run_windows`) shrinks every run
        to its STN-feasible slice before the joint solver expands
        anything — or proves no assignment exists without expanding at
        all.
        """
        complete = cast("list[int]", vertex_map)  # all positions bound here
        runs = [
            self._edge_times(index, complete[u], complete[v])
            for index, (u, v) in enumerate(self._edge_endpoints)
        ]
        options: list[Sequence[int]] | None = None
        windows = propagate_run_windows(runs, self._dist)
        if windows is None:
            for run in runs:
                stats.timestamps_skipped += len(run)
        else:
            options = [
                windowed_times(run, window, stats)
                for run, window in zip(runs, windows)
            ]
        join_counters = stats.filter("timestamp-join")
        join_counters.considered += 1
        any_assignment = False
        final_map = tuple(complete)
        if options is not None:
            for times in iter_timestamp_assignments(
                options, self.constraints, use_windows=self.use_windows
            ):
                any_assignment = True
                stats.matches += 1
                sink.accept(Match.from_vertex_map(self.query, final_map, times))
        if not any_assignment:
            join_counters.pruned += 1
            stats.record_fail(pos)
