"""TCSM-V2V: vertex-to-vertex expansion matching (Algorithm 2).

The basic algorithm of the paper.  Vertices are matched in TCQ order;
candidates for each vertex come from the data neighbourhood of its prec's
match, are filtered by the initial NLF candidate sets, structurally
validated against the forward vertices (FV), and temporally validated by
an *existential* window check as soon as a constraint's last vertex is
matched.  Once all vertices are embedded, the per-edge timestamp choices
that jointly satisfy the constraint set are enumerated — the "edge
permutation" step that makes V2V pay on temporally dense instances.

The search itself is generated by :mod:`repro.core.codegen`: one
enumerator, shared by every plan of the query's vertex and edge counts,
reads the plan from the :class:`~repro.core.codegen.V2VTables` built
here.  It draws a position's candidates from one per-plan list per bound prec vertex
(:mod:`repro.core.candidate_space`): the neighbours that pass the NLF
intersection, in neighbour order, so no non-candidate is scanned, and
the skipped ones are credited to the counters in bulk.  Pairs and their
timestamp runs are read off the snapshot's planes, and the joint
timestamp solver is planned once in ``prepare``
(:class:`~repro.core.timestamps.TimestampPlan`).
"""

from __future__ import annotations

from ..graphs import GraphView, QueryGraph, TemporalConstraints
from ..obs import TraceSink

from .candidate_space import (
    NeighbourCandidates,
    pair_readers,
    vertex_candidate_lists,
)
from .codegen import V2VTables
from .filters import initial_vertex_candidates
from .planner import plan_costs, validate_plan
from .sink_matcher import SinkMatcherBase
from .tcq import TCQ, build_tcq
from .timestamps import TimestampPlan

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
    """

    name = "tcsm-v2v"

    def __init__(
        self,
        query: QueryGraph,
        constraints: TemporalConstraints,
        graph: GraphView,
        count_based_nlf: bool = True,
        intersect_candidates: bool = True,
        use_windows: bool = True,
        plan: str = "paper",
    ) -> None:
        super().__init__(query, constraints, graph)
        self.count_based_nlf = count_based_nlf
        self.intersect_candidates = intersect_candidates
        self.use_windows = use_windows
        self.plan = validate_plan(plan)
        self.candidates: list[frozenset[int]] | None = None
        self.tcq: TCQ | None = None
        #: Per position, the prec's candidate neighbours (None at a seed;
        #: set by ``prepare``, filled lazily while enumerating).
        self.candidate_lists: tuple[NeighbourCandidates | None, ...] | None = None
        #: The plan as the enumerators read it (set by ``prepare``).
        self.tables: V2VTables

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
        dist = self.constraints.distance_matrix()
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
        has_pair, pair_run = pair_readers(self._view)
        self.tables = V2VTables(
            order=tcq.order,
            prec=tcq.prec,
            seeds=tuple(self.candidates[u] for u in tcq.order),
            lists=self.candidate_lists,
            structure=tuple(
                tuple(
                    (w, query.has_edge(u, w), query.has_edge(w, u))
                    for w in tcq.forward[pos]
                )
                for pos, u in enumerate(tcq.order)
            ),
            closing=tcq.check_at,
            edges=tuple(
                (a, b, label)
                for (a, b), label in zip(query.edges, query.edge_labels)
            ),
            has_pair=has_pair,
            pair_run=pair_run,
            label_run=self._view.label_runs.get,
            # The joint solver's tables depend on the constraints alone:
            # one plan serves every leaf, reusing the distance matrix.
            solve=TimestampPlan(
                self.constraints, self.use_windows, dist=dist
            ).assignments,
            dist=dist,
        )
