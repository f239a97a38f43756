"""TCSM-E2E: edge-to-edge expansion matching (Algorithm 4).

Query edges are matched in TCQ+ order.  Each candidate is a concrete
*temporal* edge, so timestamps are bound immediately and every temporal
constraint is checked exactly once — at the position of its later edge —
with no post-hoc permutation.  Candidates come from the data adjacency of
the prec's match (Algorithm 4 line 14); endpoint consistency with the
partial vertex map subsumes the forward-edge (FE) intersection check and
additionally enforces vertex injectivity, which Definition 4's isomorphism
semantics require.

The search itself is generated by :mod:`repro.core.codegen`: one
enumerator, shared by every plan with the query's edge count, reads the
plan from the :class:`~repro.core.codegen.E2ETables` built here.  It
reads the adjacency through one index: LDF's candidate pairs as CSR slot ids per matching
position (:mod:`repro.core.candidate_space`), so a slot names a
candidate neighbour and its timestamp run on the snapshot's flat planes.
"""

from __future__ import annotations

from collections.abc import Hashable

from ..errors import AlgorithmError
from ..graphs import GraphView, QueryGraph, TemporalConstraints
from ..obs import TraceSink

from .candidate_space import SEED, CandidateSpace
from .codegen import E2ETables
from .filters import initial_edge_candidate_pairs
from .planner import plan_costs, validate_plan
from .sink_matcher import SinkMatcherBase
from .tcq_plus import TCQPlus, build_tcq_plus
from .windows import build_edge_window_plan

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
    """

    name = "tcsm-e2e"

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
    ) -> None:
        super().__init__(query, constraints, graph)
        if query.num_edges == 0:
            raise AlgorithmError(
                "edge-based matchers need at least one query edge"
            )
        self.intersect_candidates = intersect_candidates
        self.plan = validate_plan(plan)
        self.pair_candidates: list[frozenset[tuple[int, int]]] | None = None
        #: The LDF pairs as CSR slot ids per matching position, the one
        #: index the enumerators read (set by ``prepare``).
        self.candidate_space: CandidateSpace | None = None
        self.tcq_plus: TCQPlus | None = None
        #: The plan as the enumerators read it (set by ``prepare``).
        self.tables: E2ETables

    # ------------------------------------------------------------------
    # preparation (Algorithm 4 lines 1-4)
    # ------------------------------------------------------------------
    def _prepare(self, tracer: TraceSink) -> None:
        """Compute LDF candidates, the TCQ+, the slot index and the tables."""
        query = self.query
        view = self._view
        with tracer.span(
            "candidate-filter:ldf", edges=query.num_edges
        ) as sp:
            self.pair_candidates = initial_edge_candidate_pairs(
                query,
                view,
                stats=self.prepare_stats,
            )
            sp.annotate(**self.prepare_stats.filter("ldf").as_dict())
        tcq = self.tcq_plus = build_tcq_plus(
            query,
            self.constraints,
            candidate_counts=[len(c) for c in self.pair_candidates],
            plan=self.plan,
            costs=plan_costs(view) if self.plan == "cost" else None,
        )
        space = self.candidate_space = CandidateSpace(
            query,
            view,
            tcq.order,
            self.pair_candidates,
            self.intersect_candidates,
        )
        self.tables = E2ETables(
            order=tcq.order,
            kinds=space.kinds,
            slots=space.slots,
            seeds=tuple(
                space.seeds(pos) if kind == SEED else None
                for pos, kind in enumerate(space.kinds)
            ),
            windows=build_edge_window_plan(tcq.order, self.constraints),
            vmatch=self._vmatch_plan(tcq) if self.vertex_prematching else None,
            edges=tuple(
                (a, b, label)
                for (a, b), label in zip(query.edges, query.edge_labels)
            ),
            num_vertices=query.num_vertices,
            out_offsets=view.out_offsets,
            out_nbrs=view.out_nbrs,
            out_ts_offsets=view.out_ts_offsets,
            out_times=view.out_times,
            in_nbrs=view.in_nbrs,
            in_ts_offsets=view.in_ts_offsets,
            in_times=view.in_times,
            label_run=view.label_runs.get,
            label_signature=view.label_signature,
        )

    def _vmatch_plan(
        self, tcq: TCQPlus
    ) -> tuple[tuple[tuple[bool, tuple[Hashable, ...]], ...], ...]:
        """Per position, Vmatch's look-ahead (Algorithm 5 lines 24-28).

        Every query vertex ``u`` the position binds needs a data
        neighbour for each label of ``BN(u)`` (Definition 8): ``N(u)``
        minus the vertex shared between the introducing edge and its prec
        (for the seed edge: the other endpoint).  An entry is ``(u is
        the edge's target, BN's labels)``, labels in a fixed order; a
        vertex with no BN labels has none.
        """
        query = self.query
        plan: list[tuple[tuple[bool, tuple[Hashable, ...]], ...]] = []
        for pos, edge_index in enumerate(tcq.order):
            qa, qb = query.edge(edge_index)
            prec = tcq.prec[pos]
            entries: list[tuple[bool, tuple[Hashable, ...]]] = []
            for u in tcq.new_vertices[pos]:
                if prec is None:
                    # Seed edge (or component seed): exclude the other
                    # endpoint.
                    excluded = {qa, qb} - {u}
                else:
                    excluded = set(query.edges_share_vertex(edge_index, prec))
                backward = query.neighbors(u) - excluded
                labels = {query.label(w) for w in backward}
                if labels:
                    entries.append((u != qa, tuple(sorted(labels, key=repr))))
            plan.append(tuple(entries))
        return tuple(plan)
