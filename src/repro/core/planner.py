"""Cost-based matching-order planner (``MatchOptions(plan="cost")``).

The paper fixes one matching order per algorithm: the tsup-greedy walks
of Algorithms 1 and 3.  That order is structural — it never looks at the
*data* graph, so a query whose high-tsup edge maps to a huge label
partition pays for it at every enumeration layer.  This module adds the
classical alternative: generate a handful of deterministic candidate
orders (the paper's own walk among them), score each against cheap
snapshot statistics, and keep the cheapest.

The cost model estimates the size of the matching tree an order induces,
layer by layer:

* **branching** — how many candidates the layer generates: the initial
  candidate-set size for seeds, or the expected neighbour count
  ``avg_degree × label-selectivity`` for frontier extensions;
* **structural filters** — every extra already-bound neighbour must also
  be connected in the data graph; each multiplies the surviving width by
  the pair density ``|E| / |V|²``;
* **temporal tightness** — a constraint with gap ``k`` restricts a pair's
  timestamp run to a ``(k+1) / (span+1)`` fraction of the time axis (this
  is exactly the slice the window kernel of :mod:`repro.core.windows`
  reads); constraints checkable at a layer scale its width accordingly.

The total cost is the sum of the per-layer widths — an estimate of nodes
expanded.  Everything is deterministic: candidate generation breaks ties
by id, and :func:`choose_vertex_order`/:func:`choose_edge_order` break
score ties by candidate position (the paper order is listed first, so it
wins all ties).  ``plan="paper"`` therefore remains bit-for-bit
reproduction, and ``plan="cost"`` changes only the *order*, never the
match multiset.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from dataclasses import dataclass, field

from ..errors import AlgorithmError
from ..graphs import (
    Constraint,
    GraphView,
    QueryGraph,
    TemporalConstraints,
)

__all__ = [
    "PLAN_CHOICES",
    "PlanCosts",
    "candidate_edge_orders",
    "candidate_vertex_orders",
    "choose_edge_order",
    "choose_vertex_order",
    "plan_costs",
    "score_edge_order",
    "score_vertex_order",
    "validate_plan",
]

#: Recognised values for ``MatchOptions.plan`` / the matcher ``plan`` knob.
PLAN_CHOICES: tuple[str, ...] = ("paper", "cost")

#: Width floor keeping per-layer estimates positive (a zero would make
#: every suffix free and all orders tie).
_EPS = 1e-6


def validate_plan(plan: str) -> str:
    """Return *plan* if recognised, raise :class:`AlgorithmError` if not."""
    if plan not in PLAN_CHOICES:
        raise AlgorithmError(
            f"unknown plan {plan!r}; expected one of {PLAN_CHOICES}"
        )
    return plan


@dataclass(frozen=True)
class PlanCosts:
    """Snapshot statistics the cost model scores orders against.

    One instance summarises a data graph: collected once per prepared
    matcher by :func:`plan_costs` from O(1) accessors and the label
    index (one entry per distinct label, no scan over the vertices).
    """

    num_vertices: int
    num_static_edges: int
    num_temporal_edges: int
    time_span: int
    label_sizes: dict[Hashable, int] = field(default_factory=dict)

    @property
    def avg_out_degree(self) -> float:
        """Mean distinct out-neighbours per vertex."""
        return self.num_static_edges / max(1, self.num_vertices)

    @property
    def avg_run_length(self) -> float:
        """Mean timestamps per connected pair (``|ℰ| / |E|``)."""
        return self.num_temporal_edges / max(1, self.num_static_edges)

    @property
    def pair_density(self) -> float:
        """Probability a uniformly chosen ordered pair is connected."""
        return min(
            1.0, self.num_static_edges / max(1, self.num_vertices) ** 2
        )

    def label_fraction(self, label: Hashable) -> float:
        """Fraction of data vertices carrying *label* (1.0 if unknown)."""
        if not self.label_sizes:
            return 1.0
        size = self.label_sizes.get(label)
        if size is None:
            return _EPS
        return size / max(1, self.num_vertices)

    def gap_fraction(self, gap: int) -> float:
        """Fraction of the time axis a gap-``k`` window keeps."""
        return min(1.0, (gap + 1) / (self.time_span + 1))


def plan_costs(view: GraphView) -> PlanCosts:
    """Collect :class:`PlanCosts` from either graph backend."""
    return PlanCosts(
        num_vertices=view.num_vertices,
        num_static_edges=view.num_static_edges,
        num_temporal_edges=view.num_temporal_edges,
        time_span=view.time_span,
        label_sizes={
            label: len(view.vertices_with_label(label))
            for label in view.distinct_labels()
        },
    )


def _vertex_tightness(
    query: QueryGraph, constraints: TemporalConstraints
) -> list[float]:
    """Per vertex: accumulated ``1 / (1 + gap)`` of incident constraints.

    A vertex touching tight (small-gap) constraints is worth matching
    early — its constraints collapse timestamp windows fastest.
    """
    weight = [0.0] * query.num_vertices
    for c in constraints:
        share = 1.0 / (1.0 + c.gap)
        for edge_index in (c.earlier, c.later):
            u, v = query.edge(edge_index)
            weight[u] += share
            weight[v] += share
    return weight


def _edge_tightness(
    query: QueryGraph, constraints: TemporalConstraints
) -> list[float]:
    """Per edge: accumulated ``1 / (1 + gap)`` of its constraints."""
    weight = [0.0] * query.num_edges
    for c in constraints:
        share = 1.0 / (1.0 + c.gap)
        weight[c.earlier] += share
        weight[c.later] += share
    return weight


def _greedy_vertex_order(
    query: QueryGraph,
    key_of: "list[tuple[float, ...]]",
) -> tuple[int, ...]:
    """Frontier-greedy vertex walk minimising ``key_of`` at each step.

    Connectivity is preserved exactly as in Algorithm 1: while any
    unordered vertex touches the ordered set, only those are eligible.
    """
    n = query.num_vertices
    in_order = [False] * n
    order: list[int] = []
    while len(order) < n:
        remaining = [u for u in range(n) if not in_order[u]]
        frontier = [
            u
            for u in remaining
            if any(in_order[w] for w in query.neighbors(u))
        ]
        pool = frontier if frontier else remaining
        chosen = min(pool, key=lambda u: key_of[u] + (u,))
        order.append(chosen)
        in_order[chosen] = True
    return tuple(order)


def _greedy_edge_order(
    query: QueryGraph,
    key_of: "list[tuple[float, ...]]",
) -> tuple[int, ...]:
    """Frontier-greedy edge walk minimising ``key_of`` at each step."""
    m = query.num_edges
    in_order = [False] * m
    order: list[int] = []
    covered: set[int] = set()
    while len(order) < m:
        remaining = [e for e in range(m) if not in_order[e]]
        frontier = [
            e
            for e in remaining
            if any(w in covered for w in query.edge(e))
        ]
        pool = frontier if frontier else remaining
        chosen = min(pool, key=lambda e: key_of[e] + (e,))
        order.append(chosen)
        in_order[chosen] = True
        covered.update(query.edge(chosen))
    return tuple(order)


def candidate_vertex_orders(
    query: QueryGraph,
    constraints: TemporalConstraints,
    candidate_counts: Sequence[int] | None,
) -> list[tuple[int, ...]]:
    """Deterministic heuristic vertex orders the planner scores.

    Three greedy walks over the query's connectivity structure:
    fewest-initial-candidates first, tightest-constraints first, and
    highest-degree first.
    """
    n = query.num_vertices
    counts = (
        list(candidate_counts) if candidate_counts is not None else [0] * n
    )
    tightness = _vertex_tightness(query, constraints)
    by_candidates: list[tuple[float, ...]] = [
        (float(counts[u]),) for u in range(n)
    ]
    by_tightness: list[tuple[float, ...]] = [
        (-tightness[u], float(counts[u])) for u in range(n)
    ]
    by_degree: list[tuple[float, ...]] = [
        (-float(query.degree(u)), float(counts[u])) for u in range(n)
    ]
    return [
        _greedy_vertex_order(query, by_candidates),
        _greedy_vertex_order(query, by_tightness),
        _greedy_vertex_order(query, by_degree),
    ]


def candidate_edge_orders(
    query: QueryGraph,
    constraints: TemporalConstraints,
    candidate_counts: Sequence[int] | None,
) -> list[tuple[int, ...]]:
    """Deterministic heuristic edge orders the planner scores."""
    m = query.num_edges
    counts = (
        list(candidate_counts) if candidate_counts is not None else [0] * m
    )
    tightness = _edge_tightness(query, constraints)
    by_candidates: list[tuple[float, ...]] = [
        (float(counts[e]),) for e in range(m)
    ]
    by_tightness: list[tuple[float, ...]] = [
        (-tightness[e], float(counts[e])) for e in range(m)
    ]
    return [
        _greedy_edge_order(query, by_candidates),
        _greedy_edge_order(query, by_tightness),
    ]


def score_vertex_order(
    order: Sequence[int],
    query: QueryGraph,
    constraints: TemporalConstraints,
    candidate_counts: Sequence[int] | None,
    costs: PlanCosts,
) -> float:
    """Estimated matching-tree size of a V2V vertex *order*.

    Walks the order tracking which vertices are bound; per layer the
    surviving width is multiplied by the expected branching, the
    structural filters of extra back-edges, and the temporal tightness of
    constraints that become checkable — then added to the running cost.
    """
    position = {u: pos for pos, u in enumerate(order)}
    check_pos = _constraint_vertex_positions(query, constraints, position)
    width = 1.0
    cost = 0.0
    for pos, u in enumerate(order):
        if candidate_counts is not None:
            cand = float(candidate_counts[u])
        else:
            cand = costs.label_fraction(query.label(u)) * max(
                1, costs.num_vertices
            )
        back = [w for w in query.neighbors(u) if position[w] < pos]
        if back:
            branching = min(
                cand, costs.avg_out_degree * cand / max(1, costs.num_vertices)
            )
            branching *= costs.pair_density ** (len(back) - 1)
        else:
            branching = cand
        survival = 1.0
        for c in check_pos.get(pos, ()):
            survival *= min(
                1.0,
                _EPS
                + costs.avg_run_length
                * costs.avg_run_length
                * costs.gap_fraction(c.gap),
            )
        width = max(_EPS, width * branching * survival)
        cost += width
    return cost


def _constraint_vertex_positions(
    query: QueryGraph,
    constraints: TemporalConstraints,
    position: dict[int, int],
) -> "dict[int, list[Constraint]]":
    """Constraints grouped by the vertex layer where they become checkable."""
    grouped: dict[int, list[Constraint]] = {}
    for c in constraints:
        endpoints: set[int] = set()
        for edge_index in (c.earlier, c.later):
            u, v = query.edge(edge_index)
            endpoints.add(u)
            endpoints.add(v)
        last = max(position[u] for u in endpoints)
        grouped.setdefault(last, []).append(c)
    return grouped


def score_edge_order(
    order: Sequence[int],
    query: QueryGraph,
    constraints: TemporalConstraints,
    candidate_counts: Sequence[int] | None,
    costs: PlanCosts,
) -> float:
    """Estimated matching-tree size of an E2E/EVE edge *order*.

    Same layer-width model as :func:`score_vertex_order`, with the edge
    flavours of branching: a layer binds a temporal edge, so its width
    scales with the pair's expected run length — cut down by the window
    fraction of every constraint checkable at that layer, which is
    precisely what the window kernel skips reading.
    """
    position = {e: pos for pos, e in enumerate(order)}
    check_pos: dict[int, list[Constraint]] = {}
    for c in constraints:
        last = max(position[c.earlier], position[c.later])
        check_pos.setdefault(last, []).append(c)
    covered: set[int] = set()
    width = 1.0
    cost = 0.0
    for pos, e in enumerate(order):
        u, v = query.edge(e)
        bound = (u in covered) + (v in covered)
        expected_times = costs.avg_run_length
        for c in check_pos.get(pos, ()):
            expected_times *= costs.gap_fraction(c.gap)
        expected_times = max(_EPS, expected_times)
        if bound == 2:
            branching = costs.pair_density * expected_times
        elif bound == 1:
            other = v if u in covered else u
            branching = (
                costs.avg_out_degree
                * costs.label_fraction(query.label(other))
                * expected_times
            )
        else:
            if candidate_counts is not None:
                pairs = float(candidate_counts[e])
            else:
                pairs = float(max(1, costs.num_static_edges))
            branching = pairs * expected_times
        width = max(_EPS, width * branching)
        cost += width
        covered.update((u, v))
    return cost


def _unique_orders(
    orders: Sequence[tuple[int, ...]],
) -> list[tuple[int, ...]]:
    seen: set[tuple[int, ...]] = set()
    unique: list[tuple[int, ...]] = []
    for order in orders:
        if order not in seen:
            seen.add(order)
            unique.append(order)
    return unique


def choose_vertex_order(
    query: QueryGraph,
    constraints: TemporalConstraints,
    candidate_counts: Sequence[int] | None,
    costs: PlanCosts,
    extra_orders: Sequence[tuple[int, ...]] = (),
) -> tuple[int, ...]:
    """The cheapest vertex order among heuristics and *extra_orders*.

    *extra_orders* are scored first and win all ties — callers pass the
    paper order there, so the planner only deviates when the cost model
    sees a strict improvement.
    """
    candidates = _unique_orders(
        [*extra_orders]
        + candidate_vertex_orders(query, constraints, candidate_counts)
    )
    return min(
        candidates,
        key=lambda order: score_vertex_order(
            order, query, constraints, candidate_counts, costs
        ),
    )


def choose_edge_order(
    query: QueryGraph,
    constraints: TemporalConstraints,
    candidate_counts: Sequence[int] | None,
    costs: PlanCosts,
    extra_orders: Sequence[tuple[int, ...]] = (),
) -> tuple[int, ...]:
    """The cheapest edge order among heuristics and *extra_orders*."""
    candidates = _unique_orders(
        [*extra_orders]
        + candidate_edge_orders(query, constraints, candidate_counts)
    )
    return min(
        candidates,
        key=lambda order: score_edge_order(
            order, query, constraints, candidate_counts, costs
        ),
    )
