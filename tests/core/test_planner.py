"""Cost-based planner tests (repro.core.planner).

The planner's hard guarantee is *conservatism*: ``plan="cost"`` may pick
a different matching order but never a different match multiset, and the
paper order — listed first among the scored candidates — wins every cost
tie, so ``plan="paper"`` stays bit-for-bit reproduction.  These tests
pin the knob validation, the statistics collection, determinism of the
candidate generators, the order→tables reconstruction against the
paper's own walks, and end-to-end result equality across plans.
"""

from collections import Counter

import pytest

from repro.core import (
    PLAN_CHOICES,
    MatchOptions,
    build_tcq,
    build_tcq_plus,
    candidate_edge_orders,
    candidate_vertex_orders,
    choose_edge_order,
    choose_vertex_order,
    find_matches,
    plan_costs,
    score_edge_order,
    score_vertex_order,
    tcq_from_order,
    tcq_plus_from_order,
    validate_plan,
)
from repro.core.planner import PlanCosts
from repro.datasets import random_instance, toy_instance
from repro.errors import AlgorithmError, QueryError
from repro.graphs import SegmentedGraph, ensure_snapshot

ALGORITHMS = ("tcsm-v2v", "tcsm-e2e", "tcsm-eve")

#: Stand-in statistics for tests that only exercise order machinery.
NULL_COSTS = PlanCosts(0, 0, 0, 0)


class TestPlanKnob:
    def test_choices(self):
        assert PLAN_CHOICES == ("paper", "cost")
        for plan in PLAN_CHOICES:
            assert validate_plan(plan) == plan

    def test_unknown_plan_rejected(self):
        with pytest.raises(AlgorithmError, match="unknown plan"):
            validate_plan("greedy")

    def test_match_options_validate_plan(self):
        assert MatchOptions(plan="cost").plan == "cost"
        with pytest.raises(AlgorithmError, match="unknown plan"):
            MatchOptions(plan="bogus")

    def test_canonical_hash_discriminates_plan(self):
        paper = MatchOptions()
        cost = MatchOptions(plan="cost")
        assert paper.canonical_hash() != cost.canonical_hash()
        assert cost.canonical_hash() == MatchOptions(plan="cost").canonical_hash()

    def test_matchers_reject_unknown_plan(self):
        query, tc, graph = random_instance(seed=0)
        with pytest.raises(AlgorithmError, match="unknown plan"):
            find_matches(query, tc, graph, algorithm="tcsm-eve", plan="bogus")


class TestPlanCosts:
    def test_collected_from_snapshot(self):
        query, tc, graph, _, _ = toy_instance()
        view = ensure_snapshot(graph)
        costs = plan_costs(view)
        assert costs.num_vertices == view.num_vertices
        assert costs.num_static_edges == view.num_static_edges
        assert costs.num_temporal_edges == view.num_temporal_edges
        assert costs.time_span == view.time_span
        assert sum(costs.label_sizes.values()) == view.num_vertices

    def test_backends_collect_identical_costs(self):
        _, _, graph, _, _ = toy_instance()
        assert plan_costs(graph) == plan_costs(ensure_snapshot(graph))

    def test_label_sizes_equal_a_full_label_count(self):
        # plan_costs reads label_sizes off the label index; the result
        # must equal a count over every vertex label, on every backend.
        _, _, graph = random_instance(
            seed=3, data_vertices=60, data_edges=400, num_labels=5
        )
        segmented = SegmentedGraph(graph.labels, merge_threshold=50)
        for edge in graph.edges_by_time():
            segmented.append(edge.u, edge.v, edge.t)
        expected = dict(Counter(graph.labels))
        for view in (graph, ensure_snapshot(graph), segmented):
            assert plan_costs(view).label_sizes == expected

    def test_derived_fractions(self):
        costs = PlanCosts(
            num_vertices=10,
            num_static_edges=20,
            num_temporal_edges=60,
            time_span=9,
            label_sizes={"A": 4, "B": 6},
        )
        assert costs.avg_out_degree == 2.0
        assert costs.avg_run_length == 3.0
        assert costs.pair_density == 0.2
        assert costs.label_fraction("A") == 0.4
        assert costs.label_fraction("Z") == pytest.approx(1e-6)
        assert costs.gap_fraction(4) == 0.5
        assert costs.gap_fraction(1000) == 1.0

    def test_no_label_histogram_means_no_selectivity(self):
        assert NULL_COSTS.label_fraction("anything") == 1.0


class TestCandidateOrders:
    @pytest.mark.parametrize("seed", range(5))
    def test_vertex_orders_are_permutations(self, seed):
        query, tc, _ = random_instance(seed=seed)
        for order in candidate_vertex_orders(query, tc, None):
            assert sorted(order) == list(range(query.num_vertices))

    @pytest.mark.parametrize("seed", range(5))
    def test_edge_orders_are_permutations(self, seed):
        query, tc, _ = random_instance(seed=seed)
        for order in candidate_edge_orders(query, tc, None):
            assert sorted(order) == list(range(query.num_edges))

    def test_generation_is_deterministic(self):
        query, tc, _ = random_instance(seed=3)
        first = candidate_vertex_orders(query, tc, None)
        assert first == candidate_vertex_orders(query, tc, None)
        assert candidate_edge_orders(query, tc, None) == candidate_edge_orders(
            query, tc, None
        )

    def test_scores_are_positive_and_deterministic(self):
        query, tc, graph = random_instance(seed=4)
        costs = plan_costs(ensure_snapshot(graph))
        for order in candidate_vertex_orders(query, tc, None):
            score = score_vertex_order(order, query, tc, None, costs)
            assert score > 0
            assert score == score_vertex_order(order, query, tc, None, costs)
        for order in candidate_edge_orders(query, tc, None):
            score = score_edge_order(order, query, tc, None, costs)
            assert score > 0
            assert score == score_edge_order(order, query, tc, None, costs)

    def test_extra_order_wins_ties(self):
        # With degenerate costs every order scores the same; the extra
        # (paper) order is listed first and min() is stable.
        query, tc, _ = random_instance(seed=5)
        paper_v = build_tcq(query, tc).order
        assert (
            choose_vertex_order(query, tc, None, NULL_COSTS, (paper_v,))
            == paper_v
        )
        paper_e = build_tcq_plus(query, tc).order
        assert (
            choose_edge_order(query, tc, None, NULL_COSTS, (paper_e,))
            == paper_e
        )


class TestOrderReconstruction:
    @pytest.mark.parametrize("seed", range(10))
    def test_tcq_from_paper_order_reproduces_tables(self, seed):
        query, tc, _ = random_instance(seed=seed)
        paper = build_tcq(query, tc)
        rebuilt = tcq_from_order(query, tc, paper.order)
        assert rebuilt == paper

    @pytest.mark.parametrize("seed", range(10))
    def test_tcq_plus_from_paper_order_reproduces_tables(self, seed):
        query, tc, _ = random_instance(seed=seed)
        paper = build_tcq_plus(query, tc)
        rebuilt = tcq_plus_from_order(query, tc, paper.order)
        assert rebuilt.order == paper.order
        assert rebuilt.position == paper.position
        assert rebuilt.prec == paper.prec
        assert rebuilt.forward == paper.forward
        assert rebuilt.check_at == paper.check_at
        assert rebuilt.new_vertices == paper.new_vertices
        assert rebuilt.tsup == paper.tsup

    def test_non_permutation_rejected(self):
        query, tc, _ = random_instance(seed=0)
        with pytest.raises(QueryError):
            tcq_from_order(query, tc, (0,) * query.num_vertices)
        with pytest.raises(QueryError):
            tcq_plus_from_order(query, tc, (0,) * query.num_edges)

    @pytest.mark.parametrize("seed", range(5))
    def test_cost_plan_builds_consistent_tables(self, seed):
        query, tc, graph = random_instance(seed=seed)
        costs = plan_costs(ensure_snapshot(graph))
        tcq = build_tcq(query, tc, plan="cost", costs=costs)
        assert sorted(tcq.order) == list(range(query.num_vertices))
        assert tcq == tcq_from_order(query, tc, tcq.order)
        tcq_plus = build_tcq_plus(query, tc, plan="cost", costs=costs)
        assert sorted(tcq_plus.order) == list(range(query.num_edges))
        # Every checkable constraint must be attributed exactly once.
        checked = [c for per_pos in tcq_plus.check_at for c in per_pos]
        assert sorted(checked) == sorted(tc)


class TestPlanEquivalence:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cost_plan_preserves_match_multiset(self, algorithm, seed):
        query, tc, graph = random_instance(seed=seed)
        paper = find_matches(query, tc, graph, algorithm=algorithm)
        cost = find_matches(
            query, tc, graph, algorithm=algorithm,
            options=MatchOptions(plan="cost"),
        )
        assert sorted(paper.matches) == sorted(cost.matches)
        assert paper.stats.matches == cost.stats.matches

    def test_plan_knob_reaches_matcher_via_options(self):
        query, tc, graph = random_instance(
            seed=7, query_vertices=3, query_edges=4, num_constraints=2
        )
        direct = find_matches(
            query, tc, graph, algorithm="tcsm-e2e", plan="cost"
        )
        via_options = find_matches(
            query, tc, graph, algorithm="tcsm-e2e",
            options=MatchOptions(plan="cost"),
        )
        assert direct.matches == via_options.matches
        assert direct.stats == via_options.stats
