"""Tests for the RI / RI-DS baseline."""

import pytest

from repro.baselines import greatest_constraint_first_order
from repro.baselines.ri import RIMatcher
from repro.core import MatchOptions, brute_force_matches, find_matches
from repro.datasets import TOY_EXPECTED_MATCH_COUNT, random_instance, toy_instance
from repro.errors import AlgorithmError
from repro.graphs import QueryGraph, TemporalConstraints


class TestGCFOrder:
    def test_is_permutation(self):
        query = QueryGraph(
            ["A", "B", "C", "D"], [(0, 1), (1, 2), (2, 3), (3, 0)]
        )
        order = greatest_constraint_first_order(query)
        assert sorted(order) == list(range(4))

    def test_seed_is_max_degree(self):
        # Star: hub 0 has degree 3.
        query = QueryGraph(["H", "S", "S", "S"], [(0, 1), (0, 2), (0, 3)])
        order = greatest_constraint_first_order(query)
        assert order[0] == 0

    def test_prefers_visited_connections(self):
        # Path 0-1-2 plus pendant 3 on 0: after [1], vertex 0 and 2 tie on
        # degree but both connect to 1; then the vertex with more visited
        # links leads.
        query = QueryGraph(
            ["A", "B", "C", "D"], [(0, 1), (1, 2), (0, 3)]
        )
        order = greatest_constraint_first_order(query)
        # Every non-seed vertex (in a connected query) should touch the
        # prefix when chosen.
        placed = {order[0]}
        for u in order[1:]:
            assert query.neighbors(u) & placed
            placed.add(u)

    def test_single_vertex(self):
        query = QueryGraph(["A"], [])
        assert greatest_constraint_first_order(query) == [0]


class TestRIDS:
    def test_toy_counts(self):
        query, tc, graph, _, _ = toy_instance()
        for algo in ("ri", "ri-ds"):
            result = find_matches(query, tc, graph, algorithm=algo)
            assert result.num_matches == TOY_EXPECTED_MATCH_COUNT

    def test_name_reflects_variant(self):
        query, tc, graph, _, _ = toy_instance()
        assert RIMatcher(query, tc, graph).name == "ri-ds"
        assert RIMatcher(query, tc, graph, use_domains=False).name == "ri"

    def test_mismatched_constraints_rejected(self):
        query = QueryGraph(["A", "B"], [(0, 1)])
        tc = TemporalConstraints([], num_edges=5)
        graph, _, _ = None, None, None
        from repro.datasets import random_temporal_graph

        data = random_temporal_graph(4, 6, ("A", "B"), seed=0)
        with pytest.raises(AlgorithmError):
            RIMatcher(query, tc, data)

    @pytest.mark.parametrize("seed", range(10))
    def test_differential_vs_oracle(self, seed):
        query, tc, graph = random_instance(seed=seed)
        oracle = set(brute_force_matches(query, tc, graph))
        for algo in ("ri", "ri-ds"):
            got = set(find_matches(query, tc, graph, algorithm=algo).matches)
            assert got == oracle

    def test_limit_respected(self):
        query, tc, graph, _, _ = toy_instance()
        result = find_matches(query, tc, graph, algorithm="ri-ds",
                              options=MatchOptions(limit=1))
        assert result.num_matches == 1
        assert result.stats.budget_exhausted

    @pytest.mark.parametrize("seed", range(6))
    def test_domains_equal_label_and_degree_reference(self, seed):
        # -DS domains: label-pool vertices whose checked degrees dominate
        # the query vertex's; plain RI keeps the whole label pool.
        query, tc, graph = random_instance(
            seed=seed, data_vertices=40, data_edges=160, num_labels=3
        )
        data = graph.freeze()
        for use_domains in (True, False):
            matcher = RIMatcher(query, tc, data, use_domains=use_domains)
            matcher.prepare()
            scanned = pruned = 0
            for u in query.vertices():
                pool = data.vertices_with_label(query.label(u))
                expected = {
                    v
                    for v in pool
                    if not use_domains
                    or (
                        data.in_degree(v) >= query.in_degree(u)
                        and data.out_degree(v) >= query.out_degree(u)
                    )
                }
                assert matcher._domains[u] == expected
                scanned += len(pool)
                pruned += len(pool) - len(expected)
            counters = matcher.prepare_stats.filter("domains")
            assert (counters.considered, counters.pruned) == (scanned, pruned)
            if not use_domains:
                assert pruned == 0

    def test_domains_prune_but_preserve(self):
        # RI-DS and RI agree; RI-DS should consider no more candidates.
        query, tc, graph = random_instance(seed=77)
        plain = find_matches(query, tc, graph, algorithm="ri")
        domains = find_matches(query, tc, graph, algorithm="ri-ds")
        assert set(plain.matches) == set(domains.matches)
        assert (
            domains.stats.candidates_generated
            <= plain.stats.candidates_generated
        )
