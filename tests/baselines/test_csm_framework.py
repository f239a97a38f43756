"""Tests for the shared CSM substrate (stream, pin orders, delta search)."""

import pytest

from repro.baselines.csm import CSMMatcherBase
from repro.core.windows import connected_edge_order
from repro.core import MatchOptions, find_matches
from repro.datasets import TOY_EXPECTED_MATCH_COUNT, toy_instance, toy_query
from repro.errors import AlgorithmError
from repro.graphs import QueryGraph, TemporalConstraints, TemporalGraph


class TestConnectedEdgeOrder:
    def test_starts_at_pin(self):
        query, _ = toy_query()
        for e in range(query.num_edges):
            assert connected_edge_order(query, e)[0] == e

    def test_is_permutation(self):
        query, _ = toy_query()
        for e in range(query.num_edges):
            order = connected_edge_order(query, e)
            assert sorted(order) == list(range(query.num_edges))

    def test_prefix_connectivity(self):
        query, _ = toy_query()
        order = connected_edge_order(query, 0)
        for pos in range(1, len(order)):
            e = order[pos]
            assert any(
                query.edges_share_vertex(e, order[p]) for p in range(pos)
            )

    def test_disconnected_components_appended(self):
        query = QueryGraph(["A", "B", "C", "D"], [(0, 1), (2, 3)])
        order = connected_edge_order(query, 0)
        assert order == [0, 1]
        order = connected_edge_order(query, 1)
        assert order == [1, 0]


class TestDeltaSemantics:
    def test_each_match_reported_once(self):
        # Duplicate-free reporting is the heart of the pinned delta search;
        # a graph with many timestamps per pair stresses it.
        query = QueryGraph(["A", "B", "C"], [(0, 1), (1, 2)])
        tc = TemporalConstraints([], num_edges=2)
        graph = TemporalGraph(
            ["A", "B", "C"],
            [(0, 1, t) for t in range(4)] + [(1, 2, t) for t in range(4)],
        )
        result = find_matches(query, tc, graph, algorithm="graphflow")
        assert result.num_matches == 16
        assert len(set(result.matches)) == 16

    def test_empty_data_graph(self):
        query = QueryGraph(["A", "B"], [(0, 1)])
        tc = TemporalConstraints([], num_edges=1)
        graph = TemporalGraph(["A", "B"])
        result = find_matches(query, tc, graph, algorithm="graphflow")
        assert result.num_matches == 0

    def test_constraints_post_filtered(self):
        query = QueryGraph(["A", "B", "C"], [(0, 1), (1, 2)])
        tc = TemporalConstraints([(0, 1, 1)], num_edges=2)
        graph = TemporalGraph(
            ["A", "B", "C"], [(0, 1, 0), (1, 2, 1), (1, 2, 50)]
        )
        result = find_matches(query, tc, graph, algorithm="graphflow")
        assert result.num_matches == 1
        assert result.matches[0].timestamp_vector() == (0, 1)

    def test_no_query_edges_rejected(self):
        query = QueryGraph(["A"], [])
        tc = TemporalConstraints([], num_edges=0)
        graph = TemporalGraph(["A"])
        with pytest.raises(AlgorithmError, match="at least one query edge"):
            find_matches(query, tc, graph, algorithm="graphflow")

    def test_limit_stops_stream(self):
        query, tc, graph, _, _ = toy_instance()
        result = find_matches(
            query, tc, graph, algorithm="graphflow",
            options=MatchOptions(limit=1),
        )
        assert result.num_matches == 1
        assert result.stats.budget_exhausted

    def test_base_class_name(self):
        assert CSMMatcherBase.name == "csm-base"
