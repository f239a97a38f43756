"""Tests for the NLF and LDF candidate filters."""

import pytest

from repro.core import (
    initial_edge_candidate_pairs,
    initial_vertex_candidates,
    ldf,
    nlf,
)
from repro.core.bruteforce import brute_force_matches
from repro.datasets import toy_instance
from repro.graphs import QueryGraph, TemporalGraph


@pytest.fixture(scope="module")
def toy():
    return toy_instance()


class TestNLF:
    @pytest.fixture
    def setup(self):
        # Query: A -> B with B having an A-neighbour requirement.
        query = QueryGraph(["A", "B"], [(0, 1)])
        graph = TemporalGraph(
            ["A", "B", "B", "A"],
            [(0, 1, 1), (3, 2, 1), (0, 2, 2)],
        )
        return query, graph, graph.freeze()

    def test_label_mismatch(self, setup):
        query, _, data = setup
        assert not nlf(query, data, 0, 1)  # query A vs data B

    def test_degree_dominance(self, setup):
        query, _, data = setup
        # Query vertex 0 has out-degree 1; data vertex 3 has out-degree 1.
        assert nlf(query, data, 0, 3)

    def test_out_degree_too_small(self):
        query = QueryGraph(["A", "B", "B"], [(0, 1), (0, 2)])
        graph = TemporalGraph(["A", "B", "B"], [(0, 1, 1)])
        data = graph.freeze()
        # Data vertex 0 has out-degree 1 < query out-degree 2.
        assert not nlf(query, data, 0, 0)

    def test_in_degree_too_small(self):
        query = QueryGraph(["A", "B"], [(1, 0)])
        graph = TemporalGraph(["A", "B"], [(0, 1, 1)])
        data = graph.freeze()
        assert not nlf(query, data, 0, 0)  # needs in-degree >= 1

    def test_neighbor_label_containment(self):
        query = QueryGraph(["A", "B", "C"], [(0, 1), (0, 2)])
        # Data vertex 0: neighbours labeled B only -> C requirement fails.
        graph = TemporalGraph(["A", "B", "B"], [(0, 1, 1), (0, 2, 1)])
        assert not nlf(query, graph.freeze(), 0, 0)

    def test_count_based_passes_when_counts_suffice(self):
        # Query vertex 0 needs two distinct B-neighbours.
        query = QueryGraph(["A", "B", "B"], [(0, 1), (0, 2)])
        graph = TemporalGraph(
            ["A", "B", "B"], [(0, 1, 1), (1, 0, 2), (0, 2, 3)]
        )
        data = graph.freeze()
        assert nlf(query, data, 0, 0, count_based=True)

    def test_set_vs_count_divergence_explicit(self):
        query = QueryGraph(["A", "B", "B"], [(0, 1), (0, 2)])
        # Data vertex 0 with out-neighbours: one B, one C (degree ok).
        graph = TemporalGraph(["A", "B", "C"], [(0, 1, 1), (0, 2, 2)])
        data = graph.freeze()
        assert nlf(query, data, 0, 0, count_based=False)
        assert not nlf(query, data, 0, 0, count_based=True)


class TestInitialVertexCandidates:
    def test_toy_candidates_cover_red_match(self, toy):
        query, tc, graph, qn, vn = toy
        candidates = initial_vertex_candidates(query, graph.freeze())
        red = {
            "u1": "v1", "u2": "v2", "u3": "v3", "u4": "v7", "u5": "v11",
        }
        for qname, vname in red.items():
            assert vn[vname] in candidates[qn[qname]]

    def test_candidates_never_prune_oracle_matches(self):
        from repro.datasets import random_instance

        for seed in range(8):
            query, tc, graph = random_instance(seed=seed)
            candidates = initial_vertex_candidates(query, graph.freeze())
            for match in brute_force_matches(query, tc, graph, limit=50):
                for u in query.vertices():
                    assert match.vertex_map[u] in candidates[u]

    def test_label_restriction(self, toy):
        query, tc, graph, qn, vn = toy
        candidates = initial_vertex_candidates(query, graph.freeze())
        for u in query.vertices():
            for v in candidates[u]:
                assert graph.label(v) == query.label(u)


class TestLDF:
    def test_label_checks(self, toy):
        query, tc, graph, qn, vn = toy
        data = graph.freeze()
        # Query edge 0 is u1(A) -> u2(B); pair (v1, v2) is (A, B).
        assert ldf(query, data, 0, vn["v1"], vn["v2"])
        # Pair with wrong source label.
        assert not ldf(query, data, 0, vn["v2"], vn["v1"])

    def test_degree_conditions(self):
        query = QueryGraph(["A", "B"], [(0, 1)])
        # Query: source needs out>=1; target needs in>=1.
        graph = TemporalGraph(["A", "B", "A"], [(0, 1, 1), (2, 1, 2)])
        data = graph.freeze()
        assert ldf(query, data, 0, 0, 1)
        assert ldf(query, data, 0, 2, 1)

    def test_pairs_never_prune_oracle_matches(self):
        from repro.datasets import random_instance

        for seed in range(8):
            query, tc, graph = random_instance(seed=seed)
            pair_sets = initial_edge_candidate_pairs(query, graph.freeze())
            for match in brute_force_matches(query, tc, graph, limit=50):
                for i, edge in enumerate(match.edge_map):
                    assert (edge.u, edge.v) in pair_sets[i]

    def test_toy_pairs_cover_red_match(self, toy):
        query, tc, graph, qn, vn = toy
        pair_sets = initial_edge_candidate_pairs(query, graph.freeze())
        red_edges = {
            0: ("v1", "v2"), 1: ("v2", "v1"), 2: ("v2", "v3"),
            3: ("v2", "v7"), 4: ("v7", "v3"), 5: ("v3", "v11"),
            6: ("v11", "v7"),
        }
        for index, (a, b) in red_edges.items():
            assert (vn[a], vn[b]) in pair_sets[index]
