"""Tests for the edge-label generalisation (Section II of the paper).

The paper notes: "we only consider graphs with labeled vertices.
However, if edges are also labeled, the algorithm can be easily
generalized."  This suite verifies the generalisation across every
matcher: a labeled query edge matches only data edges carrying the same
label; unlabeled query edges remain wildcards.
"""

import pytest

from repro.baselines import BASELINE_NAMES
from repro.core import brute_force_matches, find_matches, is_valid_match
from repro.datasets import random_instance
from repro.errors import GraphError, QueryError
from repro.graphs import (
    QueryBuilder,
    QueryGraph,
    TemporalGraph,
    TemporalGraphBuilder,
)

ALL_ALGORITHMS = (
    "tcsm-v2v", "tcsm-e2e", "tcsm-eve", "tcsm-stream"
) + BASELINE_NAMES


@pytest.fixture
def labeled_instance():
    """Transfer/payment example: same structure, different edge labels."""
    qb = QueryBuilder()
    qb.vertex("a", "acct").vertex("b", "acct").vertex("c", "acct")
    qb.edge("a", "b", label="wire")
    qb.edge("b", "c", label="cash")
    query, _ = qb.build()

    gb = TemporalGraphBuilder()
    for name in ("x", "y", "z"):
        gb.vertex(name, "acct")
    gb.edge("x", "y", 1, label="wire")
    gb.edge("y", "z", 2, label="cash")   # the only valid continuation
    gb.edge("y", "z", 3, label="wire")   # right pair, wrong edge label
    gb.edge("y", "x", 4, label="cash")   # wrong direction target
    graph, names = gb.build()
    from repro.graphs import TemporalConstraints

    constraints = TemporalConstraints([(0, 1, 10)], num_edges=2)
    return query, constraints, graph, names


class TestStorage:
    def test_edge_label_roundtrip(self):
        g = TemporalGraph(["A", "B"])
        g.add_edge(0, 1, 5, label="wire")
        g.add_edge(0, 1, 6)
        assert g.edge_label(0, 1, 5) == "wire"
        assert g.edge_label(0, 1, 6) is None
        assert g.has_edge_labels

    def test_unlabeled_graph_flag(self):
        g = TemporalGraph(["A", "B"], [(0, 1, 5)])
        assert not g.has_edge_labels

    def test_conflicting_relabel_rejected(self):
        g = TemporalGraph(["A", "B"])
        g.add_edge(0, 1, 5, label="wire")
        with pytest.raises(GraphError, match="already present"):
            g.add_edge(0, 1, 5, label="cash")

    def test_duplicate_with_same_label_is_noop(self):
        g = TemporalGraph(["A", "B"])
        g.add_edge(0, 1, 5, label="wire")
        assert g.add_edge(0, 1, 5, label="wire") is False
        assert g.num_temporal_edges == 1

    def test_timestamps_with_label(self):
        g = TemporalGraph(["A", "B"])
        g.add_edge(0, 1, 5, label="wire")
        g.add_edge(0, 1, 6, label="cash")
        g.add_edge(0, 1, 7, label="wire")
        assert g.timestamps_with_label(0, 1, "wire") == [5, 7]
        assert g.timestamps_with_label(0, 1, "cash") == [6]
        assert g.timestamps_with_label(0, 1, "nope") == []

    def test_time_prefix_preserves_edge_labels(self):
        g = TemporalGraph(["A", "B"])
        g.add_edge(0, 1, 1, label="wire")
        g.add_edge(0, 1, 9, label="cash")
        half = g.time_prefix(0.5)
        assert half.edge_label(0, 1, 1) == "wire"

    def test_query_edge_labels(self):
        q = QueryGraph(["A", "B"], [(0, 1)], edge_labels=["wire"])
        assert q.edge_label(0) == "wire"
        assert q.has_edge_labels
        assert not QueryGraph(["A", "B"], [(0, 1)]).has_edge_labels

    def test_query_edge_label_arity(self):
        with pytest.raises(QueryError, match="edge labels"):
            QueryGraph(["A", "B"], [(0, 1)], edge_labels=["a", "b"])


class TestMatchingSemantics:
    @pytest.mark.parametrize(
        "algo", ("brute-force",) + ALL_ALGORITHMS
    )
    def test_labeled_query_filters_edges(self, labeled_instance, algo):
        query, tc, graph, names = labeled_instance
        result = find_matches(query, tc, graph, algorithm=algo)
        assert result.num_matches == 1
        match = result.matches[0]
        assert match.edge_map[0].t == 1
        assert match.edge_map[1].t == 2
        assert is_valid_match(query, tc, graph, match)

    def test_unlabeled_query_matches_everything(self, labeled_instance):
        _, tc, graph, _ = labeled_instance
        wildcard = QueryGraph(["acct"] * 3, [(0, 1), (1, 2)])
        result = find_matches(wildcard, tc, graph, algorithm="tcsm-eve")
        # (x->y@1, y->z@2), (x->y@1, y->z@3), and (z<-y ... ) chains:
        # wildcard matching sees all structurally valid combinations.
        assert result.num_matches >= 2
        oracle = brute_force_matches(wildcard, tc, graph)
        assert set(result.matches) == set(oracle)

    def test_query_label_absent_from_data(self, labeled_instance):
        _, tc, graph, _ = labeled_instance
        query = QueryGraph(
            ["acct"] * 3, [(0, 1), (1, 2)], edge_labels=["sepa", None]
        )
        for algo in ("tcsm-v2v", "tcsm-e2e", "tcsm-eve", "ri-ds"):
            assert find_matches(query, tc, graph, algorithm=algo).num_matches == 0

    def test_is_valid_match_rejects_wrong_edge_label(self, labeled_instance):
        query, tc, graph, _ = labeled_instance
        match = find_matches(query, tc, graph, algorithm="tcsm-eve").matches[0]
        from repro.core import Match
        from repro.graphs import TemporalEdge

        em = list(match.edge_map)
        em[1] = TemporalEdge(em[1].u, em[1].v, 3)  # the 'wire' edge
        assert not is_valid_match(query, tc, graph, Match(tuple(em), match.vertex_map))


class TestDifferentialWithEdgeLabels:
    @pytest.mark.parametrize("seed", range(6))
    def test_all_matchers_agree(self, seed):
        import random

        rng = random.Random(seed)
        query, tc, graph = random_instance(seed=seed)
        # Randomly tag data edges and require labels on some query edges.
        relabeled = TemporalGraph(graph.labels)
        for edge in graph.edges():
            relabeled.add_edge(
                edge.u, edge.v, edge.t,
                label=rng.choice(["wire", "cash", None]),
            )
        edge_labels = [
            rng.choice(["wire", "cash", None, None])
            for _ in range(query.num_edges)
        ]
        labeled_query = QueryGraph(query.labels, query.edges, edge_labels)
        oracle = set(brute_force_matches(labeled_query, tc, relabeled))
        for algo in ("tcsm-v2v", "tcsm-e2e", "tcsm-eve", "tcsm-stream",
                     "ri-ds", "graphflow", "sj-tree", "symbi"):
            got = set(
                find_matches(
                    labeled_query, tc, relabeled, algorithm=algo
                ).matches
            )
            assert got == oracle, f"{algo} disagrees on edge labels"
