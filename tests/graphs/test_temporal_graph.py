"""Tests for the temporal graph substrate."""

import math

import pytest

from repro.errors import GraphError
from repro.graphs import TemporalEdge, TemporalGraph


@pytest.fixture
def small():
    """Two vertex pairs, one with multiple timestamps."""
    return TemporalGraph(
        ["A", "B", "C"],
        [(0, 1, 5), (0, 1, 2), (0, 1, 9), (1, 2, 4)],
    )


class TestConstruction:
    def test_counts(self, small):
        assert small.num_vertices == 3
        assert small.num_temporal_edges == 4
        assert small.num_static_edges == 2

    def test_duplicate_temporal_edge_collapses(self):
        g = TemporalGraph(["A", "B"], [(0, 1, 3), (0, 1, 3)])
        assert g.num_temporal_edges == 1
        assert g.add_edge(0, 1, 3) is False
        assert g.add_edge(0, 1, 4) is True

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self loop"):
            TemporalGraph(["A"], [(0, 0, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError, match="out of range"):
            TemporalGraph(["A"], [(0, 1, 1)])

    def test_time_extent(self, small):
        assert small.min_time == 2
        assert small.max_time == 9
        assert small.time_span == 7

    def test_empty_graph_time_extent(self):
        g = TemporalGraph(["A"])
        assert g.min_time is None
        assert g.max_time is None
        assert g.time_span == 0


class TestTimestamps:
    def test_timestamps_sorted(self, small):
        assert small.timestamps(0, 1) == (2, 5, 9)

    def test_timestamps_missing_pair(self, small):
        assert small.timestamps(2, 0) == ()

    def test_has_pair(self, small):
        assert small.has_pair(0, 1)
        assert not small.has_pair(1, 0)

    # Window reads are served by the compiled snapshot of the builder.
    def test_window_query(self, small):
        snap = small.freeze()
        assert snap.timestamps_in_window(0, 1, 2, 5) == (2, 5)
        assert snap.timestamps_in_window(0, 1, 3, 4) == ()
        assert snap.timestamps_in_window(0, 1, 0, 100) == (2, 5, 9)

    def test_window_query_missing_pair(self, small):
        assert small.freeze().timestamps_in_window(2, 0, 0, 10) == ()


class TestIteration:
    def test_out_edges_expand_timestamps(self, small):
        edges = set(small.out_edges(0))
        assert edges == {
            TemporalEdge(0, 1, 2),
            TemporalEdge(0, 1, 5),
            TemporalEdge(0, 1, 9),
        }

    def test_in_edges(self, small):
        assert set(small.in_edges(2)) == {TemporalEdge(1, 2, 4)}

    def test_out_in_pairs(self, small):
        assert dict(small.out_pairs(0)) == {1: (2, 5, 9)}
        assert dict(small.in_pairs(1)) == {0: (2, 5, 9)}

    def test_edges_by_time_sorted(self, small):
        stream = small.edges_by_time()
        assert [e.t for e in stream] == [2, 4, 5, 9]

    def test_all_edges_count(self, small):
        assert len(list(small.edges())) == small.num_temporal_edges


class TestDerivedViews:
    def test_de_temporal_collapses_multiplicity(self, small):
        static = small.de_temporal()
        assert static.num_edges == 2
        assert static.has_edge(0, 1)
        assert static.labels == small.labels

    def test_de_temporal_cache_invalidated_on_add(self, small):
        assert small.de_temporal().num_edges == 2
        small.add_edge(2, 0, 1)
        assert small.de_temporal().num_edges == 3

    def test_time_prefix_keeps_earliest(self, small):
        half = small.time_prefix(0.5)
        assert half.num_temporal_edges == 2
        assert half.max_time == 4
        assert half.num_vertices == small.num_vertices

    def test_time_prefix_full_and_empty(self, small):
        assert small.time_prefix(1.0).num_temporal_edges == 4
        assert small.time_prefix(0.0).num_temporal_edges == 0

    def test_time_prefix_bad_fraction(self, small):
        with pytest.raises(GraphError):
            small.time_prefix(1.5)

    def test_time_prefix_floors_not_banker_rounds(self):
        # floor(m * f), never int(round(...)): banker's rounding sent
        # 0.5-exact products to the nearest *even* count, so two slice
        # sweeps with adjacent m differed by 2 edges instead of 1.
        graph = TemporalGraph(["A", "B"])
        for t in range(1, 6):  # 5 temporal edges
            graph.add_edge(0, 1, t)
        assert graph.time_prefix(0.5).num_temporal_edges == 2  # floor(2.5)
        assert graph.time_prefix(0.3).num_temporal_edges == 1  # floor(1.5)
        assert graph.time_prefix(0.9).num_temporal_edges == 4  # floor(4.5)

    def test_time_prefix_exp5_slice_sizes(self):
        # Pin the Exp-5 (Fig. 18) data-scale slices: each fraction keeps
        # exactly floor(m * fraction) earliest edges.
        graph = TemporalGraph(["A", "B", "C"])
        t = 0
        for _ in range(67):
            t += 1
            graph.add_edge(t % 2, 2, t)
        m = graph.num_temporal_edges
        assert m == 67
        for fraction in (0.2, 0.25, 0.4, 0.5, 0.6, 0.8, 1.0):
            sliced = graph.time_prefix(fraction)
            expected = math.floor(m * fraction)
            assert sliced.num_temporal_edges == expected
            if expected:
                cutoff = sliced.max_time
                kept = [e for e in graph.edges_by_time()][:expected]
                assert cutoff == kept[-1].t

    def test_vertices_with_label(self, small):
        assert small.vertices_with_label("A") == (0,)
        assert small.vertices_with_label("Z") == ()
