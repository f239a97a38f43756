"""Tests for the continuous TCSM matcher (tcsm-stream)."""

from collections import Counter

import pytest

from repro.core import (
    brute_force_matches,
    create_matcher,
    find_matches,
    is_valid_match,
)
from repro.datasets import (
    TOY_EXPECTED_MATCH_COUNT,
    random_instance,
    toy_instance,
)
from repro.errors import AlgorithmError
from repro.graphs import (
    QueryGraph,
    SegmentedGraph,
    TemporalConstraints,
    TemporalGraph,
)
from repro.streaming import StreamingEngine

#: A 3-edge query over 150 edges on 8 vertices: tens to hundreds of
#: matches per seed (the shape of tests/streaming/test_equivalence.py).
DENSE = dict(
    query_vertices=3,
    query_edges=3,
    num_constraints=2,
    max_gap=25,
    data_vertices=8,
    data_edges=150,
    num_labels=2,
    max_time=40,
)


@pytest.fixture(scope="module")
def toy():
    return toy_instance()


class TestCorrectness:
    def test_toy_agrees(self, toy):
        query, tc, graph, _, _ = toy
        result = find_matches(query, tc, graph, algorithm="tcsm-stream")
        assert result.num_matches == TOY_EXPECTED_MATCH_COUNT
        for match in result.matches:
            assert is_valid_match(query, tc, graph, match)

    @pytest.mark.parametrize("seed", range(12))
    def test_differential_vs_oracle(self, seed):
        query, tc, graph = random_instance(seed=seed)
        oracle = set(brute_force_matches(query, tc, graph))
        got = set(
            find_matches(query, tc, graph, algorithm="tcsm-stream").matches
        )
        assert got == oracle

    @pytest.mark.parametrize("seed", range(6))
    def test_windows_off_agrees(self, seed):
        # With no window pruning, a pinned delta search is graphflow's:
        # every completed match post-filtered at the leaf.  The windowed
        # replay must report exactly the same matches.
        query, tc, graph = random_instance(seed=seed + 50)
        with_windows = set(
            find_matches(query, tc, graph, algorithm="tcsm-stream").matches
        )
        without = set(
            find_matches(query, tc, graph, algorithm="graphflow").matches
        )
        assert with_windows == without

    def test_dense_timestamps(self):
        query, tc, graph = random_instance(
            seed=321, query_vertices=3, query_edges=3,
            num_constraints=2, data_vertices=6, data_edges=50, max_time=6,
        )
        oracle = set(brute_force_matches(query, tc, graph))
        got = set(
            find_matches(query, tc, graph, algorithm="tcsm-stream").matches
        )
        assert got == oracle


class TestPruningAdvantage:
    def test_fails_less_than_postfiltering_baseline(self, toy):
        # On the same stream, in-search TC pruning must reject candidates
        # earlier (fewer completed-but-invalid leaves) than graphflow's
        # leaf post-filter.
        query, tc, graph, _, _ = toy
        stream_result = find_matches(query, tc, graph, algorithm="tcsm-stream")
        graphflow_result = find_matches(query, tc, graph, algorithm="graphflow")
        assert stream_result.num_matches == graphflow_result.num_matches
        assert (
            stream_result.stats.nodes_expanded
            <= graphflow_result.stats.nodes_expanded
        )

    def test_windows_prune_at_scale(self):
        # On a paper dataset, the windowed replay finds the same matches
        # as the windowless, leaf-post-filtering pinned search while
        # expanding no more search nodes.
        from repro.datasets import load_dataset, paper_constraints, paper_query

        graph = load_dataset("CM", scale=0.02, seed=1)
        query = paper_query(1)
        tc = paper_constraints(2, num_edges=query.num_edges, gap=3600)
        with_windows = find_matches(query, tc, graph, algorithm="tcsm-stream")
        without = find_matches(query, tc, graph, algorithm="graphflow")
        assert with_windows.stats.matches == without.stats.matches
        assert (
            with_windows.stats.nodes_expanded <= without.stats.nodes_expanded
        )


class TestStreamingKernel:
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_time_ordered_engine(self, seed):
        # tcsm-stream is the engine's per-edge delta search replayed: a
        # StreamingEngine fed the same edges in time order, one per
        # ingest, emits the same matches and counts the same work.
        query, tc, graph = random_instance(seed=seed, **DENSE)
        result = find_matches(query, tc, graph, algorithm="tcsm-stream")
        engine = StreamingEngine(SegmentedGraph(graph.labels))
        sub = engine.subscribe(query, tc, sub_id="s")
        emitted = []
        for edge in graph.edges_by_time():
            engine.ingest([edge])
            emitted.extend(e.match for e in engine.poll("s"))
        assert result.matches, "degenerate instance: no matches to compare"
        assert Counter(result.matches) == Counter(emitted)
        assert result.stats == sub.stats
        # Window-pruned in the search, never post-filtered at the leaf.
        assert "temporal-postfilter" not in result.stats.filters
        assert result.stats.timestamps_expanded > 0


class TestRegistration:
    def test_registered_name(self, toy):
        query, tc, graph, _, _ = toy
        matcher = create_matcher("tcsm-stream", query, tc, graph)
        assert matcher.name == "tcsm-stream"

    def test_available_via_engine(self):
        from repro.core import available_algorithms

        assert "tcsm-stream" in available_algorithms()

    def test_edgeless_query_rejected(self):
        query = QueryGraph(["A"], [])
        tc = TemporalConstraints([], num_edges=0)
        graph = TemporalGraph(["A", "A"], [(0, 1, 1)])
        with pytest.raises(AlgorithmError, match="at least one query edge"):
            find_matches(query, tc, graph, algorithm="tcsm-stream")
