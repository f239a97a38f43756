"""Consolidated tests for paths the per-module suites leave uncovered."""

import doctest

import pytest

from repro.core import MatchOptions, RunContext, find_matches
from repro.datasets import toy_instance
from repro.experiments import render_series
from repro.graphs import TemporalGraph


class TestDocstringExamples:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.graphs.labels",
            "repro.graphs.builders",
            "repro.graphs.query_graph",
        ],
    )
    def test_doctests_pass(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        result = doctest.testmod(module, verbose=False)
        assert result.failed == 0
        assert result.attempted > 0  # the examples actually ran


class TestAdjacencyViews:
    def test_items_reflect_graph(self):
        graph = TemporalGraph(["A", "B"], [(0, 1, 3), (0, 1, 5)])
        assert dict(graph.out_items(0)) == {1: [3, 5]}
        assert dict(graph.in_items(1)) == {0: [3, 5]}

    def test_neighbor_id_views_are_live(self):
        graph = TemporalGraph(["A", "B", "C"], [(0, 1, 1)])
        view = graph.out_neighbor_ids(0)
        assert set(view) == {1}
        graph.add_edge(0, 2, 2)
        assert set(view) == {1, 2}  # dict view, not a copy


class TestRenderSeriesFormatting:
    def test_custom_y_format(self):
        text = render_series(
            "x", [1, 2], {"s": [0.5, 1.5]},
            y_format=lambda v: f"{v:.1f}s",
        )
        assert "0.5s" in text and "1.5s" in text

    def test_default_format_stringifies(self):
        text = render_series("x", [1], {"s": [42]})
        assert "42" in text


class TestEngineCombinations:
    def test_limit_with_collect_false(self):
        query, tc, graph, _, _ = toy_instance()
        result = find_matches(
            query, tc, graph,
            options=MatchOptions(limit=1, collect_matches=False),
        )
        assert result.matches == []
        assert result.stats.matches == 1
        assert result.stats.budget_exhausted

    def test_tighten_with_baseline(self):
        query, tc, graph, _, _ = toy_instance()
        result = find_matches(
            query, tc, graph, algorithm="ri-ds",
            options=MatchOptions(tighten=True),
        )
        assert result.num_matches == 2

    def test_stats_object_reused_across_runs(self):
        from repro.core import SearchStats, create_matcher

        query, tc, graph, _, _ = toy_instance()
        matcher = create_matcher("tcsm-eve", query, tc, graph)
        matcher.prepare()
        stats = SearchStats()
        first = sum(1 for _ in matcher.run(RunContext(stats=stats)))
        second = sum(1 for _ in matcher.run(RunContext(stats=stats)))
        assert first == second == 2
        # Counters accumulate across runs on the same stats object.
        assert stats.matches == 4


class TestMatcherReuse:
    def test_prepare_idempotent(self):
        from repro.core import create_matcher

        query, tc, graph, _, _ = toy_instance()
        for algo in ("tcsm-v2v", "tcsm-e2e", "tcsm-eve"):
            matcher = create_matcher(algo, query, tc, graph)
            matcher.prepare()
            snapshot = (
                matcher.tcq if algo == "tcsm-v2v" else matcher.tcq_plus
            )
            matcher.prepare()
            after = (
                matcher.tcq if algo == "tcsm-v2v" else matcher.tcq_plus
            )
            assert snapshot is after  # not rebuilt

    def test_run_restarts_cleanly(self):
        from repro.core import create_matcher

        query, tc, graph, _, _ = toy_instance()
        matcher = create_matcher("tcsm-eve", query, tc, graph)
        a = list(matcher.run(RunContext()))
        b = list(matcher.run(RunContext()))
        assert a == b

    def test_abandoned_generator_leaves_no_corruption(self):
        from repro.core import create_matcher

        query, tc, graph, _, _ = toy_instance()
        matcher = create_matcher("tcsm-eve", query, tc, graph)
        gen = matcher.run(RunContext())
        next(gen)  # take one match, abandon the generator
        gen.close()
        assert len(list(matcher.run(RunContext()))) == 2
