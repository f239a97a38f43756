"""The public facade: ``repro.api.prepare`` / ``match`` / ``serve``.

``prepare`` and ``match`` turn a :class:`MatchOptions` into matcher
constructor keywords by one shared rule (``plan``; ``codegen`` is
accepted and ignored), so a plan prepared up front is the plan a
one-shot ``match`` would have built.
"""

import pytest

from repro import api
from repro.datasets import toy_instance
from repro.graphs import snapshot_compile_count


@pytest.fixture(scope="module")
def toy():
    query, constraints, graph, _, _ = toy_instance()
    return query, constraints, graph


class TestPrepareThenMatch:
    def test_prepared_matcher_is_reused_without_recompiling(self, toy):
        query, constraints, graph = toy
        one_shot = api.match(query, constraints, graph)
        matcher = api.prepare(query, constraints, graph)
        candidates = matcher.pair_candidates
        compiles = snapshot_compile_count()
        for _ in range(2):
            reused = api.match(query, constraints, graph, matcher=matcher)
            assert reused.matches == one_shot.matches
            assert reused.stats == one_shot.stats
        assert matcher.pair_candidates is candidates  # not re-prepared
        assert snapshot_compile_count() == compiles

    def test_matcher_algorithm_wins_over_argument(self, toy):
        query, constraints, graph = toy
        matcher = api.prepare(query, constraints, graph, algorithm="tcsm-v2v")
        result = api.match(
            query, constraints, graph, algorithm="tcsm-e2e", matcher=matcher
        )
        assert result.algorithm == "tcsm-v2v"


class TestOptionsForwarding:
    @pytest.mark.parametrize("algorithm", ["tcsm-v2v", "tcsm-e2e", "tcsm-eve"])
    def test_plan_is_forwarded(self, toy, algorithm):
        query, constraints, graph = toy
        matcher = api.prepare(
            query, constraints, graph, algorithm=algorithm,
            options=api.MatchOptions(plan="cost"),
        )
        assert matcher.plan == "cost"
        one_shot = api.match(
            query, constraints, graph, algorithm=algorithm,
            options=api.MatchOptions(plan="cost"),
        )
        reused = api.match(query, constraints, graph, matcher=matcher)
        assert reused.matches == one_shot.matches
        assert reused.stats == one_shot.stats

    def test_explicit_keyword_wins_over_options(self, toy):
        query, constraints, graph = toy
        matcher = api.prepare(
            query, constraints, graph,
            options=api.MatchOptions(plan="cost"), plan="paper",
        )
        assert matcher.plan == "paper"

    def test_codegen_ignored_where_unsupported(self, toy):
        """No algorithm takes ``codegen`` any more: every one ignores it."""
        query, constraints, graph = toy
        for algorithm in ("brute-force", "tcsm-v2v", "tcsm-e2e", "tcsm-eve"):
            matcher = api.prepare(
                query, constraints, graph, algorithm=algorithm,
                options=api.MatchOptions(codegen=True),
            )
            assert not hasattr(matcher, "codegen")
            flagged = api.match(query, constraints, graph, matcher=matcher)
            plain = api.match(query, constraints, graph, algorithm=algorithm)
            assert flagged.matches == plain.matches
            assert flagged.stats == plain.stats
