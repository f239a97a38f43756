"""Tests for root-seed partitioning and the engine's parallel hooks."""

import pytest

from repro.core import (
    MatchOptions,
    create_matcher,
    find_matches,
    supports_partition,
)
from repro.core.partition import check_partition, partition_slice
from repro.datasets import toy_instance
from repro.errors import AlgorithmError

CORE_ALGORITHMS = ("brute-force", "tcsm-v2v", "tcsm-e2e", "tcsm-eve")
# Name of the one partition rule: round-robin over id-sorted candidates.
PARTITION_RULES = ("stride",)


@pytest.fixture(scope="module")
def toy():
    return toy_instance()


class TestCheckPartition:
    @pytest.mark.parametrize("partition", [(0, 1), (0, 3), (2, 3)])
    def test_valid(self, partition):
        check_partition(partition)

    @pytest.mark.parametrize("partition", [(0, 0), (-1, 2), (2, 2), (3, 2)])
    def test_invalid(self, partition):
        with pytest.raises(AlgorithmError, match="partition"):
            check_partition(partition)


class TestPartitionSlice:
    def test_full_partition_is_sorted_identity(self):
        assert partition_slice({3, 1, 2}, (0, 1)) == [1, 2, 3]

    def test_slices_are_disjoint_and_exhaustive(self):
        population = set(range(17))
        slices = [partition_slice(population, (i, 4)) for i in range(4)]
        flattened = [item for piece in slices for item in piece]
        assert len(flattened) == len(population)
        assert set(flattened) == population

    def test_stride_interleaves(self):
        assert partition_slice(range(6), (0, 2)) == [0, 2, 4]
        assert partition_slice(range(6), (1, 2)) == [1, 3, 5]

    def test_malformed_partition_rejected(self):
        with pytest.raises(AlgorithmError, match="pair"):
            partition_slice({2, 1}, None)  # type: ignore[arg-type]


class TestPartitionStrategies:
    """The round-robin ("stride") split is the one partition rule; its
    slices cover the candidates exactly once for every partition count."""

    @pytest.mark.parametrize("strategy", PARTITION_RULES)
    @pytest.mark.parametrize("count", (1, 2, 4, 7))
    def test_disjoint_and_exhaustive(self, strategy, count):
        population = set(range(23))
        slices = [partition_slice(population, (i, count)) for i in range(count)]
        flattened = [item for piece in slices for item in piece]
        assert len(flattened) == len(population)
        assert set(flattened) == population
        assert slices == [
            sorted(population)[i::count] for i in range(count)
        ]


class TestStrategyEquivalence:
    """The partition rule partitions the *answer*: the per-partition
    match multisets are pairwise disjoint and their union is exactly the
    full run, for every TCSM algorithm."""

    @pytest.mark.parametrize("algo", CORE_ALGORITHMS)
    @pytest.mark.parametrize("strategy", PARTITION_RULES)
    @pytest.mark.parametrize("count", (2, 3))
    def test_union_equals_full_run(self, toy, algo, strategy, count):
        query, tc, graph, _, _ = toy
        full = find_matches(query, tc, graph, algorithm=algo)
        parts = [
            find_matches(
                query, tc, graph, algorithm=algo,
                options=MatchOptions(partition=(index, count)),
            ).matches
            for index in range(count)
        ]
        for i in range(count):
            for j in range(i + 1, count):
                assert not set(parts[i]) & set(parts[j])
        combined = [match for part in parts for match in part]
        assert sorted(combined) == sorted(full.matches)


class TestEnginePartitioning:
    @pytest.mark.parametrize("algo", CORE_ALGORITHMS)
    @pytest.mark.parametrize("count", (2, 3))
    def test_partition_union_equals_full_run(self, toy, algo, count):
        query, tc, graph, _, _ = toy
        full = find_matches(query, tc, graph, algorithm=algo)
        combined = []
        for index in range(count):
            part = find_matches(
                query, tc, graph, algorithm=algo,
                options=MatchOptions(partition=(index, count)),
            )
            combined.extend(part.matches)
        assert sorted(combined) == sorted(full.matches)

    @pytest.mark.parametrize("algo", CORE_ALGORITHMS)
    def test_core_matchers_support_partition(self, toy, algo):
        query, tc, graph, _, _ = toy
        assert supports_partition(create_matcher(algo, query, tc, graph))

    def test_baseline_matchers_do_not(self, toy):
        query, tc, graph, _, _ = toy
        assert not supports_partition(
            create_matcher("ri-ds", query, tc, graph)
        )

    def test_partition_with_unsupporting_algorithm_raises(self, toy):
        query, tc, graph, _, _ = toy
        with pytest.raises(AlgorithmError, match="partition"):
            find_matches(
                query, tc, graph, algorithm="ri-ds",
                options=MatchOptions(partition=(0, 2)),
            )

    def test_invalid_partition_rejected_before_search(self, toy):
        query, tc, graph, _, _ = toy
        with pytest.raises(AlgorithmError):
            find_matches(
                query, tc, graph, options=MatchOptions(partition=(5, 2))
            )


class TestMatcherReuse:
    def test_prepared_matcher_reused_across_runs(self, toy):
        query, tc, graph, _, _ = toy
        matcher = create_matcher("tcsm-eve", query, tc, graph)
        first = find_matches(query, tc, graph, matcher=matcher)
        second = find_matches(query, tc, graph, matcher=matcher)
        assert first.matches == second.matches
        assert second.algorithm == "tcsm-eve"

    def test_reuse_ignores_algorithm_argument(self, toy):
        query, tc, graph, _, _ = toy
        matcher = create_matcher("tcsm-v2v", query, tc, graph)
        result = find_matches(
            query, tc, graph, algorithm="tcsm-eve", matcher=matcher
        )
        assert result.algorithm == "tcsm-v2v"


class TestOutcomeFlags:
    def test_zero_budget_sets_timed_out(self, toy):
        query, tc, graph, _, _ = toy
        result = find_matches(
            query, tc, graph, options=MatchOptions(time_budget=0.0)
        )
        assert result.timed_out
        assert not result.truncated
        assert result.stats.deadline_hit
        assert result.stats.budget_exhausted

    def test_limit_sets_truncated_not_timed_out(self, toy):
        query, tc, graph, _, _ = toy
        result = find_matches(
            query, tc, graph, options=MatchOptions(limit=1)
        )
        assert result.truncated
        assert not result.timed_out
        assert not result.stats.deadline_hit

    def test_unbounded_run_sets_neither(self, toy):
        query, tc, graph, _, _ = toy
        result = find_matches(query, tc, graph)
        assert not result.timed_out
        assert not result.truncated

    @pytest.mark.parametrize("algo", ("tcsm-v2v", "tcsm-e2e", "tcsm-eve"))
    def test_timed_out_across_algorithms(self, toy, algo):
        query, tc, graph, _, _ = toy
        result = find_matches(
            query, tc, graph, algorithm=algo,
            options=MatchOptions(time_budget=0.0),
        )
        assert result.timed_out

    def test_deadline_hit_merges_across_stats(self):
        from repro.core import SearchStats

        expired = SearchStats()
        expired.deadline_hit = True
        merged = SearchStats()
        merged.merge(expired)
        assert merged.deadline_hit
