"""The options API: MatchOptions, RunContext, and the one calling form."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import (
    MatchOptions,
    RunContext,
    SearchStats,
    count_matches,
    create_matcher,
    find_matches,
)
from repro.datasets import toy_instance
from repro.errors import AlgorithmError
from repro.obs import NULL_TRACER, Tracer

TCSM = ("tcsm-v2v", "tcsm-e2e", "tcsm-eve")


@pytest.fixture(scope="module")
def toy():
    return toy_instance()


class TestMatchOptions:
    def test_defaults(self):
        opts = MatchOptions()
        assert opts.limit is None
        assert opts.time_budget is None
        assert opts.tighten is False
        assert opts.collect_matches is True
        assert opts.partition is None
        assert opts.trace is False

    def test_frozen_and_hashable(self):
        opts = MatchOptions(limit=5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            opts.limit = 6  # type: ignore[misc]
        assert opts in {MatchOptions(limit=5)}

    def test_negative_limit_rejected(self):
        with pytest.raises(AlgorithmError, match="limit"):
            MatchOptions(limit=-1)

    @pytest.mark.parametrize(
        "partition", [(5, 2), (-1, 4), (0, 0), (2, 2), (1, 2, 3), 5, "ab"]
    )
    def test_bad_partition_rejected(self, partition):
        with pytest.raises(AlgorithmError, match="partition"):
            MatchOptions(partition=partition)

    def test_replace_returns_modified_copy(self):
        opts = MatchOptions(limit=5, tighten=True)
        changed = opts.replace(collect_matches=False)
        assert changed.collect_matches is False
        assert changed.limit == 5 and changed.tighten is True
        assert opts.collect_matches is True  # original untouched

    def test_canonical_hash_is_stable_and_discriminating(self):
        base = MatchOptions(limit=5, tighten=True)
        assert base.canonical_hash() == MatchOptions(
            limit=5, tighten=True
        ).canonical_hash()
        distinct = {
            MatchOptions().canonical_hash(),
            MatchOptions(limit=5).canonical_hash(),
            MatchOptions(limit=5, tighten=True).canonical_hash(),
            MatchOptions(collect_matches=False).canonical_hash(),
            MatchOptions(partition=(0, 2)).canonical_hash(),
            MatchOptions(partition=(1, 2)).canonical_hash(),
        }
        assert len(distinct) == 6

    def test_canonical_hash_ignores_budget_and_trace(self):
        # The hash identifies the *answer*; wall clocks and observability
        # don't change it, so cached complete results stay shareable.
        assert (
            MatchOptions().canonical_hash()
            == MatchOptions(time_budget=1.5).canonical_hash()
            == MatchOptions(trace=True).canonical_hash()
        )


class TestRunContext:
    def test_defaults(self):
        ctx = RunContext()
        assert ctx.limit is None and ctx.deadline is None
        assert ctx.partition is None
        assert isinstance(ctx.stats, SearchStats)
        assert ctx.tracer is NULL_TRACER

    def test_with_partition_gets_fresh_stats(self):
        ctx = RunContext(limit=3, deadline=12.5)
        ctx.stats.matches = 9
        sliced = ctx.with_partition(1, 4)
        assert sliced.partition == (1, 4)
        assert sliced.limit == 3 and sliced.deadline == 12.5
        assert sliced.stats is not ctx.stats
        assert sliced.stats.matches == 0


class TestFindMatchesShim:
    """options= is the one way to choose run behaviour; the flat
    keywords the old shim accepted are rejected, never ignored."""

    def test_options_plus_legacy_keyword_is_an_error(self, toy):
        query, tc, graph, _, _ = toy
        with pytest.raises(TypeError, match="limit"):
            find_matches(
                query, tc, graph, options=MatchOptions(limit=2), limit=2
            )
        with pytest.raises(TypeError, match="trace"):
            find_matches(
                query, tc, graph, options=MatchOptions(), trace=True
            )

    @pytest.mark.parametrize("algo", TCSM)
    def test_num_matches_without_collection(self, toy, algo):
        # Regression: num_matches used to read len(matches) == 0 when
        # collect_matches=False even though the search found matches.
        query, tc, graph, _, _ = toy
        collected = find_matches(query, tc, graph, algorithm=algo)
        counted = find_matches(
            query, tc, graph, algorithm=algo,
            options=MatchOptions(collect_matches=False),
        )
        assert counted.matches == []
        assert counted.num_matches == collected.num_matches > 0

    def test_count_matches_accepts_options(self, toy):
        query, tc, graph, _, _ = toy
        baseline = count_matches(query, tc, graph)
        # collect_matches=True is overridden: counting never retains.
        assert count_matches(
            query, tc, graph, options=MatchOptions(collect_matches=True)
        ) == baseline
        assert count_matches(
            query, tc, graph, options=MatchOptions(limit=1)
        ) == 1


class TestRemovedKeywords:
    """The removed flat keywords and knobs raise ``TypeError``."""

    def test_find_matches_flat_limit(self, toy):
        query, tc, graph, _, _ = toy
        with pytest.raises(TypeError, match="limit"):
            find_matches(query, tc, graph, limit=1)

    def test_count_matches_flat_limit(self, toy):
        query, tc, graph, _, _ = toy
        with pytest.raises(TypeError, match="limit"):
            count_matches(query, tc, graph, limit=1)

    @pytest.mark.parametrize("algo", TCSM)
    def test_run_takes_only_a_context(self, toy, algo):
        query, tc, graph, _, _ = toy
        matcher = create_matcher(algo, query, tc, graph)
        with pytest.raises(TypeError):
            matcher.run(limit=1)  # type: ignore[call-arg]
        assert len(list(matcher.run(RunContext(limit=1)))) == 1

    @pytest.mark.parametrize("algo", ("tcsm-v2v", "tcsm-e2e"))
    def test_prefilter_knob_is_gone(self, toy, algo):
        query, tc, graph, _, _ = toy
        with pytest.raises(TypeError, match="prefilter"):
            create_matcher(algo, query, tc, graph, prefilter="bitset")

    def test_prebuilt_matcher_rejects_ignored_keywords(self, toy):
        # With a pre-built matcher, constructor options and stale run
        # keywords would be dropped on the floor; they raise instead.
        query, tc, graph, _, _ = toy
        matcher = create_matcher("tcsm-eve", query, tc, graph)
        with pytest.raises(TypeError, match="limit"):
            find_matches(query, tc, graph, matcher=matcher, limit=5)
        with pytest.raises(TypeError, match="intersect_candidates"):
            find_matches(
                query, tc, graph, matcher=matcher, intersect_candidates=False
            )
        result = find_matches(
            query, tc, graph, matcher=matcher, options=MatchOptions(limit=1)
        )
        assert result.num_matches == 1


class TestTraceOption:
    def test_untraced_run_has_no_trace(self, toy):
        query, tc, graph, _, _ = toy
        assert find_matches(query, tc, graph).trace is None

    def test_trace_option_returns_populated_tracer(self, toy):
        query, tc, graph, _, _ = toy
        result = find_matches(
            query, tc, graph, options=MatchOptions(tighten=True, trace=True)
        )
        tracer = result.trace
        assert isinstance(tracer, Tracer)
        names = {span.name for span in tracer.spans()}
        assert {"stn-closure", "prepare", "enumerate"} <= names
        assert any(name.startswith("candidate-filter:") for name in names)

    def test_explicit_tracer_is_used_and_returned(self, toy):
        query, tc, graph, _, _ = toy
        tracer = Tracer()
        result = find_matches(query, tc, graph, tracer=tracer)
        assert result.trace is tracer
        assert len(tracer) > 0
