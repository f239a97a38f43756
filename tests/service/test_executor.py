"""Tests for the query executor (in-process runs and the process pool)."""

import pytest

from repro.core import create_matcher, find_matches
from repro.service import (
    ExecutionOutcome,
    ProcessSpec,
    QueryExecutor,
    ServiceConfig,
    TCSMService,
)
from repro.service import executor as executor_module

from .conftest import run_partitions


@pytest.fixture(scope="module")
def prepared_eve(toy):
    query, tc, graph, _, _ = toy
    matcher = create_matcher("tcsm-eve", query, tc, graph)
    matcher.prepare()
    return matcher


class TestConstruction:
    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="max_workers"):
            QueryExecutor(max_workers=0)

    def test_rejects_unknown_pool(self):
        with pytest.raises(ValueError, match="pool"):
            QueryExecutor(pool="fibers")

    def test_context_manager_closes(self):
        with QueryExecutor(max_workers=1) as executor:
            assert executor.max_workers == 1


class TestEffectiveWorkers:
    def test_defaults_to_pool_size(self, prepared_eve):
        with QueryExecutor(max_workers=3, pool="process") as executor:
            assert executor.effective_workers(prepared_eve) == 3

    def test_caps_request_at_pool_size(self, prepared_eve):
        with QueryExecutor(max_workers=2, pool="process") as executor:
            assert executor.effective_workers(prepared_eve, workers=8) == 2

    def test_clamps_to_one_without_partition_support(self, toy):
        query, tc, graph, _, _ = toy
        baseline = create_matcher("ri-ds", query, tc, graph)
        with QueryExecutor(max_workers=4, pool="process") as executor:
            assert executor.effective_workers(baseline) == 1

    @pytest.mark.parametrize("workers", (None, 1, 4, 8))
    def test_thread_pool_runs_one_partition(self, prepared_eve, workers):
        with QueryExecutor(max_workers=4) as executor:
            assert executor.effective_workers(prepared_eve, workers) == 1


class TestThreadExecution:
    """Thread-pool runs are one partition on the calling thread; the
    partition merge they no longer use is pinned by core-level
    partitioned runs (``run_partitions``), merged as the process pool
    merges."""

    def test_single_worker_matches_engine(self, toy, prepared_eve):
        query, tc, graph, _, _ = toy
        reference = find_matches(query, tc, graph, algorithm="tcsm-eve")
        with QueryExecutor(max_workers=1) as executor:
            outcome = executor.run_matcher(prepared_eve)
        assert isinstance(outcome, ExecutionOutcome)
        assert outcome.partitions == 1
        assert sorted(outcome.matches) == sorted(reference.matches)

    def test_fanned_out_matches_single_worker(self, prepared_eve):
        with QueryExecutor(max_workers=4) as executor:
            solo = executor.run_matcher(prepared_eve)
        matches, stats, _ = run_partitions(prepared_eve, 4)
        assert sorted(matches) == sorted(solo.matches)
        assert stats.matches == solo.stats.matches

    def test_global_limit_is_reapplied_after_merge(self, prepared_eve):
        matches, stats, truncated = run_partitions(prepared_eve, 3, limit=1)
        assert len(matches) == 1
        assert stats.matches == 1
        assert stats.budget_exhausted
        assert not stats.deadline_hit
        assert truncated

    @pytest.mark.parametrize("limit", (1, 2, 3, 50))
    def test_limit_stops_at_k(self, cm_graph, workload, limit):
        # One partition: a limit-k run enumerates min(k, total) matches,
        # not k per partition.
        query, constraints = workload
        total = find_matches(query, constraints, cm_graph).stats.matches
        assert total > 3
        matcher = create_matcher("tcsm-eve", query, constraints, cm_graph)
        matcher.prepare()
        with QueryExecutor(max_workers=4) as executor:
            outcome = executor.run_matcher(matcher, limit=limit)
        assert outcome.stats.matches == min(limit, total)
        assert len(outcome.matches) == min(limit, total)

    def test_expired_deadline_sets_deadline_hit(self, prepared_eve):
        with QueryExecutor(max_workers=2) as executor:
            outcome = executor.run_matcher(prepared_eve, deadline=0.0)
        assert outcome.stats.deadline_hit
        assert outcome.stats.budget_exhausted
        assert outcome.matches == ()

    def test_collect_matches_false_still_counts(self, prepared_eve):
        with QueryExecutor(max_workers=2) as executor:
            counted = executor.run_matcher(prepared_eve, collect_matches=False)
            collected = executor.run_matcher(prepared_eve)
        assert counted.matches == ()
        assert counted.stats.matches == collected.stats.matches

    def test_timings_are_nonnegative(self, prepared_eve):
        with QueryExecutor(max_workers=2) as executor:
            outcome = executor.run_matcher(prepared_eve)
        assert outcome.queue_seconds >= 0.0
        assert outcome.match_seconds >= 0.0


class TestTracedExecution:
    def test_fanned_out_run_emits_partition_spans(self, toy_spec):
        from repro.obs import Tracer

        tracer = Tracer()
        with QueryExecutor(max_workers=3, pool="process") as executor:
            with tracer.span("enumerate"):
                outcome = executor.run_process(
                    toy_spec, workers=3, tracer=tracer
                )
        (enumerate_span,) = tracer.iter_spans("enumerate")
        spans = list(tracer.iter_spans("partition"))
        assert {span.name for span in spans} == {
            "partition:0/3", "partition:1/3", "partition:2/3"
        }
        assert all(span.attrs["algorithm"] == "tcsm-eve" for span in spans)
        # Worker spans are grafted under the caller's open span, inside
        # its interval on the shared monotonic clock.
        assert all(
            span.parent_id == enumerate_span.span_id for span in spans
        )
        assert all(
            enumerate_span.start <= span.start <= span.end
            <= enumerate_span.end
            for span in spans
        )
        # Per-slice match counts annotated on the spans sum to the merge.
        assert sum(span.attrs["matches"] for span in spans) == (
            outcome.stats.matches
        )

    def test_single_worker_run_has_no_partition_span(self, prepared_eve):
        from repro.obs import Tracer

        tracer = Tracer()
        with QueryExecutor(max_workers=4) as executor:
            executor.run_matcher(prepared_eve, tracer=tracer)
        assert list(tracer.iter_spans("partition")) == []

    def test_untraced_run_records_nothing(self, prepared_eve):
        with QueryExecutor(max_workers=2) as executor:
            outcome = executor.run_matcher(prepared_eve)
        assert outcome.stats.matches > 0  # NULL_TRACER path still works

    def test_untraced_process_task_carries_no_spans(self, toy_spec):
        worker = executor_module._Worker(capacity=4)
        try:
            part = worker.run(toy_spec, (0, 2))
            traced = worker.run(toy_spec, (0, 2), traced=True)
        finally:
            worker.stop()
        assert part.trace is None
        assert traced.trace is not None  # the same task, traced, has spans
        assert part.stats.matches == traced.stats.matches


class TestDeadlineConsistency:
    """Partitioned runs under a deadline agree on the timed-out verdict."""

    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_expired_deadline_consistent_across_fanouts(
        self, prepared_eve, workers
    ):
        matches, stats, _ = run_partitions(prepared_eve, workers, deadline=0.0)
        assert stats.deadline_hit
        assert stats.budget_exhausted
        assert matches == ()

    def test_generous_deadline_is_not_reported_as_timeout(self, prepared_eve):
        import time as _time

        _, stats, _ = run_partitions(
            prepared_eve, 2, deadline=_time.monotonic() + 60.0
        )
        assert not stats.deadline_hit
        assert not stats.budget_exhausted
        assert stats.matches > 0

    def test_filter_counters_survive_partition_merge(self, prepared_eve):
        with QueryExecutor(max_workers=3) as executor:
            solo = executor.run_matcher(prepared_eve)
        _, fanned, _ = run_partitions(prepared_eve, 3)
        assert solo.stats.filter_summary().keys() == (
            fanned.filter_summary().keys()
        )
        for name, row in fanned.filter_summary().items():
            assert row["considered"] == (
                solo.stats.filters[name].considered
            ), name


class TestProcessExecution:
    def test_single_worker_runs_inline(self, toy):
        # A one-partition query on a process-pool service runs the cached
        # plan inline: no worker probes, no pool started.
        query, tc, graph, _, _ = toy
        reference = find_matches(query, tc, graph, algorithm="tcsm-eve")
        config = ServiceConfig(max_workers=4, pool="process")
        with TCSMService(config) as svc:
            svc.load_graph("toy", graph)
            result = svc.query("toy", query, tc, workers=1)
            assert svc.executor._processes is None
        assert result.partitions == 1
        assert result.worker_compiles == ()
        assert sorted(result.matches) == sorted(reference.matches)

    def test_fanned_out_processes_match_single_worker(self, toy, toy_spec):
        query, tc, graph, _, _ = toy
        reference = find_matches(query, tc, graph, algorithm="tcsm-eve")
        with QueryExecutor(max_workers=2, pool="process") as executor:
            outcome = executor.run_process(toy_spec, workers=2)
        assert outcome.partitions == 2
        assert sorted(outcome.matches) == sorted(reference.matches)

    def test_queue_time_is_measured(self, toy_spec):
        with QueryExecutor(max_workers=2, pool="process") as executor:
            outcomes = [executor.run_process(toy_spec) for _ in range(3)]
        assert all(o.queue_seconds > 0.0 for o in outcomes)
        assert all(o.queue_seconds < 5.0 for o in outcomes)
