"""StreamingEngine unit behaviour: delivery, ledger, queues, errors.

The cross-algorithm emission/one-shot equivalence lives in
``test_equivalence.py``; here a hand-built two-edge pattern makes every
engine behaviour — exactly-once delivery, duplicate handling, queue
backpressure, partial expiry, no-replay — checkable by eye.
"""

import random
import sys

import pytest

from repro.datasets import random_temporal_graph
from repro.errors import GraphError, StreamingError, UnknownSubscriptionError
from repro.graphs import QueryGraph, SegmentedGraph, TemporalConstraints
from repro.obs import SanitizerError, Tracer
from repro.streaming import StreamingEngine, SubscriptionOptions
from repro.streaming import engine as engine_module

#: q0: A->B, q1: B->C with 0 <= t1 - t0 <= 10.
QUERY = QueryGraph(["A", "B", "C"], [(0, 1), (1, 2)])
CONSTRAINTS = TemporalConstraints([(0, 1, 10)], num_edges=2)
DATA_LABELS = ["A", "B", "C", "A", "B", "C"]


def make_engine(**graph_kwargs):
    graph_kwargs.setdefault("merge_threshold", 4)
    return StreamingEngine(SegmentedGraph(DATA_LABELS, **graph_kwargs))


class TestSubscriptionLifecycle:
    def test_auto_ids_are_sequential(self):
        engine = make_engine()
        assert engine.subscribe(QUERY, CONSTRAINTS).id == "s1"
        assert engine.subscribe(QUERY, CONSTRAINTS).id == "s2"
        assert engine.subscriptions() == ["s1", "s2"]

    def test_explicit_id_and_duplicate_rejected(self):
        engine = make_engine()
        assert engine.subscribe(QUERY, CONSTRAINTS, sub_id="fraud").id == "fraud"
        with pytest.raises(StreamingError):
            engine.subscribe(QUERY, CONSTRAINTS, sub_id="fraud")

    def test_unsubscribe_returns_final_state(self):
        engine = make_engine()
        engine.subscribe(QUERY, CONSTRAINTS, sub_id="s")
        engine.ingest([(0, 1, 5), (1, 2, 8)])
        final = engine.unsubscribe("s")
        assert final.matches_emitted == 1
        with pytest.raises(UnknownSubscriptionError):
            engine.unsubscribe("s")
        with pytest.raises(UnknownSubscriptionError):
            engine.poll("s")

    def test_infeasible_and_malformed_patterns_rejected(self):
        engine = make_engine()
        empty = QueryGraph(["A"], [])
        with pytest.raises(StreamingError):
            engine.subscribe(empty, TemporalConstraints([], num_edges=0))
        with pytest.raises(StreamingError):
            engine.subscribe(
                QUERY, TemporalConstraints([(0, 1, 5)], num_edges=3)
            )

    def test_option_validation(self):
        with pytest.raises(StreamingError):
            SubscriptionOptions(queue_capacity=0)
        with pytest.raises(StreamingError):
            SubscriptionOptions(lateness=-1)
        with pytest.raises(StreamingError):
            SubscriptionOptions(search_budget=0.0)


class TestDelivery:
    @pytest.mark.parametrize(
        "stream",
        [
            [(0, 1, 5), (1, 2, 8)],
            [(1, 2, 8), (0, 1, 5)],  # shuffled arrival
        ],
    )
    def test_exactly_once_on_last_arriving_edge(self, stream):
        engine = make_engine()
        engine.subscribe(QUERY, CONSTRAINTS, sub_id="s")
        first = engine.ingest(stream[:1])
        assert first.emitted == 0  # one edge cannot complete the pattern
        second = engine.ingest(stream[1:])
        assert second.emitted == 1
        emissions = engine.poll("s")
        assert len(emissions) == 1
        emission = emissions[0]
        assert emission.seq == 0
        assert tuple(emission.edge) == stream[1]  # the completing edge
        assert [tuple(e) for e in emission.match.edge_map] == [
            (0, 1, 5),
            (1, 2, 8),
        ]
        assert engine.poll("s") == []  # drained

    def test_constraint_violations_not_emitted(self):
        engine = make_engine()
        engine.subscribe(QUERY, CONSTRAINTS, sub_id="s")
        report = engine.ingest([(0, 1, 5), (1, 2, 20)])  # gap 15 > 10
        assert report.emitted == 0
        assert engine.poll("s") == []

    def test_duplicates_counted_and_never_redelivered(self):
        engine = make_engine()
        engine.subscribe(QUERY, CONSTRAINTS, sub_id="s")
        engine.ingest([(0, 1, 5), (1, 2, 8)])
        report = engine.ingest([(1, 2, 8), (0, 1, 5)])
        assert report.new_edges == 0
        assert report.duplicates == 2
        assert report.emitted == 0
        assert len(engine.poll("s")) == 1  # only the original emission

    def test_no_replay_for_late_subscribers(self):
        engine = make_engine()
        engine.ingest([(0, 1, 5), (1, 2, 8)])  # completed pre-subscribe
        engine.subscribe(QUERY, CONSTRAINTS, sub_id="late")
        assert engine.poll("late") == []
        # New arrivals may still reach back into the pre-existing graph.
        report = engine.ingest([(1, 2, 9)])
        assert report.emitted == 1
        (emission,) = engine.poll("late")
        assert [tuple(e) for e in emission.match.edge_map] == [
            (0, 1, 5),
            (1, 2, 9),
        ]

    def test_queue_capacity_drops_oldest(self):
        engine = make_engine()
        engine.subscribe(
            QUERY,
            CONSTRAINTS,
            SubscriptionOptions(queue_capacity=1),
            sub_id="s",
        )
        engine.ingest([(0, 1, 5), (1, 2, 8), (1, 2, 9)])  # two matches
        sub = engine.subscription("s")
        assert sub.matches_emitted == 2
        assert sub.emissions_dropped == 1
        (kept,) = engine.poll("s")
        assert kept.seq == 1  # oldest was dropped

    def test_poll_max_items(self):
        engine = make_engine()
        engine.subscribe(QUERY, CONSTRAINTS, sub_id="s")
        engine.ingest([(0, 1, 5), (1, 2, 8), (1, 2, 9), (1, 2, 10)])
        assert [e.seq for e in engine.poll("s", max_items=2)] == [0, 1]
        assert [e.seq for e in engine.poll("s")] == [2]

    def test_two_subscriptions_deliver_independently(self):
        engine = make_engine()
        engine.subscribe(QUERY, CONSTRAINTS, sub_id="a")
        # Tighter twin: gap 1 rejects the (5, 8) pair.
        engine.subscribe(
            QUERY, TemporalConstraints([(0, 1, 1)], num_edges=2), sub_id="b"
        )
        engine.ingest([(0, 1, 5), (1, 2, 8), (1, 2, 6)])
        assert len(engine.poll("a")) == 2  # t1 in {8, 6}
        assert len(engine.poll("b")) == 1  # only t1 = 6


class TestLedgerAndMetrics:
    def test_partials_expire_as_watermark_advances(self):
        engine = make_engine()
        engine.subscribe(QUERY, CONSTRAINTS, sub_id="s")
        engine.ingest([(0, 1, 5)])
        sub = engine.subscription("s")
        assert len(sub.partials) == 1  # candidacy window [5-10, 5+10]
        engine.ingest([(3, 4, 100)])  # watermark jumps past the window
        assert len(sub.partials) == 1  # ... the new edge opened its own
        assert sub.partials_expired == 1
        assert engine.metrics_snapshot()["watermark"] == 100

    def test_lateness_delays_expiry(self):
        engine = make_engine()
        engine.subscribe(
            QUERY,
            CONSTRAINTS,
            SubscriptionOptions(lateness=1_000),
            sub_id="s",
        )
        engine.ingest([(0, 1, 5), (3, 4, 100)])
        assert engine.subscription("s").partials_expired == 0

    def test_unbounded_span_is_not_tracked(self):
        engine = make_engine()
        engine.subscribe(
            QUERY, TemporalConstraints([], num_edges=2), sub_id="s"
        )
        engine.ingest([(0, 1, 5), (3, 4, 100)])
        sub = engine.subscription("s")
        assert sub.partials == []  # inf span: never provably dead
        assert sub.partials_expired == 0

    def test_metrics_snapshot_shape(self):
        engine = make_engine(merge_threshold=2)
        engine.subscribe(QUERY, CONSTRAINTS, sub_id="s")
        report = engine.ingest([(0, 1, 5), (1, 2, 8), (1, 2, 8)])
        assert report.flushes >= 1
        snap = engine.metrics_snapshot()
        assert snap["edges_ingested"] == 2
        assert snap["duplicates"] == 1
        assert snap["graph"]["num_segments"] >= 1
        (row,) = snap["subscriptions"]
        assert row["id"] == "s"
        assert row["matches_emitted"] == 1
        assert row["edges_seen"] == 2
        assert row["searches"] + row["searches_skipped"] == 2

    def test_ingest_tracer_captures_delta_searches(self):
        engine = make_engine()
        engine.subscribe(QUERY, CONSTRAINTS, sub_id="s")
        tracer = Tracer()
        engine.ingest([(0, 1, 5), (1, 2, 8)], tracer=tracer)
        names = [span.name for span in tracer.spans()]
        assert "delta-search" in names
        match_span = next(
            s for s in tracer.spans() if s.name == "delta-search"
            and s.attrs.get("matches")
        )
        assert match_span.attrs["subscription"] == "s"
        # The engine's own tracer is restored after the call.
        engine.ingest([(1, 2, 9)])
        assert len([s for s in tracer.spans() if s.name == "delta-search"]) == 2

    def test_segment_flush_spans_reach_tracer(self):
        engine = make_engine(merge_threshold=2)
        tracer = Tracer()
        engine.ingest([(0, 1, 1), (0, 1, 2), (0, 1, 3), (0, 1, 4)],
                      tracer=tracer)
        assert any(s.name == "segment-flush" for s in tracer.spans())


class TestFailedBatch:
    def test_applied_edges_stay_counted(self):
        engine = StreamingEngine(SegmentedGraph(DATA_LABELS[:5]))
        engine.subscribe(QUERY, CONSTRAINTS, sub_id="s")
        applied = "edge 3 of the batch; the 2 new edges before it"
        with pytest.raises(GraphError, match=applied):
            # (0, 1, 5) is already present unlabeled: a label conflict.
            engine.ingest([(0, 1, 5), (1, 2, 6), (0, 1, 5, "x"), (0, 2, 7)])
        with pytest.raises(GraphError, match="out of range"):
            engine.ingest([(0, 1, 8), (0, 5, 9)])
        snap = engine.metrics_snapshot()
        assert snap["edges_ingested"] == 3
        assert snap["duplicates"] == 0
        assert snap["watermark"] == 8
        assert engine.graph.num_temporal_edges == 3
        (row,) = snap["subscriptions"]
        assert row["edges_seen"] == 3
        assert row["matches_emitted"] == 1
        assert len(engine.poll("s")) == 1

    @pytest.mark.parametrize(
        "bad",
        [(0, 1, 9.7), (0, 1, 9.0), (0, 1, True), (0, 1, "9"), (True, 1, 9),
         (0, None, 9), (0, 1)],
    )
    def test_non_int_fields_are_malformed(self, bad):
        """u, v and t are taken as given: 9.7 is not t=9, True not t=1."""
        engine = make_engine()
        engine.subscribe(QUERY, CONSTRAINTS, sub_id="s")
        engine.ingest([(0, 1, 9)])
        applied = (
            r"malformed edge .* \(edge 2 of the batch; the 1 new edges "
            "before it were applied\\)"
        )
        with pytest.raises(GraphError, match=applied):
            engine.ingest([(0, 1, 10), bad])
        snap = engine.metrics_snapshot()
        assert snap["edges_ingested"] == 2
        assert snap["duplicates"] == 0
        assert snap["watermark"] == 10

    def test_expiry_runs_when_a_batch_fails(self):
        engine = make_engine()
        engine.subscribe(QUERY, CONSTRAINTS, sub_id="s")
        engine.ingest([(0, 1, 5)])
        with pytest.raises(GraphError, match="self loop"):
            engine.ingest([(3, 4, 100), (2, 2, 101)])
        sub = engine.subscription("s")
        assert sub.partials_expired == 1  # the watermark passed 5 + 10
        assert len(sub.partials) == 1


def _stream_with_noise(seed):
    """A time-ordered stream with late and duplicate edges mixed in."""
    graph = random_temporal_graph(12, 700, ["A", "B", "C"], max_time=300,
                                  seed=seed)
    rng = random.Random(seed)
    keyed = []
    for position, edge in enumerate(graph.edges_by_time()):
        delay = rng.randint(1, 40) if rng.random() < 0.1 else 0
        keyed.append((position + delay, tuple(edge)))
        if rng.random() < 0.05:
            keyed.append((position + rng.randint(1, 40) + 0.5, tuple(edge)))
    keyed.sort(key=lambda item: item[0])
    return graph.labels, [edge for _, edge in keyed]


def _observe(labels, stream, batch, checkpoints):
    """Ingest *stream* in *batch*-edge calls; snapshot the observable
    state after each call that ends at one of *checkpoints*."""
    engine = StreamingEngine(
        SegmentedGraph(labels, merge_threshold=16, max_segments=2)
    )
    patterns = [
        (QUERY, CONSTRAINTS, SubscriptionOptions()),
        (QUERY, TemporalConstraints([(0, 1, 3)], num_edges=2),
         SubscriptionOptions(lateness=20)),
        (QueryGraph(["B", "A", "C"], [(0, 1), (1, 2), (0, 2)]),
         TemporalConstraints([(0, 1, 15), (1, 2, 15)], num_edges=3),
         SubscriptionOptions()),
    ]
    for i, (query, constraints, options) in enumerate(patterns):
        engine.subscribe(query, constraints, options, sub_id=f"s{i}")
    seen = {}
    for lo in range(0, len(stream), batch):
        engine.ingest(stream[lo : lo + batch])
        hi = min(lo + batch, len(stream))
        if hi in checkpoints:
            state = []
            for sub_id in engine.subscriptions():
                sub = engine.subscription(sub_id)
                row = sub.describe()
                state.append((
                    [(e.seq, e.match, e.edge) for e in engine.poll(sub_id)],
                    sub.stats,
                    {key: row[key] for key in (
                        "searches", "searches_skipped", "partials_live",
                        "partials_expired", "edges_seen", "matches_emitted",
                    )},
                ))
            seen[hi] = (state, engine.metrics_snapshot()["watermark"])
    return seen, engine


@pytest.mark.parametrize("seed", [0, 1])
def test_batch_size_does_not_change_observable_state(seed):
    labels, stream = _stream_with_noise(seed)
    checkpoints = {*range(448, len(stream), 448), len(stream)}
    (ones, one_engine), (sevens, _), (wide, wide_engine) = (
        _observe(labels, stream, batch, checkpoints) for batch in (1, 7, 64)
    )
    assert ones == sevens == wide
    assert set(ones) == checkpoints
    emitted = sum(len(emissions) for state, _ in ones.values()
                  for emissions, _, _ in state)
    assert emitted > 0
    assert any(row["partials_expired"] for state, _ in ones.values()
               for _, _, row in state)
    assert one_engine.graph.freeze().fingerprint == (
        wide_engine.graph.freeze().fingerprint
    )


class TestSanitizerReading:
    """``ingest`` reads ``REPRO_SANITIZE`` once per call, and every
    per-edge helper asserts the lock whenever that reading is on."""

    HELPERS = {
        "_ingest_locked",
        "_deliver_locked",
        "_emit_locked",
        "_open_partial_locked",
        "_expire_partials_locked",
    }

    def test_toggle_between_ingest_calls(self, monkeypatch):
        reads = []
        checks = []
        real_read = engine_module.sanitize_enabled
        real_check = engine_module.assert_lock_held

        def counting_read():
            reads.append(1)
            return real_read()

        def recording_check(lock, name="lock", *, enabled=None):
            checks.append((sys._getframe(1).f_code.co_name, enabled))
            real_check(lock, name, enabled=enabled)

        monkeypatch.setattr(engine_module, "sanitize_enabled", counting_read)
        monkeypatch.setattr(engine_module, "assert_lock_held", recording_check)
        engine = make_engine()
        engine.subscribe(QUERY, CONSTRAINTS, sub_id="s")

        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        engine.ingest([(0, 1, 5), (3, 1, 6)])
        assert len(reads) == 1
        assert checks and all(enabled is False for _, enabled in checks)

        reads.clear()
        checks.clear()
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        report = engine.ingest([(1, 2, 8), (4, 5, 9)])
        assert report.emitted == 2
        assert len(reads) == 1
        assert all(enabled is True for _, enabled in checks)
        assert {helper for helper, _ in checks} == self.HELPERS
        # Per edge and helper: two edges, two emissions, one sweep.
        assert len(checks) == 1 + 2 + 2 + 2 + 1

    def test_enabled_reading_catches_an_unheld_lock(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        engine = make_engine()
        engine.subscribe(QUERY, CONSTRAINTS, sub_id="s")
        with pytest.raises(SanitizerError, match="StreamingEngine._lock"):
            engine._expire_partials_locked(True)
        engine._expire_partials_locked(False)  # reading off: no check
