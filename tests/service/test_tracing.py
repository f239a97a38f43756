"""Service-side tracing: sampler, trace store, and the traced query path."""

import json

import pytest

from repro.service import ServiceConfig, TCSMService, TraceSampler, TraceStore


class TestTraceSampler:
    @pytest.mark.parametrize("rate", (-0.1, 1.5))
    def test_rate_out_of_range_rejected(self, rate):
        with pytest.raises(ValueError, match="rate"):
            TraceSampler(rate)

    def test_zero_never_samples(self):
        sampler = TraceSampler(0.0)
        assert not any(sampler.should_sample() for _ in range(100))

    def test_one_always_samples(self):
        sampler = TraceSampler(1.0)
        assert all(sampler.should_sample() for _ in range(100))

    @pytest.mark.parametrize("rate,expected", [(0.5, 50), (0.25, 25), (0.1, 10)])
    def test_fraction_is_exact_and_deterministic(self, rate, expected):
        one, two = TraceSampler(rate), TraceSampler(rate)
        first = [one.should_sample() for _ in range(100)]
        second = [two.should_sample() for _ in range(100)]
        assert first == second  # counter-based, no randomness
        assert sum(first) == expected

    def test_samples_are_spread_not_clustered(self):
        sampler = TraceSampler(0.25)
        decisions = [sampler.should_sample() for _ in range(100)]
        # Counter-based sampling picks every 4th query, never neighbours.
        assert not any(a and b for a, b in zip(decisions, decisions[1:]))


class TestTraceStore:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            TraceStore(capacity=0)

    def test_ids_are_monotonic_and_unique(self):
        store = TraceStore()
        ids = [store.next_trace_id() for _ in range(3)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 3

    def test_put_get_roundtrip(self):
        store = TraceStore()
        store.put("trace-000001", {"tree": "x"})
        assert store.get("trace-000001") == {"tree": "x"}
        assert store.get("trace-999999") is None

    def test_lru_eviction_respects_recency(self):
        store = TraceStore(capacity=2)
        store.put("a", {})
        store.put("b", {})
        store.get("a")  # refresh: b becomes least recently used
        store.put("c", {})
        assert store.get("b") is None
        assert store.get("a") is not None  # this get refreshes "a" again
        assert store.ids() == ["c", "a"]
        assert len(store) == 2


@pytest.fixture()
def service(cm_graph):
    with TCSMService(ServiceConfig(max_workers=2)) as svc:
        svc.load_graph("cm", cm_graph)
        yield svc


class TestTracedQueries:
    def test_untraced_by_default(self, service, workload):
        query, constraints = workload
        result = service.query("cm", query, constraints)
        assert result.trace_id is None
        assert len(service.traces) == 0

    def test_trace_flag_returns_resolvable_trace_id(self, service, workload):
        query, constraints = workload
        result = service.query("cm", query, constraints, trace=True)
        assert result.trace_id is not None
        payload = service.traces.get(result.trace_id)
        assert payload is not None
        assert payload["graph"] == "cm"
        assert payload["algorithm"] == "tcsm-eve"
        names = {e["name"] for e in payload["chrome"]["traceEvents"]}
        assert {"prepare", "enumerate"} <= names
        assert any(n.startswith("candidate-filter:") for n in names)
        assert "prepare" in payload["tree"]
        json.dumps(payload)  # the whole payload is JSONL-safe

    def test_fanned_out_traced_query_records_partition_spans(
        self, cm_graph, workload
    ):
        # Process workers record their partition's spans and ship them
        # back; the service grafts them under its enumerate span.
        query, constraints = workload
        config = ServiceConfig(max_workers=2, pool="process")
        with TCSMService(config) as svc:
            svc.load_graph("cm", cm_graph)
            result = svc.query("cm", query, constraints, workers=2, trace=True)
            payload = svc.traces.get(result.trace_id)
        events = payload["chrome"]["traceEvents"]
        (enumerate_event,) = [e for e in events if e["name"] == "enumerate"]
        partition_events = [
            e for e in events if e["name"].startswith("partition:")
        ]
        assert {e["name"] for e in partition_events} == {
            "partition:0/2", "partition:1/2"
        }
        for event in partition_events:
            assert event["args"]["parent_id"] == (
                enumerate_event["args"]["span_id"]
            )
            assert event["args"]["algorithm"] == "tcsm-eve"
        assert result.match_count > 0
        assert sum(e["args"]["matches"] for e in partition_events) == (
            result.match_count
        )

    def test_traced_queries_bypass_the_result_cache(self, service, workload):
        query, constraints = workload
        service.query("cm", query, constraints)  # warms the cache
        traced = service.query("cm", query, constraints, trace=True)
        assert traced.result_cache == "miss"  # no read ...
        after = service.query("cm", query, constraints, trace=True)
        assert after.result_cache == "miss"  # ... and no write
        assert after.trace_id != traced.trace_id
        untraced = service.query("cm", query, constraints)
        assert untraced.result_cache == "hit"  # plain queries still hit

    def test_sampled_tracing_follows_the_configured_rate(self, cm_graph, workload):
        query, constraints = workload
        config = ServiceConfig(max_workers=1, trace_sample_rate=0.5)
        with TCSMService(config) as svc:
            svc.load_graph("cm", cm_graph)
            results = [
                svc.query("cm", query, constraints, use_result_cache=False)
                for _ in range(4)
            ]
            traced = [r for r in results if r.trace_id is not None]
            assert len(traced) == 2
            assert len(svc.traces) == 2

    def test_trace_metrics_are_metered(self, service, workload):
        query, constraints = workload
        service.query("cm", query, constraints, trace=True)
        snapshot = service.metrics_snapshot()
        counters = snapshot["counters"]
        assert counters["queries_traced"] == 1
        assert snapshot["trace_store_entries"] == 1
        assert any(
            name.startswith("span_seconds.") for name in snapshot["histograms"]
        )

    def test_filter_counters_reach_the_metrics(self, service, workload):
        query, constraints = workload
        service.query("cm", query, constraints)
        counters = service.metrics_snapshot()["counters"]
        considered = {
            name: value for name, value in counters.items()
            if name.startswith("filter_considered.")
        }
        assert considered  # per-filter counters exported
        assert all(value > 0 for value in considered.values())
        assert "filter_considered.ldf" in considered


class TestTraceOp:
    def test_trace_op_lists_and_fetches(self, service, workload):
        query, constraints = workload
        response = service.submit({
            "op": "query", "graph": "cm",
            "pattern": _pattern_dict(workload), "trace": True,
        })
        assert response["status"] == "ok"
        trace_id = response["trace_id"]
        listing = service.submit({"op": "trace"})
        assert listing["status"] == "ok"
        assert trace_id in listing["traces"]
        fetched = service.submit({"op": "trace", "trace_id": trace_id})
        assert fetched["status"] == "ok"
        assert fetched["trace"]["trace_id"] == trace_id
        assert fetched["trace"]["chrome"]["traceEvents"]

    def test_unknown_trace_id_is_an_error_response(self, service):
        response = service.submit({"op": "trace", "trace_id": "trace-nope"})
        assert response["status"] == "error"
        assert "trace-nope" in response["error"]

    def test_untraced_query_response_has_no_trace_id(self, service, workload):
        response = service.submit({
            "op": "query", "graph": "cm",
            "pattern": _pattern_dict(workload), "count_only": True,
        })
        assert response["status"] == "ok"
        assert "trace_id" not in response


def _pattern_dict(workload):
    from repro.graphs import pattern_to_dict

    query, constraints = workload
    return pattern_to_dict(query, constraints)
