"""Streaming through TCSMService: JSONL ops, metrics, and lifecycle.

The service face of the streaming subsystem: ``subscribe`` / ``ingest``
/ ``poll`` / ``unsubscribe`` requests, per-graph engine creation seeded
zero-copy from the registered snapshot, service-wide subscription ids,
metric counters, and trace retention for ingest batches.
"""

import io
import json
from collections import Counter

import pytest

from repro.core import find_matches
from repro.datasets import random_instance
from repro.errors import (
    StreamingError,
    UnknownGraphError,
    UnknownSubscriptionError,
)
from repro.graphs import (
    QueryGraph,
    TemporalConstraints,
    TemporalGraph,
    pattern_to_dict,
)
from repro.service import ServiceConfig, TCSMService, serve_stdio
from repro.streaming import SubscriptionOptions

INSTANCE = dict(
    query_vertices=3,
    query_edges=3,
    num_constraints=2,
    max_gap=25,
    data_vertices=8,
    data_edges=150,
    num_labels=2,
    max_time=40,
)


@pytest.fixture()
def instance():
    return random_instance(seed=2, **INSTANCE)


@pytest.fixture()
def service(instance):
    _, _, graph = instance
    with TCSMService(ServiceConfig(max_workers=2)) as svc:
        svc.load_graph("g", graph)
        yield svc


def _split(graph, keep=0.6):
    edges = list(graph.edges_by_time())
    cut = int(len(edges) * keep)
    return edges[:cut], edges[cut:]


@pytest.fixture()
def base_service(instance):
    """Service seeded with only the first 60% of the instance's edges,
    so ingesting the rest produces genuinely new edges and emissions."""
    _, _, graph = instance
    base_edges, live_edges = _split(graph)
    base = graph.__class__(graph.labels)
    for u, v, t in base_edges:
        base.add_edge(u, v, t)
    with TCSMService(ServiceConfig(max_workers=2)) as svc:
        svc.load_graph("g", base)
        yield svc, live_edges


class TestPythonApi:
    def test_subscribe_ingest_poll_roundtrip(self, instance):
        query, constraints, graph = instance
        base_edges, live_edges = _split(graph)
        base = graph.__class__(graph.labels)
        for u, v, t in base_edges:
            base.add_edge(u, v, t)
        with TCSMService(ServiceConfig(max_workers=2)) as svc:
            svc.load_graph("g", base)
            sub = svc.stream_subscribe("g", query, constraints)
            assert sub.id == "s1"
            report, trace_id = svc.stream_ingest("g", live_edges)
            assert report.new_edges == len(live_edges)
            assert trace_id is None
            emissions = svc.stream_poll(sub.id)
            assert len(emissions) == report.emitted
            # The engine's graph now holds base + live: emissions since
            # subscribe == one-shot matches completed by live edges.
            live = set(live_edges)
            want = [
                m
                for m in find_matches(
                    query, constraints, graph
                ).matches
                if any(tuple(e) in live for e in m.edge_map)
            ]
            assert Counter(e.match for e in emissions) == Counter(want)
            final = svc.stream_unsubscribe(sub.id)
            assert final.matches_emitted == report.emitted

    def test_engine_seeded_zero_copy_from_snapshot(
        self, service, instance
    ):
        query, constraints, _ = instance
        handle = service.graphs.get("g")
        sub = service.stream_subscribe("g", query, constraints)
        engine = service._engine_for_subscription(sub.id)
        # No recompilation on stream creation: the registered snapshot
        # IS the engine graph's first segment.
        assert engine.graph.freeze() is handle.snapshot

    def test_subscription_ids_unique_across_graphs(
        self, service, instance
    ):
        query, constraints, graph = instance
        service.load_graph("h", graph)
        a = service.stream_subscribe("g", query, constraints)
        b = service.stream_subscribe("h", query, constraints)
        assert a.id != b.id
        with pytest.raises(StreamingError):
            service.stream_subscribe("g", query, constraints, sub_id=b.id)

    def test_unknown_graph_and_subscription(self, service, instance):
        query, constraints, _ = instance
        with pytest.raises(UnknownGraphError):
            service.stream_subscribe("ghost", query, constraints)
        with pytest.raises(UnknownSubscriptionError):
            service.stream_poll("s99")

    def test_drop_graph_closes_streams(self, service, instance):
        query, constraints, _ = instance
        sub = service.stream_subscribe("g", query, constraints)
        service.drop_graph("g")
        with pytest.raises(UnknownSubscriptionError):
            service.stream_poll(sub.id)

    def test_replacing_a_graph_closes_its_streams(self):
        query = QueryGraph(["A", "B"], [(0, 1)])
        constraints = TemporalConstraints([], num_edges=1)
        old = TemporalGraph(["A", "B", "A", "B"])
        old.add_edge(2, 3, 1)
        with TCSMService(ServiceConfig(max_workers=2)) as service:
            service.load_graph("g", old)
            stale = service.stream_subscribe("g", query, constraints)
            report, _ = service.stream_ingest("g", [(0, 1, 5)])
            assert report.emitted == 1
            # Vertex 0 is now a B: an A->B edge can no longer start there.
            service.load_graph("g", TemporalGraph(["B", "A"]))
            with pytest.raises(UnknownSubscriptionError):
                service.stream_poll(stale.id)
            fresh = service.stream_subscribe("g", query, constraints)
            report, _ = service.stream_ingest("g", [(0, 1, 7), (1, 0, 8)])
            assert (report.new_edges, report.emitted) == (2, 1)
            (emission,) = service.stream_poll(fresh.id)
            assert emission.match.vertex_map == (1, 0)

    def test_options_forwarded(self, service, instance):
        query, constraints, graph = instance
        sub = service.stream_subscribe(
            "g",
            query,
            constraints,
            SubscriptionOptions(queue_capacity=2, lateness=5),
        )
        engine = service._engine_for_subscription(sub.id)
        assert engine.subscription(sub.id).options.queue_capacity == 2

    def test_metrics_and_traces(self, base_service, instance):
        query, constraints, _ = instance
        service, live_edges = base_service
        sub = service.stream_subscribe("g", query, constraints)
        report, trace_id = service.stream_ingest(
            "g", live_edges, trace=True
        )
        assert report.emitted > 0
        assert trace_id is not None
        assert service.traces.get(trace_id) is not None
        service.stream_poll(sub.id)
        snapshot = service.metrics_snapshot()
        streaming = snapshot["streaming"]["g"]
        assert streaming["edges_ingested"] == report.new_edges
        rows = {row["id"]: row for row in streaming["subscriptions"]}
        assert rows[sub.id]["matches_emitted"] == report.emitted
        counters = snapshot["counters"]
        assert counters["subscriptions_total"] == 1
        assert counters["ingest_edges_total"] == report.new_edges
        assert counters.get("stream_matches_total", 0) == report.emitted


class TestJsonlOps:
    def _serve(self, service, requests):
        out = io.StringIO()
        serve_stdio(
            service,
            io.StringIO("".join(json.dumps(r) + "\n" for r in requests)),
            out,
        )
        return [json.loads(line) for line in out.getvalue().splitlines()]

    def test_full_streaming_session(self, base_service, instance):
        query, constraints, _ = instance
        service, live_edges = base_service
        pattern = pattern_to_dict(query, constraints)
        responses = self._serve(service, [
            {"op": "subscribe", "graph": "g", "pattern": pattern,
             "queue_capacity": 4096, "id": "r1"},
            {"op": "ingest", "graph": "g",
             "edges": [list(e) for e in live_edges], "id": "r2"},
            {"op": "poll", "subscription_id": "s1", "max": 2, "id": "r3"},
            {"op": "poll", "subscription_id": "s1", "id": "r4"},
            {"op": "metrics", "id": "r5"},
            {"op": "unsubscribe", "subscription_id": "s1", "id": "r6"},
        ])
        by_id = {r["id"]: r for r in responses}
        assert all(r["status"] == "ok" for r in responses)
        assert by_id["r1"]["subscription"]["id"] == "s1"
        emitted = by_id["r2"]["report"]["emitted"]
        assert emitted > 0
        assert by_id["r3"]["count"] == 2
        assert by_id["r4"]["count"] == emitted - 2
        emission = by_id["r3"]["emissions"][0]
        assert set(emission) >= {
            "subscription_id", "seq", "vertices", "edges", "edge",
            "latency_seconds",
        }
        assert "g" in by_id["r5"]["metrics"]["streaming"]
        assert by_id["r6"]["subscription"]["matches_emitted"] == emitted

    def test_streaming_errors_are_reported(self, service):
        responses = self._serve(service, [
            {"op": "subscribe", "graph": "g", "id": "no-pattern"},
            {"op": "ingest", "graph": "g", "id": "no-edges"},
            {"op": "poll", "subscription_id": "nope", "id": "bad-sub"},
        ])
        by_id = {r["id"]: r for r in responses}
        assert by_id["no-pattern"]["status"] == "error"
        assert "pattern" in by_id["no-pattern"]["error"]
        assert by_id["no-edges"]["status"] == "error"
        assert "edges" in by_id["no-edges"]["error"]
        assert by_id["bad-sub"]["status"] == "error"
        assert "nope" in by_id["bad-sub"]["error"]
