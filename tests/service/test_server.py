"""End-to-end tests for TCSMService and the JSONL stdio server."""

import io
import json

import pytest

from repro.errors import (
    AdmissionError,
    UnknownAlgorithmError,
    UnknownGraphError,
)
from repro.graphs import pattern_to_dict, save_snap_temporal
from repro.service import ServiceConfig, TCSMService, serve_stdio


@pytest.fixture()
def service(cm_graph):
    with TCSMService(ServiceConfig(max_workers=2)) as svc:
        svc.load_graph("cm", cm_graph)
        yield svc


class TestQueryPath:
    def test_cold_query_misses_both_caches(self, service, workload):
        query, constraints = workload
        result = service.query("cm", query, constraints)
        assert result.plan_cache == "miss"
        assert result.result_cache == "miss"
        assert result.algorithm == "tcsm-eve"
        assert result.match_count == len(result.matches)
        assert result.build_seconds > 0.0

    def test_repeat_query_hits_result_cache(self, service, workload):
        query, constraints = workload
        cold = service.query("cm", query, constraints)
        warm = service.query("cm", query, constraints)
        assert warm.result_cache == "hit"
        assert warm.matches == cold.matches
        assert service.metrics.counter("result_cache_hits") == 1

    def test_result_cache_bypass_still_hits_plan_cache(
        self, service, workload
    ):
        query, constraints = workload
        cold = service.query("cm", query, constraints, use_result_cache=False)
        warm = service.query("cm", query, constraints, use_result_cache=False)
        assert cold.plan_cache == "miss"
        assert warm.plan_cache == "hit"
        assert warm.result_cache == "bypass"
        assert warm.build_seconds == 0.0
        assert warm.matches == cold.matches

    def test_unknown_graph_raises(self, service, workload):
        query, constraints = workload
        with pytest.raises(UnknownGraphError, match="cm"):
            service.query("ghost", query, constraints)

    def test_unknown_algorithm_raises(self, service, workload):
        query, constraints = workload
        with pytest.raises(UnknownAlgorithmError):
            service.query("cm", query, constraints, algorithm="nope")

    def test_zero_budget_times_out_and_is_not_cached(
        self, service, workload
    ):
        query, constraints = workload
        timed = service.query("cm", query, constraints, time_budget=0.0)
        assert timed.timed_out
        assert not timed.truncated
        after = service.query("cm", query, constraints, time_budget=0.0)
        assert after.result_cache == "miss"  # partial results never cached
        assert service.metrics.counter("queries_timed_out") == 2

    def test_match_limit_marks_truncated(self, service, workload):
        query, constraints = workload
        result = service.query("cm", query, constraints, limit=1)
        assert result.truncated
        assert not result.timed_out
        assert result.match_count == 1

    def test_count_only_skips_match_payloads(self, service, workload):
        query, constraints = workload
        counted = service.query(
            "cm", query, constraints, collect_matches=False
        )
        full = service.query("cm", query, constraints)
        assert counted.matches == ()
        assert counted.match_count == full.match_count

    def test_partitioned_query_agrees_with_solo(
        self, service, cm_graph, workload
    ):
        query, constraints = workload
        solo = service.query(
            "cm", query, constraints, workers=1, use_result_cache=False
        )
        config = ServiceConfig(max_workers=2, pool="process")
        with TCSMService(config) as process_service:
            process_service.load_graph("cm", cm_graph)
            fanned = process_service.query(
                "cm", query, constraints, workers=2, use_result_cache=False
            )
        assert fanned.partitions == 2
        assert sorted(fanned.matches) == sorted(solo.matches)


class TestGraphLifecycle:
    def test_reload_bumps_version_and_invalidates_results(
        self, service, cm_graph, workload
    ):
        query, constraints = workload
        before = service.query("cm", query, constraints)
        service.load_graph("cm", cm_graph)
        after = service.query("cm", query, constraints)
        assert after.graph_version == before.graph_version + 1
        assert after.result_cache == "miss"

    def test_drop_graph_unregisters_and_evicts(self, service, workload):
        query, constraints = workload
        service.query("cm", query, constraints)
        service.drop_graph("cm")
        assert len(service.results) == 0
        assert len(service.plans) == 0
        with pytest.raises(UnknownGraphError):
            service.query("cm", query, constraints)

    def test_load_graph_file(self, cm_graph, tmp_path, workload):
        path = tmp_path / "cm.txt"
        save_snap_temporal(cm_graph, path)
        query, constraints = workload
        with TCSMService() as svc:
            handle = svc.load_graph_file("disk", str(path))
            assert handle.version == 1
            result = svc.query("disk", query, constraints)
        assert result.graph == "disk"


class TestAdmissionControl:
    def test_zero_inflight_rejects_everything(self, cm_graph, workload):
        query, constraints = workload
        with TCSMService(ServiceConfig(max_inflight=0)) as svc:
            svc.load_graph("cm", cm_graph)
            with pytest.raises(AdmissionError, match="in-flight"):
                svc.query("cm", query, constraints)
            assert svc.metrics.counter("queries_rejected") == 1
            assert svc.inflight == 0

    def test_inflight_released_after_errors(self, service, workload):
        query, constraints = workload
        with pytest.raises(UnknownGraphError):
            service.query("ghost", query, constraints)
        assert service.inflight == 0


class TestPlanKnob:
    def test_cost_plan_returns_the_same_matches(self, service, workload):
        query, constraints = workload
        paper = service.query("cm", query, constraints)
        cost = service.query("cm", query, constraints, plan="cost")
        assert sorted(cost.matches) == sorted(paper.matches)
        assert cost.match_count == paper.match_count

    def test_plans_cache_separately(self, service, workload):
        query, constraints = workload
        service.query("cm", query, constraints, use_result_cache=False)
        cold_cost = service.query(
            "cm", query, constraints, plan="cost", use_result_cache=False
        )
        warm_cost = service.query(
            "cm", query, constraints, plan="cost", use_result_cache=False
        )
        # The cost plan is keyed apart from the paper plan it rode after,
        # and hits its own entry on repeat.
        assert cold_cost.plan_cache == "miss"
        assert warm_cost.plan_cache == "hit"
        assert len(service.plans) == 2

    def test_unknown_plan_is_an_error_response(self, service, workload):
        query, constraints = workload
        response = service.submit(
            {
                "op": "query",
                "graph": "cm",
                "pattern": pattern_to_dict(query, constraints),
                "plan": "bogus",
            }
        )
        assert response["status"] == "error"
        assert "unknown plan" in response["error"]

    def test_plan_request_key_round_trips(self, service, workload):
        query, constraints = workload
        response = service.submit(
            {
                "op": "query",
                "graph": "cm",
                "pattern": pattern_to_dict(query, constraints),
                "plan": "cost",
                "count_only": True,
            }
        )
        assert response["status"] == "ok"
        assert response["match_count"] >= 0

    def test_timestamp_counters_metered(self, service, workload):
        query, constraints = workload
        service.query("cm", query, constraints)
        counters = service.metrics_snapshot()["counters"]
        assert "timestamps_expanded" in counters
        assert "timestamps_skipped" in counters


class TestMetricsSnapshot:
    def test_snapshot_shape(self, service, workload):
        query, constraints = workload
        service.query("cm", query, constraints)
        service.query("cm", query, constraints)
        snap = service.metrics_snapshot()
        assert snap["counters"]["queries_total"] == 2
        assert "tcsm-eve" in snap["qps"]
        assert snap["qps"]["tcsm-eve"] > 0.0
        assert snap["graphs"][0]["name"] == "cm"
        assert snap["plan_cache_entries"] == 1
        assert snap["result_cache_entries"] == 1
        assert snap["inflight"] == 0
        assert "match_seconds" in snap["histograms"]


class TestSubmit:
    def _query_request(self, workload, **extra):
        query, constraints = workload
        return {
            "op": "query",
            "graph": "cm",
            "pattern": pattern_to_dict(query, constraints),
            **extra,
        }

    def test_query_request_round_trip(self, service, workload):
        response = service.submit(
            self._query_request(workload, id="q-1", limit=2)
        )
        assert response["status"] == "ok"
        assert response["id"] == "q-1"
        assert response["op"] == "query"
        assert response["match_count"] <= 2
        assert all(
            set(m) == {"vertices", "edges"} for m in response["matches"]
        )

    def test_count_only_request_omits_matches(self, service, workload):
        response = service.submit(
            self._query_request(workload, count_only=True)
        )
        assert response["status"] == "ok"
        assert "matches" not in response
        assert response["match_count"] >= 0

    def test_pattern_path_request(self, service, workload, tmp_path):
        from repro.graphs import save_pattern

        query, constraints = workload
        path = tmp_path / "pattern.json"
        save_pattern(query, constraints, path)
        response = service.submit(
            {"op": "query", "graph": "cm", "pattern_path": str(path)}
        )
        assert response["status"] == "ok"

    def test_query_without_pattern_is_bad_request(self, service):
        response = service.submit({"op": "query", "graph": "cm"})
        assert response["status"] == "error"
        assert "pattern" in response["error"]

    def test_unknown_graph_is_error_not_crash(self, service, workload):
        response = service.submit(
            {**self._query_request(workload), "graph": "ghost"}
        )
        assert response["status"] == "error"
        assert "unknown graph" in response["error"]

    def test_rejected_when_overloaded(self, cm_graph, workload):
        with TCSMService(ServiceConfig(max_inflight=0)) as svc:
            svc.load_graph("cm", cm_graph)
            response = svc.submit(self._query_request(workload))
        assert response["status"] == "rejected"

    def test_unknown_op_is_bad_request(self, service):
        response = service.submit({"op": "explode", "id": 7})
        assert response["status"] == "error"
        assert response["id"] == 7

    def test_ping_graphs_metrics_ops(self, service):
        assert service.submit({"op": "ping"})["pong"] is True
        graphs = service.submit({"op": "graphs"})["graphs"]
        assert graphs[0]["name"] == "cm"
        assert "counters" in service.submit({"op": "metrics"})["metrics"]

    def test_load_and_drop_graph_ops(self, service, cm_graph, tmp_path):
        path = tmp_path / "g.txt"
        save_snap_temporal(cm_graph, path)
        loaded = service.submit(
            {"op": "load_graph", "name": "disk", "path": str(path)}
        )
        assert loaded["status"] == "ok"
        assert loaded["graph"]["name"] == "disk"
        dropped = service.submit({"op": "drop_graph", "name": "disk"})
        assert dropped["status"] == "ok"
        assert "disk" not in service.graphs.names()


class TestServeStdio:
    def test_serves_until_shutdown(self, service, workload):
        query, constraints = workload
        lines = [
            json.dumps({"op": "ping", "id": 1}),
            "",  # blank lines are skipped, not answered
            "not json at all",
            json.dumps({"op": "query", "graph": "cm",
                        "pattern": pattern_to_dict(query, constraints),
                        "count_only": True}),
            json.dumps({"op": "shutdown"}),
            json.dumps({"op": "ping", "id": "after"}),  # never reached
        ]
        out = io.StringIO()
        served = serve_stdio(service, io.StringIO("\n".join(lines)), out)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert served == 4
        assert len(responses) == 4
        assert responses[0] == {"op": "ping", "id": 1, "status": "ok",
                                "pong": True}
        assert responses[1]["status"] == "error"
        assert "invalid request line" in responses[1]["error"]
        assert responses[2]["status"] == "ok"
        assert responses[3] == {"op": "shutdown", "status": "ok"}

    def test_non_object_request_is_error(self, service):
        out = io.StringIO()
        serve_stdio(service, io.StringIO('[1, 2, 3]\n'), out)
        response = json.loads(out.getvalue())
        assert response["status"] == "error"

    def test_eof_without_shutdown_returns(self, service):
        out = io.StringIO()
        served = serve_stdio(
            service, io.StringIO(json.dumps({"op": "ping"}) + "\n"), out
        )
        assert served == 1
