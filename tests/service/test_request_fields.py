"""Typed request fields: NaN time budgets and non-boolean flags are
rejected at every entry, with the same answer on both pools.

* A NaN budget would mean "no deadline" in-process and "already
  expired" in the process pool, so the service, its config, the core
  options and subscriptions all refuse it.  ``inf`` still means
  unbounded and a negative budget still means already expired.
* A boolean request field is a JSON boolean, or absent or null; the
  string ``"false"`` is not false.
* A count (``limit``, ``workers``, ``max``, ...) is a JSON integer and a
  budget in seconds a JSON number, or absent or null; ``1.9``, ``true``
  and ``"1"`` are errors, not a limit of 1.
"""

import io
import json
import math

import pytest

from repro.core import MatchOptions, find_matches
from repro.datasets import paper_constraints, paper_query
from repro.errors import AlgorithmError, StreamingError
from repro.graphs import pattern_to_dict
from repro.service import ServiceConfig, TCSMService, serve_stdio
from repro.streaming import SubscriptionOptions

POOLS = ("thread", "process")


@pytest.fixture(scope="module")
def pattern():
    """Paper q1 under tc2 with a 7-day gap."""
    query = paper_query(1)
    return query, paper_constraints(2, num_edges=query.num_edges)


@pytest.fixture(params=POOLS)
def service(request, cm_graph):
    config = ServiceConfig(pool=request.param, max_workers=2)
    with TCSMService(config) as svc:
        svc.load_graph("cm", cm_graph)
        yield svc


def _query(pattern, **extra):
    request = {
        "op": "query",
        "graph": "cm",
        "pattern": pattern_to_dict(*pattern),
        "count_only": True,
        "workers": 2,
    }
    request.update(extra)
    return request


def _assert_bad_request(reply, field):
    assert reply["status"] == "error", reply
    assert field in reply["error"]
    assert "match_count" not in reply


class TestNaNBudget:
    def test_jsonl_nan_budget_is_an_error(self, service, pattern):
        reply = service.submit(_query(pattern, time_budget=math.nan))
        _assert_bad_request(reply, "time_budget")

    def test_serve_parses_nan_and_rejects_it(self, service, pattern):
        line = json.dumps(_query(pattern, time_budget=math.nan))
        assert "NaN" in line
        out = io.StringIO()
        serve_stdio(service, io.StringIO(line + "\n"), out)
        (reply,) = [json.loads(s) for s in out.getvalue().splitlines()]
        _assert_bad_request(reply, "time_budget")

    def test_query_nan_budget_raises(self, service, pattern):
        with pytest.raises(AlgorithmError, match="NaN"):
            service.query("cm", *pattern, time_budget=math.nan)

    def test_inf_is_unbounded_and_negative_is_expired(self, service, pattern):
        # Expired first: a complete answer would be a result-cache hit.
        expired = service.submit(_query(pattern, time_budget=-1.0))
        assert expired["status"] == "ok", expired
        assert expired["match_count"] == 0
        assert expired["timed_out"] is True
        unbounded = service.submit(_query(pattern, time_budget=math.inf))
        assert unbounded["status"] == "ok", unbounded
        assert unbounded["result_cache"] == "miss"
        assert unbounded["match_count"] > 0
        assert unbounded["timed_out"] is False

    def test_config_default_nan_is_rejected(self):
        with pytest.raises(AlgorithmError, match="default_time_budget"):
            ServiceConfig(default_time_budget=math.nan)
        assert ServiceConfig(default_time_budget=math.inf)

    def test_match_options_nan_is_rejected(self, cm_graph, pattern):
        with pytest.raises(AlgorithmError, match="NaN"):
            MatchOptions(time_budget=math.nan)
        expired = find_matches(
            *pattern, cm_graph, options=MatchOptions(time_budget=0.0)
        )
        assert expired.timed_out

    def test_subscription_nan_budget_is_rejected(self, service, pattern):
        with pytest.raises(StreamingError, match="positive"):
            SubscriptionOptions(search_budget=math.nan)
        reply = service.submit(
            {
                "op": "subscribe",
                "graph": "cm",
                "pattern": pattern_to_dict(*pattern),
                "search_budget": math.nan,
            }
        )
        _assert_bad_request(reply, "search_budget")


class TestBooleanFields:
    @pytest.mark.parametrize("field", ["count_only", "trace"])
    @pytest.mark.parametrize("value", ["false", "true", 0, 1, [], {}])
    def test_query_flag_must_be_a_boolean(self, service, pattern, field,
                                          value):
        reply = service.submit(_query(pattern, **{field: value}))
        _assert_bad_request(reply, field)

    def test_ingest_trace_must_be_a_boolean(self, service):
        reply = service.submit(
            {"op": "ingest", "graph": "cm", "edges": [], "trace": "false"}
        )
        _assert_bad_request(reply, "trace")

    def test_absent_null_and_false_agree(self, service, pattern):
        replies = [
            service.submit(_query(pattern, count_only=False, **extra))
            for extra in ({}, {"trace": None}, {"trace": False})
        ]
        assert [r["status"] for r in replies] == ["ok"] * 3
        assert [r["result_cache"] for r in replies] == ["miss", "hit", "hit"]
        assert "trace_id" not in replies[-1]
        assert len({len(r["matches"]) for r in replies}) == 1
        listed = service.submit(_query(pattern, count_only=None))
        assert "matches" in listed
        traced = service.submit(_query(pattern, trace=True))
        assert "trace_id" in traced
        assert "matches" not in traced


class TestNumericFields:
    """A count is a JSON integer and a budget a JSON number; neither is
    a boolean or a string, and nothing is rounded."""

    @pytest.mark.parametrize(
        "field, values",
        [
            ("limit", [1.9, 1.0, True, "1"]),
            ("workers", [1.5, False, "2"]),
            ("time_budget", [True, "1", [1]]),
        ],
    )
    def test_query_field_must_be_typed(self, service, pattern, field, values):
        for value in values:
            reply = service.submit(_query(pattern, **{field: value}))
            _assert_bad_request(reply, field)

    @pytest.mark.parametrize("field", ["probes", "seed"])
    def test_estimate_field_must_be_an_integer(self, service, pattern, field):
        for value in (2.5, True, "7"):
            reply = service.submit(
                _query(pattern, mode="estimate", **{field: value})
            )
            _assert_bad_request(reply, field)
        reply = service.submit(_query(pattern, mode="estimate", **{field: 7}))
        assert reply["status"] == "ok", reply

    def test_integers_null_and_absent_keep_their_meaning(self, service,
                                                         pattern):
        full = service.submit(_query(pattern))
        assert full["match_count"] > 1
        one = service.submit(_query(pattern, limit=1, time_budget=30))
        assert (one["match_count"], one["truncated_by_limit"]) == (1, True)
        for extra in ({"limit": None}, {"time_budget": None}, {"workers": None}):
            reply = service.submit(_query(pattern, **extra))
            assert reply["status"] == "ok", reply
            assert reply["match_count"] == full["match_count"]
            assert reply["truncated_by_limit"] is False

    def test_stream_fields_must_be_typed(self, service, pattern):
        subscribe = {
            "op": "subscribe",
            "graph": "cm",
            "pattern": pattern_to_dict(*pattern),
        }
        for field, value in (
            ("queue_capacity", 2.7),
            ("queue_capacity", True),
            ("lateness", 1.5),
            ("search_budget", "1"),
            ("search_budget", False),
        ):
            reply = service.submit({**subscribe, field: value})
            _assert_bad_request(reply, field)
        ok = service.submit(
            {**subscribe, "queue_capacity": 4, "lateness": None,
             "search_budget": 1}
        )
        assert ok["status"] == "ok", ok
        sub_id = ok["subscription"]["id"]
        for value in (True, 1.5, "1"):
            reply = service.submit(
                {"op": "poll", "subscription_id": sub_id, "max": value}
            )
            _assert_bad_request(reply, "max")
        polled = service.submit(
            {"op": "poll", "subscription_id": sub_id, "max": 1}
        )
        assert polled["status"] == "ok", polled

    def test_load_graph_fields_must_be_integers(self, service, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1 5\n1 2 9\n")
        load = {"op": "load_graph", "name": "tiny", "path": str(path)}
        for field, value in (("num_labels", 2.5), ("seed", True)):
            reply = service.submit({**load, field: value})
            _assert_bad_request(reply, field)
        assert service.submit({"op": "graphs"})["graphs"][-1]["name"] == "cm"
        loaded = service.submit({**load, "num_labels": 2, "seed": None})
        assert loaded["status"] == "ok", loaded
        assert loaded["graph"]["name"] == "tiny"
