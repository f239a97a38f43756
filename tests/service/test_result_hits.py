"""Result-cache hits answered from the request's own pattern.

A JSONL query looks its pattern up by canonical JSON in a bounded memo
of fingerprints, so a hit neither parses the pattern nor rebuilds the
reply: the cache entry holds the reply a hit returns, built once.
These tests pin that a hit's reply is the full path's reply, that the
memo keeps the cache keys semantic and bounded, and that tracing, graph
reloads and malformed patterns behave as they do without it.
"""

import asyncio
import json
import sys
import threading
from dataclasses import replace

import pytest

from repro.datasets import paper_workloads, toy_instance
from repro.graphs import pattern_from_dict, pattern_to_dict
from repro.service import AsyncFrontConfig, AsyncFrontDoor, ServiceConfig, TCSMService
from repro.service import server as server_module

DAY = 86_400
ALGORITHMS = ("tcsm-v2v", "tcsm-e2e", "tcsm-eve")
TIMING = ("build_seconds", "queue_seconds", "match_seconds")

#: The 27 keys of the hot-mix workload: nine (q, tc) patterns at a
#: seven-day gap under each TCSM algorithm.
HOT_KEYS = [
    (f"{qname}-{tname}", pattern_to_dict(query, constraints), algorithm)
    for qname, tname, query, constraints in paper_workloads(gap=7 * DAY)
    for algorithm in ALGORITHMS
]

#: Request shapes whose answers differ: a limit, no limit, counts only
#: and the earliest-first top-k.
VARIANTS = {
    "limit": {"limit": 10},
    "unlimited": {},
    "count-only": {"limit": 10, "count_only": True},
    "earliest": {"limit": 5, "order_by": "earliest"},
    "count-mode": {"mode": "count"},
}


@pytest.fixture()
def service(cm_graph):
    with TCSMService(ServiceConfig(max_workers=2)) as svc:
        svc.load_graph("cm", cm_graph)
        yield svc


def _request(pattern, algorithm="tcsm-eve", **extra):
    request = {"op": "query", "id": 1, "graph": "cm", "pattern": pattern}
    request["algorithm"] = algorithm
    request.update(extra)
    return request


def _untimed(reply):
    """*reply* as the bytes a client reads, timing fields zeroed."""
    return json.dumps({**reply, **{name: 0.0 for name in TIMING if name in reply}})


def _reversed_keys(value):
    """*value* with every object's keys in reverse order."""
    if isinstance(value, dict):
        return {key: _reversed_keys(value[key]) for key in reversed(list(value))}
    if isinstance(value, list):
        return [_reversed_keys(item) for item in value]
    return value


class CountingGets:
    """Wraps ``service.results.get`` by name, as the serving suite does."""

    def __init__(self, service):
        self.calls = 0
        original = service.results.get

        def get(key):
            self.calls += 1
            return original(key)

        service.results.get = get


class TestHitReplies:
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_hit_is_the_full_path_reply(self, cm_graph, service, variant):
        """Byte for byte, apart from the timing fields: the JSONL hit
        equals the stored full-path reply re-tagged as a hit, and the
        same answer rebuilt from a separate service's Python result."""
        extra = VARIANTS[variant]
        with TCSMService(ServiceConfig(max_workers=2)) as fresh:
            fresh.load_graph("cm", cm_graph)
            for _, pattern, algorithm in HOT_KEYS:
                request = _request(pattern, algorithm, **extra)
                miss = service.submit(request)
                hit = service.submit(request)
                assert miss["status"] == "ok", miss
                assert (miss["result_cache"], hit["result_cache"]) == ("miss", "hit")
                assert hit["queue_seconds"] == 0.0
                assert _untimed(hit) == _untimed({**miss, "result_cache": "hit"})
                query, constraints = pattern_from_dict(pattern)
                result = fresh.query(
                    "cm",
                    query,
                    constraints,
                    algorithm=algorithm,
                    limit=extra.get("limit"),
                    collect_matches=not extra.get("count_only", False),
                    order_by=extra.get("order_by"),
                    mode=extra.get("mode"),
                )
                include = "matches" in hit
                assert include == (variant in ("limit", "unlimited", "earliest"))
                expected = {
                    "op": "query",
                    "id": 1,
                    "status": "ok",
                    **replace(result, result_cache="hit", queue_seconds=0.0).to_dict(
                        include_matches=include
                    ),
                }
                assert _untimed(hit) == _untimed(expected)

    def test_api_hit_returns_the_tagged_result(self, service, workload):
        query, constraints = workload
        miss = service.query("cm", query, constraints, limit=10)
        hit = service.query("cm", query, constraints, limit=10)
        assert (miss.result_cache, hit.result_cache) == ("miss", "hit")
        assert hit.queue_seconds == 0.0
        assert hit == replace(miss, result_cache="hit", queue_seconds=0.0)

    def test_first_jsonl_hit_builds_the_reply_once(
        self, service, workload, monkeypatch
    ):
        """No hit rebuilds a reply: the entry's first JSONL hit builds
        it, also for an entry the Python API stored."""
        built = []
        to_dict = server_module.ServiceResult.to_dict

        def counting(result, include_matches=True):
            built.append(result.result_cache)
            return to_dict(result, include_matches)

        monkeypatch.setattr(server_module.ServiceResult, "to_dict", counting)
        query, constraints = workload
        pattern = pattern_to_dict(query, constraints)
        service.query("cm", query, constraints, limit=10)
        replies = [service.submit(_request(pattern, limit=10)) for _ in range(3)]
        assert [r["result_cache"] for r in replies] == ["hit"] * 3
        assert built == ["hit"]
        assert _untimed(replies[2]) == _untimed(replies[0])
        service.submit(_request(pattern, limit=11))  # a miss builds its own
        for _ in range(3):
            service.submit(_request(pattern, limit=11))
        assert built == ["hit", "miss", "hit"]

    def test_one_lookup_per_query(self, service, workload):
        query, constraints = workload
        pattern = pattern_to_dict(query, constraints)
        gets = CountingGets(service)
        for _ in range(3):
            service.submit(_request(pattern, limit=10))
        service.query("cm", query, constraints, limit=10)
        assert gets.calls == 4
        counters = service.metrics_snapshot()["counters"]
        assert counters["result_cache_hits"] == 3
        assert counters["result_cache_misses"] == 1
        assert counters["queries_total"] == 4


class TestParseOnNeed:
    @pytest.fixture()
    def parses(self, monkeypatch):
        calls = []

        def counting(data):
            calls.append(data)
            return pattern_from_dict(data)

        monkeypatch.setattr(server_module, "pattern_from_dict", counting)
        return calls

    def test_hits_and_plan_hits_skip_the_parse(self, service, workload, parses):
        pattern = pattern_to_dict(*workload)
        service.submit(_request(pattern, limit=10))
        assert len(parses) == 1  # the first sight of the pattern
        service.submit(_request(pattern, limit=10))  # result hit
        service.submit(_request(pattern, limit=11))  # result miss, plan hit
        assert len(parses) == 1

    def test_a_plan_miss_parses_a_memoized_pattern_once(self, service, workload, parses):
        pattern = pattern_to_dict(*workload)
        service.submit(_request(pattern, "tcsm-eve", limit=10))
        reply = service.submit(_request(pattern, "tcsm-v2v", limit=10))
        assert reply["plan_cache"] == "miss"
        assert len(parses) == 2

    def test_estimates_parse(self, service, workload, parses):
        pattern = pattern_to_dict(*workload)
        service.submit(_request(pattern, limit=10))
        reply = service.submit(_request(pattern, mode="estimate", probes=20))
        assert reply["status"] == "ok" and "estimate" in reply
        assert len(parses) == 2


class TestMemo:
    def test_two_spellings_share_one_plan_and_one_entry(self, service, workload):
        pattern = pattern_to_dict(*workload)
        assert all(isinstance(c["gap"], int) for c in pattern["constraints"])
        respelled = _reversed_keys(pattern)
        respelled["constraints"] = [
            dict(c, gap=float(c["gap"])) for c in respelled["constraints"]
        ]
        first = service.submit(_request(pattern, limit=10))
        second = service.submit(_request(respelled, limit=10))
        assert (first["result_cache"], second["result_cache"]) == ("miss", "hit")
        assert _untimed(second) == _untimed({**first, "result_cache": "hit"})
        assert len(service.plans) == 1
        assert len(service.results) == 1
        assert len(service._patterns) == 2  # one entry per spelling

    def test_key_order_alone_shares_one_memo_entry(self, service, workload):
        pattern = pattern_to_dict(*workload)
        service.submit(_request(pattern, limit=10))
        reply = service.submit(_request(_reversed_keys(pattern), limit=10))
        assert reply["result_cache"] == "hit"
        assert len(service._patterns) == 1

    def test_malformed_pattern_keeps_its_error_and_is_not_memoized(self, service):
        bad = {"vertices": [{"label": 0}, {"label": 1}], "edges": [{"source": 0}]}
        replies = [service.submit(_request(bad, limit=10)) for _ in range(2)]
        for reply in replies:
            assert reply["status"] == "error"
            assert reply["error"] == "each edge needs integer 'source' and 'target'"
        assert len(service._patterns) == 0
        assert service.submit(_request("not a pattern"))["error"] == (
            "pattern must be an object, got str"
        )
        assert len(service._patterns) == 0

    def test_non_json_pattern_data_is_parsed_every_time(self, service, workload):
        """A Python caller's pattern with no JSON form skips the memo."""
        pattern = pattern_to_dict(*workload)
        pattern["note"] = object()
        first = service.submit(_request(pattern, limit=10))
        second = service.submit(_request(pattern, limit=10))
        assert (first["result_cache"], second["result_cache"]) == ("miss", "hit")
        assert len(service._patterns) == 0

    def test_memo_is_bounded_by_the_result_cache_size(self):
        query, constraints, graph, _, _ = toy_instance()
        pattern = pattern_to_dict(query, constraints)
        size = 16
        config = ServiceConfig(result_cache_size=size, plan_cache_size=4)
        with TCSMService(config) as service:
            service.load_graph("toy", graph)
            peak = 0
            for gap in range(1000):
                varied = dict(
                    pattern,
                    constraints=[dict(c, gap=gap) for c in pattern["constraints"]],
                )
                reply = service.submit(
                    {"op": "query", "graph": "toy", "pattern": varied, "limit": 1}
                )
                assert reply["status"] == "ok", reply
                peak = max(peak, len(service._patterns))
            assert peak == size
            assert len(service.results) == size


class TestUnchangedBehaviour:
    def test_reload_serves_no_stale_hit(self, service, cm_graph, workload):
        pattern = pattern_to_dict(*workload)
        service.submit(_request(pattern, limit=10))
        assert service.submit(_request(pattern, limit=10))["result_cache"] == "hit"
        handle = service.load_graph("cm", cm_graph)
        reply = service.submit(_request(pattern, limit=10))
        assert reply["result_cache"] == "miss"
        assert reply["graph_version"] == handle.version

    def test_reload_with_other_edges_answers_from_the_new_graph(self, service):
        query, constraints, graph, _, _ = toy_instance()
        pattern = pattern_to_dict(query, constraints)
        service.load_graph("g", graph)
        request = {"op": "query", "graph": "g", "pattern": pattern}
        assert service.submit(request)["match_count"] > 0
        service.submit(request)
        empty = type(graph)(list(graph.labels))
        service.load_graph("g", empty)
        reply = service.submit(request)
        assert (reply["result_cache"], reply["match_count"]) == ("miss", 0)

    def test_trace_bypasses_the_cache(self, service, workload):
        pattern = pattern_to_dict(*workload)
        service.submit(_request(pattern, limit=10))
        gets = CountingGets(service)
        traced = service.submit(_request(pattern, limit=10, trace=True))
        assert traced["result_cache"] == "miss" and "trace_id" in traced
        assert gets.calls == 0
        assert service.submit(_request(pattern, limit=10))["result_cache"] == "hit"
        assert gets.calls == 1

    def test_sampled_traces_bypass_the_cache(self, cm_graph, workload):
        pattern = pattern_to_dict(*workload)
        with TCSMService(ServiceConfig(trace_sample_rate=1.0)) as service:
            service.load_graph("cm", cm_graph)
            for _ in range(2):
                reply = service.submit(_request(pattern, limit=10))
                assert reply["result_cache"] == "miss" and "trace_id" in reply
            assert len(service.results) == 0

    def test_concurrent_hits_under_the_sanitizer(self, service, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        # Each of the nine patterns, under a rotating algorithm.
        keys = [HOT_KEYS[3 * i + i % 3] for i in range(9)]
        requests = [_request(p, a, limit=10) for _, p, a in keys]
        expected = [service.submit(r) for r in requests]
        errors = []
        barrier = threading.Barrier(8)

        def client(offset):
            try:
                barrier.wait()
                for i in range(60):
                    k = (i + offset) % len(requests)
                    reply = service.submit(_reversed_keys(requests[k]))
                    assert reply["result_cache"] == "hit", reply
                    assert _untimed(reply) == _untimed(
                        {**expected[k], "result_cache": "hit"}
                    )
            except BaseException as exc:  # reported on the main thread
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(n,)) for n in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[0]
        counters = service.metrics_snapshot()["counters"]
        assert counters["result_cache_hits"] == 8 * 60
        assert counters["queries_total"] == len(requests) + 8 * 60
        assert len(service._patterns) == len(requests)  # key order is not a spelling
        assert service.inflight == 0


class TestBadRequestsInABatch:
    def test_bad_requests_fail_alone(self, service, workload):
        """A non-string algorithm and a short ingest edge get error
        envelopes; the well-formed queries batched with them get answers."""
        pattern = pattern_to_dict(*workload)
        requests = [
            _request(pattern, limit=5, id="good-1"),
            _request(pattern, algorithm=5, id="bad-algorithm"),
            _request(pattern, limit=6, id="good-2"),
            {"op": "ingest", "graph": "cm", "edges": [[1, 2]], "id": "bad-ingest"},
            _request(pattern, limit=7, id="good-3"),
        ]

        async def scenario():
            config = AsyncFrontConfig(workers=1, max_batch=8)
            async with AsyncFrontDoor(service, config) as front:
                replies = await asyncio.gather(*(front.submit(r) for r in requests))
                return replies, front.stats_snapshot()["batches"]

        replies, batches = asyncio.run(scenario())
        assert batches == 1
        by_id = {reply["id"]: reply for reply in replies}
        for name in ("good-1", "good-2", "good-3"):
            assert by_id[name]["status"] == "ok", by_id[name]
        assert by_id["bad-algorithm"]["status"] == "error"
        assert "unknown algorithm" in by_id["bad-algorithm"]["error"]
        bad_ingest = by_id["bad-ingest"]
        assert bad_ingest["status"] == "error"
        assert "edge 1 of the batch; the 0 new edges before it were applied" in (
            bad_ingest["error"]
        )

    def test_infinite_numbers_are_bad_requests(self, service, workload):
        """``json.loads`` reads ``Infinity``; an integer field holding it
        gets an error envelope instead of an ``OverflowError``."""
        pattern = json.dumps(pattern_to_dict(*workload))
        query = json.loads(
            '{"op": "query", "graph": "cm", "limit": Infinity, "pattern": %s}'
            % pattern
        )
        reply = service.submit(query)
        assert reply["status"] == "error"
        assert "OverflowError" in reply["error"]
        ingest = json.loads(
            '{"op": "ingest", "graph": "cm", "edges": [[Infinity, 1, 2]]}'
        )
        reply = service.submit(ingest)
        assert reply["status"] == "error"
        assert reply["error"].startswith("malformed edge [inf, 1, 2]")
