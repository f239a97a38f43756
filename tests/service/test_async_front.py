"""The asyncio front door: fairness, backpressure, ordered JSONL."""

import asyncio
import io
import json
import threading
import time

import pytest

from repro.datasets import random_instance
from repro.errors import ServiceError
from repro.graphs import TemporalGraph, pattern_to_dict
from repro.service import (
    AsyncFrontConfig,
    AsyncFrontDoor,
    ServiceConfig,
    TCSMService,
    serve_stdio,
    serve_stdio_async,
)


class GatedService:
    """submit() blocks until released; records processing order."""

    def __init__(self):
        self.gate = threading.Event()
        self.order = []

    def submit(self, request):
        self.gate.wait(10)
        self.order.append(request.get("tenant", "default"))
        return {"op": request.get("op", "query"), "status": "ok"}


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_queue_depth": 0},
            {"max_batch": 0},
            {"workers": 0},
        ],
    )
    def test_bad_bounds_rejected(self, kwargs):
        with pytest.raises(ServiceError):
            AsyncFrontConfig(**kwargs)

    def test_submit_before_start_is_an_error(self):
        front = AsyncFrontDoor(GatedService())

        async def scenario():
            with pytest.raises(ServiceError, match="not started"):
                await front.submit({"op": "ping"})

        asyncio.run(scenario())


class TestFairScheduling:
    def test_flooding_tenant_cannot_starve_a_light_one(self):
        fake = GatedService()
        config = AsyncFrontConfig(
            max_batch=1, workers=1, max_queue_depth=100
        )

        async def scenario():
            async with AsyncFrontDoor(fake, config) as front:
                tasks = [
                    asyncio.create_task(
                        front.submit({"op": "ping", "tenant": "flood"})
                    )
                    for _ in range(8)
                ]
                await asyncio.sleep(0.05)
                tasks += [
                    asyncio.create_task(
                        front.submit({"op": "ping", "tenant": "light"})
                    )
                    for _ in range(3)
                ]
                await asyncio.sleep(0.05)
                fake.gate.set()
                await asyncio.gather(*tasks)

        asyncio.run(scenario())
        # Round-robin admission: the light tenant's first request is
        # served within a couple of slots of joining, not after the
        # whole flood.
        assert fake.order.index("light") <= 3, fake.order
        # And its later requests interleave instead of trailing.
        assert fake.order[-1] == "flood" or "light" not in fake.order[-3:]


class Boom(BaseException):
    """Escapes ``except Exception``, as an interpreter-level error would."""


class PoisonService:
    """Answers every request from its thread; raises Boom on ``bad``."""

    def __init__(self):
        self.threads = set()

    def submit(self, request):
        self.threads.add(threading.current_thread().name)
        if request.get("id") == "bad":
            raise Boom("poisoned batch")
        return {"op": "ping", "status": "ok", "id": request.get("id")}


class TestServiceThreads:
    def test_close_joins_every_door_thread(self):
        fake = PoisonService()
        config = AsyncFrontConfig(workers=3)

        async def scenario():
            front = AsyncFrontDoor(fake, config)
            await front.start()
            threads = list(front._threads)
            assert len(threads) == 3
            assert all(thread.is_alive() for thread in threads)
            await asyncio.gather(
                *(front.submit({"op": "ping", "id": i}) for i in range(20))
            )
            await front.close()
            return threads

        threads = asyncio.run(scenario())
        # Requests ran on the door's own service threads ...
        assert fake.threads <= {thread.name for thread in threads}
        # ... and close() joined every one of them.
        assert not any(thread.is_alive() for thread in threads)
        assert not any(
            thread.name.startswith("front-door-")
            for thread in threading.enumerate()
        )

    def test_cancelled_close_still_joins_every_door_thread(self):
        fake = GatedService()
        config = AsyncFrontConfig(workers=2)

        async def scenario():
            front = AsyncFrontDoor(fake, config)
            await front.start()
            threads = list(front._threads)
            pending = asyncio.ensure_future(front.submit({"op": "ping"}))
            await asyncio.sleep(0.05)  # a door thread now holds the batch
            closing = asyncio.create_task(front.close())
            await asyncio.sleep(0.05)
            # Release the batch while the cancelled close is joining.
            threading.Timer(0.05, fake.gate.set).start()
            closing.cancel()
            with pytest.raises(asyncio.CancelledError):
                await closing
            pending.cancel()
            return threads

        threads = asyncio.run(scenario())
        assert not any(thread.is_alive() for thread in threads)
        assert fake.order == ["default"]

    def test_escaping_base_exception_fails_only_its_batch(self):
        fake = PoisonService()
        config = AsyncFrontConfig(max_batch=2, workers=2)

        async def scenario():
            async with AsyncFrontDoor(fake, config) as front:
                # Both requests are queued before a worker wakes, so
                # they form one batch.
                poisoned = await asyncio.gather(
                    front.submit({"op": "ping", "id": "bad"}),
                    front.submit({"op": "ping", "id": "ok"}),
                    return_exceptions=True,
                )
                later = await asyncio.gather(
                    *(front.submit({"op": "ping", "id": i}) for i in range(4))
                )
                return poisoned, later, front.stats_snapshot()

        poisoned, later, stats = asyncio.run(scenario())
        assert all(isinstance(outcome, Boom) for outcome in poisoned)
        assert [r["id"] for r in later] == [0, 1, 2, 3]
        assert all(r["status"] == "ok" for r in later)
        assert stats["served"] == 4


class TestBackpressure:
    def test_queue_full_sheds_with_structured_response(self):
        fake = GatedService()
        config = AsyncFrontConfig(max_batch=1, workers=1, max_queue_depth=2)

        async def scenario():
            async with AsyncFrontDoor(fake, config) as front:
                tasks = [
                    asyncio.create_task(
                        front.submit({"op": "ping", "id": i})
                    )
                    for i in range(8)
                ]
                await asyncio.sleep(0.05)
                fake.gate.set()
                return await asyncio.gather(*tasks)

        responses = asyncio.run(scenario())
        shed = [r for r in responses if r.get("shed")]
        served = [r for r in responses if r["status"] == "ok"]
        assert len(shed) + len(served) == 8
        assert shed, "overload never shed"
        assert served, "shedding rejected everything"
        for response in shed:
            assert response["status"] == "rejected"
            assert "queue full" in response["error"]
            assert "id" in response  # echoes the request id

    def test_stats_count_submissions_sheds_and_serves(self):
        fake = GatedService()
        config = AsyncFrontConfig(max_batch=2, workers=1, max_queue_depth=1)

        async def scenario():
            async with AsyncFrontDoor(fake, config) as front:
                tasks = [
                    asyncio.create_task(front.submit({"op": "ping"}))
                    for _ in range(5)
                ]
                await asyncio.sleep(0.05)
                fake.gate.set()
                await asyncio.gather(*tasks)
                return front.stats_snapshot()

        stats = asyncio.run(scenario())
        assert stats["submitted"] == 5
        assert stats["shed"] + stats["served"] == 5
        assert stats["shed"] == stats["shed_by_tenant"]["default"]
        assert stats["admitted"] == stats["served"]


class TestServeStdioAsync:
    def test_responses_come_back_in_request_order(self, cm_graph):
        with TCSMService(ServiceConfig(max_workers=2)) as service:
            service.load_graph("cm", cm_graph)
            lines = [
                json.dumps({"op": "ping", "id": i}) for i in range(10)
            ] + [json.dumps({"op": "shutdown", "id": 99})]
            out = io.StringIO()
            served = asyncio.run(
                serve_stdio_async(
                    service, io.StringIO("\n".join(lines) + "\n"), out
                )
            )
        responses = [json.loads(s) for s in out.getvalue().splitlines()]
        assert served == 11
        assert [r["id"] for r in responses] == list(range(10)) + [99]
        assert all(r["status"] == "ok" for r in responses)

    def test_error_lines_are_answered_in_place(self, cm_graph):
        with TCSMService(ServiceConfig(max_workers=2)) as service:
            service.load_graph("cm", cm_graph)
            lines = [
                json.dumps({"op": "ping", "id": 0}),
                "{broken json",
                json.dumps({"op": "ping", "id": 2}),
            ]
            out = io.StringIO()
            served = asyncio.run(
                serve_stdio_async(
                    service, io.StringIO("\n".join(lines) + "\n"), out
                )
            )
        responses = [json.loads(s) for s in out.getvalue().splitlines()]
        assert served == 3
        assert responses[0]["status"] == "ok"
        assert responses[1]["status"] == "error"
        assert "invalid request line" in responses[1]["error"]
        assert responses[2]["status"] == "ok"


# ----------------------------------------------------------------------
# answers on the event loop
# ----------------------------------------------------------------------
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

#: Reply fields that time one run; everything else must match exactly.
TIMINGS = {
    "build_seconds",
    "queue_seconds",
    "match_seconds",
    "seconds",
    "latency_seconds",
}


def _untimed(value):
    if isinstance(value, dict):
        return {k: _untimed(v) for k, v in value.items() if k not in TIMINGS}
    if isinstance(value, list):
        return [_untimed(v) for v in value]
    return value


@pytest.fixture()
def streamed():
    """A graph holding the first 60% of an instance's edges, the rest as
    a live stream, and the instance's pattern as plain data."""
    query, constraints, graph = random_instance(seed=2, **INSTANCE)
    edges = list(graph.edges_by_time())
    cut = int(len(edges) * 0.6)
    base = TemporalGraph(graph.labels)
    for u, v, t in edges[:cut]:
        base.add_edge(u, v, t)
    live = [[u, v, t] for u, v, t in edges[cut:]]
    return base, live, pattern_to_dict(query, constraints)


def _service(base, **config):
    service = TCSMService(ServiceConfig(max_workers=2, **config))
    service.load_graph("g", base)
    return service


def _query(pattern, **fields):
    return {"op": "query", "graph": "g", "pattern": pattern, **fields}


def _record_threads(service):
    """Wrap ``submit`` and ``results.get`` on *service*; returns the
    names of the threads each ran on."""
    seen = {"submit": [], "results.get": []}
    submit, get = service.submit, service.results.get

    def recorded_submit(request):
        seen["submit"].append(threading.current_thread().name)
        return submit(request)

    def recorded_get(key):
        seen["results.get"].append(threading.current_thread().name)
        return get(key)

    service.submit = recorded_submit
    service.results.get = recorded_get
    return seen


class TestInlineAnswers:
    def test_idle_door_answers_on_the_loop_thread_in_no_batch(self, streamed):
        base, live, pattern = streamed
        with _service(base) as service:
            service.submit(_query(pattern, id="warm"))
            sub = service.submit(
                {"op": "subscribe", "graph": "g", "pattern": pattern}
            )["subscription"]["id"]
            ingest = {"op": "ingest", "graph": "g", "edges": live}
            requests = [
                _query(pattern, id="hit"),
                {"op": "poll", "subscription_id": sub},
                {"op": "ping"},
                {"op": "metrics"},
                {"op": "graphs"},
                {"op": "trace"},
                {"op": "query", "graph": "g"},  # no pattern: an error
            ]
            seen = _record_threads(service)

            async def scenario():
                async with AsyncFrontDoor(service) as front:
                    # The ingest crosses to a thread; the door is idle
                    # again as soon as its reply is back.
                    assert (await front.submit(ingest))["status"] == "ok"
                    replies = [await front.submit(r) for r in requests]
                    return replies, front.stats_snapshot()

            loop_thread = threading.current_thread().name
            replies, stats = asyncio.run(scenario())
        assert replies[0]["result_cache"] == "hit"
        assert replies[1]["count"] > 0
        assert [r["status"] for r in replies] == ["ok"] * 6 + ["error"]
        assert len(seen["submit"]) == 1  # the ingest
        assert seen["results.get"] == [loop_thread]
        assert stats["inline"] == len(requests)
        assert stats["submitted"] == len(requests) + 1
        assert stats["admitted"] == stats["batches"] == stats["served"] == 1

    def test_inline_answers_equal_direct_submits(self, streamed):
        """A hit, a poll, a ping, a bad request and an admission
        rejection: the door's inline reply is the reply ``submit`` gives,
        and both services count the same."""
        base, live, pattern = streamed
        setup = [
            _query(pattern, id="miss"),
            {"op": "subscribe", "graph": "g", "pattern": pattern},
            {"op": "ingest", "graph": "g", "edges": live},
        ]
        compared = [
            _query(pattern, id="hit"),
            {"op": "poll", "subscription_id": "s1", "id": "poll"},
            {"op": "ping", "id": "ping"},
            _query(pattern, limit="five", id="bad"),
        ]
        held = _query(pattern, limit=3, id="held")
        rejected = _query(pattern, id="rejected")

        def run(service, answer):
            for request in setup:
                assert service.submit(request)["status"] == "ok"
            replies = [answer(r) for r in compared]
            # A looked-up miss holds the only admission slot.
            pending = service.lookup(held)
            assert not isinstance(pending, dict)
            replies.append(answer(rejected))
            replies.append(service.submit(pending))
            counters = service.metrics_snapshot()["counters"]
            return [_untimed(r) for r in replies], counters

        with _service(base, max_inflight=1) as service:
            direct = run(service, service.submit)
        with _service(base, max_inflight=1) as service:

            async def scenario():
                async with AsyncFrontDoor(service) as front:
                    loop = asyncio.get_running_loop()
                    outcome = await loop.run_in_executor(
                        None,
                        run,
                        service,
                        lambda r: asyncio.run_coroutine_threadsafe(
                            front.submit(r), loop
                        ).result(),
                    )
                    return outcome, front.stats_snapshot()

            via_door, stats = asyncio.run(scenario())
        assert stats["inline"] == stats["submitted"] == len(compared) + 1
        assert via_door == direct
        replies = direct[0]
        assert replies[0]["result_cache"] == "hit"
        assert replies[1]["count"] > 0
        assert replies[2]["pong"] is True
        assert replies[3]["status"] == "error"
        assert replies[4]["status"] == "rejected"
        assert replies[5]["status"] == "ok"

    def test_busy_door_answers_nothing_inline(self, streamed):
        base, _, pattern = streamed
        with _service(base) as service:
            service.submit(_query(pattern))
            gate = threading.Event()
            submit = service.submit
            threads = []

            def gated(request):
                gate.wait(10)
                threads.append(threading.current_thread().name)
                return submit(request)

            service.submit = gated

            async def scenario():
                async with AsyncFrontDoor(service) as front:
                    miss = asyncio.ensure_future(
                        front.submit(_query(pattern, limit=2))
                    )
                    await asyncio.sleep(0.05)  # the miss holds the thread
                    queued = [
                        asyncio.ensure_future(front.submit(r))
                        for r in (_query(pattern), {"op": "ping"})
                    ]
                    await asyncio.sleep(0.05)
                    waiting = [not task.done() for task in queued]
                    gate.set()
                    replies = await asyncio.gather(miss, *queued)
                    return waiting, replies, front.stats_snapshot()

            waiting, replies, stats = asyncio.run(scenario())
            counters = service.metrics_snapshot()["counters"]
        # The miss was looked up once, on the loop: one more miss, one hit.
        assert counters["result_cache_misses"] == 2
        assert counters["result_cache_hits"] == 1
        assert counters["queries_total"] == 3
        assert waiting == [True, True]
        assert [r["status"] for r in replies] == ["ok"] * 3
        assert replies[1]["result_cache"] == "hit"
        assert stats["inline"] == 0
        assert stats["admitted"] == stats["served"] == 3
        assert len(threads) == 3
        assert all(name.startswith("front-door-") for name in threads)

    def test_pipelined_reads_see_the_ingest_before_them(self, streamed):
        """With one service thread, a ``poll`` and a cached ``query``
        pipelined behind an ``ingest`` run after it, as in
        ``serve_stdio``."""
        base, live, pattern = streamed
        half = len(live) // 2
        lines = [
            {"op": "subscribe", "graph": "g", "pattern": pattern, "id": 0},
            _query(pattern, id=1),
            {"op": "ingest", "graph": "g", "edges": live[:half], "id": 2},
            {"op": "poll", "subscription_id": "s1", "id": 3},
            {"op": "ingest", "graph": "g", "edges": live[half:], "id": 4},
            _query(pattern, id=5),
            {"op": "poll", "subscription_id": "s1", "id": 6},
            {"op": "shutdown", "id": 7},
        ]
        text = "\n".join(json.dumps(line) for line in lines) + "\n"

        def serve(service, serve_async):
            events = []
            ingest, get = service.stream_ingest, service.results.get

            def slow_ingest(*args, **kwargs):
                time.sleep(0.02)  # longer than reading the next line
                outcome = ingest(*args, **kwargs)
                events.append("ingested")
                return outcome

            def recorded_get(key):
                events.append("cache read")
                return get(key)

            service.stream_ingest = slow_ingest
            service.results.get = recorded_get
            out = io.StringIO()
            if serve_async:
                config = AsyncFrontConfig(workers=1)
                asyncio.run(
                    serve_stdio_async(service, io.StringIO(text), out, config)
                )
            else:
                serve_stdio(service, io.StringIO(text), out)
            replies = [json.loads(s) for s in out.getvalue().splitlines()]
            return [_untimed(r) for r in replies], events

        with _service(base) as service:
            sync = serve(service, serve_async=False)
        with _service(base) as service:
            served = serve(service, serve_async=True)
        assert served == sync
        replies, events = served
        assert events == [
            "cache read", "ingested", "ingested", "cache read"
        ]
        assert [r["status"] for r in replies] == ["ok"] * len(lines)
        assert replies[3]["count"] == replies[2]["report"]["emitted"] > 0
        assert replies[6]["count"] == replies[4]["report"]["emitted"]
        assert replies[5]["result_cache"] == "hit"

    def test_two_clients_sending_only_hits_both_progress(self, streamed):
        base, _, pattern = streamed
        with _service(base) as service:
            service.submit(_query(pattern))
            rounds = 20
            order = []

            async def client(front, name):
                for _ in range(rounds):
                    reply = await front.submit(_query(pattern))
                    assert reply["result_cache"] == "hit"
                    order.append(name)

            async def scenario():
                async with AsyncFrontDoor(service) as front:
                    await asyncio.gather(client(front, "a"), client(front, "b"))
                    return front.stats_snapshot()

            stats = asyncio.run(scenario())
        assert stats["inline"] == 2 * rounds
        # Neither client finishes before the other starts.
        assert set(order[:rounds]) == {"a", "b"}
        assert set(order[rounds:]) == {"a", "b"}

    def test_submit_only_stub_crosses_to_a_thread(self):
        fake = PoisonService()

        async def scenario():
            async with AsyncFrontDoor(fake) as front:
                replies = [
                    await front.submit({"op": "ping", "id": i}) for i in range(3)
                ]
                return replies, front.stats_snapshot()

        replies, stats = asyncio.run(scenario())
        assert [r["id"] for r in replies] == [0, 1, 2]
        assert fake.threads and all(
            name.startswith("front-door-") for name in fake.threads
        )
        assert stats["inline"] == 0
        assert stats["admitted"] == stats["served"] == stats["batches"] == 3
