"""The asyncio front door: fairness, backpressure, ordered JSONL."""

import asyncio
import io
import json
import threading

import pytest

from repro.errors import ServiceError
from repro.service import (
    AsyncFrontConfig,
    AsyncFrontDoor,
    ServiceConfig,
    TCSMService,
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
