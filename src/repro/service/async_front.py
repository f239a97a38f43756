"""Asyncio front door: batched admission over a thread-backed service.

:class:`TCSMService` is synchronous by design — a query runs on the
thread that submits it (or fans out over a process pool), and
``submit()`` blocks until the answer is ready.  That shape is wrong for a
network-facing deployment where thousands of clients multiplex onto one
event loop.  The :class:`AsyncFrontDoor` bridges the two worlds:

* **Bounded queues with backpressure.**  Every tenant gets a bounded
  FIFO; when a tenant's queue is full, new requests are *shed*
  immediately with ``{"status": "rejected", "shed": true}`` instead of
  growing an unbounded backlog.  Latency under overload stays flat and
  the shed rate becomes the overload signal (it is exactly what
  ``benchmarks/bench_load.py`` measures in open-loop mode).
* **Per-tenant fair scheduling.**  Admission visits tenants round-robin,
  one request per visit, so a tenant flooding the door cannot starve a
  light tenant: with two tenants at equal priority each gets every other
  admission slot regardless of queue depths.
* **Batched thread handoff.**  Each admission worker owns one
  long-lived service thread.  It drains up to ``max_batch`` requests
  per wakeup and hands the batch to its thread through a
  :class:`queue.SimpleQueue`; the thread runs the batch and answers
  with ``loop.call_soon_threadsafe``.  A request crosses one thread
  boundary each way, and the handoff is paid per batch, not per
  request.

:func:`serve_stdio_async` is the JSONL wiring (``repro serve --async``):
same newline-delimited protocol as :func:`~repro.service.serve_stdio`,
same error envelopes, and responses come back *in request order* so
existing pipeline clients work unchanged — but admission, shedding and
fairness all apply while earlier requests are still in flight.
"""

from __future__ import annotations

import asyncio
import json
import threading
from collections import deque
from queue import SimpleQueue
from dataclasses import dataclass, field
from typing import IO, Any

from ..errors import ServiceError
from .server import TCSMService, parse_request_line

__all__ = [
    "AsyncFrontConfig",
    "AsyncFrontDoor",
    "FrontDoorStats",
    "serve_stdio_async",
]


@dataclass(frozen=True)
class AsyncFrontConfig:
    """Tunables for the async admission layer.

    ``max_queue_depth`` bounds each tenant's FIFO (beyond it requests
    are shed); ``max_batch`` caps how many requests one worker admits
    per wakeup; ``workers`` is the number of concurrent batch runners
    (each owns one service thread, started by ``start()`` and joined by
    ``close()``); ``tenant_field`` names the request key carrying the
    tenant identity — requests without it share the ``"default"`` lane.
    """

    max_queue_depth: int = 64
    max_batch: int = 8
    workers: int = 2
    tenant_field: str = "tenant"

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ServiceError("max_queue_depth must be >= 1")
        if self.max_batch < 1:
            raise ServiceError("max_batch must be >= 1")
        if self.workers < 1:
            raise ServiceError("workers must be >= 1")


@dataclass
class FrontDoorStats:
    """Counters the front door keeps (read them via ``stats()``)."""

    submitted: int = 0
    admitted: int = 0
    shed: int = 0
    served: int = 0
    batches: int = 0
    shed_by_tenant: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "shed": self.shed,
            "served": self.served,
            "batches": self.batches,
            "shed_by_tenant": dict(self.shed_by_tenant),
        }


_QueueItem = tuple[dict[str, Any], "asyncio.Future[dict[str, Any]]"]
#: One batch handed to a service thread, and the future it settles.
_Handoff = tuple[list[_QueueItem], "asyncio.Future[None]"]


class AsyncFrontDoor:
    """Admission control in front of a (synchronous) service.

    The wrapped object only needs a ``submit(request) -> response``
    method; in production that is a :class:`TCSMService`, in tests it
    can be any stub.  Use as an async context manager, or call
    :meth:`start` / :meth:`close` explicitly::

        async with AsyncFrontDoor(service) as front:
            response = await front.submit({"op": "ping"})

    ``close()`` drains every queued request before returning, so no
    admitted request is ever dropped on shutdown, then stops and joins
    the service threads.
    """

    def __init__(
        self,
        service: TCSMService | Any,
        config: AsyncFrontConfig | None = None,
    ) -> None:
        self.service = service
        self.config = config or AsyncFrontConfig()
        self.stats = FrontDoorStats()
        self._queues: dict[str, deque[_QueueItem]] = {}
        # Tenants with at least one queued request, in admission order.
        self._ready: deque[str] = deque()
        self._cond: asyncio.Condition | None = None
        self._workers: list[asyncio.Task[None]] = []
        self._threads: list[threading.Thread] = []
        self._inboxes: list[SimpleQueue[_Handoff | None]] = []
        self._closing = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn the admission workers and their service threads
        (idempotent)."""
        if self._workers:
            return
        # No workers exist yet, so nothing races this reset.
        self._closing = False  # reprolint: guarded-by(_cond)
        self._cond = asyncio.Condition()
        loop = asyncio.get_running_loop()
        for i in range(self.config.workers):
            inbox: SimpleQueue[_Handoff | None] = SimpleQueue()
            thread = threading.Thread(
                target=self._serve,
                args=(inbox, loop),
                name=f"front-door-{i}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
            self._inboxes.append(inbox)
            self._workers.append(
                asyncio.create_task(self._worker(inbox), name=f"front-door-{i}")
            )

    async def close(self) -> None:
        """Drain queued requests, then stop the workers and join their
        service threads (idempotent)."""
        if self._cond is None:
            return
        async with self._cond:
            self._closing = True
            self._cond.notify_all()
        try:
            await asyncio.gather(*self._workers, return_exceptions=True)
        finally:
            # Also on a cancelled close: cancelled workers hand over no
            # more batches, so each thread finishes the batch it holds,
            # reads the stop marker and exits.
            for inbox in self._inboxes:
                inbox.put(None)
            for thread in self._threads:
                thread.join()
            self._workers = []
            self._threads = []
            self._inboxes = []
            self._cond = None

    async def __aenter__(self) -> "AsyncFrontDoor":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    async def submit(self, request: dict[str, Any]) -> dict[str, Any]:
        """Admit one request and await its response.

        Returns the service's response, or an immediate shed envelope
        (``status="rejected"``, ``shed=true``) when the tenant's queue
        is at ``max_queue_depth`` — the caller never blocks behind a
        backlog it cannot join.
        """
        if self._cond is None:
            raise ServiceError(
                "AsyncFrontDoor is not started; use 'async with' or "
                "call start()"
            )
        tenant = str(request.get(self.config.tenant_field, "default"))
        future: asyncio.Future[dict[str, Any]]
        future = asyncio.get_running_loop().create_future()
        async with self._cond:
            self.stats.submitted += 1
            if self._closing:
                return self._shed_response(request, tenant, "closing")
            queue = self._queues.setdefault(tenant, deque())
            if len(queue) >= self.config.max_queue_depth:
                return self._shed_response(request, tenant, "queue full")
            queue.append((request, future))
            if len(queue) == 1:
                self._ready.append(tenant)
            self._cond.notify()
        return await future

    def _shed_response(
        self, request: dict[str, Any], tenant: str, reason: str
    ) -> dict[str, Any]:
        self.stats.shed += 1
        by_tenant = self.stats.shed_by_tenant
        by_tenant[tenant] = by_tenant.get(tenant, 0) + 1
        response: dict[str, Any] = {
            "op": request.get("op", "query"),
            "status": "rejected",
            "shed": True,
            "error": (
                f"request shed for tenant {tenant!r}: {reason} "
                f"(max_queue_depth={self.config.max_queue_depth})"
            ),
        }
        if "id" in request:
            response["id"] = request["id"]
        return response

    def stats_snapshot(self) -> dict[str, Any]:
        """Plain-data counters (for metrics endpoints and benchmarks)."""
        return self.stats.as_dict()

    # ------------------------------------------------------------------
    # admission workers
    # ------------------------------------------------------------------
    async def _worker(self, inbox: SimpleQueue[_Handoff | None]) -> None:
        assert self._cond is not None
        loop = asyncio.get_running_loop()
        while True:
            batch: list[_QueueItem] = []
            async with self._cond:
                while not self._ready and not self._closing:
                    await self._cond.wait()
                if not self._ready and self._closing:
                    return
                # Round-robin admission: one request per tenant visit,
                # so a deep queue cannot monopolise a batch.
                while self._ready and len(batch) < self.config.max_batch:
                    tenant = self._ready.popleft()
                    queue = self._queues[tenant]
                    batch.append(queue.popleft())
                    if queue:
                        self._ready.append(tenant)
                self.stats.admitted += len(batch)
                self.stats.batches += 1
            done: asyncio.Future[None] = loop.create_future()
            inbox.put((batch, done))
            try:
                await done
            except BaseException as exc:
                for _, future in batch:
                    if not future.done():
                        future.set_exception(exc)
                raise

    def _serve(
        self,
        inbox: SimpleQueue[_Handoff | None],
        loop: asyncio.AbstractEventLoop,
    ) -> None:
        """Service-thread body: run handed-over batches until stopped.

        The service's own ``submit()`` is blocking and never raises (it
        returns error envelopes); anything that still escapes fails the
        batch on the loop.
        """
        while (handoff := inbox.get()) is not None:
            batch, done = handoff
            outcome: list[dict[str, Any]] | BaseException
            try:
                outcome = [self.service.submit(request) for request, _ in batch]
            except BaseException as exc:
                outcome = exc
            try:
                loop.call_soon_threadsafe(self._finish, batch, done, outcome)
            except RuntimeError:  # the loop is closed: nobody awaits it
                return

    def _finish(
        self,
        batch: list[_QueueItem],
        done: asyncio.Future[None],
        outcome: list[dict[str, Any]] | BaseException,
    ) -> None:
        """Settle one batch's futures (runs on the event loop).

        A failed batch fails only ``done``; the worker awaiting it fails
        the batch's futures.
        """
        if isinstance(outcome, BaseException):
            if not done.done():
                done.set_exception(outcome)
            return
        for (_, future), response in zip(batch, outcome):
            self.stats.served += 1
            if not future.done():
                future.set_result(response)
        if not done.done():
            done.set_result(None)


async def serve_stdio_async(
    service: TCSMService,
    in_stream: IO[str],
    out_stream: IO[str],
    config: AsyncFrontConfig | None = None,
) -> int:
    """Serve newline-delimited JSON through the async front door.

    Protocol-compatible with :func:`~repro.service.serve_stdio` — one
    request object per input line, one response object per output line,
    responses in request order, malformed/oversized lines answered with
    error envelopes — but requests flow through an
    :class:`AsyncFrontDoor`, so admission batching, per-tenant fairness
    and queue-full shedding apply while earlier queries are still
    running.  Returns the number of responses written.
    """
    served = 0
    max_bytes = service.config.max_request_bytes
    loop = asyncio.get_running_loop()
    # FIFO of response futures: the writer resolves them in admission
    # order, which is exactly request order.
    pending: asyncio.Queue[asyncio.Future[dict[str, Any]] | None]
    pending = asyncio.Queue()

    async def writer() -> int:
        written = 0
        while True:
            future = await pending.get()
            if future is None:
                return written
            response = await future
            out_stream.write(json.dumps(response) + "\n")
            out_stream.flush()
            written += 1

    async with AsyncFrontDoor(service, config) as front:
        writer_task = asyncio.create_task(writer())
        shutdown = False
        while not shutdown:
            raw = await asyncio.to_thread(in_stream.readline)
            if not raw:
                break
            line = raw.strip()
            if not line:
                continue
            request, ok = parse_request_line(line, max_bytes)
            if not ok:
                # *request* is the error envelope.
                failed: asyncio.Future[dict[str, Any]]
                failed = loop.create_future()
                failed.set_result(request)
                await pending.put(failed)
                continue
            if request.get("op") == "shutdown":
                # Drain in order: the shutdown response is the last line.
                shutdown = True
            await pending.put(asyncio.ensure_future(front.submit(request)))
        await pending.put(None)
        served = await writer_task
    return served
