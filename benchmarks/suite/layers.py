"""Per-layer timing for the traced run, measured from outside the program.

The traced run edits nothing under ``src/``.  It replaces a few bound
methods on the *live objects* of one service with wrappers that record a
span per call (instance attributes shadow the class methods, so the
service's own ``self.results.get(...)`` style calls go through them), and
it times the harness's own JSON codec the way ``serve_stdio`` uses it.

A span is ``(name, start, end, parent, request)``.  Spans of one request
share the request id.  The asynchronous front door runs the service on a
worker thread, so the link from ``front.submit`` to ``server.submit``
goes through the request id; calls nested inside ``server.submit`` on
that thread find their parent on a thread-local stack.

A layer's self time is the span's duration minus its children's.  The
name before the first dot names the layer (``front.submit`` belongs to
``front``), so the printed table, the span dump and the metric names use
the same layer names.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any


@dataclass(slots=True, eq=False)
class Span:
    """One timed call, linked to the span that caused it."""

    name: str
    start: float
    end: float
    parent: Span | None
    request: Any

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans kept in memory until the run ends, plus the wrappers that
    record them.

    Spans link to their parent object rather than an index, so recording
    from several threads needs no lock: each span is one atomic
    ``list.append``.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        #: Request id -> innermost open span on the event-loop side; the
        #: service thread parents ``server.submit`` under it.
        self._tips: dict[Any, Span] = {}
        self._installed: list[tuple[object, str]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _open(self, name: str, parent: Span | None, request: Any) -> Span:
        span = Span(name, time.perf_counter(), 0.0, parent, request)
        self.spans.append(span)
        return span

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def request(self, request_id: Any) -> Iterator[None]:
        """The root span of one client request (event-loop side)."""
        span = self._open("client.request", None, request_id)
        self._tips[request_id] = span
        try:
            yield
        finally:
            span.end = time.perf_counter()
            del self._tips[request_id]

    @contextmanager
    def span(self, name: str, request_id: Any) -> Iterator[None]:
        """A harness-side span under the request's innermost open span."""
        span = self._open(name, self._tips.get(request_id), request_id)
        try:
            yield
        finally:
            span.end = time.perf_counter()

    # ------------------------------------------------------------------
    # instance-level wrappers
    # ------------------------------------------------------------------
    def _install(self, obj: object, attr: str, wrapper: Callable[..., Any]) -> None:
        setattr(obj, attr, wrapper)
        self._installed.append((obj, attr))

    def wrap_async_entry(self, obj: object, attr: str, name: str) -> None:
        """Wrap ``async obj.attr(request)``: the request's next hop
        (on any thread) parents under this span."""
        original = getattr(obj, attr)

        async def wrapper(request: dict[str, Any]) -> Any:
            rid = request.get("id")
            outer = self._tips.get(rid)
            span = self._open(name, outer, rid)
            self._tips[rid] = span
            try:
                return await original(request)
            finally:
                span.end = time.perf_counter()
                if outer is not None:
                    self._tips[rid] = outer

        self._install(obj, attr, wrapper)

    def wrap_thread_entry(self, obj: object, attr: str, name: str) -> None:
        """Wrap ``obj.attr(request)`` called on a service thread: its
        parent is the event-loop span that handed the request over."""
        original = getattr(obj, attr)

        def wrapper(request: dict[str, Any]) -> Any:
            rid = request.get("id")
            span = self._open(name, self._tips.get(rid), rid)
            stack = self._stack()
            stack.append(span)
            try:
                return original(request)
            finally:
                stack.pop()
                span.end = time.perf_counter()

        self._install(obj, attr, wrapper)

    def wrap_call(self, obj: object, attr: str, name: str) -> None:
        """Wrap a call nested inside an entry span on the same thread."""
        original = getattr(obj, attr)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            parent = stack[-1] if stack else None
            span = self._open(name, parent, parent.request if parent else None)
            stack.append(span)
            try:
                return original(*args, **kwargs)
            finally:
                stack.pop()
                span.end = time.perf_counter()

        self._install(obj, attr, wrapper)

    def uninstall(self) -> None:
        """Remove every wrapper, exposing the class methods again."""
        for obj, attr in reversed(self._installed):
            delattr(obj, attr)
        self._installed.clear()

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its children."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[index[id(span.parent)]] -= span.duration
        return own

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def named_self(self, name: str) -> list[float]:
        return [
            own
            for span, own in zip(self.spans, self.self_times())
            if span.name == name
        ]

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Self time per layer: calls and total seconds."""
        table: dict[str, dict[str, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            row = table.setdefault(
                span.name.split(".", 1)[0], {"calls": 0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["self_s"] += own
        return table

    def front_waits(self) -> list[float]:
        """Per request: ``front.submit`` start to ``server.submit`` start."""
        return [
            s.start - s.parent.start
            for s in self.spans
            if s.name == "server.submit"
            and s.parent is not None
            and s.parent.name == "front.submit"
        ]

    def dump(self) -> list[dict[str, Any]]:
        """Spans as plain data; ``parent`` is an index into the list."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": None if s.parent is None else index[id(s.parent)],
                "request": s.request,
            }
            for s in self.spans
        ]


def install_service_wrappers(
    recorder: Recorder, front: object, service: Any
) -> None:
    """Wrap the calls into each layer of one live service."""
    recorder.wrap_async_entry(front, "submit", "front.submit")
    recorder.wrap_thread_entry(service, "submit", "server.submit")
    recorder.wrap_call(service.results, "get", "cache.get")
    recorder.wrap_call(service.results, "put", "cache.put")
    recorder.wrap_call(service.plans, "get_or_build", "plans.get_or_build")
    recorder.wrap_call(service.executor, "run_matcher", "executor.run_matcher")
    recorder.wrap_call(service.executor, "run_process", "executor.run_process")
    recorder.wrap_call(service, "stream_ingest", "stream.ingest")
    recorder.wrap_call(service, "stream_poll", "stream.poll")
