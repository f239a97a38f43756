"""A lightweight nested-span tracer for matcher execution.

Design constraints, in order:

1. **Disabled must be free.**  Every hot path in the engine holds a tracer
   reference unconditionally, so the disabled form (:data:`NULL_TRACER`)
   allocates nothing per span: ``span()`` returns one shared no-op context
   manager.  Span emission sites are phase-granular (prepare, per-filter,
   enumerate, per-partition) — never per-candidate — so even an *enabled*
   tracer costs a handful of span objects per query.
2. **Thread-correct.**  Parent/child nesting is tracked per thread
   (spans opened on different threads are siblings, never
   mis-parented), and the finished-span list is appended under a lock.
   Spans recorded in another process (a process-pool partition) are
   grafted in with :meth:`Tracer.adopt`.
3. **Exportable.**  Finished spans carry everything the Chrome trace-event
   format needs (name, start, duration, thread, parent, attributes); the
   exporters live in :mod:`repro.obs.export`.

Spans follow strict stack discipline per thread (enforced by the
``with tracer.span(...)`` form; reprolint rule R010 flags bypasses), so
within a thread the recorded intervals are always well nested.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Hashable, Iterator, Sequence
from dataclasses import dataclass, field
from types import TracebackType
from typing import Any, Protocol, runtime_checkable

__all__ = ["NULL_TRACER", "NullTracer", "Span", "TraceSink", "Tracer"]


@dataclass(frozen=True)
class Span:
    """One finished span: a named, attributed wall-clock interval.

    ``start``/``end`` are :func:`time.perf_counter` readings relative to
    the owning tracer's epoch; ``thread`` is a small per-tracer thread
    index (0 for the first thread that emitted a span) so exports stay
    readable regardless of OS thread ids.
    """

    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    thread: int
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@runtime_checkable
class TraceSink(Protocol):
    """What instrumented code needs from a tracer: ``span()`` + ``enabled``."""

    enabled: bool

    def span(
        self, name: str, **attrs: Any
    ) -> "_ActiveSpan | _NullSpan":  # pragma: no cover - protocol
        ...


class _NullSpan:
    """Shared, reusable no-op context manager (the disabled-span object)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        return None

    def annotate(self, **attrs: Any) -> None:
        """No-op counterpart of :meth:`_ActiveSpan.annotate`."""


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every call is a no-op on shared objects.

    Stateless and safe to share globally; :data:`NULL_TRACER` is the one
    instance the engine wires in by default.
    """

    __slots__ = ()

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def spans(self) -> tuple[Span, ...]:
        return ()


NULL_TRACER = NullTracer()


class _ActiveSpan:
    """An open span; finishes (and records itself) on ``__exit__``."""

    __slots__ = ("_tracer", "name", "attrs", "_start", "_span_id", "_parent_id")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self._start = 0.0
        self._span_id = -1
        self._parent_id: int | None = None

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes discovered mid-span (e.g. result counts)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_ActiveSpan":
        tracer = self._tracer
        stack = tracer._stack()
        self._parent_id = stack[-1]._span_id if stack else None
        self._span_id = tracer._next_id()
        stack.append(self)
        self._start = tracer._clock()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        end = self._tracer._clock()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._finish(self, end)
        return None


class Tracer:
    """Records nested spans; one instance per traced query.

    Use as::

        tracer = Tracer()
        with tracer.span("prepare", algorithm="tcsm-eve"):
            ...
        events = chrome_trace_events(tracer)

    Span nesting is tracked per thread; the finished-span list is
    thread-safe.  The tracer never needs explicit finalisation — spans
    record themselves when their ``with`` block exits.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.epoch = clock()
        self._spans: list[Span] = []
        self._lock = threading.Lock()
        self._counter = 0
        self._local = threading.local()
        #: Native thread id (or an adopted lane) -> small export index.
        self._thread_ids: dict[Hashable, int] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> _ActiveSpan:
        """Open a span; use only as ``with tracer.span(name): ...``."""
        return _ActiveSpan(self, name, attrs)

    def _stack(self) -> list[_ActiveSpan]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _next_id(self) -> int:
        with self._lock:
            span_id = self._counter
            self._counter += 1
            return span_id

    def _finish(self, active: _ActiveSpan, end: float) -> None:
        stack = self._stack()
        # Stack discipline: the closing span is the innermost open one on
        # this thread.  Out-of-order closes (only reachable by bypassing
        # the `with` form) unwind to the matching entry.
        while stack and stack[-1] is not active:
            stack.pop()
        if stack:
            stack.pop()
        native = threading.get_ident()
        with self._lock:
            thread = self._thread_ids.setdefault(native, len(self._thread_ids))
            self._spans.append(
                Span(
                    span_id=active._span_id,
                    parent_id=active._parent_id,
                    name=active.name,
                    start=active._start - self.epoch,
                    end=end - self.epoch,
                    thread=thread,
                    attrs=active.attrs,
                )
            )

    def adopt(
        self, spans: Sequence[Span], epoch: float, lane: Hashable
    ) -> None:
        """Graft *spans* another tracer finished under this thread's
        innermost open span.

        *epoch* is the other tracer's epoch on this tracer's clock
        (:func:`time.perf_counter` reads the system-wide monotonic
        clock, so a worker process's epoch qualifies); *lane* names the
        thread the spans ran on in exports.  Span ids are renumbered;
        the other tracer's root spans become children of the open span.
        """
        stack = self._stack()
        parent = stack[-1]._span_id if stack else None
        shift = epoch - self.epoch
        with self._lock:
            thread = self._thread_ids.setdefault(lane, len(self._thread_ids))
            ids: dict[int, int] = {}
            for span in spans:
                ids[span.span_id] = self._counter
                self._counter += 1
            for span in spans:
                self._spans.append(
                    Span(
                        span_id=ids[span.span_id],
                        parent_id=(
                            parent
                            if span.parent_id is None
                            else ids[span.parent_id]
                        ),
                        name=span.name,
                        start=span.start + shift,
                        end=span.end + shift,
                        thread=thread,
                        attrs=span.attrs,
                    )
                )

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def spans(self) -> tuple[Span, ...]:
        """Finished spans, ordered by start time (stable across threads)."""
        with self._lock:
            return tuple(sorted(self._spans, key=lambda s: (s.start, s.span_id)))

    def iter_spans(self, name: str) -> Iterator[Span]:
        """Finished spans whose name equals or prefixes *name* + ``":"``."""
        prefix = name + ":"
        for span in self.spans():
            if span.name == name or span.name.startswith(prefix):
                yield span

    def total_seconds(self, name: str) -> float:
        """Summed duration of all spans matching *name* (prefix-aware)."""
        return sum(span.duration for span in self.iter_spans(name))

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)
