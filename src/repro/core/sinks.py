"""Pluggable result sinks: the unified enumeration back end.

Matchers no longer decide what happens to a match — they push every
emission into a :class:`ResultSink` and the sink decides: accumulate
(:class:`CollectSink`), count without retaining (:class:`CountSink`),
stop after ``k`` (any sink constructed with a ``limit``), or keep the
``k`` earliest seen so far (:class:`TopKEarliestSink`, a bounded heap
keyed on each match's *latest* edge timestamp).  A satisfied sink raises
:class:`StopEnumeration` from ``accept``; push-based matchers let it
unwind their DFS recursion directly, which is what makes ``limit=1`` do
measurably less work than a full run (``stats.timestamps_expanded``
strictly drops — pinned by ``benchmarks/bench_topk.py``).

The same abstraction backs the streaming layer's per-subscription
emission queues (:class:`BoundedQueueSink`: drop-oldest, never raises)
so bounded buffering lives in exactly one place.

Pull-based matchers (the CSM baselines) are bridged by
:func:`drain_into_sink`, which closes the generator on early exit so
``GeneratorExit`` unwinds *their* recursion the same way.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Iterator
from typing import Generic, Protocol, TypeVar

from ..errors import AlgorithmError

from .match import Match
from .stats import SearchStats

__all__ = [
    "BoundedQueueSink",
    "CollectSink",
    "CountSink",
    "ResultSink",
    "StopEnumeration",
    "TopKEarliestSink",
    "build_sink",
    "drain_into_sink",
    "match_sort_key",
]

T = TypeVar("T")

#: Total-order sort key type: (max timestamp, timestamp vector, maps).
SortKey = tuple[int, tuple[int, ...], tuple[int, ...], tuple[object, ...]]


class StopEnumeration(Exception):
    """Raised by a satisfied sink to stop the enumeration early.

    Push-based matchers let it propagate through their DFS recursion (a
    genuine early exit: no further candidates are generated, no further
    timestamps expanded) and their ``run_sink`` wrapper records the stop
    with :meth:`~repro.core.stats.SearchStats.record_stop`.
    """


def match_sort_key(match: Match) -> SortKey:
    """Total order for "earliest-first": latest edge time, then ties.

    The primary key is the match's *maximum* edge timestamp — the moment
    the match completes, which is what "earliest k matches" means for a
    temporal pattern (Mackey et al.'s chronological enumeration order).
    The remaining components (full timestamp vector, vertex embedding,
    edge tuple) break ties totally, so the top-k of any partitioned
    union is a deterministic multiset identical to the top-k of the
    full enumeration regardless of partitioning or executor.
    """
    return (
        max(edge.t for edge in match.edge_map),
        match.timestamp_vector(),
        match.vertex_map,
        match.edge_map,
    )


class ResultSink(Protocol):
    """What matchers push matches into.

    ``accept`` is called once per emitted match, *after* the matcher has
    counted it in ``stats.matches``; it raises :class:`StopEnumeration`
    once the sink needs no further matches.  ``finish`` returns the
    retained matches in the sink's output order (empty for count-only
    sinks) and is safe to call whether or not the run stopped early.
    """

    def accept(self, match: Match) -> None: ...

    def finish(self) -> list[Match]: ...


class CollectSink:
    """Accumulate matches in emission order, optionally stopping at *limit*.

    With ``ordered=True``, ``finish()`` returns the collection sorted by
    :func:`match_sort_key` (earliest-first over the *complete*
    enumeration — use :class:`TopKEarliestSink` when a limit applies).
    """

    def __init__(self, limit: int | None = None, ordered: bool = False) -> None:
        if limit is not None and limit < 0:
            raise AlgorithmError(f"limit must be >= 0, not {limit}")
        self.limit = limit
        self.ordered = ordered
        self.matches: list[Match] = []
        if limit == 0:
            # Degenerate bound: satisfied before the first emission.
            self._full = True
        else:
            self._full = False

    def accept(self, match: Match) -> None:
        if self._full:
            raise StopEnumeration
        self.matches.append(match)
        if self.limit is not None and len(self.matches) >= self.limit:
            self._full = True
            raise StopEnumeration

    def finish(self) -> list[Match]:
        if self.ordered:
            self.matches.sort(key=match_sort_key)
        return self.matches


class CountSink:
    """Count matches without retaining them, optionally stopping at *limit*."""

    def __init__(self, limit: int | None = None) -> None:
        if limit is not None and limit < 0:
            raise AlgorithmError(f"limit must be >= 0, not {limit}")
        self.limit = limit
        self.count = 0
        if limit == 0:
            self._full = True
        else:
            self._full = False

    def accept(self, match: Match) -> None:
        if self._full:
            raise StopEnumeration
        self.count += 1
        if self.limit is not None and self.count >= self.limit:
            self._full = True
            raise StopEnumeration

    def finish(self) -> list[Match]:
        return []


class _HeapItem:
    """Heap entry with *reversed* comparison: heapq's min-root becomes
    the largest key, i.e. the current worst of the kept k — exactly the
    entry to evict when a smaller (earlier) match arrives."""

    __slots__ = ("key", "match")

    def __init__(self, key: SortKey, match: Match) -> None:
        self.key = key
        self.match = match

    def __lt__(self, other: "_HeapItem") -> bool:
        return self.key > other.key


class TopKEarliestSink:
    """Keep the ``k`` earliest matches seen (bounded max-heap of size k).

    Keyed on :func:`match_sort_key` — primary component: the match's
    maximum edge timestamp.  Never raises :class:`StopEnumeration`: the
    k earliest of the full enumeration cannot be known without seeing
    every match, so this sink trades early exit for an exact ordered
    answer.  ``finish()`` returns the survivors sorted ascending.
    """

    def __init__(self, k: int) -> None:
        if k < 0:
            raise AlgorithmError(f"limit must be >= 0, not {k}")
        self.k = k
        self.seen = 0
        self._heap: list[_HeapItem] = []
        # Primary key (max edge timestamp) of the current worst kept
        # match, cached so the common reject path below never touches
        # the heap at all.  Meaningful only once the heap holds k items.
        self._worst_primary = 0

    def accept(self, match: Match) -> None:
        self.seen += 1
        if self.k == 0:
            return
        heap = self._heap
        if len(heap) >= self.k:
            # Once the heap is full, most matches lose to the current
            # worst on the primary key alone — decide that from the max
            # edge timestamp before allocating the full tie-break key
            # (timestamp vector + embedding tuples) and a heap entry.
            latest = match.edge_map[0].t
            for edge in match.edge_map:
                if edge.t > latest:
                    latest = edge.t
            if latest > self._worst_primary:
                return
            item = _HeapItem(match_sort_key(match), match)
            if item.key < heap[0].key:
                heapq.heapreplace(heap, item)
                self._worst_primary = heap[0].key[0]
            return
        heapq.heappush(heap, _HeapItem(match_sort_key(match), match))
        if len(heap) == self.k:
            self._worst_primary = heap[0].key[0]

    @property
    def overflowed(self) -> bool:
        """True when the enumeration produced more than k matches."""
        return self.seen > self.k

    def finish(self) -> list[Match]:
        return [item.match for item in sorted(self._heap, key=lambda i: i.key)]


class BoundedQueueSink(Generic[T]):
    """Drop-oldest bounded queue (the streaming layer's emission buffer).

    Unlike the matching sinks this one never raises — a subscription
    outliving its consumer must not abort the ingest path — it evicts
    the oldest retained item instead and counts the drop.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise AlgorithmError(f"capacity must be >= 1, not {capacity}")
        self.capacity = capacity
        self.items: deque[T] = deque()
        self.dropped = 0

    def accept(self, item: T) -> None:
        if len(self.items) >= self.capacity:
            self.items.popleft()
            self.dropped += 1
        self.items.append(item)

    def __len__(self) -> int:
        return len(self.items)

    def drain(self, max_items: int | None = None) -> list[T]:
        """Remove and return up to *max_items* queued items, oldest first.

        ``None`` drains everything.
        """
        if max_items is None or max_items >= len(self.items):
            out = list(self.items)
            self.items.clear()
            return out
        return [self.items.popleft() for _ in range(max(0, max_items))]

    def finish(self) -> list[T]:
        return list(self.items)


def build_sink(
    *,
    mode: str = "enumerate",
    order_by: str = "any",
    limit: int | None = None,
    collect: bool = True,
) -> ResultSink:
    """The sink implied by one (mode, order_by, limit, collect) choice.

    ``mode="count"`` (or ``collect=False``) counts without retaining;
    ``order_by="earliest"`` with a limit keeps the k earliest via the
    bounded heap, without a limit collects everything and sorts at
    ``finish``.  ``mode="estimate"`` never reaches a sink — the engine
    routes it to the HT estimator before enumeration starts.
    """
    if mode == "estimate":  # pragma: no cover - guarded by the engine
        raise AlgorithmError("estimate mode does not enumerate into a sink")
    if mode == "count" or not collect:
        return CountSink(limit=limit)
    if order_by == "earliest":
        if limit is not None:
            return TopKEarliestSink(limit)
        return CollectSink(ordered=True)
    return CollectSink(limit=limit)


def drain_into_sink(
    iterator: Iterator[Match],
    sink: ResultSink,
    stats: SearchStats | None = None,
) -> None:
    """Bridge a pull-based (generator) matcher onto a sink.

    On :class:`StopEnumeration` the generator is closed, so
    ``GeneratorExit`` unwinds the producer's recursion — the same
    genuine early exit push-based matchers get natively — and the stop
    is recorded in *stats* when given.
    """
    try:
        for match in iterator:
            sink.accept(match)
    except StopEnumeration:
        if stats is not None:
            stats.record_stop()
    finally:
        close = getattr(iterator, "close", None)
        if close is not None:
            close()
