"""The service's one LRU map, and the result cache built on it.

:class:`LRUCache` is the only bounded map in the service layer: the
result cache, the pattern memo, the plan cache
(:class:`~repro.service.PlanCache`), the trace store
(:class:`~repro.service.TraceStore`) and each process worker's plan
cache all keep their entries in one, so the capacity check, the
most-recently-used refresh and eviction are written once, here.

The result cache holds complete query answers.  Matching is
deterministic given ``(graph snapshot, pattern, algorithm, limit)``, so
a *complete* result — one that was not cut short by a wall-clock
deadline — can be replayed verbatim for an identical request.  Keys
embed the graph version, so replacing a graph never serves stale
answers; timed-out results are never admitted because which prefix they
contain depends on machine speed, not on the query.  The cache is
value-agnostic: the service stores each answer here once, in the form a
hit returns it (see :class:`repro.service.server.TCSMService`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable
from typing import Generic, NamedTuple, Protocol, TypeVar

__all__ = ["LRUCache", "ResultCache", "ResultKey"]

_KeyT = TypeVar("_KeyT", bound=Hashable)
_ValueT = TypeVar("_ValueT")


class _GraphScoped(Protocol):
    """A cache key that names the graph version it was computed from."""

    @property
    def graph_name(self) -> str: ...

    @property
    def graph_version(self) -> int: ...


_ScopedKeyT = TypeVar("_ScopedKeyT", bound=_GraphScoped)


class ResultKey(NamedTuple):
    """Cache key for one complete query answer.

    ``match_options`` is the canonical :class:`repro.core.MatchOptions`
    hash (see :func:`repro.service.plans.match_options_fingerprint`): it
    covers the result-shaping fields — limit, tightening, match
    collection, partition — and deliberately excludes the time budget,
    since only budget-independent (complete) results are admitted, and
    tracing, which never changes the answer.  ``graph_fingerprint`` is
    the compiled snapshot's content digest, pinning the answer to the
    exact data-plane bytes it was computed from.
    """

    graph_name: str
    graph_version: int
    graph_fingerprint: str
    pattern: str
    algorithm: str
    options: str
    match_options: str


class LRUCache(Generic[_KeyT, _ValueT]):
    """Thread-safe LRU map with a fixed capacity."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(
                f"cache capacity must be >= 1, not {capacity}"
            )
        self.capacity = capacity
        self._entries: OrderedDict[_KeyT, _ValueT] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: _KeyT) -> _ValueT | None:
        """The cached value for *key*, refreshed as most recently used."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key: _KeyT, value: _ValueT) -> None:
        """Insert (or refresh) *key*, evicting the LRU entry when full."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def evict(self, stale: Callable[[_KeyT], bool]) -> int:
        """Drop every entry whose key is *stale*; returns how many."""
        with self._lock:
            keys = [key for key in self._entries if stale(key)]
            for key in keys:
                del self._entries[key]
            return len(keys)

    def invalidate_graph(
        self: LRUCache[_ScopedKeyT, _ValueT],
        graph_name: str,
        keep_version: int | None = None,
    ) -> int:
        """Drop entries for *graph_name* (other than *keep_version*).

        Returns the number of evicted entries.  Version-keying already
        prevents stale serves; this reclaims their memory eagerly.
        """
        return self.evict(
            lambda key: key.graph_name == graph_name
            and key.graph_version != keep_version
        )

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


#: The result cache: complete answers keyed by :class:`ResultKey`.
ResultCache = LRUCache[ResultKey, _ValueT]
