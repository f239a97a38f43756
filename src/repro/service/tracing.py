"""Sampled per-query tracing for the service: sampler + trace store.

The service traces a configurable fraction of queries (plus any query
that asks explicitly).  Sampling is *deterministic counter-based* rather
than random: query ``n`` is sampled exactly when ``floor(n * rate)``
exceeds ``floor((n - 1) * rate)``, which yields precisely ``rate`` of
queries in the long run, spreads samples evenly, and makes tests
reproducible without seeding.

Exported traces are retained in :class:`TraceStore`, the service's LRU
map (:class:`~repro.service.cache.LRUCache`) keyed by trace id, and
served back through the ``trace`` JSONL op.  Storing the *exported*
payloads (Chrome JSON + text tree) rather than live tracers
keeps retained traces immutable and bounded in size.
"""

from __future__ import annotations

import math
import threading
from typing import Any

from .cache import LRUCache

__all__ = ["TraceSampler", "TraceStore"]


class TraceSampler:
    """Deterministic counter-based sampler (see module docstring).

    ``rate`` is the sampled fraction in ``[0.0, 1.0]``; 0 never samples,
    1 always does.  Thread-safe: the counter increment is the only shared
    state.
    """

    def __init__(self, rate: float) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(
                f"trace sample rate must be within [0, 1], not {rate}"
            )
        self.rate = rate
        self._seen = 0
        self._lock = threading.Lock()

    def should_sample(self) -> bool:
        """Advance the query counter and decide for this query."""
        with self._lock:
            self._seen += 1
            n = self._seen
        if self.rate <= 0.0:
            return False
        if self.rate >= 1.0:
            return True
        return math.floor(n * self.rate) > math.floor((n - 1) * self.rate)


class TraceStore(LRUCache[str, dict[str, Any]]):
    """Thread-safe bounded LRU of exported trace payloads by trace id."""

    def __init__(self, capacity: int = 32) -> None:
        super().__init__(capacity)
        self._counter = 0

    def next_trace_id(self) -> str:
        """A fresh process-unique trace id (monotonic, human-sortable)."""
        with self._lock:
            self._counter += 1
            return f"trace-{self._counter:06d}"

    def ids(self) -> list[str]:
        """Retained trace ids, least recently used first."""
        with self._lock:
            return list(self._entries)
