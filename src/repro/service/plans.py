"""Plan cache: prepared matchers, keyed by graph version and pattern hash.

A matcher's ``prepare()`` (candidate filtering + TCQ/TCQ+ construction)
is the per-query cost the paper splits out as "preparation time"; for a
service that sees repeated patterns over a long-lived graph it is pure
amortizable overhead.  The cache maps

    (graph name, graph version, pattern fingerprint, algorithm, options)

to a *prepared* matcher.  Matchers keep all per-run state local to
``run()`` (the DFS closures allocate fresh maps per call), so one
prepared matcher can serve many concurrent runs — including the
partitioned fan-out of a single query — without copying.

Eviction is LRU; replacing a graph bumps its version, so stale plans age
out of the LRU naturally and :meth:`PlanCache.invalidate_graph` exists
only to reclaim their memory eagerly.
"""

from __future__ import annotations

import functools
import hashlib
import json
import threading
from collections import OrderedDict
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import NamedTuple

from ..core import Matcher, MatchOptions
from ..graphs import QueryGraph, TemporalConstraints, pattern_to_dict
from ..obs import assert_lock_held

__all__ = [
    "CachedPlan",
    "PlanCache",
    "PlanKey",
    "match_options_fingerprint",
    "options_fingerprint",
    "pattern_fingerprint",
    "pattern_key",
]

#: Canonical JSON (sorted keys, no whitespace) of raw pattern data.
_CANONICAL = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), check_circular=False
)


def pattern_fingerprint(
    query: QueryGraph, constraints: TemporalConstraints
) -> str:
    """Stable hex digest of a (query, constraints) pattern.

    Canonical JSON of the pattern's serialised form: equal patterns hash
    equal across processes and sessions (no reliance on ``hash()``
    randomisation), so fingerprints are safe to embed in cache keys and
    server responses.  Constraint gaps are normalised to float first so a
    pattern round-tripped through JSON (which coerces gaps to float)
    hashes identically to its native twin.
    """
    data = pattern_to_dict(query, constraints)
    data["constraints"] = [
        {"earlier": c.earlier, "later": c.later, "gap": float(c.gap)}
        for c in constraints
    ]
    payload = json.dumps(
        data, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def pattern_key(data: object) -> str | None:
    """Canonical JSON of a request's raw pattern data (``None`` if not JSON).

    Cheaper than parsing and fingerprinting, and equal exactly when
    the data's JSON is, so the service uses it to look up a request
    pattern it has parsed before.  Key order does not change it, but
    other spellings of one pattern (a gap of ``7`` vs ``7.0``) get
    different keys; only :func:`pattern_fingerprint` equates those.
    """
    try:
        return _CANONICAL.encode(data)
    except (TypeError, RecursionError):
        return None


@functools.lru_cache(maxsize=256)
def match_options_fingerprint(options: MatchOptions) -> str:
    """Stable hex digest of the result-shaping :class:`MatchOptions` fields.

    Delegates to :meth:`MatchOptions.canonical_hash`, so the service's
    cache keys and the core options type can never disagree about what
    identifies an answer (the time budget and tracing are excluded there
    by design).  Memoized per options value: the service keys every
    query's result on it.
    """
    return options.canonical_hash()


def options_fingerprint(options: Mapping[str, object]) -> str:
    """Stable hex digest of matcher constructor options (``""`` if empty)."""
    if not options:
        return ""
    payload = json.dumps(
        {key: repr(value) for key, value in options.items()}, sort_keys=True
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class PlanKey(NamedTuple):
    """Cache key for one prepared plan.

    ``graph_fingerprint`` is the content digest of the graph's compiled
    CSR snapshot (:attr:`repro.graphs.GraphSnapshot.fingerprint`): it
    pins the plan to the exact data-plane bytes it was prepared against,
    independent of registration order or process identity.
    """

    graph_name: str
    graph_version: int
    graph_fingerprint: str
    pattern: str
    algorithm: str
    options: str


@dataclass(frozen=True)
class CachedPlan:
    """A prepared matcher plus the preparation cost it amortizes."""

    key: PlanKey
    matcher: Matcher
    build_seconds: float


class PlanCache:
    """Thread-safe LRU cache of prepared matchers.

    Concurrent requests for the *same* key build once (per-key build
    locks); requests for different keys build in parallel.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError(f"plan cache capacity must be >= 1, not {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[PlanKey, CachedPlan] = OrderedDict()
        self._building: dict[PlanKey, threading.Lock] = {}
        self._lock = threading.Lock()

    def get(self, key: PlanKey) -> CachedPlan | None:
        """The cached plan for *key*, refreshed as most recently used."""
        with self._lock:
            plan = self._entries.get(key)
            if plan is not None:
                self._entries.move_to_end(key)
            return plan

    def get_or_build(
        self, key: PlanKey, build: Callable[[], CachedPlan]
    ) -> tuple[CachedPlan, bool]:
        """The plan for *key*, building it at most once per key.

        Returns ``(plan, hit)`` where ``hit`` is True when the plan came
        from the cache.  *build* runs outside the cache-wide lock so a
        slow ``prepare()`` never blocks unrelated lookups.
        """
        with self._lock:
            plan = self._entries.get(key)
            if plan is not None:
                self._entries.move_to_end(key)
                return plan, True
            key_lock = self._building.setdefault(key, threading.Lock())
        try:
            with key_lock:
                with self._lock:
                    plan = self._entries.get(key)
                    if plan is not None:
                        self._entries.move_to_end(key)
                        return plan, True
                plan = build()
                with self._lock:
                    self._entries[key] = plan
                    self._entries.move_to_end(key)
                    self._trim_locked()
                return plan, False
        finally:
            # Evict the per-key build lock unconditionally — also when
            # build() raises — so long-running services don't leak one
            # lock per evicted plan.  Guard on identity: a racing thread
            # may have installed a fresh lock for the key already.
            with self._lock:
                if self._building.get(key) is key_lock:
                    del self._building[key]

    def _trim_locked(self) -> None:
        """Evict LRU entries past capacity; caller must hold ``_lock``."""
        assert_lock_held(self._lock, "PlanCache._lock")
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    @property
    def pending_builds(self) -> int:
        """Number of per-key build locks currently outstanding.

        A long-lived service should see this return to zero when idle;
        the concurrency stress test asserts the build-lock dict does not
        leak entries for completed (or failed) builds.
        """
        with self._lock:
            return len(self._building)

    def invalidate_graph(
        self, graph_name: str, keep_version: int | None = None
    ) -> int:
        """Drop plans for *graph_name* (other than *keep_version*).

        Returns the number of evicted plans.
        """
        with self._lock:
            stale = [
                key
                for key in self._entries
                if key.graph_name == graph_name
                and key.graph_version != keep_version
            ]
            for key in stale:
                del self._entries[key]
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
