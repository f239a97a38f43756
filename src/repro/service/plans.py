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

Eviction is the service's one LRU (:class:`~repro.service.cache.LRUCache`);
replacing a graph bumps its version, so stale plans age out of the LRU
naturally and :meth:`PlanCache.invalidate_graph` exists only to reclaim
their memory eagerly.
"""

from __future__ import annotations

import functools
import hashlib
import json
import threading
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from typing import NamedTuple

from ..core import Matcher, MatchOptions
from ..graphs import QueryGraph, TemporalConstraints, pattern_to_dict
from .cache import LRUCache

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


class PlanCache(LRUCache[PlanKey, CachedPlan]):
    """Thread-safe LRU cache of prepared matchers.

    Concurrent requests for the *same* key build once (per-key build
    locks); requests for different keys build in parallel.
    """

    def __init__(self, capacity: int = 64) -> None:
        super().__init__(capacity)
        self._building: dict[PlanKey, threading.Lock] = {}

    def get_or_build(
        self, key: PlanKey, build: Callable[[], CachedPlan]
    ) -> tuple[CachedPlan, bool]:
        """The plan for *key*, building it at most once per key.

        Returns ``(plan, hit)`` where ``hit`` is True when the plan came
        from the cache.  *build* runs outside the cache-wide lock so a
        slow ``prepare()`` never blocks unrelated lookups.
        """
        plan = self.get(key)
        if plan is not None:
            return plan, True
        with self._lock:
            key_lock = self._building.setdefault(key, threading.Lock())
        try:
            with key_lock:
                # A build that finished since the miss above has put
                # its plan before releasing (or dropping) its lock.
                plan = self.get(key)
                if plan is not None:
                    return plan, True
                plan = build()
                self.put(key, plan)
                return plan, False
        finally:
            # Evict the per-key build lock unconditionally — also when
            # build() raises — so long-running services don't leak one
            # lock per evicted plan.  Guard on identity: a racing thread
            # may have installed a fresh lock for the key already.
            with self._lock:
                if self._building.get(key) is key_lock:
                    del self._building[key]

    @property
    def pending_builds(self) -> int:
        """Number of per-key build locks currently outstanding.

        A long-lived service should see this return to zero when idle;
        the concurrency stress test asserts the build-lock dict does not
        leak entries for completed (or failed) builds.
        """
        with self._lock:
            return len(self._building)
