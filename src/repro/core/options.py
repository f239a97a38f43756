"""The matching API surface: options and run context.

Two small frozen dataclasses carry every run-time choice into
:func:`repro.core.find_matches` and ``Matcher.run``:

:class:`MatchOptions`
    Everything a *caller* chooses about one end-to-end match run — limit,
    time budget, STN tightening, match collection, seed partition, and
    tracing.  Hashable and canonically fingerprintable, so the service's
    caches key on it directly instead of re-deriving ad-hoc tuples.

:class:`RunContext`
    Everything a *matcher* needs inside ``run()`` — the resolved limit,
    deadline, stats sink, partition slice, and tracer.  Matchers accept
    it as their one parameter.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from typing import Any

from ..errors import AlgorithmError
from ..obs import NULL_TRACER, TraceSink
from .partition import check_partition
from .planner import validate_plan
from .stats import SearchStats

__all__ = ["MatchOptions", "RunContext", "check_time_budget"]


def check_time_budget(budget: object, name: str = "time_budget") -> None:
    """Reject a NaN time budget with an :class:`AlgorithmError`.

    ``None`` and ``inf`` mean unbounded and a budget <= 0 is already
    expired, on every executor; NaN compares false with every clock
    reading, so one executor would never time out and another would
    start expired.
    """
    if isinstance(budget, float) and math.isnan(budget):
        raise AlgorithmError(
            f"{name} must be a number of seconds or null, not NaN"
        )


@dataclass(frozen=True)
class MatchOptions:
    """Caller-side knobs for one match run (see :func:`find_matches`).

    Attributes
    ----------
    limit:
        Stop after this many matches (``None`` = unbounded).
    time_budget:
        Wall-clock seconds for the matching phase (``None`` or ``inf`` =
        unbounded, ``<= 0`` = already expired; NaN is rejected).
    tighten:
        Replace the constraint set by its STN closure before matching.
    collect_matches:
        When False, matches are counted but not retained.
    partition:
        ``(index, count)`` seed partition restricting the search to one
        deterministic slice of the root candidates (see
        :mod:`repro.core.partition`).
    plan:
        Matching-order planning mode for the TCSM matchers: ``"paper"``
        (default) keeps the paper's structural orders, ``"cost"`` lets
        :mod:`repro.core.planner` pick the cheapest order under the data
        graph's statistics.  Either way the match multiset is identical;
        only enumeration cost changes.
    order_by:
        Result ordering: ``"any"`` (default, emission order — with a
        ``limit`` the run stops after the first k found) or
        ``"earliest"`` (ascending by each match's latest edge
        timestamp; with a ``limit`` the *exact* k earliest of the full
        enumeration are kept via a bounded heap — no early exit, but a
        deterministic answer across executors and partitionings).
    mode:
        Answering mode: ``"enumerate"`` (default, return matches),
        ``"count"`` (exact count, match objects never retained) or
        ``"estimate"`` (Horvitz-Thompson sampled count with a
        confidence interval, no enumeration at all; see
        :mod:`repro.core.estimate`).
    codegen:
        Compile a specialized enumeration function for the prepared
        plan at ``prepare()`` time (see :mod:`repro.core.codegen`):
        constraint checks unrolled per position, dead candidate
        branches elided, STN window bounds inlined as constants.  The
        match multiset and every ``SearchStats`` counter are pinned
        bit-identical to the interpreted path; only wall clock
        changes.  Algorithms without a specializing generator (the
        baselines, ``brute-force``) silently run interpreted.
    trace:
        Record per-phase spans into a fresh tracer, returned on
        ``MatchResult.trace``.
    sanitize:
        Run this match under the concurrency sanitizer (write-barrier
        snapshot wrapping; see :mod:`repro.obs.sanitize`) regardless of
        the ``REPRO_SANITIZE`` environment flag.
    """

    limit: int | None = None
    time_budget: float | None = None
    tighten: bool = False
    collect_matches: bool = True
    partition: tuple[int, int] | None = None
    plan: str = "paper"
    trace: bool = False
    sanitize: bool = False
    order_by: str = "any"
    mode: str = "enumerate"
    codegen: bool = False

    def __post_init__(self) -> None:
        if self.limit is not None and self.limit < 0:
            raise AlgorithmError(f"limit must be >= 0, not {self.limit}")
        check_time_budget(self.time_budget)
        if self.order_by not in ("any", "earliest"):
            raise AlgorithmError(
                f'order_by must be "any" or "earliest", not {self.order_by!r}'
            )
        if self.mode not in ("enumerate", "count", "estimate"):
            raise AlgorithmError(
                'mode must be "enumerate", "count" or "estimate", '
                f"not {self.mode!r}"
            )
        validate_plan(self.plan)
        if self.partition is not None:
            check_partition(self.partition)

    def canonical_hash(self) -> str:
        """Stable hex digest of the *result-shaping* fields.

        Covers ``limit``, ``tighten``, ``collect_matches``, ``partition``,
        ``plan``, ``order_by`` and ``mode`` — the fields that change
        which answer comes back (``plan`` changes enumeration *order*,
        and with a ``limit`` the order decides which matches are
        returned; ``order_by``/``mode`` change the result's shape
        outright, so a cached complete enumeration is never served for
        a ``limit=k`` request nor vice versa).  ``codegen`` is covered
        too, though it never changes the answer (it is pinned not to):
        the hash separates one-shot runs that compile at ``prepare``
        from those that do not.  The service keys neither cache on it —
        its ``PlanKey`` fingerprints the matcher options
        (``options_fingerprint``), and the ``MatchOptions`` behind its
        ``ResultKey`` never set ``codegen``, because service plans
        compile on reuse.  ``time_budget`` is excluded because only
        budget-independent (complete) results are ever cached, and
        ``trace``/``sanitize`` because observability and runtime
        checking never change the answer.  Equal options hash equal
        across processes (canonical JSON, no ``hash()`` randomisation).
        """
        payload = json.dumps(
            {
                "codegen": self.codegen,
                "limit": self.limit,
                "tighten": self.tighten,
                "collect_matches": self.collect_matches,
                "partition": (
                    None if self.partition is None else list(self.partition)
                ),
                "plan": self.plan,
                "order_by": self.order_by,
                "mode": self.mode,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def replace(self, **changes: Any) -> "MatchOptions":
        """A copy with *changes* applied (convenience over dataclasses)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class RunContext:
    """Resolved run-time state handed to ``Matcher.run`` as one object.

    Frozen so a context can be shared and re-derived (``with_partition``)
    without aliasing surprises; the ``stats`` object it carries is the
    one deliberately mutable channel matchers write into.
    """

    limit: int | None = None
    deadline: float | None = None
    partition: tuple[int, int] | None = None
    stats: SearchStats = field(default_factory=SearchStats)
    tracer: TraceSink = NULL_TRACER

    def with_partition(self, index: int, count: int) -> "RunContext":
        """This context re-aimed at one partition slice, with fresh stats."""
        return replace(
            self, partition=(index, count), stats=SearchStats()
        )
