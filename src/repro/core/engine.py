"""Unified matcher engine: registry, dispatch, timing, tracing.

Every matcher — the paper's three algorithms, the brute-force oracle, and
all baselines — implements the same protocol (``prepare()`` +
``run(ctx)``).  The engine registers them by name and wraps a run with
phase timing (preparation vs matching, the split plotted in Fig. 14 /
Table VI of the paper) and optional per-phase tracing spans
(:mod:`repro.obs`).

Callers choose run behaviour through one frozen :class:`MatchOptions`
(limit, time budget, STN tightening, match collection, partition,
tracing).  Matchers receive run-time state as one :class:`RunContext`;
whether a matcher supports seed partitioning is declared by its
``supports_partition`` class attribute.

Baselines live in :mod:`repro.baselines` and are imported lazily on first
use of an unknown name, so ``import repro`` stays cheap and the core has
no dependency on the baselines package.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator
from typing import Any, NamedTuple, Protocol

from ..errors import AlgorithmError, UnknownAlgorithmError
from ..graphs import (
    GraphSnapshot,
    GraphView,
    QueryGraph,
    TemporalConstraints,
    snapshot_write_barrier,
)
from ..obs import NULL_TRACER, TraceSink, Tracer, sanitize_enabled

from .bruteforce import BruteForceMatcher
from .e2e import E2EMatcher
from .estimate import estimate_with_ci
from .eve import EVEMatcher
from .match import Match
from .options import MatchOptions, RunContext
from .results import CountEstimate, MatchResult
from .sinks import ResultSink, build_sink, drain_into_sink
from .stats import SearchStats
from .v2v import V2VMatcher

__all__ = [
    "CountEstimate",
    "MatchOptions",
    "Matcher",
    "MatchResult",
    "PreparedRun",
    "RunContext",
    "available_algorithms",
    "count_matches",
    "create_matcher",
    "find_matches",
    "invoke_run_sink",
    "matcher_kwargs",
    "merge_prepare_stats",
    "register_algorithm",
    "run_prepared",
    "supports_partition",
]


class Matcher(Protocol):
    """Protocol all matchers implement.

    ``supports_partition`` declares whether ``run`` honours
    ``RunContext.partition``: ``partition=(index, count)`` restricts the
    search to a deterministic slice of the root position's candidates
    (see :mod:`repro.core.partition`), and the ``count`` slices jointly
    enumerate exactly the unpartitioned match set, pairwise disjointly.
    The three TCSM algorithms and the brute-force oracle implement this;
    baselines need not.
    """

    name: str
    supports_partition: bool

    def prepare(
        self, tracer: TraceSink | None = None
    ) -> None:  # pragma: no cover - protocol
        ...

    def run(
        self, ctx: RunContext
    ) -> Iterator[Match]:  # pragma: no cover - protocol
        ...


def supports_partition(matcher: Matcher) -> bool:
    """True when *matcher* declares partition support."""
    return matcher.supports_partition


def invoke_run_sink(matcher: Matcher, ctx: RunContext, sink: ResultSink) -> None:
    """Run *matcher* pushing every match into *sink*.

    Sink-native matchers (the three TCSM algorithms and the oracle) get
    the sink handed straight to their DFS, so a satisfied sink's
    :class:`StopEnumeration` unwinds the recursion — a genuine early
    exit.  Pull-based matchers (the CSM baselines, third-party code) are
    bridged by draining their ``run`` generator into the sink; closing
    the generator on early exit unwinds *their* stack the same way.
    """
    run_sink = getattr(matcher, "run_sink", None)
    if callable(run_sink):
        run_sink(ctx, sink)
        return
    drain_into_sink(matcher.run(ctx), sink, ctx.stats)


class PreparedRun(NamedTuple):
    """What :func:`run_prepared` returns for one run."""

    matches: list[Match]
    stats: SearchStats
    #: The match limit shaped the returned set: the sink stopped the
    #: search early, or an exact top-k dropped matches past the k-th.
    truncated_by_limit: bool


def run_prepared(
    matcher: Matcher,
    *,
    mode: str = "enumerate",
    order_by: str = "any",
    limit: int | None = None,
    collect: bool = True,
    deadline: float | None = None,
    partition: tuple[int, int] | None = None,
    stats: SearchStats | None = None,
    tracer: TraceSink | None = None,
) -> PreparedRun:
    """Run a prepared *matcher* once: the one run step of every path.

    :func:`find_matches`, the service's in-process run
    (``QueryExecutor.run_matcher``) and each process-pool partition call
    this.  It builds the sink from (*mode*, *order_by*, *limit*,
    *collect*) and runs the matcher into it under *deadline*, restricted
    to *partition* when given.  The run's counters accumulate on *stats*
    (a fresh :class:`SearchStats` by default).
    """
    if partition is not None and not supports_partition(matcher):
        raise AlgorithmError(
            f"matcher {matcher.name!r} does not support partitioned "
            "execution"
        )
    sink = build_sink(mode=mode, order_by=order_by, limit=limit, collect=collect)
    ctx = RunContext(
        # Exact top-k earliest needs the *full* enumeration (the heap
        # keeps the k best); a context limit would make pull-based
        # matchers stop at the first k found instead.  Every other sink
        # enforces its own limit, so the context limit only matters to
        # pull-based matchers.
        limit=None if order_by == "earliest" else limit,
        deadline=deadline,
        partition=partition,
        stats=stats if stats is not None else SearchStats(),
        tracer=tracer if tracer is not None else NULL_TRACER,
    )
    invoke_run_sink(matcher, ctx, sink)
    truncated_by_limit = ctx.stats.limit_hit or bool(
        getattr(sink, "overflowed", False)
    )
    return PreparedRun(sink.finish(), ctx.stats, truncated_by_limit)


def merge_prepare_stats(matcher: Matcher, stats: SearchStats) -> None:
    """Add *matcher*'s prepare-time filter counters to a query's *stats*.

    Called once per query, not per partition or per worker (which would
    multiply them); matchers without ``prepare_stats`` add nothing.
    """
    prepare_stats = getattr(matcher, "prepare_stats", None)
    if isinstance(prepare_stats, SearchStats):
        stats.merge(prepare_stats)


MatcherFactory = Callable[..., Matcher]

_REGISTRY: dict[str, MatcherFactory] = {}  # reprolint: disable=R016 -- populated only at import time by @register_matcher


def register_algorithm(
    name: str, factory: MatcherFactory, overwrite: bool = False
) -> None:
    """Register a matcher factory under *name* (lowercase, stable)."""
    key = name.lower()
    if key in _REGISTRY and not overwrite:
        raise ValueError(f"algorithm {name!r} already registered")
    _REGISTRY[key] = factory


def _ensure_baselines_loaded() -> None:
    """Import deferred modules so their algorithms self-register.

    Covers the baselines package and :mod:`repro.streaming` (whose
    ``tcsm-stream`` replays a graph through the streaming kernel), both
    of which register at import time; deferring keeps ``import repro``
    cheap and breaks the engine <-> baselines/streaming import cycles.
    """
    from .. import baselines, streaming  # noqa: F401  (import has side effects)


def available_algorithms(include_baselines: bool = True) -> tuple[str, ...]:
    """Sorted names accepted by :func:`find_matches`."""
    if include_baselines:
        _ensure_baselines_loaded()
    return tuple(sorted(_REGISTRY))


def matcher_kwargs(options: MatchOptions) -> dict[str, Any]:
    """Constructor keywords that *options* implies.

    The one rule shared by :func:`find_matches` and ``repro.api.prepare``:
    a non-default ``plan`` is forwarded (every matcher's default is
    ``"paper"``, so baselines without the parameter keep working).
    """
    kwargs: dict[str, Any] = {}
    if options.plan != "paper":
        kwargs["plan"] = options.plan
    return kwargs


def create_matcher(
    algorithm: str,
    query: QueryGraph,
    constraints: TemporalConstraints,
    graph: GraphView,
    **options: Any,
) -> Matcher:
    """Instantiate the matcher registered under *algorithm*."""
    key = algorithm.lower()
    if key not in _REGISTRY:
        _ensure_baselines_loaded()
    try:
        factory = _REGISTRY[key]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownAlgorithmError(
            f"unknown algorithm {algorithm!r}; available: {known}"
        ) from None
    return factory(query, constraints, graph, **options)


def find_matches(
    query: QueryGraph,
    constraints: TemporalConstraints,
    graph: GraphView,
    algorithm: str = "tcsm-eve",
    *,
    options: MatchOptions | None = None,
    matcher: Matcher | None = None,
    tracer: TraceSink | None = None,
    **matcher_options: Any,
) -> MatchResult:
    """Run a matcher end to end and return matches plus measurements.

    Parameters
    ----------
    algorithm:
        Registered name, e.g. ``"tcsm-eve"``, ``"tcsm-e2e"``,
        ``"tcsm-v2v"``, ``"brute-force"``, or any baseline
        (``"ri-ds"``, ``"graphflow"``, ...).  See
        :func:`available_algorithms`.
    options:
        A :class:`MatchOptions` bundling limit, time budget, tightening,
        match collection, partition and tracing.
    matcher:
        A pre-built (possibly already prepared) matcher to reuse instead
        of constructing one from *algorithm*; ``prepare()`` is idempotent,
        so reusing a warm matcher skips the preparation cost.  This is the
        plan-reuse hook the query service's plan cache builds on.
        *algorithm* is ignored when given, and *matcher_options* must then
        be empty (a ``TypeError`` names any that would be ignored).
    tracer:
        An explicit tracer to record spans into (the service injects its
        sampled tracer here).  ``options.trace`` creates a fresh one
        instead; a recording tracer comes back on ``result.trace``.
    matcher_options:
        Forwarded to the matcher constructor.
    """
    opts = options or MatchOptions()
    tr: TraceSink
    if tracer is not None:
        tr = tracer
    else:
        tr = Tracer() if opts.trace else NULL_TRACER
    trace = tr if isinstance(tr, Tracer) else None

    if opts.tighten:
        with tr.span("stn-closure", constraints=len(constraints)):
            constraints = constraints.closed()

    if opts.mode == "estimate":
        # Sampled answering never enumerates: the HT estimator probes the
        # EVE search structure directly and returns count + CI.  The
        # requested algorithm/matcher is irrelevant to the estimate.
        probes = int(matcher_options.pop("probes", 200))
        seed = int(matcher_options.pop("seed", 0))
        est_start = time.perf_counter()
        with tr.span("estimate", probes=probes):
            estimate = estimate_with_ci(
                query, constraints, graph, probes=probes, seed=seed
            )
        return MatchResult(
            algorithm="ht-estimate",
            matches=[],
            stats=SearchStats(),
            build_seconds=0.0,
            match_seconds=time.perf_counter() - est_start,
            estimate=estimate,
            trace=trace,
        )
    if matcher is None:
        if (opts.sanitize or sanitize_enabled()) and isinstance(
            graph, GraphSnapshot
        ):
            # Sanitizer mode: the matcher sees a write-barrier wrapped
            # snapshot, so any post-compile mutation raises at the site.
            # Pre-built matchers already hold their graph reference and
            # are left alone (the service wraps at registry.register).
            graph = snapshot_write_barrier(graph)
        # An explicit matcher option wins over the one options imply.
        matcher_options = {**matcher_kwargs(opts), **matcher_options}
        matcher = create_matcher(
            algorithm, query, constraints, graph, **matcher_options
        )
    elif matcher_options:
        # A pre-built matcher is already constructed, so constructor
        # options would be dropped; so would a stale run-time keyword
        # (limit=, time_budget=, ...) from before MatchOptions.
        raise TypeError(
            "find_matches() got keyword arguments a pre-built matcher "
            f"would ignore: {', '.join(sorted(matcher_options))}"
        )

    build_start = time.perf_counter()
    with tr.span("prepare", algorithm=matcher.name):
        matcher.prepare(tracer=tr)
    build_seconds = time.perf_counter() - build_start
    stats = SearchStats()
    merge_prepare_stats(matcher, stats)

    deadline = None
    if opts.time_budget is not None:
        deadline = time.monotonic() + opts.time_budget

    match_start = time.perf_counter()
    with tr.span("enumerate", algorithm=matcher.name) as enum_span:
        run = run_prepared(
            matcher,
            mode=opts.mode,
            order_by=opts.order_by,
            limit=opts.limit,
            collect=opts.collect_matches,
            deadline=deadline,
            partition=opts.partition,
            stats=stats,
            tracer=tr,
        )
        enum_span.annotate(
            matches=stats.matches,
            timestamps_expanded=stats.timestamps_expanded,
            timestamps_skipped=stats.timestamps_skipped,
        )
    match_seconds = time.perf_counter() - match_start

    return MatchResult(
        algorithm=matcher.name,
        matches=run.matches,
        stats=stats,
        build_seconds=build_seconds,
        match_seconds=match_seconds,
        timed_out=stats.deadline_hit,
        truncated=run.truncated_by_limit,
        truncated_by_limit=run.truncated_by_limit,
        ordered=opts.order_by == "earliest",
        trace=trace,
    )


def count_matches(
    query: QueryGraph,
    constraints: TemporalConstraints,
    graph: GraphView,
    algorithm: str = "tcsm-eve",
    *,
    options: MatchOptions | None = None,
    **kwargs: Any,
) -> int:
    """Number of matches (does not retain match objects).

    A thin sink configuration: the run is forced to ``mode="count"``
    (a :class:`~repro.core.sinks.CountSink`), so match objects are
    never built up regardless of the caller's ``collect_matches``.
    """
    options = options or MatchOptions()
    mode = "estimate" if options.mode == "estimate" else "count"
    options = options.replace(collect_matches=False, mode=mode)
    result = find_matches(
        query,
        constraints,
        graph,
        algorithm=algorithm,
        options=options,
        **kwargs,
    )
    if result.estimate is not None:
        return result.num_matches
    return result.stats.matches


# The core algorithms and the oracle register eagerly.
register_algorithm("tcsm-v2v", V2VMatcher)
register_algorithm("tcsm-e2e", E2EMatcher)
register_algorithm("tcsm-eve", EVEMatcher)
register_algorithm("brute-force", BruteForceMatcher)
