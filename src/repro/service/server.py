"""The TCSM query service: embeddable façade plus a JSONL stdio server.

:class:`TCSMService` ties the subsystem together — graph registry, plan
cache, result cache, executor, metrics, admission control —
behind one ``query()`` call.  A query flows::

    admit -> resolve graph -> result cache? -> plan cache (prepare once)
          -> execution under a deadline (in-process, or partitioned over
             the process pool) -> tag + cache + meter

Failures degrade gracefully: deadline expiry returns the partial prefix
tagged ``timed_out``, a match limit tags ``truncated``, overload is a
*rejection* (never an exception escaping the server loop), and library
errors become structured error responses.

:func:`serve_stdio` speaks newline-delimited JSON over a pair of text
streams, which makes the service scriptable from a shell pipe and
trivially testable — see ``repro serve`` / ``repro submit`` in the CLI.
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections.abc import Callable, Generator
from dataclasses import dataclass, field, replace
from typing import IO, Any, NamedTuple, cast

from ..core import (
    CountEstimate,
    Match,
    MatchOptions,
    SearchStats,
    create_matcher,
    find_matches,
    merge_prepare_stats,
)
from ..core.options import check_time_budget
from ..errors import (
    AdmissionError,
    ReproError,
    StreamingError,
    UnknownSubscriptionError,
)
from ..graphs import (
    QueryGraph,
    SegmentedGraph,
    TemporalConstraints,
    TemporalGraph,
    load_pattern,
    load_snap_temporal,
    pattern_from_dict,
)
from ..obs import (
    NULL_TRACER,
    TraceSink,
    Tracer,
    render_span_tree,
    to_chrome_trace,
)
from ..streaming import (
    Emission,
    IngestReport,
    StreamingEngine,
    Subscription,
    SubscriptionOptions,
)
from .cache import LRUCache, ResultCache, ResultKey
from .executor import ProcessSpec, QueryExecutor
from .metrics import MetricsRegistry
from .plans import (
    CachedPlan,
    PlanCache,
    PlanKey,
    match_options_fingerprint,
    options_fingerprint,
    pattern_fingerprint,
    pattern_key,
)
from .registry import GraphHandle, GraphRegistry
from .tracing import TraceSampler, TraceStore

__all__ = [
    "PendingRequest",
    "ServiceConfig",
    "ServiceResult",
    "TCSMService",
    "parse_request_line",
    "serve_stdio",
]

#: Sentinel distinguishing "no budget given" from an explicit ``None``.
_UNSET_BUDGET = object()


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs for :class:`TCSMService` (see docs/SERVICE.md).

    ``max_workers`` is the number of process-pool partitions (and
    workers); ``pool="thread"`` queries always run as one partition on
    the thread that submits them.
    """

    max_workers: int = 4
    pool: str = "thread"
    plan_cache_size: int = 64
    result_cache_size: int = 256
    max_inflight: int = 8
    default_time_budget: float | None = 30.0
    default_algorithm: str = "tcsm-eve"
    #: Fraction of queries traced ([0, 1], deterministic counter-based
    #: sampling); a request's ``trace: true`` forces tracing regardless.
    trace_sample_rate: float = 0.0
    trace_store_size: int = 32
    #: Hard cap on one JSONL request line; longer lines get a structured
    #: error response instead of being parsed (protocol back-pressure
    #: against unbounded payloads).
    max_request_bytes: int = 1_000_000

    def __post_init__(self) -> None:
        check_time_budget(self.default_time_budget, "default_time_budget")


@dataclass(frozen=True)
class ServiceResult:
    """Outcome of one service query, with provenance and timings.

    Truncation is reported by cause: ``truncated_by_deadline`` (the
    wall-clock budget expired; alias ``timed_out``) and
    ``truncated_by_limit`` (the match limit shaped the returned set) are
    distinct fields, both tagged in JSONL responses.  ``truncated`` is
    the legacy alias for limit truncation.  ``ordered`` marks an
    ``order_by="earliest"`` answer; ``estimate`` carries the
    ``mode="estimate"`` count + confidence interval (``None``
    otherwise).
    """

    graph: str
    graph_version: int
    algorithm: str
    matches: tuple[Match, ...]
    match_count: int
    timed_out: bool
    truncated: bool
    plan_cache: str
    result_cache: str
    build_seconds: float
    queue_seconds: float
    match_seconds: float
    partitions: int
    truncated_by_limit: bool = False
    truncated_by_deadline: bool = False
    ordered: bool = False
    estimate: CountEstimate | None = None
    stats: SearchStats = field(repr=False, default_factory=SearchStats)
    trace_id: str | None = None
    #: Per-partition fan-out probes from process-pool runs (empty for
    #: in-process runs): CSR compiles each worker triggered (0:
    #: workers attach), CSR bytes each worker's graph owns privately (0:
    #: attached to the shared-memory segment), and whether each worker's
    #: plan cache already held the prepared matcher.
    worker_compiles: tuple[int, ...] = ()
    worker_graph_bytes: tuple[int, ...] = ()
    worker_plan_hits: tuple[bool, ...] = ()

    def to_dict(self, include_matches: bool = True) -> dict[str, Any]:
        """Plain-data view used for JSONL responses."""
        payload: dict[str, Any] = {
            "graph": self.graph,
            "graph_version": self.graph_version,
            "algorithm": self.algorithm,
            "match_count": self.match_count,
            "timed_out": self.timed_out,
            "truncated": self.truncated,
            "truncated_by_limit": self.truncated_by_limit,
            "truncated_by_deadline": self.truncated_by_deadline,
            "ordered": self.ordered,
            "plan_cache": self.plan_cache,
            "result_cache": self.result_cache,
            "build_seconds": self.build_seconds,
            "queue_seconds": self.queue_seconds,
            "match_seconds": self.match_seconds,
            "partitions": self.partitions,
        }
        if self.estimate is not None:
            payload["estimate"] = self.estimate.to_dict()
        if self.trace_id is not None:
            payload["trace_id"] = self.trace_id
        if self.worker_compiles:
            payload["worker_compiles"] = list(self.worker_compiles)
            payload["worker_graph_bytes"] = list(self.worker_graph_bytes)
            payload["worker_plan_hits"] = list(self.worker_plan_hits)
        if include_matches:
            payload["matches"] = [
                {
                    "vertices": list(match.vertex_map),
                    "edges": [list(edge) for edge in match.edge_map],
                }
                for match in self.matches
            ]
        return payload


class _CachedAnswer(NamedTuple):
    """A result-cache entry, in the form a hit returns it.

    ``result`` is tagged ``result_cache="hit"`` with ``queue_seconds``
    0; ``reply`` is its JSONL payload, built once by the entry's first
    JSONL hit (``None`` before it), so entries nobody hits over JSONL
    hold no second copy of their matches.
    """

    result: ServiceResult
    reply: dict[str, Any] | None


class _Pattern:
    """One query's pattern: its fingerprint now, its parsed form on need.

    Only building a plan, shipping a process spec or estimating reads
    the parsed form; a JSONL pattern is parsed then, at most once.
    """

    __slots__ = ("fingerprint", "_raw", "_parsed")

    def __init__(
        self,
        fingerprint: str,
        raw: Any = None,
        parsed: tuple[QueryGraph, TemporalConstraints] | None = None,
    ) -> None:
        self.fingerprint = fingerprint
        self._raw = raw
        self._parsed = parsed

    def parsed(self) -> tuple[QueryGraph, TemporalConstraints]:
        if self._parsed is None:
            self._parsed = pattern_from_dict(self._raw)
        return self._parsed


#: A query's answer: its result and, for a JSONL request, its reply.
_Answer = tuple[ServiceResult, dict[str, Any] | None]
#: A query's two steps (see :meth:`TCSMService._query_steps`).
_QuerySteps = Generator[None, None, _Answer]


class PendingRequest:
    """A request :meth:`TCSMService.lookup` could not answer without a
    search or a change of state.

    Pass it to :meth:`TCSMService.submit`, on any thread and once, to
    finish it.  A query's ``steps`` resume past its result-cache read
    and already hold its admission slot; any other op (``steps`` None)
    runs whole.  ``get`` reads a field of the request, as on the request
    itself, so code that reads a request on its way into ``submit``
    reads a pending one alike.
    """

    __slots__ = ("request", "steps")

    def __init__(
        self, request: dict[str, Any], steps: _QuerySteps | None = None
    ) -> None:
        self.request = request
        self.steps = steps

    def get(self, name: str, default: Any = None) -> Any:
        return self.request.get(name, default)


#: Ops a lookup leaves for ``submit``: each changes the service's state.
_STATE_OPS = (
    "load_graph",
    "drop_graph",
    "subscribe",
    "ingest",
    "unsubscribe",
    "shutdown",
)


class TCSMService:
    """A long-lived, concurrent TCSM query service over registered graphs."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.metrics = metrics or MetricsRegistry()
        self.graphs = GraphRegistry(export_shared=self.config.pool == "process")
        self.plans = PlanCache(capacity=self.config.plan_cache_size)
        self.results: ResultCache[_CachedAnswer] = ResultCache(
            capacity=self.config.result_cache_size
        )
        #: Canonical JSON of a JSONL request's pattern -> its
        #: ``pattern_fingerprint``; filled only by successful parses.
        self._patterns: LRUCache[str, str] = LRUCache(
            capacity=self.config.result_cache_size
        )
        self.executor = QueryExecutor(
            max_workers=self.config.max_workers,
            pool=self.config.pool,
            worker_plans=self.config.plan_cache_size,
        )
        self.traces = TraceStore(capacity=self.config.trace_store_size)
        self._sampler = TraceSampler(self.config.trace_sample_rate)
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        #: Streaming state: one engine per graph name (created lazily on
        #: first subscribe) plus the subscription-id -> graph-name index
        #: that lets ``poll``/``unsubscribe`` address by id alone.
        self._streams: dict[str, StreamingEngine] = {}
        self._stream_subs: dict[str, str] = {}
        self._stream_sub_seq = 0
        self._streams_lock = threading.Lock()

    # ------------------------------------------------------------------
    # graph lifecycle
    # ------------------------------------------------------------------
    def load_graph(self, name: str, graph: TemporalGraph) -> GraphHandle:
        """Register (or replace) *name*, invalidating the caches and the
        streams of its old versions."""
        handle = self.graphs.register(name, graph)
        self._forget_graph(name, keep_version=handle.version)
        self.metrics.inc("graphs_loaded")
        return handle

    def load_graph_file(
        self, name: str, path: str, num_labels: int = 8, seed: int = 0
    ) -> GraphHandle:
        """Load a SNAP temporal edge list from *path* and register it."""
        graph = load_snap_temporal(path, num_labels=num_labels, seed=seed)
        return self.load_graph(name, graph)

    def drop_graph(self, name: str) -> None:
        """Unregister *name* and evict everything cached against it.

        Tears down the graph's streaming engine too: its subscriptions
        (and their undelivered emissions) are discarded.
        """
        self.graphs.drop(name)
        self._forget_graph(name)

    def _forget_graph(self, name: str, keep_version: int | None = None) -> None:
        """Evict *name*'s cache entries (but *keep_version*'s) and tear
        down its streaming engine with its subscriptions: a stream over a
        replaced graph would keep matching the old one."""
        self.plans.invalidate_graph(name, keep_version=keep_version)
        self.results.invalidate_graph(name, keep_version=keep_version)
        with self._streams_lock:
            if self._streams.pop(name, None) is not None:
                for sub_id, owner in list(self._stream_subs.items()):
                    if owner == name:
                        del self._stream_subs[sub_id]

    # ------------------------------------------------------------------
    # streaming: standing subscriptions over a live edge stream
    # ------------------------------------------------------------------
    def _stream_engine(self, graph_name: str) -> StreamingEngine:
        """Get or lazily create *graph_name*'s streaming engine.

        The engine's segmented graph is seeded zero-copy from the
        registered handle's frozen snapshot (its CSR arrays are shared by
        reference), so opening a stream over an already-served graph
        compiles nothing.
        """
        with self._streams_lock:
            engine = self._streams.get(graph_name)
        if engine is not None:
            return engine
        handle = self.graphs.get(graph_name)
        with self._streams_lock:
            engine = self._streams.get(graph_name)
            if engine is None:
                engine = StreamingEngine(
                    SegmentedGraph.from_snapshot(handle.snapshot)
                )
                self._streams[graph_name] = engine
            return engine

    def _engine_for_subscription(self, sub_id: str) -> StreamingEngine:
        with self._streams_lock:
            graph_name = self._stream_subs.get(sub_id)
            engine = (
                self._streams.get(graph_name)
                if graph_name is not None
                else None
            )
        if engine is None:
            raise UnknownSubscriptionError(f"unknown subscription {sub_id!r}")
        return engine

    def stream_subscribe(
        self,
        graph_name: str,
        query: QueryGraph,
        constraints: TemporalConstraints,
        options: SubscriptionOptions | None = None,
        sub_id: str | None = None,
    ) -> Subscription:
        """Register a standing pattern against *graph_name*'s stream.

        Subscription ids are unique service-wide (auto-assigned ``s1``,
        ``s2``, ... unless *sub_id* is given), so ``poll`` and
        ``unsubscribe`` address by id alone.
        """
        with self._streams_lock:
            if sub_id is None:
                self._stream_sub_seq += 1
                sub_id = f"s{self._stream_sub_seq}"
            if sub_id in self._stream_subs:
                raise StreamingError(
                    f"subscription id {sub_id!r} already registered"
                )
            self._stream_subs[sub_id] = graph_name
        try:
            engine = self._stream_engine(graph_name)
            sub = engine.subscribe(query, constraints, options, sub_id=sub_id)
        except BaseException:
            with self._streams_lock:
                self._stream_subs.pop(sub_id, None)
            raise
        self.metrics.inc("subscriptions_total")
        return sub

    def stream_ingest(
        self,
        graph_name: str,
        edges: list[Any],
        trace: bool = False,
    ) -> tuple[IngestReport, str | None]:
        """Append *edges* to the graph's stream and meter the outcome.

        ``trace=True`` routes this call's delta-search and segment-merge
        spans through a dedicated tracer, retained in the trace store
        like a traced query.
        """
        engine = self._stream_engine(graph_name)
        tracer = Tracer() if trace else None
        report = engine.ingest(edges, tracer=tracer)
        trace_id: str | None = None
        if tracer is not None:
            handle = self.graphs.get(graph_name)
            trace_id = self._retain_trace(tracer, handle, "streaming", "-")
        self.metrics.inc("ingest_edges_total", report.new_edges)
        self.metrics.inc("ingest_duplicates_total", report.duplicates)
        self.metrics.inc("stream_matches_total", report.emitted)
        self.metrics.inc("segment_flushes_total", report.flushes)
        self.metrics.inc("segment_compactions_total", report.compactions)
        self.metrics.observe("ingest_seconds", report.seconds)
        return report, trace_id

    def stream_poll(
        self, sub_id: str, max_items: int | None = None
    ) -> list[Emission]:
        """Drain up to *max_items* undelivered emissions for *sub_id*."""
        engine = self._engine_for_subscription(sub_id)
        emissions = engine.poll(sub_id, max_items)
        for emission in emissions:
            self.metrics.observe(
                "emission_latency_seconds", emission.latency_seconds
            )
        return emissions

    def stream_unsubscribe(self, sub_id: str) -> Subscription:
        """Deregister *sub_id*; returns its final state for the response."""
        engine = self._engine_for_subscription(sub_id)
        sub = engine.unsubscribe(sub_id)
        with self._streams_lock:
            self._stream_subs.pop(sub_id, None)
        self.metrics.inc("subscriptions_closed")
        return sub

    # ------------------------------------------------------------------
    # admission control
    # ------------------------------------------------------------------
    def _admit(self) -> None:
        with self._inflight_lock:
            if self._inflight >= self.config.max_inflight:
                self.metrics.inc("queries_rejected")
                raise AdmissionError(
                    f"service at max in-flight queries "
                    f"({self.config.max_inflight}); retry later"
                )
            self._inflight += 1

    def _release(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1

    @property
    def inflight(self) -> int:
        """Number of queries currently admitted."""
        with self._inflight_lock:
            return self._inflight

    # ------------------------------------------------------------------
    # the query path
    # ------------------------------------------------------------------
    def query(
        self,
        graph_name: str,
        query: QueryGraph,
        constraints: TemporalConstraints,
        algorithm: str | None = None,
        limit: int | None = None,
        time_budget: Any = _UNSET_BUDGET,
        workers: int | None = None,
        collect_matches: bool = True,
        use_result_cache: bool = True,
        options: dict[str, Any] | None = None,
        plan: str | None = None,
        order_by: str | None = None,
        mode: str | None = None,
        trace: bool = False,
    ) -> ServiceResult:
        """Execute one query end to end through the serving stack.

        ``time_budget`` defaults to the config's per-query budget; pass
        ``None`` explicitly for an unbounded run.  On deadline expiry the
        partial prefix comes back tagged ``timed_out`` (and is excluded
        from the result cache); a match ``limit`` tags ``truncated``
        (and, precisely, ``truncated_by_limit``).

        ``order_by="earliest"`` returns the exact global top-``limit``
        matches ordered by latest edge timestamp (ties broken by the full
        timestamp/vertex/edge vector), merged across partitions; without
        a ``limit`` it returns the full set, sorted.  ``mode`` selects
        the answer shape: ``"enumerate"`` (default), ``"count"`` (no
        match payloads) or ``"estimate"`` (HT sampling estimate with a
        95% CI — never enumerates, never touches the plan or result
        cache; tune with ``options={"probes": ..., "seed": ...}``).  All
        three, plus ``limit``, are part of the result-cache key, so a
        cached full enumeration can never answer a ``limit=k`` query and
        estimates never pollute exact entries.

        ``plan`` selects the matching-order planner (``"paper"`` or
        ``"cost"``); it is folded into the matcher options, so plan and
        result caches key distinct plans separately.

        Every plan runs the generated enumerator of its query shape
        (:mod:`repro.core.codegen`).  A ``codegen`` entry in *options*
        is accepted and dropped: it selects nothing and splits no cache
        key.

        ``trace=True`` forces tracing for this query; otherwise the
        configured sample rate decides.  Traced queries bypass the result
        cache (both read and write) so the trace reflects a real
        execution, and come back with a ``trace_id`` resolvable through
        the trace store / ``trace`` op.
        """
        pattern = _Pattern(
            pattern_fingerprint(query, constraints), parsed=(query, constraints)
        )
        steps = self._query_steps(
            graph_name,
            pattern,
            reply=False,
            algorithm=algorithm,
            limit=limit,
            time_budget=time_budget,
            workers=workers,
            collect_matches=collect_matches,
            use_result_cache=use_result_cache,
            options=options,
            plan=plan,
            order_by=order_by,
            mode=mode,
            trace=trace,
        )
        result, _ = _answer(steps)
        return result

    def _query_steps(
        self,
        graph_name: str,
        pattern: _Pattern,
        *,
        reply: bool,
        algorithm: str | None,
        limit: int | None,
        time_budget: Any,
        workers: int | None,
        collect_matches: bool,
        use_result_cache: bool,
        options: dict[str, Any] | None,
        plan: str | None,
        order_by: str | None,
        mode: str | None,
        trace: bool,
    ) -> _QuerySteps:
        """The query path :meth:`query` and the JSONL ``query`` op share,
        in its two steps.

        The lookup step runs to a ``yield``: request defaults, admission,
        the graph handle, the sampling decision, the result key and the
        result-cache read.  A hit returns there.  Every other query (a
        miss, a traced or uncached one, an estimate) yields holding its
        admission slot, and the execute step resumes it, on any thread
        and once: plan, run, cache put and meter.  The slot is released
        when the steps end, or when they are closed (or collected)
        unresumed.

        Returns the result and, when *reply* is set, its JSONL payload.
        A result-cache hit returns the entry as it was stored: the result
        already tagged as a hit, and the payload its first JSONL hit
        built (callers must not mutate it).
        """
        algo = (algorithm or self.config.default_algorithm).lower()
        budget: float | None = (
            self.config.default_time_budget
            if time_budget is _UNSET_BUDGET
            else time_budget
        )
        check_time_budget(budget)
        options = dict(options) if options else {}
        if plan is not None:
            options["plan"] = plan
        # Accepted for compatibility; it selects nothing.
        options.pop("codegen", None)
        order = (order_by or "any").lower()
        answer_mode = (mode or "enumerate").lower()
        if answer_mode == "count":
            collect_matches = False
        include_matches = collect_matches and answer_mode == "enumerate"
        self._admit()
        try:
            handle = self.graphs.get(graph_name)
            traced = trace or self._sampler.should_sample()
            tr: TraceSink = Tracer() if traced else NULL_TRACER
            if answer_mode == "estimate":
                # Estimation short-circuits the whole enumeration stack:
                # no plan, no fan-out, and — critically — no result-cache
                # read or write, so approximate counts never masquerade
                # as exact entries.
                yield
                result = self._estimate(handle, pattern, options, tr, budget)
                self._meter(result.algorithm, result, result_hit=False)
                return result, result.to_dict(include_matches) if reply else None
            options_hash = options_fingerprint(options)
            match_opts = MatchOptions(
                limit=limit,
                collect_matches=collect_matches,
                order_by=order,
                mode=answer_mode,
            )
            result_key = ResultKey(
                graph_name=handle.name,
                graph_version=handle.version,
                graph_fingerprint=handle.snapshot.fingerprint,
                pattern=pattern.fingerprint,
                algorithm=algo,
                options=options_hash,
                match_options=match_options_fingerprint(match_opts),
            )
            if use_result_cache and not traced:
                cached = self.results.get(result_key)
                if cached is not None:
                    self._meter(algo, cached.result, result_hit=True)
                    if not reply:
                        return cached.result, None
                    if cached.reply is None:
                        # The entry's first JSONL hit builds its reply.
                        cached = cached._replace(
                            reply=cached.result.to_dict(include_matches)
                        )
                        self.results.put(result_key, cached)
                    return cached.result, cached.reply
                self.metrics.inc("result_cache_misses")

            # The search: everything below is the execute step.
            yield
            plan_key = PlanKey(
                graph_name=handle.name,
                graph_version=handle.version,
                graph_fingerprint=handle.snapshot.fingerprint,
                pattern=pattern.fingerprint,
                algorithm=algo,
                options=options_hash,
            )

            def build_plan() -> CachedPlan:
                # Plans are prepared against the handle's frozen CSR
                # snapshot — the registry compiled it exactly once at
                # registration, so prepare() never recompiles here.
                query, constraints = pattern.parsed()
                matcher = create_matcher(
                    algo, query, constraints, handle.snapshot, **options
                )
                build_start = time.perf_counter()
                with tr.span("prepare", algorithm=matcher.name):
                    matcher.prepare(tracer=tr)
                build_seconds = time.perf_counter() - build_start
                self.metrics.observe("prepare_seconds", build_seconds)
                return CachedPlan(
                    key=plan_key, matcher=matcher, build_seconds=build_seconds
                )

            plan, plan_hit = self.plans.get_or_build(plan_key, build_plan)
            self.metrics.inc(
                "plan_cache_hits" if plan_hit else "plan_cache_misses"
            )

            deadline = (
                time.monotonic() + budget if budget is not None else None
            )
            count = self.executor.effective_workers(plan.matcher, workers)
            # The registry exports a shared segment exactly when the pool
            # is "process"; a one-partition query runs on this thread on
            # the cached plan either way.
            shared = handle.shared if count > 1 else None
            with tr.span("enumerate", algorithm=algo) as span:
                if shared is not None:
                    # Workers attach to the segment by name and keep
                    # their own prepared copy of this plan under its
                    # key.  The addref/close pair keeps a just-replaced
                    # segment linked until this fan-out completes.
                    query, constraints = pattern.parsed()
                    shared.addref()
                    try:
                        spec = ProcessSpec(
                            query=query,
                            constraints=constraints,
                            graph=shared,
                            algorithm=algo,
                            plan_key=plan_key,
                            limit=limit,
                            time_budget=(
                                None
                                if deadline is None
                                else max(0.0, deadline - time.monotonic())
                            ),
                            collect_matches=collect_matches,
                            order_by=order,
                            mode=answer_mode,
                            options=options,
                        )
                        # Traced workers ship their partition spans
                        # back; they land under this enumerate span.
                        outcome = self.executor.run_process(
                            spec,
                            workers=count,
                            tracer=tr if isinstance(tr, Tracer) else None,
                        )
                    finally:
                        shared.close()
                else:
                    outcome = self.executor.run_matcher(
                        plan.matcher,
                        limit=limit,
                        deadline=deadline,
                        collect_matches=collect_matches,
                        order_by=order,
                        mode=answer_mode,
                        tracer=tr,
                    )
                span.annotate(
                    matches=outcome.stats.matches,
                    partitions=outcome.partitions,
                )
            merge_prepare_stats(plan.matcher, outcome.stats)

            trace_id: str | None = None
            if isinstance(tr, Tracer):
                trace_id = self._retain_trace(
                    tr, handle, algo, pattern.fingerprint
                )
            timed_out = outcome.stats.deadline_hit
            result = ServiceResult(
                graph=handle.name,
                graph_version=handle.version,
                algorithm=algo,
                matches=outcome.matches,
                match_count=(
                    len(outcome.matches)
                    if collect_matches
                    else outcome.stats.matches
                ),
                timed_out=timed_out,
                truncated=outcome.truncated_by_limit,
                truncated_by_limit=outcome.truncated_by_limit,
                truncated_by_deadline=timed_out,
                ordered=outcome.ordered,
                plan_cache="hit" if plan_hit else "miss",
                result_cache="miss" if use_result_cache else "bypass",
                build_seconds=0.0 if plan_hit else plan.build_seconds,
                queue_seconds=outcome.queue_seconds,
                match_seconds=outcome.match_seconds,
                partitions=outcome.partitions,
                stats=outcome.stats,
                trace_id=trace_id,
                worker_compiles=outcome.worker_compiles,
                worker_graph_bytes=outcome.worker_graph_bytes,
                worker_plan_hits=outcome.worker_plan_hits,
            )
            if use_result_cache and not timed_out and not traced:
                hit = replace(result, result_cache="hit", queue_seconds=0.0)
                self.results.put(result_key, _CachedAnswer(hit, None))
            self._meter(algo, result, result_hit=False)
            return result, result.to_dict(include_matches) if reply else None
        finally:
            self._release()

    def _estimate(
        self,
        handle: GraphHandle,
        pattern: _Pattern,
        options: dict[str, Any],
        tr: TraceSink,
        budget: float | None,
    ) -> ServiceResult:
        """Answer a ``mode="estimate"`` query via HT sampling.

        Runs :func:`find_matches` directly against the handle's frozen
        snapshot — no plan cache (there is no plan), no executor fan-out,
        and the result is never written to the exact-result cache.  The
        probe count bounds the work; *budget* rides along for parity
        with the enumeration path.
        """
        opts = dict(options)
        opts.pop("plan", None)
        probes = int(opts.pop("probes", 200))
        seed = int(opts.pop("seed", 0))
        query, constraints = pattern.parsed()
        engine_result = find_matches(  # reprolint: disable=R009 -- budget rides in MatchOptions(time_budget=...)
            query,
            constraints,
            handle.snapshot,
            options=MatchOptions(mode="estimate", time_budget=budget),
            tracer=tr,
            probes=probes,
            seed=seed,
        )
        trace_id: str | None = None
        if isinstance(tr, Tracer):
            trace_id = self._retain_trace(
                tr, handle, engine_result.algorithm, pattern.fingerprint
            )
        return ServiceResult(
            graph=handle.name,
            graph_version=handle.version,
            algorithm=engine_result.algorithm,
            matches=(),
            match_count=engine_result.num_matches,
            timed_out=False,
            truncated=False,
            plan_cache="bypass",
            result_cache="bypass",
            build_seconds=engine_result.build_seconds,
            queue_seconds=0.0,
            match_seconds=engine_result.match_seconds,
            partitions=1,
            estimate=engine_result.estimate,
            stats=engine_result.stats,
            trace_id=trace_id,
        )

    def _retain_trace(
        self,
        tracer: Tracer,
        handle: GraphHandle,
        algorithm: str,
        pattern_hash: str,
    ) -> str:
        """Export *tracer*, store the payload, and meter span durations."""
        trace_id = self.traces.next_trace_id()
        self.traces.put(
            trace_id,
            {
                "trace_id": trace_id,
                "graph": handle.name,
                "graph_version": handle.version,
                "algorithm": algorithm,
                "pattern": pattern_hash,
                "chrome": to_chrome_trace(tracer),
                "tree": render_span_tree(tracer),
            },
        )
        self.metrics.inc("queries_traced")
        for span in tracer.spans():
            category = span.name.split(":", 1)[0]
            self.metrics.observe(f"span_seconds.{category}", span.duration)
        return trace_id

    def _meter(
        self, algorithm: str, result: ServiceResult, result_hit: bool
    ) -> None:
        """Record the per-query counters and latency observations."""
        self.metrics.inc("queries_total")
        self.metrics.inc(f"queries_total.{algorithm}")
        if result_hit:
            self.metrics.inc("result_cache_hits")
            return
        if result.timed_out:
            self.metrics.inc("queries_timed_out")
        if result.truncated_by_limit or result.truncated:
            self.metrics.inc("queries_truncated")
        if result.estimate is not None:
            self.metrics.inc("queries_estimated")
        self.metrics.observe("queue_seconds", result.queue_seconds)
        self.metrics.observe("match_seconds", result.match_seconds)
        self.metrics.observe(
            "total_seconds",
            result.build_seconds + result.queue_seconds + result.match_seconds,
        )
        self.metrics.inc(
            "timestamps_expanded", result.stats.timestamps_expanded
        )
        self.metrics.inc(
            "timestamps_skipped", result.stats.timestamps_skipped
        )
        for name, bucket in result.stats.filters.items():
            self.metrics.inc(f"filter_considered.{name}", bucket.considered)
            self.metrics.inc(f"filter_pruned.{name}", bucket.pruned)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> dict[str, Any]:
        """Metrics plus cache/registry occupancy and per-algorithm QPS."""
        snapshot = self.metrics.snapshot()
        counters = snapshot["counters"]
        assert isinstance(counters, dict)
        uptime = self.metrics.uptime_seconds()
        qps = {
            name.split(".", 1)[1]: (count / uptime if uptime > 0 else 0.0)
            for name, count in counters.items()
            if name.startswith("queries_total.")
        }
        snapshot["qps"] = qps
        snapshot["graphs"] = [
            handle.describe() for handle in self.graphs.handles()
        ]
        snapshot["plan_cache_entries"] = len(self.plans)
        snapshot["result_cache_entries"] = len(self.results)
        snapshot["trace_store_entries"] = len(self.traces)
        snapshot["inflight"] = self.inflight
        with self._streams_lock:
            streams = sorted(self._streams.items())
        snapshot["streaming"] = {
            name: engine.metrics_snapshot() for name, engine in streams
        }
        return snapshot

    # ------------------------------------------------------------------
    # JSON request dispatch
    # ------------------------------------------------------------------
    def submit(self, request: dict[str, Any] | PendingRequest) -> dict[str, Any]:
        """Handle one JSON-level request; never raises.

        Known ops: ``query``, ``load_graph``, ``drop_graph``, ``graphs``,
        ``metrics``, ``trace``, ``ping``, ``shutdown``, plus the
        streaming ops ``subscribe``, ``ingest``, ``unsubscribe`` and
        ``poll`` (see docs/SERVICE.md and docs/STREAMING.md).  Responses
        always carry
        ``status`` (``ok`` / ``error`` / ``rejected``), echo the request
        ``op`` and, when present, its ``id``.

        A request runs :meth:`lookup` first; a :class:`PendingRequest`
        that ``lookup`` returned continues from where it stopped.
        """
        step = request if isinstance(request, PendingRequest) else self.lookup(request)
        if isinstance(step, dict):
            return step
        return self._finish(step)

    def lookup(self, request: dict[str, Any]) -> dict[str, Any] | PendingRequest:
        """The part of :meth:`submit` that needs no search.

        Returns the reply of a request that needs none: a result-cache
        hit, ``poll``, ``ping``, ``metrics``, ``graphs``, ``trace``, and
        every error or rejection envelope.  Any other request comes back
        as a :class:`PendingRequest` for ``submit`` to finish: a query
        past its admission and result-cache read, an op that changes
        state untouched.  A request is looked up once: ``submit`` does
        not repeat the lookup for a pending request.
        """
        op = request.get("op", "query")
        if op == "query":
            return self._respond(request, lambda: self._lookup_query(request))
        if op in _STATE_OPS:
            return PendingRequest(request)
        return self._respond(request, lambda: self._dispatch(op, request))

    def _finish(self, pending: PendingRequest) -> dict[str, Any]:
        """Run the work *pending* has left; its reply."""

        def work() -> dict[str, Any]:
            if pending.steps is None:
                return self._dispatch(pending.get("op", "query"), pending.request)
            return cast("dict[str, Any]", _answer(pending.steps)[1])

        return cast("dict[str, Any]", self._respond(pending.request, work))

    def _respond(
        self,
        request: dict[str, Any],
        work: Callable[[], dict[str, Any] | PendingRequest],
    ) -> dict[str, Any] | PendingRequest:
        """*work*'s payload in an ``ok`` envelope, its failure in an
        ``error`` or ``rejected`` one; a pending request passes through."""
        base: dict[str, Any] = {"op": request.get("op", "query")}
        if "id" in request:
            base["id"] = request["id"]
        try:
            payload = work()
        except AdmissionError as exc:
            return {**base, "status": "rejected", "error": str(exc)}
        except ReproError as exc:
            return {**base, "status": "error", "error": str(exc)}
        except (TypeError, ValueError, KeyError, OverflowError) as exc:
            return {
                **base,
                "status": "error",
                "error": f"bad request: {exc!r}",
            }
        if isinstance(payload, PendingRequest):
            return payload
        return {**base, "status": "ok", **payload}

    def _dispatch(self, op: str, request: dict[str, Any]) -> dict[str, Any]:
        """Every op but ``query``."""
        if op == "load_graph":
            handle = self.load_graph_file(
                str(request["name"]),
                str(request["path"]),
                **_numbers(request, num_labels=int, seed=int),
            )
            return {"graph": handle.describe()}
        if op == "drop_graph":
            self.drop_graph(str(request["name"]))
            return {}
        if op == "graphs":
            return {
                "graphs": [h.describe() for h in self.graphs.handles()]
            }
        if op == "metrics":
            return {"metrics": self.metrics_snapshot()}
        if op == "trace":
            trace_id = request.get("trace_id")
            if trace_id is None:
                return {"traces": self.traces.ids()}
            payload = self.traces.get(str(trace_id))
            if payload is None:
                raise ValueError(f"unknown trace id {trace_id!r}")
            return {"trace": payload}
        if op == "subscribe":
            return self._handle_subscribe(request)
        if op == "ingest":
            return self._handle_ingest(request)
        if op == "unsubscribe":
            final = self.stream_unsubscribe(str(request["subscription_id"]))
            return {"subscription": final.describe()}
        if op == "poll":
            return self._handle_poll(request)
        if op == "ping":
            return {"pong": True}
        if op == "shutdown":
            return {}
        raise ValueError(f"unknown op {op!r}")

    def _request_pattern(self, request: dict[str, Any]) -> _Pattern:
        """A query request's pattern, fingerprinted without a parse when
        the same pattern data was parsed before."""
        if "pattern" not in request:
            if "pattern_path" not in request:
                raise ValueError(
                    "query request needs 'pattern' or 'pattern_path'"
                )
            query, constraints = load_pattern(str(request["pattern_path"]))
            return _Pattern(
                pattern_fingerprint(query, constraints),
                parsed=(query, constraints),
            )
        raw = request["pattern"]
        key = pattern_key(raw)
        if key is not None:
            fingerprint = self._patterns.get(key)
            if fingerprint is not None:
                return _Pattern(fingerprint, raw=raw)
        parsed = pattern_from_dict(raw)
        fingerprint = pattern_fingerprint(*parsed)
        if key is not None:
            self._patterns.put(key, fingerprint)
        return _Pattern(fingerprint, parsed=parsed)

    def _lookup_query(
        self, request: dict[str, Any]
    ) -> dict[str, Any] | PendingRequest:
        """A query request's fields and lookup step: its reply on a
        result-cache hit, else its pending execute step."""
        pattern = self._request_pattern(request)
        count_only = _flag(request, "count_only")
        budget: Any = _UNSET_BUDGET
        if "time_budget" in request:
            budget = _number(request, "time_budget", float)
        limit = _number(request, "limit", int)
        workers = _number(request, "workers", int)
        algorithm = request.get("algorithm")
        if algorithm is not None:
            algorithm = str(algorithm)
        plan = request.get("plan")
        if plan is not None:
            plan = str(plan)
        order_by = request.get("order_by")
        if order_by is not None:
            order_by = str(order_by)
        mode = request.get("mode")
        if mode is not None:
            mode = str(mode)
        options: dict[str, Any] | None = None
        if (mode or "enumerate").lower() == "estimate":
            options = _numbers(request, probes=int, seed=int)
        steps = self._query_steps(
            str(request["graph"]),
            pattern,
            reply=True,
            algorithm=algorithm,
            limit=limit,
            time_budget=budget,
            workers=workers,
            collect_matches=not count_only,
            use_result_cache=True,
            options=options,
            plan=plan,
            order_by=order_by,
            mode=mode,
            trace=_flag(request, "trace"),
        )
        answer = _advance(steps)
        if answer is None:
            return PendingRequest(request, steps)
        return cast("dict[str, Any]", answer[1])

    def _handle_subscribe(self, request: dict[str, Any]) -> dict[str, Any]:
        if "pattern" in request:
            query, constraints = pattern_from_dict(request["pattern"])
        elif "pattern_path" in request:
            query, constraints = load_pattern(str(request["pattern_path"]))
        else:
            raise ValueError(
                "subscribe request needs 'pattern' or 'pattern_path'"
            )
        options = SubscriptionOptions(
            **_numbers(
                request, queue_capacity=int, lateness=int, search_budget=float
            )
        )
        sub_id = request.get("subscription_id")
        sub = self.stream_subscribe(
            str(request["graph"]),
            query,
            constraints,
            options,
            sub_id=None if sub_id is None else str(sub_id),
        )
        return {"subscription": sub.describe()}

    def _handle_ingest(self, request: dict[str, Any]) -> dict[str, Any]:
        edges = request.get("edges")
        if not isinstance(edges, list):
            raise ValueError("ingest request needs an 'edges' list")
        report, trace_id = self.stream_ingest(
            str(request["graph"]),
            edges,
            trace=_flag(request, "trace"),
        )
        payload: dict[str, Any] = {"report": report.to_dict()}
        if trace_id is not None:
            payload["trace_id"] = trace_id
        return payload

    def _handle_poll(self, request: dict[str, Any]) -> dict[str, Any]:
        emissions = self.stream_poll(
            str(request["subscription_id"]), _number(request, "max", int)
        )
        return {
            "emissions": [emission.to_dict() for emission in emissions],
            "count": len(emissions),
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the worker pool down and release shared segments (idempotent)."""
        self.executor.close()
        self.graphs.close()

    def __enter__(self) -> "TCSMService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _advance(steps: _QuerySteps) -> _Answer | None:
    """Run *steps* to its answer, or to its search (None)."""
    try:
        next(steps)
    except StopIteration as end:
        return cast(_Answer, end.value)
    return None


def _answer(steps: _QuerySteps) -> _Answer:
    """Run *steps* to its answer, through its search if it has one."""
    answer = _advance(steps)
    return answer if answer is not None else cast(_Answer, _advance(steps))


def _flag(request: dict[str, Any], name: str) -> bool:
    """A boolean request field: a JSON boolean, or absent or null (false)."""
    value = request.get(name)
    if value is None or isinstance(value, bool):
        return value is True
    raise ValueError(f"{name!r} must be a JSON boolean, not {value!r}")


def _number(
    request: dict[str, Any], name: str, kind: type[int] | type[float]
) -> Any:
    """A numeric request field, or None when it is absent or null.

    An ``int`` field must be a JSON integer, a ``float`` (seconds) field
    any JSON number; a boolean is neither, and nothing is rounded.
    """
    value = request.get(name)
    if value is None:
        return None
    allowed = int if kind is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, allowed):
        what = "integer" if kind is int else "number"
        # An infinite count stays an OverflowError: no integer holds it.
        inf = isinstance(value, float) and math.isinf(value)
        error = OverflowError if inf else ValueError
        raise error(f"{name!r} must be a JSON {what}, not {value!r}")
    return kind(value)


def _numbers(
    request: dict[str, Any], **fields: type[int] | type[float]
) -> dict[str, Any]:
    """The given numeric fields of *request* that are present and not
    null, typed by :func:`_number`: keyword arguments whose absence
    keeps the callee's default."""
    found = {name: _number(request, name, kind) for name, kind in fields.items()}
    return {name: value for name, value in found.items() if value is not None}


def parse_request_line(line: str, max_bytes: int) -> tuple[dict[str, Any], bool]:
    """Parse one stripped JSONL request line.

    Returns ``(request, True)`` for a JSON object of at most *max_bytes*
    characters, else ``(error envelope, False)``: the response a
    malformed or oversized line gets instead of a crash.  Both stdio
    loops (this module's and the async front door's) parse through it.
    """
    try:
        if len(line) > max_bytes:
            raise ValueError(
                f"request line exceeds max_request_bytes "
                f"({len(line)} > {max_bytes})"
            )
        request = json.loads(line)
        if not isinstance(request, dict):
            raise ValueError("request must be a JSON object")
    except ValueError as exc:
        return {"status": "error", "error": f"invalid request line: {exc}"}, False
    return request, True


def serve_stdio(
    service: TCSMService,
    in_stream: IO[str],
    out_stream: IO[str],
) -> int:
    """Serve newline-delimited JSON requests until EOF or ``shutdown``.

    Each input line is one request object; each output line is exactly
    one response object (malformed JSON or an oversized line yields an
    error response, not a crash).  Returns the number of requests
    served.
    """
    served = 0
    max_bytes = service.config.max_request_bytes
    for line in in_stream:
        line = line.strip()
        if not line:
            continue
        payload, ok = parse_request_line(line, max_bytes)
        response = service.submit(payload) if ok else payload
        out_stream.write(json.dumps(response) + "\n")
        out_stream.flush()
        served += 1
        if ok and payload.get("op") == "shutdown":
            break
    return served
