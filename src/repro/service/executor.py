"""Partitioned parallel query execution over a bounded worker pool.

One query fans out as ``count`` partitions of the root candidate space
(see :mod:`repro.core.partition`); each worker enumerates its slice with
its own :class:`SearchStats`, and the executor concatenates matches in
partition order and merges the stats.  Because partitions are disjoint
and jointly exhaustive (under every partition strategy), the merged
match multiset is *identical* to a single-worker run — the determinism
guard in the test suite pins this.

Two pool flavours, per the ``concurrent.futures`` split:

``thread`` (default)
    Workers share the prepared matcher from the plan cache (per-run state
    lives inside ``run()``), so fan-out costs nothing extra in memory.
    Best for short queries and for keeping deadline checks responsive.

``process`` (opt-in)
    Workers build, prepare and run their own matcher in forked child
    processes, sidestepping the GIL for CPU-bound searches.  When the
    spec's graph is a :class:`~repro.graphs.SharedSnapshot`, workers
    attach to the one shared-memory graph image by segment *name* —
    zero buffer copies, zero recompiles, K workers ≈ one graph in
    resident memory (each worker reports its compile delta and owned
    CSR bytes on the outcome so tests and benchmarks can assert this).
    On platforms without ``fork`` the spec is shipped to workers via the
    pool initializer; a shared graph still travels as its segment name
    (``SharedSnapshot.__reduce__``).

The spec travels to fork-started workers through module state captured
at fork time.  That state is epoch-stamped and cleared after every
fan-out (and on executor shutdown), so sequential services in one
process can never observe a stale spec — a worker seeing a mismatched
epoch fails loudly instead of silently running the wrong query.
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

from ..core import (
    Match,
    Matcher,
    RunContext,
    SearchStats,
    create_matcher,
    supports_partition,
)
from ..core.engine import invoke_run_sink
from ..core.sinks import build_sink, match_sort_key
from ..errors import AlgorithmError
from ..graphs import (
    GraphSnapshot,
    GraphView,
    QueryGraph,
    SharedSnapshot,
    TemporalConstraints,
    snapshot_compile_count,
    snapshot_write_barrier,
)
from ..obs import NULL_TRACER, TraceSink, sanitize_enabled

__all__ = ["ExecutionOutcome", "ProcessSpec", "QueryExecutor"]


@dataclass(frozen=True)
class ExecutionOutcome:
    """Merged result of one (possibly partitioned) query execution.

    ``truncated_by_limit`` is set when the match limit shaped the
    returned set (early exit for unordered limits, k-of-N selection for
    exact top-k); ``ordered`` marks an ``order_by="earliest"`` run whose
    merged matches are globally sorted ascending by latest edge time.

    ``worker_compiles`` / ``worker_graph_bytes`` are per-process-worker
    probes (empty for thread runs): how many CSR snapshot compilations
    the partition triggered in its worker, and how many CSR bytes the
    worker's graph instance owns privately (0 when attached to a shared
    segment; -1 when the worker ran against a non-snapshot view).
    """

    matches: tuple[Match, ...]
    stats: SearchStats
    partitions: int
    queue_seconds: float
    match_seconds: float
    truncated_by_limit: bool = False
    ordered: bool = False
    worker_compiles: tuple[int, ...] = ()
    worker_graph_bytes: tuple[int, ...] = ()


@dataclass(frozen=True)
class ProcessSpec:
    """Everything a worker process needs to run one partition.

    ``graph`` may be any in-process :data:`GraphView` *or* a
    :class:`~repro.graphs.SharedSnapshot` handle; the latter pickles as
    its segment name, so spawn-started workers receive a few hundred
    bytes and attach to the one shared graph image
    (:meth:`resolve_graph` performs the attach lazily in the worker).

    ``time_budget`` is the *remaining* per-query budget at fan-out time;
    each worker rebuilds its own absolute deadline from it, so process
    workers honour the same budget protocol as thread workers (modulo
    fork-startup skew).
    """

    query: QueryGraph
    constraints: TemporalConstraints
    graph: GraphView | SharedSnapshot
    algorithm: str
    limit: int | None = None
    time_budget: float | None = None
    collect_matches: bool = True
    partition_strategy: str = "stride"
    order_by: str = "any"
    mode: str = "enumerate"
    options: dict[str, Any] = field(default_factory=dict)

    def resolve_graph(self) -> GraphView:
        """The matcher-facing graph view (attaching shared segments)."""
        if isinstance(self.graph, SharedSnapshot):
            return self.graph.snapshot()
        return self.graph


#: Spec inherited by fork-started workers; set under the process lock of
#: the executor that owns the fan-out (one process fan-out at a time)
#: and epoch-stamped so a worker can detect staleness.
_PROCESS_SPEC: ProcessSpec | None = None
_PROCESS_EPOCH = 0

#: Monotonic fan-out counter (parent process only).
_EPOCH_COUNTER = itertools.count(1)


def _set_process_spec(spec: ProcessSpec | None, epoch: int) -> None:
    global _PROCESS_SPEC, _PROCESS_EPOCH
    _PROCESS_SPEC = spec
    _PROCESS_EPOCH = epoch


def _run_slice(
    spec: ProcessSpec, graph: GraphView, partition: tuple[int, int] | None
) -> tuple[tuple[Match, ...], SearchStats, bool]:
    """Create, prepare and run one slice of *spec* against *graph*.

    The same steps the thread path takes on a cached plan, so the
    returned stats cover the slice's enumeration only: prepare-time
    filter counters stay on the matcher, and the service merges its own
    plan's copy once per query (merging every worker's copy would
    multiply them by the worker count).  Returns the slice's matches,
    its stats, and whether the limit shaped them.
    """
    if sanitize_enabled() and isinstance(graph, GraphSnapshot):
        graph = snapshot_write_barrier(graph)
    matcher = create_matcher(
        spec.algorithm, spec.query, spec.constraints, graph, **spec.options
    )
    matcher.prepare()
    if partition is not None and not supports_partition(matcher):
        raise AlgorithmError(
            f"matcher {matcher.name!r} does not support partitioned "
            "execution"
        )
    deadline = None
    if spec.time_budget is not None:
        deadline = time.monotonic() + spec.time_budget
    ctx = RunContext(
        # Exact top-k needs the full enumeration (see run_matcher).
        limit=None if spec.order_by == "earliest" else spec.limit,
        deadline=deadline,
        partition=partition,
        partition_strategy=spec.partition_strategy,
    )
    sink = build_sink(
        mode=spec.mode,
        order_by=spec.order_by,
        limit=spec.limit,
        collect=spec.collect_matches,
    )
    invoke_run_sink(matcher, ctx, sink)
    truncated = ctx.stats.limit_hit or bool(getattr(sink, "overflowed", False))
    return tuple(sink.finish()), ctx.stats, truncated


def _run_partition_in_process(
    index: int, count: int, epoch: int
) -> tuple[tuple[Match, ...], SearchStats, int, int]:
    """Worker-process entry point: run one partition to completion.

    Returns the partition's matches and stats plus two fan-out probes:
    the number of CSR compilations this partition triggered in the
    worker (0 under snapshot/shared-snapshot shipping — the compile-once
    guarantee) and the CSR bytes the worker's graph owns privately
    (0 when attached to a shared-memory segment).
    """
    spec = _PROCESS_SPEC
    if spec is None or epoch != _PROCESS_EPOCH:
        raise RuntimeError(
            f"worker process spec is stale or missing (expected epoch "
            f"{epoch}, have {_PROCESS_EPOCH}); the owning executor must "
            "set the spec for every fan-out"
        )
    compile_floor = snapshot_compile_count()
    graph = spec.resolve_graph()
    matches, stats, _ = _run_slice(spec, graph, (index, count))
    compiles = snapshot_compile_count() - compile_floor
    owned = graph.owned_nbytes if isinstance(graph, GraphSnapshot) else -1
    return matches, stats, compiles, owned


def _merge_partitions(
    parts: list[tuple[tuple[Match, ...], SearchStats]],
    limit: int | None,
    order_by: str = "any",
) -> tuple[tuple[Match, ...], SearchStats, bool]:
    """Merge partition results into one outcome; returns the truncation flag.

    ``order_by="any"``: partition results are concatenated in partition
    order; with a global *limit* each partition may have returned up to
    *limit* matches, so the merged prefix is re-truncated and the
    truncation flagged.

    ``order_by="earliest"``: each partition carries its own *exact*
    top-k (a per-partition bounded heap — partitions are disjoint and
    jointly exhaustive); the global exact top-k is the k smallest of
    the union under :func:`~repro.core.sinks.match_sort_key`, a
    deterministic multiset identical to the top-k of an unpartitioned
    full enumeration for every partition strategy and worker count.
    """
    matches: list[Match] = []
    stats = SearchStats()
    for part_matches, part_stats in parts:
        matches.extend(part_matches)
        stats.merge(part_stats)
    truncated = stats.limit_hit
    if order_by == "earliest":
        matches.sort(key=match_sort_key)
        if limit is not None and len(matches) > limit:
            del matches[limit:]
        if limit is not None and stats.matches > limit:
            truncated = True
    elif limit is not None and stats.matches >= limit:
        matches = matches[:limit]
        stats.matches = limit
        stats.budget_exhausted = True
        stats.limit_hit = True
        truncated = True
    return tuple(matches), stats, truncated


class QueryExecutor:
    """Bounded worker pool that fans queries out across seed partitions."""

    def __init__(self, max_workers: int = 4, pool: str = "thread") -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, not {max_workers}")
        if pool not in ("thread", "process"):
            raise ValueError(f"pool must be 'thread' or 'process', not {pool!r}")
        self.max_workers = max_workers
        self.pool = pool
        self._threads = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="repro-query"
        )
        self._process_lock = threading.Lock()

    # ------------------------------------------------------------------
    # sizing
    # ------------------------------------------------------------------
    def effective_workers(
        self, matcher: Matcher, workers: int | None = None
    ) -> int:
        """Partition count for *matcher*: requested, capped, and clamped
        to 1 for matchers without partition support (baselines)."""
        requested = self.max_workers if workers is None else workers
        count = max(1, min(requested, self.max_workers))
        if count > 1 and not supports_partition(matcher):
            return 1
        return count

    # ------------------------------------------------------------------
    # thread execution (shared prepared matcher)
    # ------------------------------------------------------------------
    def run_matcher(
        self,
        matcher: Matcher,
        limit: int | None = None,
        deadline: float | None = None,
        workers: int | None = None,
        collect_matches: bool = True,
        partition_strategy: str = "stride",
        order_by: str = "any",
        mode: str = "enumerate",
        tracer: TraceSink | None = None,
    ) -> ExecutionOutcome:
        """Run *matcher* across the thread pool, merging partitions.

        The matcher must already be prepared (the plan cache guarantees
        this); per-run state is local to each run, so all partitions
        share the one matcher object safely.  Every partition enumerates
        into its own sink built from (*mode*, *order_by*, *limit*) — for
        ``order_by="earliest"`` that is a per-partition bounded top-k
        heap whose union merges into the exact global top-k.  When
        *tracer* is given, each fanned-out slice runs inside a
        ``partition:<i>/<n>`` span (recorded on its worker thread).
        """
        tr = tracer if tracer is not None else NULL_TRACER
        enqueued = time.perf_counter()
        count = self.effective_workers(matcher, workers)
        ordered = order_by == "earliest"
        # Exact top-k needs the full (per-partition) enumeration; a
        # context limit would stop pull-based matchers at the first k.
        ctx_limit = None if ordered else limit

        def make_sink() -> Any:
            return build_sink(
                mode=mode,
                order_by=order_by,
                limit=limit,
                collect=collect_matches,
            )

        if count == 1:
            stats = SearchStats()
            ctx = RunContext(
                limit=ctx_limit, deadline=deadline, stats=stats, tracer=tr
            )
            sink = make_sink()
            started = time.perf_counter()
            invoke_run_sink(matcher, ctx, sink)
            finished = time.perf_counter()
            return ExecutionOutcome(
                matches=tuple(sink.finish()),
                stats=stats,
                partitions=1,
                queue_seconds=max(0.0, started - enqueued),
                match_seconds=finished - started,
                truncated_by_limit=stats.limit_hit
                or bool(getattr(sink, "overflowed", False)),
                ordered=ordered,
            )

        base_ctx = RunContext(
            limit=ctx_limit,
            deadline=deadline,
            partition_strategy=partition_strategy,
            tracer=tr,
        )

        def run_partition(
            index: int,
        ) -> tuple[float, tuple[Match, ...], SearchStats]:
            started = time.perf_counter()
            ctx = base_ctx.with_partition(index, count)
            sink = make_sink()
            with tr.span(
                f"partition:{index}/{count}", algorithm=matcher.name
            ) as span:
                invoke_run_sink(matcher, ctx, sink)
                span.annotate(matches=ctx.stats.matches)
            return started, tuple(sink.finish()), ctx.stats

        futures = [
            self._threads.submit(run_partition, index) for index in range(count)
        ]
        results = [future.result() for future in futures]
        finished = time.perf_counter()
        first_start = min(started for started, _, _ in results)
        matches_merged, stats_merged, truncated = _merge_partitions(
            [(part, stats) for _, part, stats in results], limit, order_by
        )
        return ExecutionOutcome(
            matches=matches_merged,
            stats=stats_merged,
            partitions=count,
            queue_seconds=max(0.0, first_start - enqueued),
            match_seconds=finished - first_start,
            truncated_by_limit=truncated,
            ordered=ordered,
        )

    # ------------------------------------------------------------------
    # process execution (opt-in; per-query pool)
    # ------------------------------------------------------------------
    def run_process(
        self, spec: ProcessSpec, workers: int | None = None
    ) -> ExecutionOutcome:
        """Run *spec* across a fresh process pool, merging partitions.

        Serialised per executor: the spec travels to fork-started workers
        through epoch-stamped module state captured at fork time, which
        supports one fan-out at a time.  With one worker the query runs
        inline.  Like :meth:`run_matcher`, the outcome's stats cover
        enumeration only; prepare-time filter counters are the caller's
        to merge once.
        """
        requested = self.max_workers if workers is None else workers
        count = max(1, min(requested, self.max_workers))
        if count == 1:
            started = time.perf_counter()
            matches, stats, truncated = _run_slice(
                spec, spec.resolve_graph(), None
            )
            finished = time.perf_counter()
            return ExecutionOutcome(
                matches=matches,
                stats=stats,
                partitions=1,
                queue_seconds=0.0,
                match_seconds=finished - started,
                truncated_by_limit=truncated,
                ordered=spec.order_by == "earliest",
            )

        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
        else:  # pragma: no cover - non-POSIX fallback
            context = multiprocessing.get_context()
        forked = context.get_start_method() == "fork"
        with self._process_lock:
            epoch = next(_EPOCH_COUNTER)
            _set_process_spec(spec, epoch)
            try:
                pool = ProcessPoolExecutor(
                    max_workers=count,
                    mp_context=context,
                    initializer=None if forked else _set_process_spec,
                    initargs=() if forked else (spec, epoch),
                )
                started = time.perf_counter()
                with pool:
                    futures = [
                        pool.submit(
                            _run_partition_in_process, index, count, epoch
                        )
                        for index in range(count)
                    ]
                    parts = [future.result() for future in futures]
                finished = time.perf_counter()
            finally:
                _set_process_spec(None, epoch)
        matches_merged, stats_merged, truncated = _merge_partitions(
            [(matches, stats) for matches, stats, _, _ in parts],
            spec.limit,
            spec.order_by,
        )
        return ExecutionOutcome(
            matches=matches_merged,
            stats=stats_merged,
            partitions=count,
            queue_seconds=0.0,
            match_seconds=finished - started,
            truncated_by_limit=truncated,
            ordered=spec.order_by == "earliest",
            worker_compiles=tuple(compiles for _, _, compiles, _ in parts),
            worker_graph_bytes=tuple(owned for _, _, _, owned in parts),
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the pools down and drop any fan-out state (idempotent).

        Clearing the module-level spec here is a belt-and-braces
        companion to the per-fan-out ``finally``: a process that builds
        sequential services must never leak one service's spec (and its
        graph reference) into the next pool's forked workers.
        """
        self._threads.shutdown(wait=True)
        with self._process_lock:
            _set_process_spec(None, next(_EPOCH_COUNTER))

    def __enter__(self) -> "QueryExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
