"""Query execution: one partition in-process, or a partitioned process pool.

Two pool flavours:

``thread`` (default)
    Every query runs as one partition on the thread that called the
    service's ``submit`` (the front door's service thread, or the
    caller's own).  The prepared matcher comes from the plan cache and
    keeps its per-run state inside ``run()``, so concurrent queries
    share it safely.  The paper's searches are sequential backtracking,
    and under the GIL a thread fan-out runs no faster, so the thread
    pool never partitions: :meth:`QueryExecutor.effective_workers`
    returns 1.

``process`` (opt-in)
    One query fans out as ``count`` partitions of the root candidate
    space (see :mod:`repro.core.partition`), one per worker of a
    persistent pool of forked processes, started on the first process
    query and joined by :meth:`QueryExecutor.close`.  Each worker owns
    one duplex pipe to the parent: the parent sends it one task, the
    worker sends back one reply, and nothing else sits between them.
    A query takes all of its workers at once (first come, first
    served), so two concurrent queries never each hold half of what
    the other waits for.  Each worker enumerates its slice with its own
    :class:`SearchStats`; the executor concatenates matches in
    partition order and merges the stats.  Because partitions are
    disjoint and jointly exhaustive, the merged match multiset is
    *identical* to a single-partition run — the determinism guard in
    the test suite pins this.  Each task names the graph by its
    shared-memory segment (:class:`~repro.graphs.SharedSnapshot`), so
    workers attach to the one graph image — zero buffer copies, zero
    recompiles — and each worker keeps an LRU of prepared matchers keyed
    by the query's plan key, so a repeated plan skips ``prepare()`` in
    the worker just as the plan cache skips it in-process.  Worker plans
    run the shape enumerators their parent resolved before the fork.
    Before each task a worker drops the plans and
    mappings of graphs the parent has since replaced or dropped.  A
    worker that dies mid-query fails that query with
    :class:`~repro.errors.WorkerCrashedError`; that query's workers are
    killed and the next process query forks replacements.  A traced
    query's workers record their partition's spans and ship them back,
    and the parent grafts them under its ``enumerate`` span.

Each process outcome carries per-worker probes (compiles, owned CSR
bytes, plan cache hits, process ids) so tests and benchmarks can assert
the compile-once, share-one-image and prepare-once guarantees.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import pickle
import threading
import time
import traceback
from collections import deque
from collections.abc import Hashable
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from ..core import (
    Match,
    Matcher,
    SearchStats,
    create_matcher,
    run_prepared,
    supports_partition,
)
from ..core.sinks import match_sort_key
from ..errors import WorkerCrashedError
from ..graphs import (
    GraphSnapshot,
    QueryGraph,
    SharedSnapshot,
    TemporalConstraints,
    snapshot_compile_count,
    snapshot_write_barrier,
)
from ..graphs.shm import (
    detach_shared_snapshot,
    release_inherited_segments,
    retired_attachments,
)
from ..obs import (
    NULL_TRACER,
    Span,
    TraceSink,
    Tracer,
    assert_lock_held,
    sanitize_enabled,
)
from .cache import LRUCache

__all__ = ["ExecutionOutcome", "ProcessSpec", "QueryExecutor"]


@dataclass(frozen=True)
class ExecutionOutcome:
    """Merged result of one (possibly partitioned) query execution.

    ``truncated_by_limit`` is set when the match limit shaped the
    returned set (early exit for unordered limits, k-of-N selection for
    exact top-k); ``ordered`` marks an ``order_by="earliest"`` run whose
    merged matches are globally sorted ascending by latest edge time.

    The ``worker_*`` fields are per-partition probes of process runs
    (empty for in-process runs): how many CSR snapshot compilations the
    partition triggered in its worker, how many CSR bytes the worker's
    graph owns privately (0: attached to the shared segment), whether
    the worker's plan cache already held the prepared matcher, and the
    worker's process id.
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
    worker_plan_hits: tuple[bool, ...] = ()
    worker_pids: tuple[int, ...] = ()


@dataclass(frozen=True)
class ProcessSpec:
    """One process-pool query: its plan, its graph, its run parameters.

    ``graph`` is the graph's shared-memory export; it pickles as its
    segment name, so a task costs a few hundred bytes plus the pattern
    whatever the graph's size.  ``plan_key`` names the prepared plan in
    each worker's cache (the service passes its
    :class:`~repro.service.PlanKey`); the pattern, algorithm and options
    ride along so a worker that misses can prepare the plan itself.

    ``time_budget`` is the *remaining* per-query budget at fan-out time;
    each worker derives its own deadline from it when it starts its
    partition, so process workers honour the same budget protocol as
    an in-process run.
    """

    query: QueryGraph
    constraints: TemporalConstraints
    graph: SharedSnapshot
    algorithm: str
    plan_key: Hashable
    limit: int | None = None
    time_budget: float | None = None
    collect_matches: bool = True
    order_by: str = "any"
    mode: str = "enumerate"
    options: dict[str, Any] = field(default_factory=dict)


class _WorkerPlans:
    """One pool worker's LRU of prepared matchers.

    Keyed by (segment name, plan key): a hit reuses the matcher its
    first task prepared; a miss prepares one against the attached graph.
    A worker runs one task at a time, so the cache's lock is never
    contended.
    """

    def __init__(self, capacity: int) -> None:
        self._plans: LRUCache[tuple[str, Hashable], Matcher] = LRUCache(
            capacity
        )

    def matcher_for(self, spec: ProcessSpec) -> tuple[Matcher, bool]:
        """The prepared matcher for *spec*, and whether it was cached."""
        key = (spec.graph.name, spec.plan_key)
        matcher = self._plans.get(key)
        if matcher is not None:
            return matcher, True
        graph: GraphSnapshot = spec.graph.snapshot()
        if sanitize_enabled():
            graph = snapshot_write_barrier(graph)
        matcher = create_matcher(
            spec.algorithm, spec.query, spec.constraints, graph, **spec.options
        )
        matcher.prepare()
        self._plans.put(key, matcher)
        return matcher, False

    def sweep(self) -> None:
        """Drop the plans and the mappings of graphs the parent retired."""
        retired = retired_attachments()
        if not retired:
            return
        self._plans.evict(lambda key: key[0] in retired)
        gc.collect()  # evicted matchers hold views into the mapping
        for name in retired:
            detach_shared_snapshot(name)


#: This process's plan cache when it is a pool worker (set once when the
#: worker starts; None in every other process).
_WORKER_PLANS: _WorkerPlans | None = None


def _start_worker(capacity: int) -> None:
    """Worker start-up: drop inherited graph mappings, start the cache."""
    global _WORKER_PLANS
    release_inherited_segments()
    _WORKER_PLANS = _WorkerPlans(capacity)


class _SliceResult(NamedTuple):
    """What a worker returns for one partition."""

    matches: tuple[Match, ...]
    stats: SearchStats
    #: ``time.monotonic()`` when the worker picked the task up.
    started: float
    pid: int
    plan_hit: bool
    #: CSR compilations the task triggered in the worker (0: it attaches).
    compiles: int
    #: CSR bytes the worker's graph owns privately (0: shared segment).
    graph_bytes: int
    #: A traced task's tracer epoch and finished spans (None untraced).
    trace: tuple[float, tuple[Span, ...]] | None = None


def _run_task(
    spec: ProcessSpec, partition: tuple[int, int] | None, traced: bool = False
) -> _SliceResult:
    """Worker entry point: run one partition on the cached plan.

    Returns slice-only stats: prepare-time filter counters stay on the
    worker's matcher, and the service merges its own plan's copy once
    per query, exactly as for an in-process run.  A *traced* task runs
    its slice inside a ``partition:<i>/<n>`` span of a worker-local
    tracer and returns the spans as plain data.
    """
    started = time.monotonic()
    plans = _WORKER_PLANS
    if plans is None:
        raise RuntimeError("_run_task runs only in a QueryExecutor pool worker")
    compile_floor = snapshot_compile_count()
    plans.sweep()
    matcher, hit = plans.matcher_for(spec)
    tracer: TraceSink = Tracer() if traced else NULL_TRACER
    index, count = partition or (0, 1)
    with tracer.span(
        f"partition:{index}/{count}", algorithm=matcher.name
    ) as span:
        run = run_prepared(
            matcher,
            mode=spec.mode,
            order_by=spec.order_by,
            limit=spec.limit,
            collect=spec.collect_matches,
            deadline=(
                None if spec.time_budget is None else started + spec.time_budget
            ),
            partition=partition,
            tracer=tracer,
        )
        span.annotate(matches=run.stats.matches)
    return _SliceResult(
        matches=tuple(run.matches),
        stats=run.stats,
        started=started,
        pid=os.getpid(),
        plan_hit=hit,
        compiles=snapshot_compile_count() - compile_floor,
        graph_bytes=spec.graph.snapshot().owned_nbytes,
        trace=(
            (tracer.epoch, tracer.spans())
            if isinstance(tracer, Tracer)
            else None
        ),
    )


#: A task on a worker's pipe: the pickled :class:`ProcessSpec` (pickled
#: once per query), the partition, and whether the task is traced.
_Task = tuple[bytes, tuple[int, int] | None, bool]

#: A worker's reply: ``(True, _SliceResult)``, or ``(False, (exception,
#: the worker's formatted traceback or None))``.
_Reply = tuple[bool, Any]


class _RemoteTraceback(Exception):
    """A pool worker's traceback, chained as the cause of the exception
    the worker raised (pickling drops the exception's own traceback)."""

    def __str__(self) -> str:
        return str(self.args[0])


def _slice_of(reply: _Reply) -> _SliceResult:
    """The slice *reply* carries; re-raises the worker's exception."""
    ok, value = reply
    if not ok:
        exc, remote = value
        if remote is None:
            raise exc
        raise exc from _RemoteTraceback(remote)
    result: _SliceResult = value
    return result


#: How long a parent waits on a silent pipe before it checks that the
#: worker still lives.  A worker's death normally shows at once as end
#: of file; this bounds the wait when another process forked in the
#: meantime holds a copy of the worker's end.
_LIVENESS_SECONDS = 0.5


def _serve(conn: Any, parent_end: Any, capacity: int) -> None:
    """A pool worker's loop: receive a task, run it, send one reply.

    The reply is a :data:`_Reply`; ``None`` or a closed pipe ends the
    loop.  The worker closes its inherited copy of the parent's end
    first, so the parent's exit shows here as end of file.
    """
    parent_end.close()
    _start_worker(capacity)
    while True:
        try:
            task: _Task | None = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        blob, partition, traced = task
        reply: _Reply
        try:
            reply = (True, _run_task(pickle.loads(blob), partition, traced))
        except Exception as exc:  # the parent re-raises it
            reply = (False, (exc, traceback.format_exc()))
        try:
            conn.send(reply)
        except Exception as exc:  # the reply would not pickle
            error = RuntimeError(f"unsendable worker reply: {exc!r}")
            conn.send((False, (error, traceback.format_exc())))


class _Worker:
    """One forked pool worker and the parent's end of its duplex pipe.

    The pipe carries one task and then its one reply at a time, so a
    worker goes back to the idle set only once its reply has been read.
    """

    def __init__(self, capacity: int) -> None:
        context = _pool_context()
        self.conn, child_end = context.Pipe()
        self.process = context.Process(
            target=_serve,
            args=(child_end, self.conn, capacity),
            name="repro-pool-worker",
            daemon=True,
        )
        self.process.start()
        child_end.close()

    def receive(self) -> _Reply:
        """The worker's reply; :class:`EOFError` when the worker died."""
        while not self.conn.poll(_LIVENESS_SECONDS):
            if not self.process.is_alive():
                raise EOFError(
                    f"worker {self.process.pid} exited "
                    f"(code {self.process.exitcode})"
                )
        try:
            reply: _Reply = self.conn.recv()
        except (EOFError, OSError):
            raise
        except Exception as exc:  # read whole, but would not unpickle
            return False, (exc, None)
        return reply

    def run(
        self,
        spec: ProcessSpec,
        partition: tuple[int, int] | None = None,
        traced: bool = False,
    ) -> _SliceResult:
        """Run one task on this worker and return its slice."""
        blob = pickle.dumps(spec, pickle.HIGHEST_PROTOCOL)
        self.conn.send((blob, partition, traced))
        return _slice_of(self.receive())

    def stop(self, graceful: bool = True) -> None:
        """End the worker and join it: ask it to exit when *graceful*,
        kill it when not (or when it does not exit in time)."""
        if graceful:
            try:
                self.conn.send(None)
            except OSError:
                pass  # already gone
            self.process.join(timeout=_LIVENESS_SECONDS)
        self.process.kill()  # a no-op on an exited worker
        self.process.join()
        self.conn.close()


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
    full enumeration for every worker count.
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
    """Runs prepared queries in-process, or fans them out over processes.

    ``max_workers`` is the number of process-pool workers, and so the
    most partitions one process query fans out into; thread-pool
    queries always run as one partition.  ``worker_plans`` bounds each
    process worker's plan cache.
    """

    def __init__(
        self, max_workers: int = 4, pool: str = "thread", worker_plans: int = 64
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, not {max_workers}")
        if pool not in ("thread", "process"):
            raise ValueError(f"pool must be 'thread' or 'process', not {pool!r}")
        if worker_plans < 1:
            raise ValueError(f"worker_plans must be >= 1, not {worker_plans}")
        self.max_workers = max_workers
        self.pool = pool
        self.worker_plans = worker_plans
        #: Every live worker (None until the first process query forks
        #: the pool, and after close); ``_idle`` holds those free to take.
        self._processes: list[_Worker] | None = None
        self._idle: list[_Worker] = []
        #: Queries waiting to take workers, served first come first.
        self._waiting: deque[object] = deque()
        self._closed = False
        self._processes_lock = threading.Condition(threading.Lock())

    # ------------------------------------------------------------------
    # sizing
    # ------------------------------------------------------------------
    def effective_workers(
        self, matcher: Matcher, workers: int | None = None
    ) -> int:
        """Partition count for *matcher*: requested and capped at
        ``max_workers`` on the process pool; 1 on the thread pool and
        for matchers without partition support (baselines)."""
        if self.pool == "thread" or not supports_partition(matcher):
            return 1
        requested = self.max_workers if workers is None else workers
        return max(1, min(requested, self.max_workers))

    # ------------------------------------------------------------------
    # in-process execution (shared prepared matcher)
    # ------------------------------------------------------------------
    def run_matcher(
        self,
        matcher: Matcher,
        limit: int | None = None,
        deadline: float | None = None,
        collect_matches: bool = True,
        order_by: str = "any",
        mode: str = "enumerate",
        tracer: TraceSink | None = None,
    ) -> ExecutionOutcome:
        """Run *matcher* as one partition on the calling thread.

        The matcher must already be prepared (the plan cache guarantees
        this); per-run state is local to each run, so concurrent callers
        share the one matcher object safely.  The run is the engine's
        one run step (:func:`~repro.core.run_prepared`); it is never
        queued, so ``queue_seconds`` is 0.
        """
        started = time.perf_counter()
        run = run_prepared(
            matcher,
            mode=mode,
            order_by=order_by,
            limit=limit,
            collect=collect_matches,
            deadline=deadline,
            tracer=tracer,
        )
        finished = time.perf_counter()
        return ExecutionOutcome(
            matches=tuple(run.matches),
            stats=run.stats,
            partitions=1,
            queue_seconds=0.0,
            match_seconds=finished - started,
            truncated_by_limit=run.truncated_by_limit,
            ordered=order_by == "earliest",
        )

    # ------------------------------------------------------------------
    # process execution (opt-in; one persistent pool)
    # ------------------------------------------------------------------
    def run_process(
        self,
        spec: ProcessSpec,
        workers: int | None = None,
        tracer: Tracer | None = None,
    ) -> ExecutionOutcome:
        """Run *spec* across the persistent process pool, merging partitions.

        *spec* fans out as *workers* partitions (default
        ``max_workers``); the service sizes it with
        :meth:`effective_workers`.  Starts the pool on first use.
        Concurrent calls share it.  Like
        :meth:`run_matcher`, the outcome's stats cover enumeration only;
        prepare-time filter counters are the caller's to merge once.
        ``queue_seconds`` runs until the first worker starts its task.
        With *tracer*, each worker records its partition's spans and
        they are grafted under the calling thread's innermost open span.

        *workers* above ``max_workers`` is capped there: a query never
        waits for more workers than the pool has.  A worker's ordinary
        exception is re-raised here once every partition has replied,
        and the workers stay in the pool.

        Raises :class:`~repro.errors.WorkerCrashedError` when a worker
        dies mid-query; that query's workers are killed, and the next
        call forks replacements.
        """
        requested = self.max_workers if workers is None else workers
        count = max(1, min(requested, self.max_workers))
        enqueued = time.monotonic()
        blob = pickle.dumps(spec, pickle.HIGHEST_PROTOCOL)
        taken = self._checkout(count)
        try:
            for index, worker in enumerate(taken):
                partition = (index, count) if count > 1 else None
                worker.conn.send((blob, partition, tracer is not None))
            replies = [worker.receive() for worker in taken]
        except (EOFError, OSError) as exc:
            if self._discard(taken):
                raise WorkerCrashedError(
                    "the executor was closed during the query"
                ) from exc
            raise WorkerCrashedError(
                f"a process-pool worker died ({exc}); a fresh worker "
                "replaces it on the next query"
            ) from exc
        except BaseException:
            self._discard(taken)  # replies may be left unread
            raise
        self._release(taken)
        parts = [_slice_of(reply) for reply in replies]
        finished = time.monotonic()
        if tracer is not None:
            for part in parts:
                if part.trace is not None:
                    epoch, spans = part.trace
                    tracer.adopt(spans, epoch, lane=("worker", part.pid))
        first_start = min(part.started for part in parts)
        # Only collected matches keep a top-k heap per partition; a
        # count stops each partition at the limit, as order "any" does.
        heaps = spec.mode == "enumerate" and spec.collect_matches
        matches_merged, stats_merged, truncated = _merge_partitions(
            [(part.matches, part.stats) for part in parts],
            spec.limit,
            spec.order_by if heaps else "any",
        )
        return ExecutionOutcome(
            matches=matches_merged,
            stats=stats_merged,
            partitions=count,
            queue_seconds=max(0.0, first_start - enqueued),
            match_seconds=finished - first_start,
            truncated_by_limit=truncated,
            ordered=spec.order_by == "earliest",
            worker_compiles=tuple(part.compiles for part in parts),
            worker_graph_bytes=tuple(part.graph_bytes for part in parts),
            worker_plan_hits=tuple(part.plan_hit for part in parts),
            worker_pids=tuple(part.pid for part in parts),
        )

    def _checkout(self, count: int) -> list[_Worker]:
        """Take *count* idle workers at once, forking the pool (or the
        replacements of crashed workers) first.

        Taking them all at once means no query holds some workers while
        it waits for more, and queries wait in arrival order, so a large
        fan-out is not starved by smaller ones.
        """
        turn = object()
        with self._processes_lock:
            self._waiting.append(turn)
            try:
                while True:
                    if self._closed:
                        raise RuntimeError(
                            "cannot run a query on a closed executor"
                        )
                    if self._waiting[0] is turn:
                        self._fill_locked()
                        if len(self._idle) >= count:
                            break
                    self._processes_lock.wait()
                taken, self._idle = self._idle[:count], self._idle[count:]
                return taken
            finally:
                self._waiting.remove(turn)
                self._processes_lock.notify_all()

    def _fill_locked(self) -> None:
        """Fork workers until the pool holds ``max_workers``."""
        assert_lock_held(self._processes_lock, "QueryExecutor._processes_lock")
        if self._processes is None:
            self._processes = []
        while len(self._processes) < self.max_workers:
            worker = _Worker(self.worker_plans)
            self._processes.append(worker)
            self._idle.append(worker)

    def _release(self, workers: list[_Worker]) -> None:
        """Return *workers*, their replies read, to the idle set (or stop
        them, when the executor closed meanwhile)."""
        with self._processes_lock:
            closed = self._closed
            if not closed:
                self._idle.extend(workers)
                self._processes_lock.notify_all()
        if closed:
            for worker in workers:
                worker.stop()

    def _discard(self, workers: list[_Worker]) -> bool:
        """Kill and join *workers*, whose pipes may hold unread replies;
        the next checkout forks replacements.  Returns whether the
        executor was closed."""
        with self._processes_lock:
            closed = self._closed
            if self._processes is not None:
                self._processes = [
                    w for w in self._processes if w not in workers
                ]
            self._processes_lock.notify_all()
        for worker in workers:
            worker.stop(graceful=False)
        return closed

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the process pool down, joining every worker (idempotent).

        Idle workers are asked to exit; workers still running a query
        are killed, and that query fails with
        :class:`~repro.errors.WorkerCrashedError`.
        """
        with self._processes_lock:
            workers, self._processes = self._processes or [], None
            idle, self._idle = self._idle, []
            self._closed = True
            self._processes_lock.notify_all()
        busy = [worker for worker in workers if worker not in idle]
        for worker in busy:
            worker.process.kill()
        for worker in idle:
            worker.stop()
        for worker in busy:
            worker.process.join()

    def __enter__(self) -> "QueryExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _pool_context() -> Any:
    """The fork context where the platform has one (workers then inherit
    the imported program instead of re-importing it)."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()  # pragma: no cover - non-POSIX
