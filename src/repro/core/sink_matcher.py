"""The run contract shared by the sink-native matchers.

V2V (Algorithm 2), E2E (Algorithm 4), EVE (Algorithm 5, an E2E
subclass) and the brute-force oracle push every match into a
:class:`~repro.core.sinks.ResultSink` and stop when the sink or the
deadline says so.  :class:`SinkMatcherBase` holds everything about
that contract that does not depend on the algorithm: idempotent
``prepare()``, the tiered codegen state (``compile()``,
``compiled_source``), the pull facade ``run()`` and the dispatching
``run_sink()``.  A subclass supplies its plan-building ``_prepare`` and
its interpreted ``_run_sink``.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator

from ..errors import AlgorithmError
from ..graphs import (
    GraphSnapshot,
    GraphView,
    QueryGraph,
    TemporalConstraints,
    ensure_snapshot,
)
from ..obs import NULL_TRACER, TraceSink

from .codegen import CompiledPlan, compile_enumerator
from .match import Match
from .options import RunContext
from .sinks import CollectSink, ResultSink, StopEnumeration
from .stats import SearchStats

__all__ = ["SinkMatcherBase"]


class SinkMatcherBase:
    """Base of the matchers whose search pushes into a result sink.

    ``codegen`` (V2V and E2E/EVE only; their constructors expose it)
    makes ``prepare`` compile the plan's specialized enumerator at once;
    otherwise the plan runs interpreted until :meth:`compile` is called,
    as the service does on a plan's first reuse.
    """

    name: str
    supports_partition = True
    #: Whether :mod:`repro.core.codegen` has a specializing generator for
    #: this matcher (the engine consults it before forwarding the
    #: ``codegen`` option to the constructor).
    supports_codegen = False
    #: Compile in ``prepare``; set only on matchers with a generator.
    codegen: bool

    def __init__(
        self,
        query: QueryGraph,
        constraints: TemporalConstraints,
        graph: GraphView,
        codegen: bool = False,
    ) -> None:
        if constraints.num_edges != query.num_edges:
            raise AlgorithmError(
                f"constraints expect {constraints.num_edges} query edges, "
                f"query has {query.num_edges}"
            )
        self.query = query
        self.constraints = constraints
        self.graph = graph
        #: The compiled data plane every read goes through (set by
        #: ``prepare``).
        self._view: GraphSnapshot
        if self.supports_codegen:
            self.codegen = codegen
        #: Specialized enumerator set by :meth:`compile`; None means the
        #: interpreted loop runs.
        self._compiled: CompiledPlan | None = None
        self._compile_lock = threading.Lock()
        self._compile_tried = False
        #: Filter counters accumulated during ``prepare`` (merged into a
        #: query's stats exactly once, by ``merge_prepare_stats``).
        self.prepare_stats = SearchStats()
        self._prepared = False

    # ------------------------------------------------------------------
    # preparation
    # ------------------------------------------------------------------
    def prepare(self, tracer: TraceSink | None = None) -> None:
        """Compile the snapshot and build the plan (idempotent)."""
        if self._prepared:
            return
        tr = tracer if tracer is not None else NULL_TRACER
        with tr.span("compile-snapshot"):
            self._view = ensure_snapshot(self.graph)
        self._prepare(tr)
        self._prepared = True
        if self.supports_codegen and self.codegen:
            self.compile(tracer=tr)

    def _prepare(self, tracer: TraceSink) -> None:
        """Build the algorithm's plan over ``self._view``."""

    def compile(self, tracer: TraceSink | None = None) -> bool:
        """Compile this plan's specialized enumerator (idempotent).

        Thread-safe: concurrent callers on one shared plan compile it
        once, under the ``codegen-compile`` span of the caller that does
        the work.  Returns True when this call compiled the enumerator;
        False when an earlier call already compiled (or tried to), the
        matcher has no generator, or the generator declined the query
        shape.  Later runs dispatch to the compiled entry; runs already
        under way finish interpreted.
        """
        if not self.supports_codegen:
            return False
        self.prepare(tracer)
        with self._compile_lock:
            if self._compile_tried:
                return False
            self._compile_tried = True
            tr = tracer if tracer is not None else NULL_TRACER
            with tr.span("codegen-compile", algorithm=self.name) as sp:
                self._compiled = compile_enumerator(self)
                sp.annotate(compiled=self._compiled is not None)
            return self._compiled is not None

    @property
    def compiled_source(self) -> str | None:
        """Generated source of the specialized enumerator, if compiled.

        The debug hook documented in ``docs/CODEGEN.md``; ``None`` until
        :meth:`compile` has run (``prepare`` runs it when ``codegen`` is
        set), or when the generator bailed on this query shape.
        """
        compiled = self._compiled  # reprolint: guarded-by(_compile_lock)
        return None if compiled is None else compiled.source

    # ------------------------------------------------------------------
    # matching
    # ------------------------------------------------------------------
    def run(self, ctx: RunContext) -> Iterator[Match]:
        """Yield all matches (pull facade over :meth:`run_sink`).

        ``ctx.partition=(index, count)`` restricts the search to the
        slice of the root position's candidates owned by that partition
        (see :mod:`repro.core.partition`); the ``count`` partitions
        jointly enumerate exactly the unpartitioned match set, disjointly.
        ``ctx.limit`` and the deadline still stop the search early; the
        returned generator replays the collected prefix.
        """
        self.prepare()
        return self._run_collected(ctx)

    def _run_collected(self, ctx: RunContext) -> Iterator[Match]:
        sink = CollectSink(limit=ctx.limit)
        self.run_sink(ctx, sink)
        yield from sink.finish()

    def run_sink(self, ctx: RunContext, sink: ResultSink) -> None:
        """Push every match into *sink* — the primary entry point.

        Runs the compiled enumerator when the plan has one, else the
        interpreted ``_run_sink``.  A satisfied sink raises
        :class:`StopEnumeration`, which unwinds the DFS recursion
        directly (no further candidates generated, no further timestamps
        expanded); the stop is recorded on ``ctx.stats``
        (:meth:`SearchStats.record_stop`).
        """
        self.prepare()
        # Set once by compile(): a lock-free read sees None or the plan.
        compiled = self._compiled  # reprolint: guarded-by(_compile_lock)
        try:
            if compiled is not None:
                compiled.entry(ctx, sink)
            else:
                self._run_sink(ctx, sink)
        except StopEnumeration:
            ctx.stats.record_stop()

    def _run_sink(self, ctx: RunContext, sink: ResultSink) -> None:
        """The interpreted search (every subclass overrides it)."""
        raise NotImplementedError
