"""The run contract shared by the sink-native matchers.

V2V (Algorithm 2), E2E (Algorithm 4), EVE (Algorithm 5, an E2E
subclass) and the brute-force oracle push every match into a
:class:`~repro.core.sinks.ResultSink` and stop when the sink or the
deadline says so.  :class:`SinkMatcherBase` holds everything about
that contract that does not depend on the algorithm: idempotent
``prepare()``, the pull facade ``run()`` and ``run_sink()``.  A
subclass supplies its plan-building ``_prepare``.  For V2V and E2E/EVE
that builds the plan's tables, which the shape enumerator written by
:mod:`repro.core.codegen` reads; the oracle supplies its own
``_run_sink``.
"""

from __future__ import annotations

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

from .codegen import ShapeEntry, Tables, shape_enumerator
from .match import Match
from .options import RunContext
from .sinks import CollectSink, ResultSink, StopEnumeration
from .stats import SearchStats

__all__ = ["SinkMatcherBase"]


class SinkMatcherBase:
    """Base of the matchers whose search pushes into a result sink."""

    name: str
    supports_partition = True

    def __init__(
        self,
        query: QueryGraph,
        constraints: TemporalConstraints,
        graph: GraphView,
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
        #: The plan as the generated enumerator reads it, and that
        #: enumerator (set by ``prepare`` unless the subclass runs its
        #: own search).
        self.tables: Tables
        self._shape: ShapeEntry
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
        if hasattr(self, "tables"):
            # Resolved here, not at the first run, so a process pool's
            # workers inherit the compiled shape from the parent.
            self._shape = shape_enumerator(self.tables)
        self._prepared = True

    def _prepare(self, tracer: TraceSink) -> None:
        """Build the algorithm's plan over ``self._view`` (with a
        generator: ``self.tables``)."""

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

        Runs ``_run_sink``.  A satisfied sink raises
        :class:`StopEnumeration`, which unwinds the DFS recursion
        directly (no further candidates generated, no further timestamps
        expanded); the stop is recorded on ``ctx.stats``
        (:meth:`SearchStats.record_stop`).
        """
        self.prepare()
        try:
            self._run_sink(ctx, sink)
        except StopEnumeration:
            ctx.stats.record_stop()

    def _run_sink(self, ctx: RunContext, sink: ResultSink) -> None:
        """Run the shape enumerator over this plan's tables (the oracle,
        which has no generator, overrides it)."""
        self._shape(ctx, sink, self.tables)
