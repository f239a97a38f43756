"""Lifetime of enumeration state: runs and compiled plans free what they
hold by reference counting alone.

A service keeps matchers in an LRU and compiles plans without bound, so
neither may lean on the cyclic collector.  With ``gc`` disabled:

* an interpreted V2V, E2E or EVE run leaves no collectable object,
  whether it runs to the end or is stopped by a limit, a deadline or a
  sink that raises (the compiled-plan counterpart is
  ``test_dropped_compiled_plan_is_freed_without_a_collection`` in
  ``test_codegen_equivalence.py``);
* a generated source stays in :mod:`linecache` exactly as long as its
  entry function, so tracebacks out of a live plan show generated lines
  and dropped plans leave nothing behind.
"""

import gc
import linecache
import time
import traceback

import pytest

from repro.core import CollectSink, RunContext
from repro.core.engine import create_matcher
from repro.graphs import QueryGraph, TemporalConstraints, ensure_snapshot

from .test_codegen_equivalence import ALGORITHMS, random_graph

QUERY = QueryGraph(["A", "B", "A"], [(0, 1), (1, 2)])
CONSTRAINTS = TemporalConstraints([(0, 1, 50)], num_edges=2)


class _Boom(Exception):
    pass


class RaisingSink:
    """Raises on the second match, out through the DFS."""

    def __init__(self) -> None:
        self.seen = 0

    def accept(self, match):
        self.seen += 1
        if self.seen == 2:
            raise _Boom

    def finish(self):
        return []


@pytest.fixture(scope="module")
def graph():
    return ensure_snapshot(random_graph())


def _run(matcher, stop):
    """One run of *matcher* stopped by *stop*; returns matches seen."""
    if stop == "raising-sink":
        sink = RaisingSink()
        try:
            matcher.run_sink(RunContext(), sink)
        except _Boom:
            pass
        return sink.seen
    ctx = RunContext(
        limit=3 if stop == "limit" else None,
        deadline=time.monotonic() - 1.0 if stop == "deadline" else None,
    )
    sink = CollectSink(limit=ctx.limit)
    matcher.run_sink(ctx, sink)
    return len(list(sink.finish()))


@pytest.mark.parametrize("stop", ["full", "limit", "deadline", "raising-sink"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_interpreted_run_leaves_no_cycle(graph, algorithm, stop):
    matcher = create_matcher(algorithm, QUERY, CONSTRAINTS, graph)
    matcher.prepare()
    assert matcher.compiled_source is None
    gc.collect()
    gc.disable()
    try:
        seen = _run(matcher, stop)
        leaked = gc.collect()
    finally:
        gc.enable()
    assert leaked == 0
    # Each stop really cut the run short (the full run has > 3 matches).
    expected = {"full": 3, "limit": 3, "deadline": 0, "raising-sink": 2}[stop]
    assert (seen > expected) if stop == "full" else (seen == expected)


def _codegen_keys():
    return {key for key in linecache.cache if key.startswith("<repro-codegen")}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_dropped_plans_leave_no_linecache_entry(graph, algorithm):
    before = _codegen_keys()
    gc.collect()
    gc.disable()
    try:
        for _ in range(50):
            matcher = create_matcher(
                algorithm, QUERY, CONSTRAINTS, graph, codegen=True
            )
            matcher.prepare()
            assert matcher.compiled_source is not None
            del matcher
        assert _codegen_keys() <= before
    finally:
        gc.enable()


def test_live_plan_traceback_shows_generated_lines(graph):
    matcher = create_matcher("tcsm-eve", QUERY, CONSTRAINTS, graph, codegen=True)
    matcher.prepare()
    try:
        matcher.run_sink(RunContext(), RaisingSink())
    except _Boom as exc:
        frames = traceback.extract_tb(exc.__traceback__)
    generated = [f for f in frames if f.filename.startswith("<repro-codegen")]
    assert generated
    assert all(f.line for f in generated)
    assert generated[0].name == "_enumerate"
    assert "accept(" in generated[-1].line
