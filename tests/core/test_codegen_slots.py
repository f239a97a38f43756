"""Plans reuse their shape's code filename.

CPython keeps every distinct filename it has compiled code under alive
for the rest of the process, so a filename per plan would grow a
long-lived service by one string per plan.  Every plan of a query shape
runs that shape's one enumerator, under the shape's filename
(``<repro-shape:…>``), so the filenames ever used are bounded by the
shapes met, and a plan adds no :mod:`linecache` entry of its own.
"""

import gc
import linecache
import traceback

import pytest

from repro.core import RunContext
from repro.core.engine import create_matcher
from repro.graphs import TemporalConstraints, ensure_snapshot

from .test_codegen_equivalence import ALGORITHMS, random_graph
from .test_run_lifetime import QUERY, RaisingSink, _Boom


@pytest.fixture(scope="module")
def graph():
    return ensure_snapshot(random_graph())


def _prepared(graph, algorithm, gap):
    constraints = TemporalConstraints([(0, 1, gap)], num_edges=2)
    matcher = create_matcher(algorithm, QUERY, constraints, graph)
    matcher.prepare()
    return matcher


def _filename(matcher):
    return matcher._shape.__code__.co_filename


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_dropped_plans_free_their_filenames(graph, algorithm):
    before = set(linecache.cache)
    names = set()
    gc.collect()
    gc.disable()
    try:
        for gap in range(200):
            matcher = _prepared(graph, algorithm, gap)
            names.add(_filename(matcher))
            del matcher
    finally:
        gc.enable()
    # All 200 plans ran under one filename, their shape's.
    (name,) = names
    assert name.startswith("<repro-shape:")
    assert set(linecache.cache) <= before | {name}


def test_reused_filename_shows_the_live_plans_lines(graph):
    first = _prepared(graph, "tcsm-e2e", 50)
    second = _prepared(graph, "tcsm-e2e", 70)
    filename = _filename(second)
    assert _filename(first) == filename
    del first
    try:
        second.run_sink(RunContext(), RaisingSink())
    except _Boom as exc:
        frames = traceback.extract_tb(exc.__traceback__)
    generated = [f for f in frames if f.filename == filename]
    assert generated
    lines = linecache.getlines(filename)
    for frame in generated:
        assert frame.line == lines[frame.lineno - 1].strip()
