"""Compiled plans reuse a bounded set of code filenames.

CPython keeps every distinct filename it has compiled code under alive
for the rest of the process, so a fresh filename per compile would grow
a long-lived service by one string per plan.  Each live plan holds a
filename slot until it dies; a later compile takes a freed slot.
"""

import gc
import traceback

import pytest

from repro.core import RunContext
from repro.core.codegen import set_codegen_listener
from repro.core.engine import create_matcher
from repro.graphs import TemporalConstraints, ensure_snapshot

from .test_codegen_equivalence import ALGORITHMS, random_graph
from .test_run_lifetime import QUERY, RaisingSink, _Boom


@pytest.fixture(scope="module")
def graph():
    return ensure_snapshot(random_graph())


@pytest.fixture()
def filenames():
    """Filenames of the plans compiled while the test runs, in order."""
    seen = []
    set_codegen_listener(lambda plan: seen.append(plan.entry.__code__.co_filename))
    yield seen
    set_codegen_listener(None)


def _compiled(graph, algorithm, gap):
    constraints = TemporalConstraints([(0, 1, gap)], num_edges=2)
    matcher = create_matcher(algorithm, QUERY, constraints, graph, codegen=True)
    matcher.prepare()
    assert matcher.compiled_source is not None
    return matcher


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_live_plans_never_share_a_filename(graph, filenames, algorithm):
    live = [_compiled(graph, algorithm, gap) for gap in range(10, 60, 5)]
    assert len(set(filenames)) == len(live) == 10
    assert all(name.startswith("<repro-codegen:") for name in filenames)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_dropped_plans_free_their_filenames(graph, filenames, algorithm):
    gc.collect()
    gc.disable()
    try:
        for gap in range(200):
            del_me = _compiled(graph, algorithm, gap)
            del del_me
    finally:
        gc.enable()
    # Each compile took the slot the plan before it freed.
    assert len(filenames) == 200
    assert len(set(filenames)) == 1


def test_reused_filename_shows_the_live_plans_lines(graph, filenames):
    first = _compiled(graph, "tcsm-e2e", 50)
    first_source = first.compiled_source
    del first
    second = _compiled(graph, "tcsm-eve", 50)
    assert filenames[0] == filenames[1]
    try:
        second.run_sink(RunContext(), RaisingSink())
    except _Boom as exc:
        frames = traceback.extract_tb(exc.__traceback__)
    generated = [f for f in frames if f.filename == filenames[1]]
    assert generated
    lines = second.compiled_source.splitlines()
    for frame in generated:
        assert frame.line == lines[frame.lineno - 1].strip()
    assert second.compiled_source != first_source
