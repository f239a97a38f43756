"""V2V's shape enumerators: one generated search per query shape.

A cold V2V plan runs the enumerator :mod:`repro.core.codegen` writes
for its vertex and edge counts ``(n, m)``, reading the plan from its
tables; ``compile()`` writes the same search with the tables inlined.

* Many plans of a few shapes compile one enumerator per shape, shared
  by every plan of that shape, and none of those compiles is a plan
  compile: no ``<repro-codegen`` source, no listener call.
* On a disconnected pattern and an edge-labelled one, whole and split
  into partitions, the shape enumerator finds the oracle's matches with
  plan mode's counters.
* An edgeless query, which plan mode declines, runs on its shape
  enumerator, whose leaf sums no runs.
* A traceback out of a shape enumerator shows its generated lines.
* An unbounded gap (``math.inf``) is read from the tables in shape mode
  and inlined as a number, not as the name ``inf``, in plan mode (by
  both generators).
"""

import linecache
import math
import random
import traceback

import pytest

from repro.core import MatchOptions, RunContext, find_matches
from repro.core import codegen
from repro.core.engine import create_matcher
from repro.graphs import (
    QueryGraph,
    TemporalConstraints,
    TemporalGraph,
    ensure_snapshot,
)

from .test_codegen_equivalence import (
    ALGORITHMS,
    assert_equivalent,
    key_stats,
    random_graph,
)
from .test_run_lifetime import RaisingSink, _Boom

#: Three shapes: (3, 2), (3, 3) and (4, 3).
SHAPED = [
    QueryGraph(["A", "B", "A"], [(0, 1), (1, 2)]),
    QueryGraph(["A", "B", "A"], [(0, 1), (1, 2), (0, 2)]),
    QueryGraph(["A", "B", "A", "B"], [(0, 1), (1, 2), (2, 3)]),
]

DISCONNECTED = (
    QueryGraph(["A", "B", "B", "A"], [(0, 1), (2, 3)]),
    TemporalConstraints([(0, 1, 60)], num_edges=2),
)

#: Two labelled edges and a wildcard one.
LABELLED = (
    QueryGraph(["A", "B", "A"], [(0, 1), (1, 2), (2, 0)], ["x", None, "y"]),
    TemporalConstraints([(0, 1, 150), (1, 2, 150)], num_edges=3),
)


@pytest.fixture(scope="module")
def graph():
    return ensure_snapshot(random_graph())


@pytest.fixture(scope="module")
def labelled_graph():
    rng = random.Random(5)
    n = 24
    graph = TemporalGraph(["A" if i % 2 == 0 else "B" for i in range(n)])
    for u in range(n):
        for v in rng.sample([v for v in range(n) if v != u], 5):
            for t in rng.sample(range(400), 4):
                graph.add_edge(u, v, t, label=rng.choice("xy"))
    return ensure_snapshot(graph)


def _codegen_keys():
    return {key for key in linecache.cache if key.startswith("<repro-codegen")}


def test_plans_of_a_shape_share_one_enumerator(graph):
    shapes = {(q.num_vertices, q.num_edges) for q in SHAPED}
    before = dict(codegen._SHAPES)
    keys = _codegen_keys()
    compiles = []
    codegen.set_codegen_listener(compiles.append)
    try:
        matchers = []
        for i in range(40):
            query = SHAPED[i % 3]
            constraints = TemporalConstraints(
                [(0, 1, 20 + 5 * i)], num_edges=query.num_edges
            )
            matcher = create_matcher("tcsm-v2v", query, constraints, graph)
            find_matches(query, constraints, graph, matcher=matcher)
            assert matcher.compiled_source is None
            matchers.append(matcher)
    finally:
        codegen.set_codegen_listener(None)
    added = set(codegen._SHAPES) - set(before)
    assert added <= shapes and len(added) <= 3
    assert _codegen_keys() == keys
    assert compiles == []
    for matcher in matchers:
        shape = (matcher.query.num_vertices, matcher.query.num_edges)
        assert matcher._shape is codegen._SHAPES[shape]
        assert matcher._shape is codegen.v2v_shape_enumerator(*shape)


@pytest.mark.parametrize("partition", [None, (0, 3), (1, 3), (2, 3)])
@pytest.mark.parametrize("case", ["disconnected", "labelled"])
def test_shape_equals_oracle_and_plan_mode(
    graph, labelled_graph, case, partition
):
    query, constraints = DISCONNECTED if case == "disconnected" else LABELLED
    data = graph if case == "disconnected" else labelled_graph
    options = MatchOptions(partition=partition)
    shape = create_matcher("tcsm-v2v", query, constraints, data)
    cold = find_matches(query, constraints, data, matcher=shape, options=options)
    assert shape.compiled_source is None
    plan = find_matches(
        query, constraints, data, algorithm="tcsm-v2v",
        options=options.replace(codegen=True),
    )
    assert plan.matches == cold.matches
    assert key_stats(plan.stats) == key_stats(cold.stats)
    if partition is None:
        oracle = find_matches(query, constraints, data, algorithm="brute-force")
        assert sorted(cold.matches) == sorted(oracle.matches)
        assert cold.matches


def test_partitions_cover_the_oracle(graph, labelled_graph):
    for (query, constraints), data in (
        (DISCONNECTED, graph),
        (LABELLED, labelled_graph),
    ):
        oracle = find_matches(query, constraints, data, algorithm="brute-force")
        parts = []
        for index in range(3):
            parts += find_matches(
                query, constraints, data, algorithm="tcsm-v2v",
                options=MatchOptions(partition=(index, 3)),
            ).matches
        assert sorted(parts) == sorted(oracle.matches)


def test_edgeless_query_runs_on_its_shape(graph):
    query = QueryGraph(["A", "B"], [])
    constraints = TemporalConstraints([], num_edges=0)
    matcher = create_matcher(
        "tcsm-v2v", query, constraints, graph, codegen=True
    )
    result = find_matches(query, constraints, graph, matcher=matcher)
    assert matcher.compiled_source is None
    oracle = find_matches(query, constraints, graph, algorithm="brute-force")
    assert sorted(result.matches) == sorted(oracle.matches)
    assert result.matches


def test_shape_traceback_shows_generated_lines(graph):
    query = SHAPED[0]
    constraints = TemporalConstraints([(0, 1, 50)], num_edges=2)
    matcher = create_matcher("tcsm-v2v", query, constraints, graph)
    matcher.prepare()
    try:
        matcher.run_sink(RunContext(), RaisingSink())
    except _Boom as exc:
        frames = traceback.extract_tb(exc.__traceback__)
    generated = [f for f in frames if f.filename == "<repro-shape:v2v/3/2>"]
    assert generated
    assert all(f.line for f in generated)
    assert generated[0].name == "_enumerate"
    assert "accept(" in generated[-1].line


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_unbounded_gap_compiles(graph, algorithm):
    constraints = TemporalConstraints([(0, 1, math.inf)], num_edges=2)
    _, plan = assert_equivalent(
        SHAPED[0], constraints, graph, algorithm, MatchOptions()
    )
    assert plan.matches
