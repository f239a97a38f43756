"""Shape enumerators: one generated search per query shape.

Every V2V, E2E or EVE plan runs the enumerator :mod:`repro.core.codegen`
writes for its shape, reading the plan from its tables.  A V2V shape is
the vertex and edge counts ``(n, m)``; an E2E or EVE shape is the edge
count alone, each position's kind being read from the tables at run
time.

* Many plans of a few shapes compile one enumerator per shape, shared
  by every plan of that shape; :mod:`linecache` gains only the shapes'
  sources.
* On a disconnected pattern (a seed after the root), an edge-labelled
  one and, for E2E/EVE, one with ``in`` and ``close`` positions, whole
  and split into partitions, the shape enumerator finds the oracle's
  matches, and a request for plan mode (``codegen=True``, accepted and
  ignored) gets exactly the same matches and counters.
* An edgeless query runs on its V2V shape enumerator, whose leaf sums
  no runs.
* A traceback out of a shape enumerator shows its generated lines.
* An unbounded gap (``math.inf``) is read from the tables.
* E2E/EVE test no constraint per timestamp: the STN-closure window
  each position bisects to already implies every check closing there.
"""

import linecache
import math
import random
import traceback

import pytest

from repro.core import MatchOptions, RunContext, find_matches
from repro.core import codegen
from repro.core.candidate_space import CLOSE, IN, SEED
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

#: Three edges into vertex 1 and one between their sources: whatever
#: the E2E/EVE order, some position extends along an in-edge and one
#: closes a cycle.
IN_CLOSE = (
    QueryGraph(["A", "B", "A", "B"], [(0, 1), (2, 1), (3, 1), (0, 2)]),
    TemporalConstraints([(0, 1, 150), (1, 2, 150), (0, 3, 150)], num_edges=4),
)

PATTERNS = {
    "disconnected": DISCONNECTED,
    "labelled": LABELLED,
    "in-close": IN_CLOSE,
}

#: (algorithm, pattern) cases; V2V's keep their original ids.
SHAPE_CASES = [
    pytest.param("tcsm-v2v", "disconnected", id="disconnected"),
    pytest.param("tcsm-v2v", "labelled", id="labelled"),
] + [
    pytest.param(algorithm, case, id=f"{algorithm}-{case}")
    for algorithm in ("tcsm-e2e", "tcsm-eve")
    for case in PATTERNS
]


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


def _plan_keys():
    """linecache keys that are not a shape enumerator's."""
    return {key for key in linecache.cache if not key.startswith("<repro-shape:")}


def _shape_key(algorithm, query):
    """The shape cache's key for *query* under *algorithm*."""
    if algorithm == "tcsm-v2v":
        return ("v2v", query.num_vertices, query.num_edges)
    return (algorithm.removeprefix("tcsm-"), query.num_edges)


def test_plans_of_a_shape_share_one_enumerator(graph):
    for algorithm in ALGORITHMS:
        # V2V: three shapes; E2E and EVE: two (the edge counts).
        shapes = {_shape_key(algorithm, q) for q in SHAPED}
        before = dict(codegen._SHAPES)
        keys = _plan_keys()
        matchers = []
        for i in range(40):
            query = SHAPED[i % 3]
            constraints = TemporalConstraints(
                [(0, 1, 20 + 5 * i)], num_edges=query.num_edges
            )
            matcher = create_matcher(algorithm, query, constraints, graph)
            find_matches(query, constraints, graph, matcher=matcher)
            matchers.append(matcher)
        added = set(codegen._SHAPES) - set(before)
        assert added <= shapes and len(added) <= len(shapes)
        assert _plan_keys() == keys
        for matcher in matchers:
            shape = _shape_key(algorithm, matcher.query)
            assert matcher._shape is codegen._SHAPES[shape]
            assert matcher._shape is codegen.shape_enumerator(matcher.tables)


@pytest.mark.parametrize("partition", [None, (0, 3), (1, 3), (2, 3)])
@pytest.mark.parametrize("algorithm, case", SHAPE_CASES)
def test_shape_equals_oracle_and_plan_mode(
    graph, labelled_graph, algorithm, case, partition
):
    query, constraints = PATTERNS[case]
    data = labelled_graph if case == "labelled" else graph
    options = MatchOptions(partition=partition)
    shape = create_matcher(algorithm, query, constraints, data)
    cold = find_matches(query, constraints, data, matcher=shape, options=options)
    if algorithm != "tcsm-v2v":
        # The case reaches the kinds it is named for.
        kinds = set(shape.tables.kinds[1:])
        assert {"disconnected": {SEED}, "in-close": {IN, CLOSE}}.get(
            case, set()
        ) <= kinds
    plan = find_matches(
        query, constraints, data, algorithm=algorithm,
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
        (IN_CLOSE, graph),
    ):
        oracle = find_matches(query, constraints, data, algorithm="brute-force")
        for algorithm in ALGORITHMS:
            parts = []
            for index in range(3):
                parts += find_matches(
                    query, constraints, data, algorithm=algorithm,
                    options=MatchOptions(partition=(index, 3)),
                ).matches
            assert sorted(parts) == sorted(oracle.matches)


def test_edgeless_query_runs_on_its_shape(graph):
    query = QueryGraph(["A", "B"], [])
    constraints = TemporalConstraints([], num_edges=0)
    matcher = create_matcher("tcsm-v2v", query, constraints, graph)
    result = find_matches(query, constraints, graph, matcher=matcher)
    assert matcher._shape is codegen._SHAPES[("v2v", 2, 0)]
    oracle = find_matches(query, constraints, graph, algorithm="brute-force")
    assert sorted(result.matches) == sorted(oracle.matches)
    assert result.matches


def test_shape_traceback_shows_generated_lines(graph):
    query = SHAPED[0]
    constraints = TemporalConstraints([(0, 1, 50)], num_edges=2)
    for algorithm, filename in (
        ("tcsm-v2v", "<repro-shape:v2v/3/2>"),
        ("tcsm-e2e", "<repro-shape:e2e/2>"),
        ("tcsm-eve", "<repro-shape:eve/2>"),
    ):
        matcher = create_matcher(algorithm, query, constraints, graph)
        matcher.prepare()
        try:
            matcher.run_sink(RunContext(), RaisingSink())
        except _Boom as exc:
            frames = traceback.extract_tb(exc.__traceback__)
        generated = [f for f in frames if f.filename == filename]
        assert generated
        assert all(f.line for f in generated)
        assert generated[0].name == "_enumerate"
        assert "accept(" in generated[-1].line


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_unbounded_gap_compiles(graph, algorithm):
    constraints = TemporalConstraints([(0, 1, math.inf)], num_edges=2)
    matcher = create_matcher(algorithm, SHAPED[0], constraints, graph)
    matcher.prepare()
    tables = matcher.tables
    if algorithm == "tcsm-v2v":
        bounds = [c.gap for checks in tables.closing for c in checks]
    else:
        bounds = [b for window in tables.windows for _, *pair in window for b in pair]
    assert math.inf in bounds
    result, _ = assert_equivalent(
        SHAPED[0], constraints, graph, algorithm, MatchOptions()
    )
    assert result.matches


@pytest.mark.parametrize("eve", [False, True])
def test_e2e_window_is_the_only_temporal_check(eve):
    source, _ = codegen._compile_e2e(4, eve)
    assert "tmp_c += 1" in source
    assert "tmp_p" not in source and "gap" not in source
