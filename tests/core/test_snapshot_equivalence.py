"""Input equivalence: every graph kind gives the same answer, per algorithm.

Matchers accept any :data:`~repro.graphs.GraphView` — the dict-backed
:class:`TemporalGraph` builder, an appendable :class:`SegmentedGraph`, or
a compiled :class:`GraphSnapshot` — and compile it once into a snapshot
they read exclusively.  Full enumeration is deterministic, so the three
input kinds must agree byte for byte: same match multiset, same order,
and the same per-filter :class:`SearchStats` counters.  The segmented
input holds two compiled segments plus a non-empty tail, so its
``freeze()`` really merges sources rather than passing one segment
through.
"""

import pytest

from repro.core import MatchOptions, find_matches
from repro.datasets import random_instance
from repro.graphs import (
    QueryBuilder,
    SegmentedGraph,
    TemporalConstraints,
    TemporalGraph,
    TemporalGraphBuilder,
)

#: The paper's three TCSM algorithms, the RI static baseline, one CSM
#: stream baseline, and the oracle.
ALGORITHMS = (
    "tcsm-v2v",
    "tcsm-e2e",
    "tcsm-eve",
    "ri-ds",
    "graphflow",
    "brute-force",
)


def segmented_copy(graph):
    """*graph*'s edges as two compiled segments plus a one-edge tail.

    The first half seeds the graph as a compiled segment, the next run
    of edges exactly fills the flush threshold (the second segment), and
    the last edge stays in the mutable tail.
    """
    edges = graph.edges_by_time()
    half = len(edges) // 2
    seeded, flushed, tail = edges[:half], edges[half:-1], edges[-1:]
    first = TemporalGraph(graph.labels)
    for u, v, t in seeded:
        first.add_edge(u, v, t, label=graph.edge_label(u, v, t))
    seg = SegmentedGraph.from_snapshot(
        first.freeze(), merge_threshold=len(flushed)
    )
    for u, v, t in flushed + tail:
        seg.append(u, v, t, label=graph.edge_label(u, v, t))
    assert seg.num_segments == 2 and seg.tail_edges == 1, seg.describe()
    return seg


def _inputs(graph):
    return {
        "temporal": graph,
        "segmented": segmented_copy(graph),
        "snapshot": graph.freeze(),
    }


def _run_all(algorithm, query, constraints, graph, options=None):
    return {
        kind: find_matches(
            query, constraints, view, algorithm=algorithm, options=options
        )
        for kind, view in _inputs(graph).items()
    }


def _assert_identical(results):
    reference = results["temporal"]
    for kind, result in results.items():
        assert result.matches == reference.matches, kind  # same order too
        assert result.stats == reference.stats, kind  # every counter


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_backends_agree_on_random_instances(algorithm, seed):
    query, constraints, graph = random_instance(seed=seed)
    results = _run_all(algorithm, query, constraints, graph)
    _assert_identical(results)
    reference = results["temporal"]
    assert reference.stats.matches == len(reference.matches)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_backends_agree_with_edge_labels(algorithm):
    qb = QueryBuilder()
    qb.vertex("a", "acct").vertex("b", "acct").vertex("c", "acct")
    qb.edge("a", "b", label="wire")
    qb.edge("b", "c", label="cash")
    query, _ = qb.build()
    constraints = TemporalConstraints([(0, 1, 10)], num_edges=2)

    gb = TemporalGraphBuilder()
    for name in ("w", "x", "y", "z"):
        gb.vertex(name, "acct")
    gb.edge("w", "x", 1, label="wire")
    gb.edge("x", "y", 2, label="cash")
    gb.edge("x", "y", 3, label="wire")  # right pair, wrong edge label
    gb.edge("y", "z", 4, label="wire")
    gb.edge("z", "w", 5, label="cash")
    gb.edge("x", "z", 6)  # unlabeled data edge
    graph, _ = gb.build()

    results = _run_all(algorithm, query, constraints, graph)
    _assert_identical(results)
    assert len(results["temporal"].matches) >= 1  # the planted wire→cash chain


@pytest.mark.parametrize("algorithm", ("tcsm-eve", "ri-ds"))
def test_backends_agree_under_match_limit(algorithm):
    query, constraints, graph = random_instance(seed=3)
    results = _run_all(
        algorithm, query, constraints, graph, MatchOptions(limit=2)
    )
    # Deterministic order means truncation cuts at the same prefix.
    _assert_identical(results)


def test_precompiled_snapshot_input_matches_builder_input():
    query, constraints, graph = random_instance(seed=4)
    snap = graph.freeze()
    from_builder = find_matches(query, constraints, graph)
    from_snapshot = find_matches(query, constraints, snap)
    assert from_builder.matches == from_snapshot.matches
    assert from_builder.stats == from_snapshot.stats
