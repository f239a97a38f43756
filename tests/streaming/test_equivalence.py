"""Streamed emissions == one-shot matches, pinned across the matrix.

The continuous engine's correctness claim: replaying a data graph as a
*shuffled* edge stream into standing subscriptions emits exactly the
match multiset that one-shot matching finds on the final graph.  Pinned
for every TCSM algorithm (the one-shot side) x both appendable backends
(dict builder and segmented), on random instances with non-trivial
match counts.
"""

import random
from collections import Counter

import pytest

from repro.core import find_matches
from repro.datasets import random_instance
from repro.graphs import SegmentedGraph, TemporalGraph
from repro.streaming import StreamingEngine

TCSM_ALGORITHMS = ("tcsm-v2v", "tcsm-e2e", "tcsm-eve", "tcsm-stream")

#: Denser than the library defaults (which yield zero-match instances):
#: a 3-edge query over 150 edges on 8 vertices gives tens-to-hundreds of
#: matches per seed, so the multiset comparison actually bites.
INSTANCE = dict(
    query_vertices=3,
    query_edges=3,
    num_constraints=2,
    max_gap=25,
    data_vertices=8,
    data_edges=150,
    num_labels=2,
    max_time=40,
)


def _streamed_instance(seed):
    """Stream a random instance; return (emissions, final graphs)."""
    query, constraints, source = random_instance(seed=seed, **INSTANCE)
    stream = list(source.edges())
    random.Random(seed + 17).shuffle(stream)
    engine = StreamingEngine(
        SegmentedGraph(source.labels, merge_threshold=16, max_segments=3)
    )
    engine.subscribe(query, constraints, sub_id="s")
    emitted = []
    for u, v, t in stream:
        engine.ingest([(u, v, t)])
        emitted.extend(e.match for e in engine.poll("s"))
    final_dict = TemporalGraph(source.labels)
    for u, v, t in stream:
        final_dict.add_edge(u, v, t)
    return query, constraints, emitted, final_dict, engine.graph


@pytest.mark.parametrize("algorithm", TCSM_ALGORITHMS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shuffled_stream_equals_one_shot(algorithm, seed):
    query, constraints, emitted, final_dict, final_seg = _streamed_instance(
        seed
    )
    streamed = Counter(emitted)
    assert streamed, "degenerate instance: no matches to compare"
    for graph in (final_dict, final_seg):
        one_shot = find_matches(
            query, constraints, graph, algorithm=algorithm
        )
        assert Counter(one_shot.matches) == streamed


def test_emission_multiset_independent_of_arrival_order():
    query, constraints, source = random_instance(seed=4, **INSTANCE)
    edges = list(source.edges())
    multisets = []
    for shuffle_seed in range(3):
        stream = list(edges)
        random.Random(shuffle_seed).shuffle(stream)
        engine = StreamingEngine(
            SegmentedGraph(source.labels, merge_threshold=8)
        )
        engine.subscribe(query, constraints, sub_id="s")
        engine.ingest(stream)
        multisets.append(
            Counter(e.match for e in engine.poll("s"))
        )
    assert multisets[0] == multisets[1] == multisets[2]
    assert multisets[0]


def test_batched_and_single_edge_ingest_agree():
    query, constraints, source = random_instance(seed=6, **INSTANCE)
    stream = list(source.edges())
    random.Random(99).shuffle(stream)
    per_edge = StreamingEngine(SegmentedGraph(source.labels))
    batched = StreamingEngine(SegmentedGraph(source.labels))
    per_edge.subscribe(query, constraints, sub_id="s")
    batched.subscribe(query, constraints, sub_id="s")
    for edge in stream:
        per_edge.ingest([edge])
    batched.ingest(stream)
    assert Counter(e.match for e in per_edge.poll("s")) == Counter(
        e.match for e in batched.poll("s")
    )
