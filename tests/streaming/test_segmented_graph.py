"""SegmentedGraph: accessor equivalence with the dict builder, pinned.

The segmented graph must be indistinguishable from a ``TemporalGraph``
holding the same edges through every accessor it keeps — the merged
surface the streaming engine's delta search reads, plus ``freeze()``,
through which the one-shot matchers read it.  The fixtures force several
flushes and at least one compaction so the merged-run code paths (not
just the tail) are what's being compared.
"""

import random

import pytest

from repro.core import find_matches
from repro.datasets import random_instance, random_temporal_graph
from repro.errors import GraphError
from repro.graphs import (
    SegmentedGraph,
    TemporalGraph,
    compile_snapshot,
    ensure_snapshot,
)

LABELS = ["A", "B", "C"]


def _paired_graphs(seed, *, merge_threshold=16, max_segments=3, edges=200):
    """The same random edge stream appended to both backends."""
    source = random_temporal_graph(
        14, edges, LABELS, max_time=60, seed=seed
    )
    stream = list(source.edges())
    random.Random(seed).shuffle(stream)
    reference = TemporalGraph(source.labels)
    segmented = SegmentedGraph(
        source.labels,
        merge_threshold=merge_threshold,
        max_segments=max_segments,
    )
    for u, v, t in stream:
        assert segmented.append(u, v, t)
        assert reference.add_edge(u, v, t)
    return reference, segmented


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_accessors_match_dict_builder(seed):
    ref, seg = _paired_graphs(seed)
    assert seg.describe()["flushes"] >= 2  # the merged paths are exercised
    assert seg.num_vertices == ref.num_vertices
    assert seg.num_temporal_edges == ref.num_temporal_edges
    assert seg.num_static_edges == ref.num_static_edges
    assert seg.min_time == ref.min_time
    assert seg.max_time == ref.max_time
    assert seg.labels == ref.labels
    assert list(seg.edges_by_time()) == list(ref.edges_by_time())
    assert sorted(seg.edges()) == sorted(ref.edges())
    for label in LABELS:
        assert (
            seg.vertices_with_label(label) == ref.vertices_with_label(label)
        )
    for u in ref.vertices():
        # Neighbor iteration order is backend-specific (insertion order
        # on the dict builder, sorted ids on segments) and the delta
        # search does not depend on it; the per-pair runs must agree.
        assert {
            x: list(times) for x, times in seg.out_items(u)
        } == {x: list(times) for x, times in ref.out_items(u)}
        assert {
            x: list(times) for x, times in seg.in_items(u)
        } == {x: list(times) for x, times in ref.in_items(u)}
        for v in ref.out_neighbor_ids(u):
            # memoryview on the single-segment fast path, list elsewhere
            # — same shape freedom GraphSnapshot has.
            assert list(seg.timestamps_list(u, v)) == list(
                ref.timestamps_list(u, v)
            )
            for t in ref.timestamps_list(u, v):
                assert seg.edge_label(u, v, t) == ref.edge_label(u, v, t)


@pytest.mark.parametrize("seed", [0, 1])
def test_freeze_equals_reference_snapshot(seed):
    ref, seg = _paired_graphs(seed)
    assert seg.freeze().fingerprint == compile_snapshot(ref).fingerprint
    # freeze() is cached until the next append invalidates it.
    assert seg.freeze() is seg.freeze()
    assert ensure_snapshot(seg) is seg.freeze()


def test_fingerprint_identifies_state():
    ref, seg = _paired_graphs(3, merge_threshold=8)
    # Same append history, same thresholds: deterministic digest.
    other = SegmentedGraph(ref.labels, merge_threshold=8, max_segments=3)
    replay = SegmentedGraph(ref.labels, merge_threshold=8, max_segments=3)
    for u, v, t in ref.edges_by_time():
        other.append(u, v, t)
        replay.append(u, v, t)
    assert other.fingerprint == replay.fingerprint
    # Any append invalidates and changes the digest.
    base = seg.fingerprint
    seg.append(0, 1, 10_000)
    assert seg.fingerprint != base
    # The *canonical* content digest is the frozen snapshot's — equal
    # across layouts (test_freeze_equals_reference_snapshot pins that).


def test_from_snapshot_is_zero_copy():
    graph = random_temporal_graph(10, 80, LABELS, seed=5)
    snapshot = compile_snapshot(graph)
    seg = SegmentedGraph.from_snapshot(snapshot)
    # Single segment + empty tail: freeze is the seed snapshot itself.
    assert seg.freeze() is snapshot
    assert seg.num_temporal_edges == graph.num_temporal_edges
    seg.append(0, 1, 999_999)
    assert seg.num_temporal_edges == graph.num_temporal_edges + 1
    assert seg.freeze() is not snapshot


def test_duplicate_and_conflicting_appends():
    seg = SegmentedGraph(
        ["A", "B"], merge_threshold=2
    )
    assert seg.append(0, 1, 5, label="wire")
    assert seg.append(1, 0, 6)  # triggers a flush at threshold 2
    assert seg.describe()["flushes"] == 1
    # Duplicates are detected across the segment boundary, not just the
    # tail, and carry no side effects.
    assert not seg.append(0, 1, 5, label="wire")
    assert seg.num_temporal_edges == 2
    with pytest.raises(GraphError):
        seg.append(0, 1, 5, label="cash")  # same edge, different label
    with pytest.raises(GraphError):
        seg.append(0, 0, 7)  # self loop
    with pytest.raises(GraphError):
        seg.append(0, 99, 7)  # vertex out of range
    assert seg.edge_label(0, 1, 5) == "wire"


def test_compaction_bounds_segment_count():
    seg = SegmentedGraph(LABELS * 4, merge_threshold=4, max_segments=2)
    graph = random_temporal_graph(12, 64, LABELS, seed=7)
    for u, v, t in graph.edges_by_time():
        seg.append(u, v, t)
    info = seg.describe()
    assert info["num_segments"] <= 2
    assert info["compactions"] >= 1
    assert seg.num_temporal_edges == graph.num_temporal_edges


@pytest.mark.parametrize("algorithm", ["tcsm-eve", "tcsm-e2e"])
def test_matchers_run_unchanged_on_segmented(algorithm):
    query, constraints, graph = random_instance(seed=11)
    seg = SegmentedGraph(graph.labels, merge_threshold=16)
    for u, v, t in graph.edges_by_time():
        seg.append(u, v, t)
    want = find_matches(query, constraints, graph, algorithm=algorithm)
    # The segmented input compiles through ensure_snapshot and must agree
    # with the dict-builder run match for match, counter for counter.
    got = find_matches(query, constraints, seg, algorithm=algorithm)
    assert got.matches == want.matches
    assert got.stats == want.stats


def _messy_ops(seed, *, n=12, count=600):
    """Append calls with duplicates, late edges, labels and conflicts.

    Time mostly advances, but about one edge in eight lands well behind
    the front; some edges repeat an earlier triple (same label, no label
    or a conflicting label), and a few name an out-of-range vertex or a
    self loop.
    """
    rng = random.Random(seed)
    ops = []
    seen = []
    front = 0
    for _ in range(count):
        roll = rng.random()
        if seen and roll < 0.15:
            u, v, t, label = rng.choice(seen)
            label = rng.choice([label, None, "conflict"])
        elif roll < 0.18:
            u = rng.randrange(n)
            v = rng.choice([u, n, -1])
            t, label = front, None
        else:
            front += rng.randint(0, 3)
            u, v = rng.sample(range(n), 2)
            t = front - rng.randint(20, 80) if rng.random() < 0.12 else front
            label = rng.choice([None, None, "wire", "cash"])
            seen.append((u, v, t, label))
        ops.append((u, v, t, label))
    return ops


def _outcome(call):
    try:
        return call()
    except GraphError as exc:
        return ("GraphError", str(exc))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_append_differential_against_builder(seed):
    labels = [LABELS[i % 3] for i in range(12)]
    reference = TemporalGraph(labels)
    seg = SegmentedGraph(labels, merge_threshold=4, max_segments=2)
    errors = 0
    for step, (u, v, t, label) in enumerate(_messy_ops(seed)):
        want = _outcome(lambda: reference.add_edge(u, v, t, label=label))
        got = _outcome(lambda: seg.append(u, v, t, label=label))
        assert got == want, (step, (u, v, t, label))
        errors += isinstance(want, tuple)
        assert seg.num_static_edges == reference.num_static_edges
        assert seg.num_temporal_edges == reference.num_temporal_edges
        assert seg.min_time == reference.min_time
        assert seg.max_time == reference.max_time
        if step % 50 == 0:
            # freeze() merges segments plus the compiled tail.
            assert seg.freeze().fingerprint == (
                compile_snapshot(reference).fingerprint
            )
    assert errors > 10  # conflicts, self loops and range errors all ran
    assert seg.compaction_count >= 20
    assert seg.freeze().fingerprint == compile_snapshot(reference).fingerprint
    for a, b, t in reference.edges():
        assert seg.edge_label(a, b, t) == reference.edge_label(a, b, t)

