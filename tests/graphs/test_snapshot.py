"""Tests for the compiled CSR graph snapshot (builder → freeze lifecycle).

The snapshot is the immutable data plane every matcher runs against; its
accessor surface must agree with the mutable dict-backed builder on every
observable, pickle compactly, and carry a stable content fingerprint.
"""

import pickle

import pytest

from repro.datasets import random_temporal_graph
from repro.errors import GraphError
from repro.graphs import (
    GraphSnapshot,
    SharedSnapshot,
    TemporalGraph,
    compile_snapshot,
    ensure_snapshot,
    snapshot_compile_count,
)


@pytest.fixture
def graph():
    """Small labeled graph with parallel edges and edge labels."""
    g = TemporalGraph(["A", "B", "A", "C"])
    g.add_edge(0, 1, 5, label="wire")
    g.add_edge(0, 1, 3, label="cash")
    g.add_edge(0, 1, 9)
    g.add_edge(1, 2, 4)
    g.add_edge(2, 0, 7)
    g.add_edge(3, 1, 2, label="wire")
    return g


@pytest.fixture
def snap(graph):
    return compile_snapshot(graph)


class TestAccessorEquivalence:
    """Every accessor agrees with the dict-backed builder."""

    def test_scalar_surface(self, graph, snap):
        assert snap.num_vertices == graph.num_vertices
        assert snap.num_temporal_edges == graph.num_temporal_edges
        assert snap.num_static_edges == graph.num_static_edges
        assert snap.min_time == graph.min_time
        assert snap.max_time == graph.max_time
        assert snap.time_span == graph.time_span
        assert snap.labels == graph.labels
        assert snap.has_edge_labels == graph.has_edge_labels
        assert list(snap.vertices()) == list(graph.vertices())

    def test_labels_and_index(self, graph, snap):
        for v in graph.vertices():
            assert snap.label(v) == graph.label(v)
        for lab in set(graph.labels) | {"missing"}:
            assert sorted(snap.vertices_with_label(lab)) == sorted(
                graph.vertices_with_label(lab)
            )

    def test_pair_and_timestamp_surface(self, graph, snap):
        for u in graph.vertices():
            for v in graph.vertices():
                assert snap.has_pair(u, v) == graph.has_pair(u, v)
                assert snap.timestamps(u, v) == graph.timestamps(u, v)
                assert list(snap.timestamps_list(u, v)) == list(
                    graph.timestamps_list(u, v)
                )
                assert snap.timestamps_in_window(u, v, 3, 7) == tuple(
                    t for t in graph.timestamps(u, v) if 3 <= t <= 7
                )
                for lab in ("wire", "cash", "missing"):
                    labeled = graph.timestamps_with_label(u, v, lab)
                    assert tuple(
                        snap.timestamps_with_label(u, v, lab)
                    ) == tuple(labeled)
                    for lo, hi in ((2, 5), (4.5, 9.5), (float("-inf"), 4)):
                        assert tuple(
                            snap.timestamps_with_label_in_window(
                                u, v, lab, lo, hi
                            )
                        ) == tuple(t for t in labeled if lo <= t <= hi)

    def test_in_window_accessors_bisect_correctly(self, snap):
        # Pair (0, 1) has times (3, 5, 9) with labels cash/wire/None.
        assert tuple(snap.timestamps_in_window(0, 1, 2.5, 5.5)) == (3, 5)
        assert tuple(
            snap.timestamps_with_label_in_window(0, 1, "wire", 0, 100)
        ) == (5,)
        assert tuple(
            snap.timestamps_with_label_in_window(0, 1, "wire", 6, 100)
        ) == ()
        assert tuple(
            snap.timestamps_with_label_in_window(0, 1, "missing", 0, 100)
        ) == ()
        assert tuple(
            snap.timestamps_with_label_in_window(2, 2, "wire", 0, 100)
        ) == ()

    def test_edge_labels(self, graph, snap):
        for edge in graph.edges():
            assert snap.edge_label(edge.u, edge.v, edge.t) == graph.edge_label(
                edge.u, edge.v, edge.t
            )
        assert snap.edge_label(0, 1, 9) is None

    def test_adjacency_iteration(self, graph, snap):
        for v in graph.vertices():
            assert sorted(snap.out_neighbor_ids(v)) == sorted(
                graph.out_neighbor_ids(v)
            )
            assert sorted(snap.in_neighbor_ids(v)) == sorted(
                graph.in_neighbor_ids(v)
            )
            assert {u: list(ts) for u, ts in snap.out_items(v)} == {
                u: list(ts) for u, ts in graph.out_items(v)
            }
            assert {u: list(ts) for u, ts in snap.in_items(v)} == {
                u: list(ts) for u, ts in graph.in_items(v)
            }
            assert dict(snap.out_pairs(v)) == dict(graph.out_pairs(v))
            assert dict(snap.in_pairs(v)) == dict(graph.in_pairs(v))
            assert sorted(snap.out_edges(v)) == sorted(graph.out_edges(v))
            assert sorted(snap.in_edges(v)) == sorted(graph.in_edges(v))
        assert sorted(snap.edges()) == sorted(graph.edges())
        assert snap.edges_by_time() == graph.edges_by_time()

    def test_neighbor_ids_are_sorted(self, snap):
        for v in snap.vertices():
            out = list(snap.out_neighbor_ids(v))
            assert out == sorted(out)

    def test_static_surface(self, graph, snap):
        static = graph.de_temporal()
        for v in graph.vertices():
            assert snap.out_degree(v) == static.out_degree(v)
            assert snap.in_degree(v) == static.in_degree(v)
            assert sorted(snap.out_neighbors(v)) == sorted(
                static.out_neighbors(v)
            )
            assert sorted(snap.in_neighbors(v)) == sorted(
                static.in_neighbors(v)
            )
            assert snap.neighbor_label_counts(v) == (
                static.neighbor_label_counts(v)
            )

    def test_de_temporal_shim_materialises_static_graph(self, graph, snap):
        shim = snap.de_temporal()
        static = graph.de_temporal()
        assert shim.num_edges == static.num_edges
        for v in graph.vertices():
            assert sorted(shim.out_neighbors(v)) == sorted(
                static.out_neighbors(v)
            )

    def test_random_graph_equivalence(self):
        graph = random_temporal_graph(20, 120, ["A", "B", "C"], seed=7)
        snap = compile_snapshot(graph)
        assert sorted(snap.edges()) == sorted(graph.edges())
        for u in graph.vertices():
            for v in graph.vertices():
                assert snap.timestamps(u, v) == graph.timestamps(u, v)

    def test_vertex_bounds_checked(self, snap):
        with pytest.raises(GraphError, match="out of range"):
            snap.label(99)
        with pytest.raises(GraphError, match="out of range"):
            snap.timestamps_list(0, -1)


class TestEmptyGraphs:
    def test_no_edges(self):
        snap = compile_snapshot(TemporalGraph(["A", "B"]))
        assert snap.num_temporal_edges == 0
        assert snap.min_time is None
        assert snap.time_span == 0
        assert not snap.has_pair(0, 1)
        assert list(snap.timestamps_list(0, 1)) == []
        assert snap.edges_by_time() == []

    def test_no_vertices(self):
        snap = compile_snapshot(TemporalGraph([]))
        assert snap.num_vertices == 0
        assert list(snap.vertices()) == []


class TestFreezeLifecycle:
    def test_freeze_is_cached(self, graph):
        assert graph.freeze() is graph.freeze()

    def test_add_edge_invalidates_frozen(self, graph):
        first = graph.freeze()
        graph.add_edge(3, 0, 11)
        second = graph.freeze()
        assert second is not first
        assert second.num_temporal_edges == first.num_temporal_edges + 1

    def test_duplicate_add_edge_keeps_cache(self, graph):
        graph.add_edge(0, 1, 5, label="wire")  # no-op duplicate
        first = graph.freeze()
        assert graph.add_edge(0, 1, 5, label="wire") is False
        assert graph.freeze() is first

    def test_ensure_snapshot_passthrough(self, graph):
        snap = graph.freeze()
        assert ensure_snapshot(snap) is snap
        assert ensure_snapshot(graph) is snap
        assert snap.freeze() is snap

    def test_compile_count_probe(self, graph):
        before = snapshot_compile_count()
        graph.freeze()
        graph.freeze()
        assert snapshot_compile_count() == before + 1
        compile_snapshot(graph)
        assert snapshot_compile_count() == before + 2


class TestEdgesByTimeCache:
    def test_builder_caches_and_invalidates(self):
        g = TemporalGraph(["A", "B"], [(0, 1, 3), (1, 0, 1)])
        stream = g.edges_by_time()
        assert [e.t for e in stream] == [1, 3]
        assert g.edges_by_time() is stream  # cached
        g.add_edge(0, 1, 2)
        fresh = g.edges_by_time()
        assert fresh is not stream
        assert [e.t for e in fresh] == [1, 2, 3]

    def test_snapshot_caches(self, snap):
        assert snap.edges_by_time() is snap.edges_by_time()


class TestFingerprint:
    def test_stable_across_recompiles(self, graph):
        assert (
            compile_snapshot(graph).fingerprint
            == compile_snapshot(graph).fingerprint
        )

    def test_insertion_order_independent(self):
        a = TemporalGraph(["A", "B"])
        a.add_edge(0, 1, 5)
        a.add_edge(0, 1, 3)
        b = TemporalGraph(["A", "B"])
        b.add_edge(0, 1, 3)
        b.add_edge(0, 1, 5)
        assert a.freeze().fingerprint == b.freeze().fingerprint

    def test_sensitive_to_content(self, graph):
        base = graph.freeze().fingerprint
        graph.add_edge(3, 0, 99)
        assert graph.freeze().fingerprint != base

    def test_sensitive_to_edge_labels(self):
        a = TemporalGraph(["A", "B"])
        a.add_edge(0, 1, 5, label="wire")
        b = TemporalGraph(["A", "B"])
        b.add_edge(0, 1, 5)
        assert a.freeze().fingerprint != b.freeze().fingerprint


class TestLabeledCompile:
    def test_edge_labels_index_and_fingerprint(self):
        graph = TemporalGraph(["A", "B", "C"])
        graph.add_edge(0, 1, 5, label="wire")
        graph.add_edge(0, 1, 7)
        graph.add_edge(0, 1, 9, label="wire")
        graph.add_edge(1, 2, 6, label="cash")
        snap = compile_snapshot(graph)
        assert snap.edge_label(0, 1, 5) == "wire"
        assert snap.edge_label(0, 1, 7) is None
        assert snap.edge_label(1, 2, 6) == "cash"
        assert list(snap.timestamps_with_label(0, 1, "wire")) == [5, 9]
        assert list(snap.timestamps_with_label(1, 2, "cash")) == [6]
        assert list(snap.timestamps_with_label(0, 1, "cash")) == []
        # Label insertion order does not reach the digest ...
        reordered = TemporalGraph(["A", "B", "C"])
        for u, v, t in sorted(graph.edges(), key=lambda e: -e.t):
            reordered.add_edge(u, v, t, label=graph.edge_label(u, v, t))
        assert compile_snapshot(reordered).fingerprint == snap.fingerprint
        # ... but the labels do.
        unlabeled = TemporalGraph(["A", "B", "C"], graph.edges())
        assert compile_snapshot(unlabeled).fingerprint != snap.fingerprint

    def test_merge_equals_compile_of_union(self):
        from repro.graphs.snapshot import _merge_snapshots

        a = TemporalGraph(["A", "B", "C"])
        b = TemporalGraph(["A", "B", "C"])
        union = TemporalGraph(["A", "B", "C"])
        for graph, edges in (
            (a, [(0, 1, 5, "wire"), (0, 1, 9, None), (1, 2, 4, None)]),
            (b, [(0, 1, 5, "wire"), (0, 1, 7, None), (2, 0, 3, "cash")]),
        ):
            for u, v, t, label in edges:
                graph.add_edge(u, v, t, label=label)
                union.add_edge(u, v, t, label=label)
        before = snapshot_compile_count()
        merged = _merge_snapshots([compile_snapshot(a), compile_snapshot(b)])
        assert snapshot_compile_count() == before + 3  # a merge is a build
        # (0, 1, 5) is in both sources: merged once, label kept.
        assert list(merged.timestamps_list(0, 1)) == [5, 7, 9]
        assert merged.edge_label(0, 1, 5) == "wire"
        assert merged.num_temporal_edges == union.num_temporal_edges
        assert (merged.min_time, merged.max_time) == (3, 9)
        assert merged.fingerprint == compile_snapshot(union).fingerprint

    def test_snapshot_owns_its_label_map(self):
        graph = TemporalGraph(["A", "B", "C"])
        graph.add_edge(0, 1, 5, label="wire")
        snap = compile_snapshot(graph)
        digest = snap.fingerprint
        graph.add_edge(1, 2, 6, label="cash")  # builder keeps growing
        assert snap.edge_label(1, 2, 6) is None
        assert snap.has_edge_labels
        assert compile_snapshot(graph).fingerprint != digest
        assert snap.fingerprint == digest


class TestPickling:
    def test_roundtrip_preserves_surface(self, graph, snap):
        clone = pickle.loads(pickle.dumps(snap))
        assert isinstance(clone, GraphSnapshot)
        assert clone.fingerprint == snap.fingerprint
        assert sorted(clone.edges()) == sorted(snap.edges())
        for v in snap.vertices():
            assert {u: list(ts) for u, ts in clone.out_items(v)} == {
                u: list(ts) for u, ts in snap.out_items(v)
            }
            assert clone.neighbor_label_counts(v) == (
                snap.neighbor_label_counts(v)
            )
        for edge in snap.edges():
            assert clone.edge_label(edge.u, edge.v, edge.t) == (
                snap.edge_label(edge.u, edge.v, edge.t)
            )

    def test_lazy_caches_do_not_travel(self):
        graph = random_temporal_graph(30, 300, ["A", "B"], seed=3)
        snap = compile_snapshot(graph)
        assert snap.nbytes > 0
        snap.edges_by_time()
        _ = snap.fingerprint
        bare = len(pickle.dumps(compile_snapshot(graph)))
        warmed = len(pickle.dumps(snap))
        # Lazy caches (edge stream, fingerprint, label signatures) are
        # rebuilt on load, never shipped.
        assert warmed == bare


@pytest.fixture(params=["compiled", "shared"])
def planed(request):
    """A compiled snapshot, or the same graph attached from shared memory."""
    graph = random_temporal_graph(40, 300, ["A", "B", "C"], seed=11)
    snapshot = compile_snapshot(graph)
    if request.param == "compiled":
        yield snapshot
        return
    owner = SharedSnapshot.export(snapshot)
    attached = SharedSnapshot.attach(owner.name)
    try:
        yield attached.snapshot()
    finally:
        attached.close()
        owner.close()


class TestCsrPlanes:
    """The public read-only planes the candidate filters index directly."""

    def test_planes_agree_with_accessors(self, planed):
        out_offsets = planed.out_offsets
        in_offsets = planed.in_offsets
        out_nbrs = planed.out_nbrs
        n = planed.num_vertices
        assert len(out_offsets) == len(in_offsets) == n + 1
        assert len(out_nbrs) == planed.num_static_edges
        for v in planed.vertices():
            lo, hi = out_offsets[v], out_offsets[v + 1]
            assert hi - lo == planed.out_degree(v)
            assert in_offsets[v + 1] - in_offsets[v] == planed.in_degree(v)
            assert list(out_nbrs[lo:hi]) == list(planed.out_neighbor_ids(v))

    def test_timestamp_planes_agree_with_accessors(self, planed):
        out_offsets = planed.out_offsets
        in_offsets = planed.in_offsets
        out_toff = planed.out_ts_offsets
        in_toff = planed.in_ts_offsets
        in_nbrs = planed.in_nbrs
        assert len(out_toff) == len(in_toff) == planed.num_static_edges + 1
        assert len(planed.out_times) == len(planed.in_times)
        assert len(planed.out_times) == planed.num_temporal_edges
        for v in planed.vertices():
            lo, hi = in_offsets[v], in_offsets[v + 1]
            assert list(in_nbrs[lo:hi]) == list(planed.in_neighbor_ids(v))
            for k in range(lo, hi):
                run = planed.in_times[in_toff[k] : in_toff[k + 1]]
                assert list(run) == list(planed.timestamps_list(in_nbrs[k], v))
            for k in range(out_offsets[v], out_offsets[v + 1]):
                run = planed.out_times[out_toff[k] : out_toff[k + 1]]
                x = planed.out_nbrs[k]
                assert list(run) == list(planed.timestamps_list(v, x))

    def test_planes_are_read_only(self, planed):
        for plane in (
            planed.out_offsets,
            planed.in_offsets,
            planed.out_nbrs,
            planed.out_ts_offsets,
            planed.out_times,
            planed.in_nbrs,
            planed.in_ts_offsets,
            planed.in_times,
        ):
            assert plane.readonly
            with pytest.raises(TypeError):
                plane[0] = 1

    def test_unchecked_reads_agree_with_checked(self, planed):
        for v in planed.vertices():
            assert planed.label_signature(v) is planed.neighbor_label_counts(v)
        runs = planed.label_runs
        with pytest.raises(TypeError):
            runs[(0, 1, "x")] = (1,)  # type: ignore[index]

    def test_label_runs_agree_with_accessor(self, snap):
        runs = snap.label_runs
        for u in snap.vertices():
            for v in snap.vertices():
                for lab in ("wire", "cash", "missing"):
                    assert tuple(runs.get((u, v, lab), ())) == tuple(
                        snap.timestamps_with_label(u, v, lab)
                    )
