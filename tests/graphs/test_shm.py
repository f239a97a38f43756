"""Shared-memory snapshot segments: parity, refcounting, cheap pickles."""

import pickle

import pytest

from repro.datasets import random_instance, toy_instance
from repro.graphs import (
    SharedGraphSnapshot,
    SharedSnapshot,
    attach_shared_snapshot,
    ensure_snapshot,
)


@pytest.fixture(scope="module")
def snapshot():
    _, _, graph = random_instance(
        seed=5, data_vertices=40, data_edges=300, num_labels=4
    )
    return ensure_snapshot(graph)


@pytest.fixture()
def shared(snapshot):
    handle = SharedSnapshot.export(snapshot)
    yield handle
    while handle.refcount > 0:
        handle.close()


class TestAccessorParity:
    """The mapped view answers every accessor exactly like the original.

    This is the contract the process-pool fan-out rests on: a worker
    that attached the segment must observe the same graph, bit for bit.
    """

    def test_fingerprint_matches(self, snapshot, shared):
        assert shared.snapshot().fingerprint == snapshot.fingerprint

    def test_all_accessors_match(self, snapshot, shared):
        view = shared.snapshot()
        assert view.num_vertices == snapshot.num_vertices
        assert view.num_temporal_edges == snapshot.num_temporal_edges
        assert view.min_time == snapshot.min_time
        assert view.max_time == snapshot.max_time
        for v in range(snapshot.num_vertices):
            assert view.label(v) == snapshot.label(v)
            assert list(view.out_neighbors(v)) == list(
                snapshot.out_neighbors(v)
            )
            assert list(view.in_neighbors(v)) == list(
                snapshot.in_neighbors(v)
            )
            for u in snapshot.out_neighbors(v):
                assert list(view.timestamps(v, u)) == list(
                    snapshot.timestamps(v, u)
                )
        labels = {snapshot.label(v) for v in range(snapshot.num_vertices)}
        for label in labels:
            assert list(view.vertices_with_label(label)) == list(
                snapshot.vertices_with_label(label)
            )

    def test_toy_instance_round_trips(self):
        _, _, graph, _, _ = toy_instance()
        snap = ensure_snapshot(graph)
        handle = SharedSnapshot.export(snap)
        try:
            assert handle.snapshot().fingerprint == snap.fingerprint
        finally:
            handle.close()


class TestMemoryFootprint:
    def test_segment_within_1_3x_of_one_copy(self, snapshot, shared):
        # The whole point of the fan-out: K workers attach ONE segment,
        # so total graph memory is <= 1.3x a single copy, not K copies.
        assert shared.nbytes <= 1.3 * snapshot.nbytes

    def test_mapped_view_owns_no_buffers(self, snapshot, shared):
        assert isinstance(shared.snapshot(), SharedGraphSnapshot)
        assert shared.snapshot().owned_nbytes == 0
        assert snapshot.owned_nbytes == snapshot.nbytes > 0


class TestRefcountedUnlink:
    def test_close_to_zero_unlinks(self, snapshot):
        handle = SharedSnapshot.export(snapshot)
        name = handle.name
        assert handle.refcount == 1
        handle.addref()
        assert handle.refcount == 2
        handle.close()
        # Still alive: one reference remains, the segment is mapped.
        assert handle.refcount == 1
        attached = SharedSnapshot.attach(name)
        assert attached.snapshot().fingerprint == snapshot.fingerprint
        attached.close()
        handle.close()
        assert handle.refcount == 0
        with pytest.raises(FileNotFoundError):
            SharedSnapshot.attach(name + "-gone")

    def test_close_is_idempotent_at_zero(self, snapshot):
        handle = SharedSnapshot.export(snapshot)
        handle.close()
        handle.close()  # no-op, no raise
        assert handle.refcount == 0

    def test_accessors_fail_cleanly_after_close(self, snapshot):
        handle = SharedSnapshot.export(snapshot)
        view = handle.snapshot()
        handle.close()
        with pytest.raises(ValueError):
            list(view.out_neighbors(0))

    def test_close_releases_every_plane(self, snapshot):
        handle = SharedSnapshot.export(snapshot)
        view = handle.snapshot()
        planes = [
            view.out_offsets,
            view.out_nbrs,
            view.out_ts_offsets,
            view.out_times,
            view.in_offsets,
            view.in_nbrs,
            view.in_ts_offsets,
            view.in_times,
        ]
        handle.close()
        for plane in planes:
            with pytest.raises(ValueError):
                plane[0]


class TestPickleShipsNames:
    """What crosses the process boundary is a segment *name*, not CSR."""

    def test_handle_pickle_is_tiny(self, snapshot, shared):
        blob = pickle.dumps(shared)
        assert len(blob) < 500
        assert pickle.loads(blob).name == shared.name

    def test_snapshot_pickle_is_tiny_and_reattaches(self, snapshot, shared):
        view = shared.snapshot()
        blob = pickle.dumps(view)
        assert len(blob) < 500  # vs ~snapshot.nbytes for a plain pickle
        again = pickle.loads(blob)
        assert isinstance(again, SharedGraphSnapshot)
        assert again.fingerprint == snapshot.fingerprint

    def test_plain_snapshot_pickle_carries_buffers(self, snapshot):
        # The counterfactual: without shm, every worker ships the CSR.
        assert len(pickle.dumps(snapshot)) >= snapshot.nbytes

    def test_attach_shared_snapshot_by_name(self, snapshot, shared):
        view = attach_shared_snapshot(shared.name)
        assert view.fingerprint == snapshot.fingerprint
        assert view.segment_name == shared.name
