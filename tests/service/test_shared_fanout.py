"""Shared-memory fan-out: zero per-worker compiles, one graph in RAM.

The acceptance bars for the shm snapshot plumbing, asserted end to end
through the service:

* a K-worker process fan-out answers with ``worker_compiles == (0,)*K``
  (workers attach, they never recompile) and ``worker_graph_bytes ==
  (0,)*K`` (workers own no CSR copies — the segment is the only copy);
* total graph memory is one segment within 1.3x of a single snapshot,
  not K copies;
* the partitioned multiset is exactly the single-threaded answer for
  every TCSM algorithm.
"""

import pytest

from repro.service import ServiceConfig, TCSMService

WORKERS = 4
TCSM = ("tcsm-v2v", "tcsm-e2e", "tcsm-eve")


@pytest.fixture(scope="module")
def shared_service(cm_graph):
    config = ServiceConfig(max_workers=WORKERS, pool="process")
    with TCSMService(config) as svc:
        svc.load_graph("cm", cm_graph)
        yield svc


class TestSharedSegmentLifecycle:
    def test_registration_exports_one_segment(self, shared_service):
        handle = shared_service.graphs.get("cm")
        assert handle.shared is not None
        assert handle.shared.name
        described = handle.describe()
        assert described["shared_segment"] == handle.shared.name

    def test_segment_memory_within_1_3x_of_one_snapshot(
        self, shared_service
    ):
        handle = shared_service.graphs.get("cm")
        assert handle.shared.nbytes <= 1.3 * handle.snapshot.nbytes

    def test_drop_releases_the_segment(self, cm_graph):
        config = ServiceConfig(max_workers=2, pool="process")
        with TCSMService(config) as svc:
            handle = svc.load_graph("g", cm_graph)
            shared = handle.shared
            assert shared.refcount == 1
            svc.drop_graph("g")
            assert shared.refcount == 0

    def test_thread_pool_does_not_export(self, cm_graph):
        with TCSMService(ServiceConfig(max_workers=2)) as svc:
            handle = svc.load_graph("g", cm_graph)
            assert handle.shared is None


class TestZeroCopyFanOut:
    @pytest.mark.parametrize("algo", TCSM)
    def test_workers_attach_instead_of_compiling(
        self, shared_service, workload, algo
    ):
        query, constraints = workload
        result = shared_service.query(
            "cm",
            query,
            constraints,
            algorithm=algo,
            workers=WORKERS,
            use_result_cache=False,
        )
        assert result.partitions == WORKERS
        assert result.worker_compiles == (0,) * WORKERS
        assert result.worker_graph_bytes == (0,) * WORKERS

    def test_fanout_matches_the_solo_answer(self, shared_service, workload):
        query, constraints = workload
        solo = shared_service.query(
            "cm", query, constraints, workers=1, use_result_cache=False
        )
        fanned = shared_service.query(
            "cm",
            query,
            constraints,
            workers=WORKERS,
            use_result_cache=False,
        )
        assert sorted(fanned.matches) == sorted(solo.matches)
        assert fanned.worker_compiles == (0,) * WORKERS

    def test_result_dict_carries_worker_probes(
        self, shared_service, workload
    ):
        query, constraints = workload
        result = shared_service.query(
            "cm", query, constraints, workers=2, use_result_cache=False
        )
        payload = result.to_dict()
        assert payload["worker_compiles"] == [0, 0]
        assert payload["worker_graph_bytes"] == [0, 0]
