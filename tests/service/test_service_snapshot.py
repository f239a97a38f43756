"""Service-layer snapshot guarantees: compile-once, fingerprinted keys,
and edge-labeled matching end to end through the serving stack.

The registry compiles one CSR snapshot per ``(graph, version)`` at
registration; every later stage — plan preparation, in-process runs,
process-pool partitions — consumes that frozen snapshot and never
triggers a recompile.  The process-wide
:func:`repro.graphs.snapshot_compile_count` probe pins it.
"""

import pytest

from repro.core import find_matches
from repro.graphs import (
    GraphSnapshot,
    QueryBuilder,
    SharedSnapshot,
    TemporalConstraints,
    TemporalGraphBuilder,
    snapshot_compile_count,
)
from repro.service import (
    GraphRegistry,
    ProcessSpec,
    QueryExecutor,
    ServiceConfig,
    TCSMService,
)


@pytest.fixture
def labeled_workload():
    """Edge-labeled wire→cash chain query plus a data graph with decoys."""
    qb = QueryBuilder()
    qb.vertex("a", "acct").vertex("b", "acct").vertex("c", "acct")
    qb.edge("a", "b", label="wire")
    qb.edge("b", "c", label="cash")
    query, _ = qb.build()
    constraints = TemporalConstraints([(0, 1, 10)], num_edges=2)

    gb = TemporalGraphBuilder()
    for name in ("p", "q", "r", "s", "t"):
        gb.vertex(name, "acct")
    gb.edge("p", "q", 1, label="wire")
    gb.edge("q", "r", 2, label="cash")
    gb.edge("q", "r", 3, label="wire")  # wrong label decoy
    gb.edge("r", "s", 4, label="wire")
    gb.edge("s", "t", 5, label="cash")
    gb.edge("t", "p", 6, label="cash")
    gb.edge("p", "s", 7)  # unlabeled decoy
    graph, _ = gb.build()
    return query, constraints, graph


class TestCompileOnce:
    def test_registry_compiles_exactly_once(self, labeled_workload):
        _, _, graph = labeled_workload
        registry = GraphRegistry()
        before = snapshot_compile_count()
        handle = registry.register("ledger", graph)
        assert snapshot_compile_count() == before + 1
        assert isinstance(handle.snapshot, GraphSnapshot)
        # Re-registering the same object bumps the version but reuses
        # the cached freeze — no second compile.
        again = registry.register("ledger", graph)
        assert again.version == handle.version + 1
        assert again.snapshot is handle.snapshot
        assert snapshot_compile_count() == before + 1

    def test_serving_never_recompiles(self, labeled_workload):
        query, constraints, graph = labeled_workload
        with TCSMService(ServiceConfig(max_workers=3)) as svc:
            svc.load_graph("ledger", graph)
            before = snapshot_compile_count()
            for algorithm in ("tcsm-eve", "tcsm-v2v", "ri-ds"):
                for workers in (1, 3):
                    svc.query(
                        "ledger",
                        query,
                        constraints,
                        algorithm=algorithm,
                        workers=workers,
                        use_result_cache=False,
                    )
            assert snapshot_compile_count() == before

    def test_describe_exposes_fingerprint(self, labeled_workload):
        _, _, graph = labeled_workload
        registry = GraphRegistry()
        handle = registry.register("ledger", graph)
        assert handle.describe()["fingerprint"] == handle.snapshot.fingerprint


class TestEdgeLabeledServicePath:
    """Registry → partitioned executor → merge, with edge labels live."""

    def test_results_match_direct_engine_run(self, labeled_workload):
        query, constraints, graph = labeled_workload
        reference = find_matches(query, constraints, graph)
        assert len(reference.matches) >= 1  # planted chain is found
        with TCSMService(ServiceConfig(max_workers=3)) as svc:
            svc.load_graph("ledger", graph)
            solo = svc.query("ledger", query, constraints, workers=1)
        # Only the process pool partitions a query.
        config = ServiceConfig(max_workers=3, pool="process")
        with TCSMService(config) as svc:
            svc.load_graph("ledger", graph)
            fanned = svc.query("ledger", query, constraints, workers=3)
        assert solo.matches == tuple(reference.matches)
        assert fanned.partitions == 3
        assert sorted(fanned.matches) == sorted(reference.matches)

    def test_labels_constrain_matches_through_service(self, labeled_workload):
        query, constraints, graph = labeled_workload
        with TCSMService(ServiceConfig(max_workers=2)) as svc:
            svc.load_graph("ledger", graph)
            result = svc.query("ledger", query, constraints)
        for match in result.matches:
            assert graph.edge_label(*match.edge_map[0]) == "wire"
            assert graph.edge_label(*match.edge_map[1]) == "cash"

    def test_result_cache_hit_after_partitioned_run(self, labeled_workload):
        query, constraints, graph = labeled_workload
        config = ServiceConfig(max_workers=2, pool="process")
        with TCSMService(config) as svc:
            svc.load_graph("ledger", graph)
            cold = svc.query("ledger", query, constraints, workers=2)
            warm = svc.query("ledger", query, constraints, workers=2)
        assert cold.partitions == 2
        assert cold.result_cache == "miss"
        assert warm.result_cache == "hit"
        assert warm.matches == cold.matches


class TestProcessPoolShipsSnapshot:
    def test_spec_with_snapshot_round_trips_workers(self, labeled_workload):
        query, constraints, graph = labeled_workload
        reference = find_matches(query, constraints, graph)
        # What the server ships: the snapshot's shared-memory export.
        shared = SharedSnapshot.export(graph.freeze())
        spec = ProcessSpec(
            query=query,
            constraints=constraints,
            graph=shared,
            algorithm="tcsm-eve",
            plan_key="ledger-eve",
        )
        try:
            with QueryExecutor(max_workers=2, pool="process") as executor:
                outcome = executor.run_process(spec, workers=2)
        finally:
            shared.close()
        assert outcome.partitions == 2
        assert outcome.worker_compiles == (0, 0)
        assert sorted(outcome.matches) == sorted(reference.matches)

    def test_process_pool_service_uses_snapshot(self, labeled_workload):
        query, constraints, graph = labeled_workload
        reference = find_matches(query, constraints, graph)
        config = ServiceConfig(max_workers=2, pool="process")
        with TCSMService(config) as svc:
            svc.load_graph("ledger", graph)
            before = snapshot_compile_count()
            result = svc.query(
                "ledger", query, constraints, workers=2
            )
            assert snapshot_compile_count() == before
        assert sorted(result.matches) == sorted(reference.matches)
