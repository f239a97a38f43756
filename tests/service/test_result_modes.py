"""Cache correctness and exact top-k for ``limit`` / ``order_by`` / ``mode``.

Two families of guarantees ride on the sink refactor:

* **Cache correctness** — the result cache keys on the full
  ``MatchOptions`` fingerprint, so a cached complete enumeration can
  never answer a ``limit=k`` query (or vice versa), ordered answers
  never serve unordered requests, and ``mode="estimate"`` results never
  enter the exact-result cache at all.
* **Exact top-k** — ``order_by="earliest"`` with a ``limit`` must
  return the *global* top-k multiset — identical to sorting the full
  enumeration — for every TCSM algorithm and both executor pools,
  because per-partition bounded heaps merge through one total order
  (:func:`repro.core.sinks.match_sort_key`).  Only the process pool
  partitions; the thread pool runs one partition.
"""

import pytest

from repro.core import find_matches, match_sort_key
from repro.service import ServiceConfig, TCSMService

TCSM_ALGORITHMS = ("tcsm-v2v", "tcsm-e2e", "tcsm-eve")
TOP_K = 7


@pytest.fixture(scope="module")
def reference_topk(dense):
    """Sorted full enumeration: the pinned exact top-k answer."""
    graph, query, constraints = dense
    full = find_matches(query, constraints, graph, algorithm="tcsm-eve")
    assert full.stats.matches > TOP_K  # top-k must actually select
    ordered = sorted(full.matches, key=match_sort_key)
    return ordered[:TOP_K], full.stats.matches


@pytest.fixture()
def service(dense):
    graph, _, _ = dense
    with TCSMService(ServiceConfig(max_workers=3)) as svc:
        svc.load_graph("dense", graph)
        yield svc


class TestCacheCorrectness:
    def test_full_result_never_serves_limited_query(self, service, dense):
        _, query, constraints = dense
        full = service.query("dense", query, constraints)
        assert full.result_cache == "miss"
        limited = service.query("dense", query, constraints, limit=2)
        assert limited.result_cache == "miss"  # distinct cache key
        assert len(limited.matches) == 2
        assert limited.truncated_by_limit
        again = service.query("dense", query, constraints)
        assert again.result_cache == "hit"  # the full entry is still there
        assert again.matches == full.matches

    def test_limited_result_never_serves_full_query(self, service, dense):
        _, query, constraints = dense
        limited = service.query("dense", query, constraints, limit=2)
        assert len(limited.matches) == 2
        full = service.query("dense", query, constraints)
        assert full.result_cache == "miss"
        assert len(full.matches) > 2
        assert not full.truncated_by_limit

    def test_order_by_keys_cache_separately(self, service, dense):
        _, query, constraints = dense
        service.query("dense", query, constraints, limit=TOP_K)
        ordered = service.query(
            "dense", query, constraints, limit=TOP_K, order_by="earliest"
        )
        assert ordered.result_cache == "miss"  # not the any-order entry
        assert ordered.ordered
        keys = [match_sort_key(m) for m in ordered.matches]
        assert keys == sorted(keys)

    def test_estimate_never_enters_exact_cache(self, service, dense):
        _, query, constraints = dense
        estimated = service.query(
            "dense", query, constraints, mode="estimate"
        )
        assert estimated.result_cache == "bypass"
        assert estimated.plan_cache == "bypass"
        assert estimated.estimate is not None
        assert estimated.matches == ()
        assert len(service.results) == 0  # nothing cached
        exact = service.query("dense", query, constraints, mode="count")
        assert exact.result_cache == "miss"
        assert exact.estimate is None
        # The estimate is a positive count with a sane interval.
        assert estimated.estimate.count > 0
        assert (
            estimated.estimate.ci_low
            <= estimated.estimate.count
            <= estimated.estimate.ci_high
        )

    def test_estimate_is_seed_deterministic(self, service, dense):
        _, query, constraints = dense
        options = {"probes": 64, "seed": 3}
        first = service.query(
            "dense", query, constraints, mode="estimate", options=options
        )
        second = service.query(
            "dense", query, constraints, mode="estimate", options=options
        )
        assert first.estimate.count == second.estimate.count

    def test_mode_metrics(self, service, dense):
        _, query, constraints = dense
        service.query("dense", query, constraints, mode="estimate")
        service.query("dense", query, constraints, limit=1)
        assert service.metrics.counter("queries_estimated") == 1
        assert service.metrics.counter("queries_truncated") == 1

    def test_jsonl_tags_truncation_cause(self, service, dense):
        from repro.graphs import pattern_to_dict

        _, query, constraints = dense
        pattern = pattern_to_dict(query, constraints)
        limited = service.submit(
            {"op": "query", "graph": "dense", "pattern": pattern, "limit": 2}
        )
        assert limited["status"] == "ok"
        assert limited["truncated_by_limit"] is True
        assert limited["truncated_by_deadline"] is False
        estimated = service.submit(
            {
                "op": "query",
                "graph": "dense",
                "pattern": pattern,
                "mode": "estimate",
                "probes": 64,
            }
        )
        assert estimated["status"] == "ok"
        assert estimated["estimate"]["probes"] == 64
        assert estimated["estimate"]["ci_low"] <= estimated["estimate"]["count"]
        assert "matches" not in estimated  # never enumerated

    def test_invalid_mode_is_structured_error(self, service, dense):
        from repro.graphs import pattern_to_dict

        _, query, constraints = dense
        pattern = pattern_to_dict(query, constraints)
        response = service.submit(
            {
                "op": "query",
                "graph": "dense",
                "pattern": pattern,
                "mode": "telepathy",
            }
        )
        assert response["status"] == "error"
        assert "mode" in response["error"]


class TestExactTopK:
    """Every algorithm x pool returns the pinned top-k."""

    @pytest.mark.parametrize("algorithm", TCSM_ALGORITHMS)
    def test_thread_pool_topk_is_exact(self, dense, reference_topk, algorithm):
        """The thread pool runs one partition whatever ``workers`` says."""
        graph, query, constraints = dense
        expected, total = reference_topk
        with TCSMService(ServiceConfig(max_workers=3)) as svc:
            svc.load_graph("dense", graph)
            result = svc.query(
                "dense",
                query,
                constraints,
                algorithm=algorithm,
                limit=TOP_K,
                order_by="earliest",
                workers=3,
                use_result_cache=False,
            )
        assert result.partitions == 1
        assert list(result.matches) == expected
        assert result.ordered
        assert result.truncated_by_limit  # N > k was selected down
        assert result.stats.matches == total  # one full sweep

    @pytest.mark.parametrize("algorithm", TCSM_ALGORITHMS)
    def test_process_pool_topk_is_exact(
        self, process_service, dense, reference_topk, algorithm
    ):
        _, query, constraints = dense
        expected, total = reference_topk
        result = process_service.query(
            "dense",
            query,
            constraints,
            algorithm=algorithm,
            limit=TOP_K,
            order_by="earliest",
            workers=3,
            use_result_cache=False,
        )
        assert result.partitions == 3
        assert list(result.matches) == expected
        assert result.ordered
        assert result.truncated_by_limit
        assert result.stats.matches == total  # full per-partition sweep

    def test_single_worker_topk_matches_fanout(self, dense, reference_topk):
        graph, query, constraints = dense
        expected, _ = reference_topk
        with TCSMService(ServiceConfig(max_workers=3)) as svc:
            svc.load_graph("dense", graph)
            solo = svc.query(
                "dense",
                query,
                constraints,
                limit=TOP_K,
                order_by="earliest",
                workers=1,
            )
        assert list(solo.matches) == expected


@pytest.fixture(scope="module")
def process_service(dense):
    """One process-pool service shared across the parametrized matrix
    (pool spin-up is the expensive part)."""
    graph, _, _ = dense
    with TCSMService(
        ServiceConfig(max_workers=3, pool="process")
    ) as svc:
        svc.load_graph("dense", graph)
        yield svc
