"""One enumerator tier: a request's ``codegen`` field selects nothing.

Every service plan runs the generated enumerator of its query shape,
on a plan-cache miss and a hit, in-process and in process-pool workers.

* A plan-cache miss and the hit after it return the same matches and
  counters.
* With or without a ``codegen`` field, a pattern maps to one plan and
  one result-cache entry, and the reply carries no ``codegen`` field.
* Process-pool workers run the shapes their parent resolved; no plan is
  compiled anywhere, so the ``metrics`` op counts no ``plan_compiles``.
"""

import pytest

from repro.graphs import pattern_to_dict
from repro.service import ServiceConfig, TCSMService

TCSM = ("tcsm-v2v", "tcsm-e2e", "tcsm-eve")


@pytest.fixture()
def service(cm_graph):
    with TCSMService(ServiceConfig(max_workers=2)) as svc:
        svc.load_graph("cm", cm_graph)
        yield svc


@pytest.mark.parametrize("algo", TCSM)
def test_codegen_request_field_shares_plan_and_result(
    service, workload, algo
):
    query, constraints = workload
    cold, warm = (
        service.query(
            "cm", query, constraints, algorithm=algo, use_result_cache=False
        )
        for _ in range(2)
    )
    assert (cold.plan_cache, warm.plan_cache) == ("miss", "hit")
    assert warm.match_count > 0
    assert warm.matches == cold.matches
    assert warm.stats == cold.stats
    request = {
        "op": "query",
        "graph": "cm",
        "pattern": pattern_to_dict(query, constraints),
        "algorithm": algo,
        "limit": 50,
    }
    plain = service.submit(request)
    flagged = service.submit({**request, "codegen": True})
    assert plain["status"] == flagged["status"] == "ok"
    assert flagged["result_cache"] == "hit"
    assert flagged["match_count"] == plain["match_count"]
    assert len(service.plans) == 1
    # Traced, so it skips the result cache and runs on the shared plan.
    bypass = service.submit({**request, "codegen": False, "trace": True})
    assert bypass["plan_cache"] == "hit"
    assert bypass["match_count"] == plain["match_count"]
    assert "codegen" not in bypass
    assert len(service.plans) == 1


def test_process_fanout_never_compiles(cm_graph, workload):
    query, constraints = workload
    config = ServiceConfig(max_workers=2, pool="process")
    with TCSMService(config) as svc:
        svc.load_graph("cm", cm_graph)
        for algo in TCSM:
            request = {
                "op": "query",
                "graph": "cm",
                "pattern": pattern_to_dict(query, constraints),
                "algorithm": algo,
                "workers": 2,
                "codegen": True,
                "trace": True,  # bypasses the result cache
            }
            # The pool may hand both partitions of a query to one
            # worker, so repeat until each worker has run the plan
            # before (bounded: placement is the pool's choice).
            replies = []
            for _ in range(20):
                replies.append(svc.submit(request))
                if replies[-1]["worker_plan_hits"] == [True, True]:
                    break
            assert all(r["partitions"] == 2 for r in replies)
            assert replies[-1]["worker_plan_hits"] == [True, True]
            assert len({r["match_count"] for r in replies}) == 1
            assert not any("codegen" in r for r in replies)
        assert "plan_compiles" not in svc.metrics_snapshot()["counters"]
