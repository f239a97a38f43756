"""Compile on reuse: service plans start interpreted and compile on their
first plan-cache hit.

* A cold plan runs the interpreted enumerator; the next query on it runs
  generated code, with the same matches and every counter unchanged.
* Concurrent hits on one fresh plan compile it once, and the ``metrics``
  op counts that compile as ``plan_compiles``.
* A request's ``codegen`` field selects nothing: with or without it, a
  pattern maps to one plan and one result-cache entry.
* Process-pool workers never compile, on a miss or a hit.
"""

import sys
import threading

import pytest

from repro.core import set_codegen_listener
from repro.graphs import pattern_to_dict
from repro.service import ServiceConfig, TCSMService

TCSM = ("tcsm-v2v", "tcsm-e2e", "tcsm-eve")


@pytest.fixture()
def service(cm_graph):
    with TCSMService(ServiceConfig(max_workers=2)) as svc:
        svc.load_graph("cm", cm_graph)
        yield svc


@pytest.fixture()
def compiles():
    """Every compile in this process, via the codegen debug listener."""
    seen = []
    set_codegen_listener(seen.append)
    yield seen
    set_codegen_listener(None)


@pytest.mark.parametrize("algo", TCSM)
def test_first_use_interprets_and_reuse_runs_compiled(
    service, workload, compiles, algo
):
    query, constraints = workload
    cold = service.query(
        "cm", query, constraints, algorithm=algo, use_result_cache=False
    )
    warm = service.query(
        "cm", query, constraints, algorithm=algo, use_result_cache=False
    )
    assert (cold.plan_cache, cold.codegen) == ("miss", False)
    assert (warm.plan_cache, warm.codegen) == ("hit", True)
    assert len(compiles) == 1
    assert warm.match_count > 0
    assert warm.matches == cold.matches
    assert warm.stats == cold.stats
    again = service.query(
        "cm", query, constraints, algorithm=algo, use_result_cache=False
    )
    assert again.codegen and len(compiles) == 1
    assert service.metrics_snapshot()["counters"]["plan_compiles"] == 1


@pytest.mark.parametrize("algo", TCSM)
def test_concurrent_hits_compile_once(service, workload, compiles, algo):
    query, constraints = workload
    service.query("cm", query, constraints, algorithm=algo)
    assert compiles == []
    threads = 8
    barrier = threading.Barrier(threads)
    results = []
    errors = []

    def hit():
        try:
            barrier.wait()
            results.append(
                service.query(
                    "cm",
                    query,
                    constraints,
                    algorithm=algo,
                    use_result_cache=False,
                )
            )
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    workers = [threading.Thread(target=hit) for _ in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []
    assert len(compiles) == 1
    assert service.metrics.counter("plan_compiles") == 1
    assert {r.plan_cache for r in results} == {"hit"}
    assert len({r.matches for r in results}) == 1


@pytest.mark.parametrize("algo", TCSM)
def test_codegen_request_field_shares_plan_and_result(
    service, workload, algo
):
    query, constraints = workload
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
    assert (bypass["plan_cache"], bypass["codegen"]) == ("hit", True)
    assert len(service.plans) == 1


def test_traced_compile_sits_under_the_paying_request(service, workload):
    query, constraints = workload
    service.query("cm", query, constraints, trace=True)
    paying = service.query("cm", query, constraints, trace=True)
    later = service.query("cm", query, constraints, trace=True)
    trees = [service.traces.get(r.trace_id)["tree"] for r in (paying, later)]
    assert "codegen-compile" in trees[0]
    assert "codegen-compile" not in trees[1]
    counters = service.metrics_snapshot()["counters"]
    assert counters["plan_compiles"] == 1


def test_process_fanout_never_compiles(cm_graph, workload, tmp_path):
    """Workers fork from this process, so they inherit the listener; it
    appends a line per compile to a file any process can write."""
    log = tmp_path / "compiles.log"

    def record(plan):
        with open(log, "a") as out:
            out.write(plan.algorithm + "\n")

    query, constraints = workload
    set_codegen_listener(record)
    try:
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
                assert not any(r["codegen"] for r in replies)
            assert svc.metrics.counter("plan_compiles") == 0
    finally:
        set_codegen_listener(None)
    assert not log.exists()
