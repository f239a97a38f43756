"""Service bench: cache amortisation and partitioned fan-out.

Measures the two claims the serving subsystem makes (docs/SERVICE.md):

* **Warm beats cold.**  A plan-cache hit skips ``prepare()``, so the
  warm per-query latency must fall below half the cold latency for the
  default algorithm; a result-cache hit skips the search too and must be
  faster still.
* **Fan-out does not change answers.**  Partitioned execution over the
  process pool returns exactly the single-worker match multiset (a
  thread-pool query always runs as one partition); on hosts with >= 2
  cores the process pool must also deliver > 1.5x throughput on a
  search-bound workload.  The speedup assertion is
  skipped on single-core hosts (the fan-out still runs, the hardware
  just cannot exhibit parallelism).
* **Process fan-out overhead is small.**  The persistent process pool
  keeps its workers and their prepared plans between queries, so the
  median toy-instance query over a 3-worker process pool must take at
  most ``MAX_FANOUT_MS`` (forking a pool per query cost about 15 ms on a
  2-core host).

Run standalone for a readable report::

    PYTHONPATH=src python benchmarks/bench_service.py

or check the fan-out overhead alone and write ``BENCH_process_pool.json``
(exits non-zero when the median exceeds the bar)::

    PYTHONPATH=src python benchmarks/bench_service.py --fanout-overhead
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

import pytest
from bench_topk import GAP, dense_graph

from repro.core import find_matches
from repro.datasets import (
    load_dataset,
    paper_constraints,
    paper_query,
    toy_instance,
)
from repro.graphs import QueryGraph, TemporalConstraints
from repro.service import ServiceConfig, TCSMService


def _available_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # pragma: no cover - non-Linux fallback


def _median_query_seconds(
    service: TCSMService, graph: str, workload, repeats: int = 5, **kwargs
) -> float:
    query, constraints = workload
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        service.query(graph, query, constraints, **kwargs)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


# ----------------------------------------------------------------------
# cold vs warm cache
# ----------------------------------------------------------------------
def test_warm_plan_cache_beats_cold(cm_graph, workload):
    """Plan-cache hits must cost < 0.5x a cold prepare-and-run."""
    query, constraints = workload
    with TCSMService(ServiceConfig(max_workers=1)) as service:
        service.load_graph("cm", cm_graph)
        colds = []
        for _ in range(3):
            service.plans.clear()
            start = time.perf_counter()
            service.query(
                "cm", query, constraints, use_result_cache=False
            )
            colds.append(time.perf_counter() - start)
        cold = statistics.median(colds)
        warm = _median_query_seconds(
            service, "cm", workload, use_result_cache=False
        )
    assert warm < 0.5 * cold, f"warm {warm:.6f}s vs cold {cold:.6f}s"


def test_result_cache_hit_beats_plan_hit(cm_graph, workload):
    """Result-cache hits skip the search entirely."""
    query, constraints = workload
    with TCSMService(ServiceConfig(max_workers=1)) as service:
        service.load_graph("cm", cm_graph)
        service.query("cm", query, constraints)  # populate both caches
        plan_hit = _median_query_seconds(
            service, "cm", workload, use_result_cache=False
        )
        result_hit = _median_query_seconds(service, "cm", workload)
        hit = service.query("cm", query, constraints)
    assert hit.result_cache == "hit"
    assert result_hit < plan_hit


def test_warm_query_throughput(benchmark, cm_graph, workload):
    """Steady-state QPS with both caches hot (the serving fast path)."""
    query, constraints = workload
    with TCSMService(ServiceConfig(max_workers=1)) as service:
        service.load_graph("cm", cm_graph)
        service.query("cm", query, constraints)
        result = benchmark(service.query, "cm", query, constraints)
    assert result.result_cache == "hit"
    benchmark.extra_info["matches"] = result.match_count


# ----------------------------------------------------------------------
# 1 vs N workers
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "algorithm", ("tcsm-eve", "tcsm-e2e", "tcsm-v2v")
)
def test_partitioned_counts_match_single_worker(
    cm_graph, workload, algorithm
):
    """Process fan-out returns the exact single-worker match multiset."""
    query, constraints = workload
    with TCSMService(ServiceConfig(max_workers=4, pool="process")) as service:
        service.load_graph("cm", cm_graph)
        solo = service.query(
            "cm", query, constraints, algorithm=algorithm,
            workers=1, use_result_cache=False,
        )
        fanned = service.query(
            "cm", query, constraints, algorithm=algorithm,
            workers=4, use_result_cache=False,
        )
    assert fanned.partitions == 4
    assert fanned.match_count == solo.match_count
    assert sorted(m.vertex_map for m in fanned.matches) == sorted(
        m.vertex_map for m in solo.matches
    )


@pytest.mark.skipif(
    _available_cores() < 2,
    reason="multi-worker speedup needs >= 2 cores",
)
def test_process_pool_speedup():
    """On multi-core hosts the process pool must beat 1.5x throughput.

    The workload is the dense Exp-1-style count query of
    ``bench_codegen.py`` (about 283k matches, a solo run of well over
    100 ms), so the search, not the fan-out's fixed cost, dominates.
    """
    graph = dense_graph()
    query = QueryGraph(["A", "B", "A", "B"], [(0, 1), (1, 2), (2, 3)])
    constraints = TemporalConstraints(
        [(0, 1, GAP), (1, 2, GAP)], num_edges=query.num_edges
    )
    workers = min(4, _available_cores())
    with TCSMService(
        ServiceConfig(max_workers=workers, pool="process")
    ) as service:
        service.load_graph("dense", graph)

        def run(fan_out: int) -> tuple[float, int]:
            started = time.perf_counter()
            result = service.query(
                "dense", query, constraints, workers=fan_out,
                use_result_cache=False, mode="count",
            )
            return time.perf_counter() - started, result.match_count

        for warm in (1, workers):  # warm the plan, start the pool
            run(warm)
        solo_seconds, solo_count = run(1)
        fan_seconds, fan_count = run(workers)
    assert fan_count == solo_count
    speedup = solo_seconds / fan_seconds
    assert speedup > 1.5, (
        f"{workers}-worker speedup {speedup:.2f}x "
        f"(solo {solo_seconds:.3f}s, fanned {fan_seconds:.3f}s)"
    )


# ----------------------------------------------------------------------
# process-pool fan-out overhead
# ----------------------------------------------------------------------
#: Bar on the median toy-instance query over the process pool.
MAX_FANOUT_MS = 5.0
FANOUT_WORKERS = 3
FANOUT_QUERIES = 60
FANOUT_PATH = Path("BENCH_process_pool.json")


def _environment() -> dict[str, object]:
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            check=True,
            cwd=Path(__file__).resolve().parent,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cores_available": _available_cores(),
    }


def measure_fanout_overhead() -> dict[str, object]:
    """Per-query latency of tcsm-eve on the toy instance, 3 process workers.

    The first query starts the pool and prepares the plan in every
    worker; it is reported apart.  Every answer is checked against the
    in-process engine.
    """
    query, constraints, graph, _, _ = toy_instance()
    expected = sorted(find_matches(query, constraints, graph).matches)
    config = ServiceConfig(max_workers=FANOUT_WORKERS, pool="process")
    latencies: list[float] = []
    queues: list[float] = []
    hits: list[bool] = []
    with TCSMService(config) as service:
        service.load_graph("toy", graph)
        for _ in range(FANOUT_QUERIES + 1):
            start = time.perf_counter()
            result = service.query(
                "toy",
                query,
                constraints,
                workers=FANOUT_WORKERS,
                use_result_cache=False,
            )
            latencies.append(time.perf_counter() - start)
            if sorted(result.matches) != expected:
                raise AssertionError(
                    f"process-pool answer differs: {result.match_count} "
                    f"matches, expected {len(expected)}"
                )
            queues.append(result.queue_seconds)
            hits.extend(result.worker_plan_hits)
    warm = latencies[1:]
    return {
        "environment": _environment(),
        "workload": {
            "instance": "toy",
            "algorithm": "tcsm-eve",
            "pool": "process",
            "workers": FANOUT_WORKERS,
            "queries": FANOUT_QUERIES,
            "matches": len(expected),
        },
        "max_median_ms": MAX_FANOUT_MS,
        "first_query_ms": latencies[0] * 1e3,
        "median_ms": statistics.median(warm) * 1e3,
        "p95_ms": statistics.quantiles(warm, n=20)[-1] * 1e3,
        "queue_median_ms": statistics.median(queues[1:]) * 1e3,
        "worker_plan_hit_frac": hits.count(True) / len(hits),
    }


def check_fanout_overhead(report: dict[str, object]) -> list[str]:
    """Regression messages (empty when the report meets the bar)."""
    median = report["median_ms"]
    assert isinstance(median, float)
    if median > MAX_FANOUT_MS:
        return [
            f"median process-pool query {median:.2f} ms exceeds the "
            f"{MAX_FANOUT_MS:.1f} ms fan-out overhead bar"
        ]
    return []


def test_process_pool_fanout_overhead() -> None:
    report = measure_fanout_overhead()
    assert check_fanout_overhead(report) == [], report


def fanout_main() -> int:
    report = measure_fanout_overhead()
    print(
        f"toy x{FANOUT_WORKERS} process workers: "
        f"first {report['first_query_ms']:.1f} ms, "
        f"median {report['median_ms']:.2f} ms, "
        f"p95 {report['p95_ms']:.2f} ms, "
        f"queue {report['queue_median_ms']:.3f} ms, "
        f"plan hits {report['worker_plan_hit_frac']:.2f}"
    )
    failures = check_fanout_overhead(report)
    for failure in failures:
        print(f"REGRESSION: {failure}")
    FANOUT_PATH.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote report -> {FANOUT_PATH}")
    return 1 if failures else 0


# ----------------------------------------------------------------------
# standalone report
# ----------------------------------------------------------------------
def main() -> int:  # pragma: no cover - manual reporting entry
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fanout-overhead",
        action="store_true",
        help="check the process-pool fan-out overhead bar only",
    )
    if parser.parse_args().fanout_overhead:
        return fanout_main()
    cores = _available_cores()
    graph = load_dataset("CM", scale=0.1, seed=1)
    query = paper_query(1)
    constraints = paper_constraints(2, num_edges=query.num_edges)
    workload = (query, constraints)
    print(f"cores={cores} graph=CM@0.1 "
          f"({graph.num_vertices}v/{graph.num_temporal_edges}e)")

    with TCSMService(ServiceConfig(max_workers=1)) as service:
        service.load_graph("cm", graph)
        service.plans.clear()
        start = time.perf_counter()
        cold_result = service.query(
            "cm", query, constraints, use_result_cache=False
        )
        cold = time.perf_counter() - start
        warm = _median_query_seconds(
            service, "cm", workload, use_result_cache=False
        )
        hit = _median_query_seconds(service, "cm", workload)
    print(f"cold={cold * 1e3:.2f}ms "
          f"(prepare {cold_result.build_seconds * 1e3:.2f}ms) "
          f"plan-hit={warm * 1e3:.2f}ms ({warm / cold:.2f}x cold) "
          f"result-hit={hit * 1e3:.2f}ms")

    workers = min(4, max(2, cores))
    with TCSMService(
        ServiceConfig(max_workers=workers, pool="process")
    ) as service:
        service.load_graph("cm", graph)
        for warm in (1, workers):  # warm the plan; time the search
            service.query(
                "cm", query, constraints, workers=warm,
                use_result_cache=False,
            )
        solo_start = time.perf_counter()
        solo = service.query(
            "cm", query, constraints, workers=1,
            use_result_cache=False,
        )
        solo_s = time.perf_counter() - solo_start
        fan_start = time.perf_counter()
        fanned = service.query(
            "cm", query, constraints, workers=workers,
            use_result_cache=False,
        )
        fan_s = time.perf_counter() - fan_start
    assert fanned.match_count == solo.match_count
    print(f"process-pool x{workers}: solo={solo_s * 1e3:.1f}ms "
          f"fanned={fan_s * 1e3:.1f}ms "
          f"speedup={solo_s / fan_s:.2f}x "
          f"matches={fanned.match_count}")
    return fanout_main()


if __name__ == "__main__":  # pragma: no cover - module entry
    raise SystemExit(main())
