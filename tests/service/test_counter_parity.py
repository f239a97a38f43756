"""Counter parity across execution paths: inline, thread pool, process pool.

Prepare-time filter counters (the ``nlf`` / ``ldf`` buckets) describe
the one prepared plan, so every path must report them exactly once per
query.  Process workers each prepare their own matcher; they return
slice-only stats, and the service merges its plan's prepare counters
once, the same way as for the thread pool.  A thread-pool query runs as
one partition whatever ``workers`` asks for, and its counters equal the
process pool's merged per-partition counters, except the matching-tree
shape counters, which count one root node per partition.  Every counter
of the process pool's merge, tree shape included, equals the same
partitions run in-process (``run_partitions``) plus the plan's prepare
counters.
"""

import pytest

from repro.core import SearchStats, create_matcher, find_matches
from repro.service import ServiceConfig, TCSMService

from .conftest import run_partitions, tree_free

#: The prepare-time filter bucket each algorithm records, and its
#: ``considered`` count on the toy instance.
PREPARE_BUCKET = {
    "tcsm-v2v": ("nlf", 14),
    "tcsm-e2e": ("ldf", 37),
    "tcsm-eve": ("ldf", 37),
}


def serve_once(toy, pool, algo, workers=3):
    query, tc, graph, _, _ = toy
    with TCSMService(ServiceConfig(max_workers=4, pool=pool)) as svc:
        svc.load_graph("toy", graph)
        return svc.query("toy", query, tc, algorithm=algo, workers=workers)


@pytest.mark.parametrize("algo", sorted(PREPARE_BUCKET))
def test_process_stats_equal_thread_stats(toy, algo):
    thread = serve_once(toy, "thread", algo)
    process = serve_once(toy, "process", algo)
    assert thread.partitions == 1
    assert process.partitions == 3
    assert sorted(process.matches) == sorted(thread.matches)
    assert tree_free(process.stats) == tree_free(thread.stats)
    assert process.stats.filters == thread.stats.filters
    # One root node per partition.
    assert process.stats.nodes_expanded == thread.stats.nodes_expanded + 2


@pytest.mark.parametrize("algo", sorted(PREPARE_BUCKET))
def test_process_merge_equals_core_partitions(toy, algo):
    """The process pool's merge pins every counter, tree shape included."""
    query, tc, graph, _, _ = toy
    process = serve_once(toy, "process", algo)
    matcher = create_matcher(algo, query, tc, graph)
    matcher.prepare()
    matches, stats, _ = run_partitions(matcher, 3)
    stats.merge(matcher.prepare_stats)
    assert isinstance(matcher.prepare_stats, SearchStats)
    assert process.partitions == 3
    assert process.matches == matches
    # Includes failed_enumerations, fail_layers and first_fail_layer.
    assert process.stats == stats


@pytest.mark.parametrize("algo", sorted(PREPARE_BUCKET))
def test_thread_pool_ignores_requested_workers(cm_graph, workload, algo):
    query, constraints = workload
    config = ServiceConfig(max_workers=4)
    with TCSMService(config) as svc:
        svc.load_graph("cm", cm_graph)
        solo, wide = (
            svc.query(
                "cm", query, constraints, algorithm=algo, workers=workers,
                use_result_cache=False,
            )
            for workers in (1, 4)
        )
    assert solo.partitions == wide.partitions == 1
    assert solo.match_count > 0
    assert wide.matches == solo.matches
    assert wide.stats == solo.stats
    assert wide.stats.filters == solo.stats.filters


@pytest.mark.parametrize("algo", sorted(PREPARE_BUCKET))
@pytest.mark.parametrize("pool", ["thread", "process"])
def test_prepare_buckets_counted_once(toy, algo, pool):
    query, tc, graph, _, _ = toy
    name, considered = PREPARE_BUCKET[algo]
    inline = find_matches(query, tc, graph, algorithm=algo).stats
    assert inline.filters[name].considered == considered
    served = serve_once(toy, pool, algo).stats
    assert served.filters[name] == inline.filters[name]
