"""One run contract on every path: the engine, the in-process service
and the process pool.

Each path reaches the engine's one run step (``run_prepared``), so for
every (mode, order_by, limit) they must agree on the answer and its
tags: the matches (sorted where unordered), ``match_count``,
``ordered``, ``truncated``, ``truncated_by_limit`` and ``timed_out``.
The in-process service must also report the engine's ``SearchStats``.
The 3-worker process pool counts one root node per partition, so its
stats equal the engine's apart from the tree-shape counters
(``tree_free``).  Where a limit stops the search early (order ``any``,
or a count), which matches come first depends on the partitioning: the
process pool then returns a subset of the full answer of the same size,
with every counter equal to the same partitions run in-process.
"""

import pytest

from repro.core import (
    MatchOptions,
    create_matcher,
    find_matches,
    match_sort_key,
    merge_prepare_stats,
    run_prepared,
)
from repro.service import ServiceConfig, TCSMService
from repro.service import executor as executor_module

from .conftest import tree_free

WORKERS = 3


@pytest.fixture(scope="module")
def instances(toy, dense):
    """name -> (query, constraints, graph)."""
    query, constraints, graph, _, _ = toy
    dense_graph, dense_query, dense_constraints = dense
    return {
        "toy": (query, constraints, graph),
        "dense": (dense_query, dense_constraints, dense_graph),
    }


@pytest.fixture(scope="module")
def services(instances):
    """An in-process and a 3-worker process service over both graphs."""
    config = ServiceConfig(max_workers=WORKERS, default_time_budget=None)
    with TCSMService(config) as inline, TCSMService(
        ServiceConfig(
            max_workers=WORKERS, pool="process", default_time_budget=None
        )
    ) as pool:
        for name, (_, _, graph) in instances.items():
            inline.load_graph(name, graph)
            pool.load_graph(name, graph)
        yield inline, pool


def answer(result, match_count, order_by):
    """The path-independent part of a result."""
    matches = list(result.matches)
    if order_by != "earliest":
        matches.sort(key=match_sort_key)
    return {
        "matches": matches,
        "match_count": match_count,
        "ordered": result.ordered,
        "truncated": result.truncated,
        "truncated_by_limit": result.truncated_by_limit,
        "timed_out": result.timed_out,
    }


def partitioned(algorithm, instance, mode, order_by, limit):
    """The process pool's partitions, run in-process and merged."""
    matcher = create_matcher(algorithm, *instance)
    matcher.prepare()
    parts = []
    for index in range(WORKERS):
        run = run_prepared(
            matcher,
            mode=mode,
            order_by=order_by,
            limit=limit,
            collect=mode == "enumerate",
            partition=(index, WORKERS),
        )
        parts.append((tuple(run.matches), run.stats))
    # Counts keep no top-k heap, so they merge as order "any" does.
    merge_order = order_by if mode == "enumerate" else "any"
    matches, stats, _ = executor_module._merge_partitions(
        parts, limit, merge_order
    )
    merge_prepare_stats(matcher, stats)
    return matches, stats


@pytest.mark.parametrize("limit", [None, 1, 3])
@pytest.mark.parametrize("order_by", ["any", "earliest"])
@pytest.mark.parametrize("mode", ["enumerate", "count"])
@pytest.mark.parametrize("name", ["toy", "dense"])
@pytest.mark.parametrize("algorithm", ["tcsm-v2v", "tcsm-e2e", "tcsm-eve"])
def test_paths_agree(
    instances, services, algorithm, name, mode, order_by, limit
):
    query, constraints, graph = instances[name]
    inline, pool = services
    engine = find_matches(
        query,
        constraints,
        graph,
        algorithm,
        options=MatchOptions(mode=mode, order_by=order_by, limit=limit),
    )
    full = find_matches(query, constraints, graph, algorithm)
    assert len(full.matches) > 1
    served = [
        service.query(
            name,
            query,
            constraints,
            algorithm=algorithm,
            limit=limit,
            order_by=order_by,
            mode=mode,
            workers=WORKERS,
            use_result_cache=False,
        )
        for service in (inline, pool)
    ]
    in_process, process = served
    assert in_process.partitions == 1
    assert process.partitions == WORKERS

    expected = answer(engine, engine.num_matches, order_by)
    assert answer(in_process, in_process.match_count, order_by) == expected
    assert in_process.stats == engine.stats

    stops_early = limit is not None and (order_by == "any" or mode == "count")
    got = answer(process, process.match_count, order_by)
    if not stops_early:
        assert got == expected
        assert tree_free(process.stats) == tree_free(engine.stats)
        return
    # The first k found depend on the partitioning.
    assert set(got.pop("matches")) <= set(full.matches)
    expected.pop("matches")
    assert got == expected
    if mode == "enumerate":
        assert len(process.matches) == engine.num_matches
    matches, stats = partitioned(
        algorithm, instances[name], mode, order_by, limit
    )
    assert process.matches == matches
    assert process.stats == stats
