"""Determinism guard: partitioned fan-out never changes the answer.

Partitions slice only the *root* seed position, are pairwise disjoint and
jointly exhaustive — so the merged multiset must equal the single-worker
multiset exactly (same matches, same multiplicities) for every TCSM
algorithm, every worker count, and both datasets.  Any divergence here
means parallel serving silently corrupts results, which is why this file
pins the exact multiset rather than just the count.

The fanned-out runs are core-level partitions (``run_partitions``), merged
the way the process pool merges its workers' slices; the solo run is the
executor's one-partition in-process run.
"""

from collections import Counter

import pytest

from repro.core import create_matcher
from repro.service import QueryExecutor

from .conftest import run_partitions, tree_free

TCSM_ALGORITHMS = ("tcsm-v2v", "tcsm-e2e", "tcsm-eve")
WORKER_COUNTS = (2, 3, 5)


def _multiset(matches):
    return Counter(matches)


@pytest.mark.parametrize("algorithm", TCSM_ALGORITHMS)
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_toy_fanout_preserves_multiset(toy, algorithm, workers):
    query, tc, graph, _, _ = toy
    matcher = create_matcher(algorithm, query, tc, graph)
    matcher.prepare()
    with QueryExecutor(max_workers=max(WORKER_COUNTS)) as executor:
        solo = executor.run_matcher(matcher)
    matches, stats, _ = run_partitions(matcher, workers)
    assert _multiset(matches) == _multiset(solo.matches)
    assert tree_free(stats) == tree_free(solo.stats)
    # One root node per partition.
    assert stats.nodes_expanded == solo.stats.nodes_expanded + workers - 1


@pytest.mark.parametrize("algorithm", TCSM_ALGORITHMS)
def test_synthetic_fanout_preserves_multiset(
    cm_graph, workload, algorithm
):
    query, constraints = workload
    matcher = create_matcher(algorithm, query, constraints, cm_graph)
    matcher.prepare()
    with QueryExecutor(max_workers=4) as executor:
        solo = executor.run_matcher(matcher)
    matches, _, _ = run_partitions(matcher, 4)
    assert _multiset(matches) == _multiset(solo.matches)


@pytest.mark.parametrize("algorithm", TCSM_ALGORITHMS)
def test_more_partitions_than_roots_still_exact(toy, algorithm):
    """Worker counts beyond the root-candidate count leave some
    partitions empty; the merged answer must be unaffected."""
    query, tc, graph, _, _ = toy
    matcher = create_matcher(algorithm, query, tc, graph)
    matcher.prepare()
    with QueryExecutor(max_workers=16) as executor:
        solo = executor.run_matcher(matcher)
    matches, _, _ = run_partitions(matcher, 16)
    assert _multiset(matches) == _multiset(solo.matches)
