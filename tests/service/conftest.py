"""Shared fixtures for the service-subsystem tests."""

import random
from collections import Counter
from dataclasses import replace

import pytest

from repro.core import run_prepared
from repro.datasets import (
    load_dataset,
    paper_constraints,
    paper_query,
    toy_instance,
)
from repro.graphs import (
    QueryGraph,
    SharedSnapshot,
    TemporalConstraints,
    TemporalGraph,
    ensure_snapshot,
)
from repro.service import ProcessSpec
from repro.service import executor as executor_module


@pytest.fixture(scope="session")
def toy():
    return toy_instance()


@pytest.fixture(scope="session")
def cm_graph():
    """A small CollegeMsg stand-in for serving tests."""
    return load_dataset("CM", scale=0.02, seed=1)


@pytest.fixture(scope="session")
def dense():
    """A two-label random graph dense enough for a meaningful top-k."""
    rng = random.Random(11)
    n, degree, times_per_pair = 40, 6, 4
    labels = ["A" if i % 2 == 0 else "B" for i in range(n)]
    graph = TemporalGraph(labels)
    for u in range(n):
        targets = rng.sample([v for v in range(n) if v != u], degree)
        for v in targets:
            for _ in range(times_per_pair):
                graph.add_edge(u, v, rng.randrange(0, 1000))
    query = QueryGraph(["A", "B", "A"], [(0, 1), (1, 2)])
    constraints = TemporalConstraints([(0, 1, 300)], num_edges=2)
    return ensure_snapshot(graph), query, constraints


@pytest.fixture(scope="session")
def workload():
    """The paper's default workload: (q1, tc2)."""
    query = paper_query(1)
    constraints = paper_constraints(2, num_edges=query.num_edges)
    return query, constraints


@pytest.fixture()
def toy_spec(toy):
    """A tcsm-eve process spec over the toy graph's shared-memory export."""
    query, tc, graph, _, _ = toy
    shared = SharedSnapshot.export(graph.freeze())
    yield ProcessSpec(
        query=query,
        constraints=tc,
        graph=shared,
        algorithm="tcsm-eve",
        plan_key="toy-eve",
    )
    shared.close()


def run_partitions(matcher, count, *, limit=None, deadline=None):
    """Run *matcher* as *count* core-level partitions and merge them.

    Each slice runs through the engine's one run step, and the slices
    merge exactly as a process pool query's do; returns
    ``(matches, stats, truncated)``.
    """
    parts = []
    for index in range(count):
        run = run_prepared(
            matcher, limit=limit, deadline=deadline, partition=(index, count)
        )
        parts.append((tuple(run.matches), run.stats))
    return executor_module._merge_partitions(parts, limit)


def tree_free(stats):
    """*stats* without the fields that describe the matching tree's shape.

    Each partition expands its own root node, and counts it as a failed
    enumeration when its slice of root candidates yields nothing, so
    ``nodes_expanded``, ``failed_enumerations``, ``fail_layers`` and
    ``first_fail_layer`` depend on the partition count; every other
    counter is partition-invariant.
    """
    return replace(
        stats,
        nodes_expanded=0,
        failed_enumerations=0,
        first_fail_layer=None,
        fail_layers=Counter(),
    )
