"""Shared fixtures for the service-subsystem tests."""

import pytest

from repro.datasets import (
    load_dataset,
    paper_constraints,
    paper_query,
    toy_instance,
)
from repro.graphs import SharedSnapshot
from repro.service import ProcessSpec


@pytest.fixture(scope="session")
def toy():
    return toy_instance()


@pytest.fixture(scope="session")
def cm_graph():
    """A small CollegeMsg stand-in for serving tests."""
    return load_dataset("CM", scale=0.02, seed=1)


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
