"""Exp-3 bench (Fig. 15): runtime versus query size and constraint count.

Queries are extracted from the data graph (guaranteed-match workloads).
Expected shape: runtime grows with |q| for every algorithm; for the TCSM
family, more constraints do not hurt (E2E/EVE trend flat-to-down).
"""

import pytest

from repro.core import MatchOptions, count_matches
from repro.datasets import extract_instance

ALGORITHMS = ("tcsm-v2v", "tcsm-e2e", "tcsm-eve")


@pytest.mark.parametrize("size", (4, 6, 8))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_query_size(benchmark, cm_graph, algorithm, size):
    query, constraints = extract_instance(
        cm_graph, size, size + 1, num_constraints=3, seed=size
    )
    count = benchmark(
        count_matches,
        query,
        constraints,
        cm_graph,
        algorithm=algorithm,
        options=MatchOptions(time_budget=20.0),
    )
    benchmark.extra_info["matches"] = count


@pytest.mark.parametrize("num_constraints", (2, 4, 6))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_constraint_count(benchmark, cm_graph, algorithm, num_constraints):
    query, constraints = extract_instance(
        cm_graph, 6, 7, num_constraints=num_constraints, seed=1
    )
    count = benchmark(
        count_matches,
        query,
        constraints,
        cm_graph,
        algorithm=algorithm,
        options=MatchOptions(time_budget=20.0),
    )
    benchmark.extra_info["matches"] = count
