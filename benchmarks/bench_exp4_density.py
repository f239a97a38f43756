"""Exp-4 bench (Fig. 17): runtime versus query density |E_q|/|V_q|.

Expected shape: E2E/EVE do best around density 1-1.5; V2V relies on a
richer structure (FV pruning) and dislikes density near 1.
"""

import pytest

from repro.core import MatchOptions, count_matches
from repro.datasets import random_constraints, random_query

ALGORITHMS = ("tcsm-v2v", "tcsm-e2e", "tcsm-eve")
LABELS = ("A", "B", "C", "D")


@pytest.mark.parametrize("density", (1.0, 1.5, 2.0, 3.0))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_density(benchmark, cm_graph, algorithm, density):
    num_vertices = 5
    num_edges = max(num_vertices - 1, round(density * num_vertices))
    query = random_query(num_vertices, num_edges, LABELS, seed=3)
    constraints = random_constraints(query, 3, 7 * 86_400, seed=3)
    count = benchmark(
        count_matches,
        query,
        constraints,
        cm_graph,
        algorithm=algorithm,
        options=MatchOptions(time_budget=20.0),
    )
    benchmark.extra_info["matches"] = count
