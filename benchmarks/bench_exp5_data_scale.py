"""Exp-5 bench (Fig. 18): runtime versus data-graph size |ℰ|.

Time-prefix subgraphs keep the earliest 25/50/100% of temporal edges.
Expected shape: runtime grows smoothly with |ℰ| for all TCSM algorithms.
"""

import pytest

from repro.core import MatchOptions, count_matches

ALGORITHMS = ("tcsm-v2v", "tcsm-e2e", "tcsm-eve")


@pytest.fixture(scope="module")
def prefixes(cm_graph):
    return {
        0.25: cm_graph.time_prefix(0.25),
        0.5: cm_graph.time_prefix(0.5),
        1.0: cm_graph,
    }


@pytest.mark.parametrize("fraction", (0.25, 0.5, 1.0))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_data_scale(benchmark, prefixes, workload, algorithm, fraction):
    query, constraints = workload
    graph = prefixes[fraction]
    count = benchmark(
        count_matches,
        query,
        constraints,
        graph,
        algorithm=algorithm,
        options=MatchOptions(time_budget=20.0),
    )
    benchmark.extra_info["matches"] = count
    benchmark.extra_info["temporal_edges"] = graph.num_temporal_edges
