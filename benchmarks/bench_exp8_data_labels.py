"""Exp-8 bench (Fig. 20): runtime versus the data graph's label count |L|.

Expected shape: more data labels thin every candidate set; all algorithms
get faster as |L| grows.
"""

import pytest

from repro.core import MatchOptions, count_matches
from repro.datasets import load_dataset

ALGORITHMS = ("tcsm-v2v", "tcsm-e2e", "tcsm-eve")


@pytest.fixture(scope="module")
def graphs_by_labels():
    return {
        count: load_dataset("CM", scale=0.02, num_labels=count, seed=1)
        for count in (8, 16, 24)
    }


@pytest.mark.parametrize("num_labels", (8, 16, 24))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_data_labels(benchmark, graphs_by_labels, workload, algorithm, num_labels):
    query, constraints = workload
    count = benchmark(
        count_matches,
        query,
        constraints,
        graphs_by_labels[num_labels],
        algorithm=algorithm,
        options=MatchOptions(time_budget=20.0),
    )
    benchmark.extra_info["matches"] = count
