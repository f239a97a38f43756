"""Exp-7 bench (Fig. 19): runtime versus |L_q| (query label diversity).

Expected shape: fewer distinct query labels mean larger candidate sets;
runtimes fall as |L_q| rises, most steeply for v2v.
"""

import pytest

from repro.core import MatchOptions, count_matches
from repro.datasets import paper_constraints, paper_query
from repro.experiments.exp_labels import relabel_query

ALGORITHMS = ("tcsm-v2v", "tcsm-e2e", "tcsm-eve")


@pytest.mark.parametrize("num_labels", (1, 3, 6))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_query_labels(benchmark, cm_graph, algorithm, num_labels):
    query = relabel_query(paper_query(1), num_labels)
    constraints = paper_constraints(2, num_edges=query.num_edges)
    count = benchmark(
        count_matches,
        query,
        constraints,
        cm_graph,
        algorithm=algorithm,
        options=MatchOptions(time_budget=20.0),
    )
    benchmark.extra_info["matches"] = count
