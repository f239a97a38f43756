"""Extension bench: continuous TCSM vs post-filtering CSM.

Quantifies the value of temporal-constraint pruning *inside* the
incremental delta search (tcsm-stream, the streaming engine's kernel
replayed over the graph's edges in time order) against the adapted
baselines' leaf post-filtering (graphflow).  Same stream, same matches.
"""

import pytest

from repro.core import MatchOptions, count_matches
from repro.datasets import paper_constraints, paper_query

TIGHT_GAP = 3_600  # one hour: tight constraints, maximal pruning leverage


@pytest.fixture(scope="module")
def tight_workload():
    query = paper_query(1)
    constraints = paper_constraints(2, num_edges=query.num_edges, gap=TIGHT_GAP)
    return query, constraints


@pytest.mark.parametrize(
    "algorithm", ("tcsm-stream", "graphflow"), ids=("tc-pruned", "post-filtered")
)
def test_continuous_vs_postfilter(benchmark, cm_graph, tight_workload, algorithm):
    query, constraints = tight_workload
    count = benchmark(
        count_matches,
        query,
        constraints,
        cm_graph,
        algorithm=algorithm,
        options=MatchOptions(time_budget=20.0),
    )
    benchmark.extra_info["matches"] = count
