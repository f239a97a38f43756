"""Exp-10 bench (Fig. 22): matches and runtime versus the time gap k.

Expected shape: match counts (extra_info) grow with k and then saturate;
runtime follows the match count.
"""

import pytest

from repro.core import MatchOptions, count_matches
from repro.datasets import paper_constraints, paper_query

DAY = 86_400
GAPS = (0, DAY // 2, 2 * DAY, 7 * DAY)


@pytest.mark.parametrize("gap", GAPS)
def test_timegap(benchmark, cm_graph, gap):
    query = paper_query(1)
    constraints = paper_constraints(2, num_edges=query.num_edges, gap=gap)
    count = benchmark(
        count_matches,
        query,
        constraints,
        cm_graph,
        algorithm="tcsm-eve",
        options=MatchOptions(time_budget=20.0),
    )
    benchmark.extra_info["matches"] = count
    benchmark.extra_info["gap_days"] = gap / DAY
