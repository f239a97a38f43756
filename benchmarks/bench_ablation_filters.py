"""Ablation: candidate filtering knobs (DESIGN.md decisions 2 and 3).

* count-based vs set-based NLF in TCSM-V2V (Definition 6 reading);
* intersecting DFS candidates with the initial NLF/LDF sets versus the
  literal label-only filter of Algorithms 2/4.
"""

import pytest

from repro.core import MatchOptions, count_matches


@pytest.mark.parametrize(
    "count_based", (True, False), ids=("count-nlf", "set-nlf")
)
def test_nlf_mode(benchmark, cm_graph, workload, count_based):
    query, constraints = workload
    count = benchmark(
        count_matches,
        query,
        constraints,
        cm_graph,
        algorithm="tcsm-v2v",
        count_based_nlf=count_based,
        options=MatchOptions(time_budget=20.0),
    )
    benchmark.extra_info["matches"] = count


@pytest.mark.parametrize(
    "intersect", (True, False), ids=("intersect", "label-only")
)
@pytest.mark.parametrize("algorithm", ("tcsm-v2v", "tcsm-e2e", "tcsm-eve"))
def test_candidate_intersection(
    benchmark, cm_graph, workload, algorithm, intersect
):
    query, constraints = workload
    count = benchmark(
        count_matches,
        query,
        constraints,
        cm_graph,
        algorithm=algorithm,
        intersect_candidates=intersect,
        options=MatchOptions(time_budget=20.0),
    )
    benchmark.extra_info["matches"] = count
