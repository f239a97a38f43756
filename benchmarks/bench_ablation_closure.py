"""Ablation: STN machinery (DESIGN.md decisions 1 and 4).

* ``tighten``: running matchers on the transitively closed constraint set
  (more constraints, each tighter) versus the raw set.
* ``use_windows``: V2V's joint timestamp solver with and without STN
  window pruning — the knob matters on temporally dense instances where
  V2V enumerates many timestamp combinations per embedding.
"""

import pytest

from repro.core import MatchOptions, count_matches
from repro.datasets import load_dataset, paper_constraints, paper_query


@pytest.fixture(scope="module")
def dense_graph():
    """EE stand-in: heavy timestamp multiplicity stresses the solver."""
    return load_dataset("EE", scale=0.02, seed=1)


@pytest.mark.parametrize("tighten", (False, True), ids=("raw", "closed"))
@pytest.mark.parametrize("algorithm", ("tcsm-eve", "tcsm-e2e"))
def test_closure(benchmark, cm_graph, workload, algorithm, tighten):
    query, constraints = workload
    count = benchmark(
        count_matches,
        query,
        constraints,
        cm_graph,
        algorithm=algorithm,
        options=MatchOptions(tighten=tighten, time_budget=20.0),
    )
    benchmark.extra_info["matches"] = count


@pytest.mark.parametrize(
    "use_windows", (False, True), ids=("naive", "stn-windows")
)
def test_v2v_timestamp_solver(benchmark, dense_graph, use_windows):
    query = paper_query(1)
    constraints = paper_constraints(2, num_edges=query.num_edges)
    count = benchmark(
        count_matches,
        query,
        constraints,
        dense_graph,
        algorithm="tcsm-v2v",
        use_windows=use_windows,
        options=MatchOptions(time_budget=20.0),
    )
    benchmark.extra_info["matches"] = count
