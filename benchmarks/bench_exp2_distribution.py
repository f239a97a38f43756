"""Exp-2 bench (Fig. 14 / Table VI): TCQ(+) construction vs matching.

Benchmarks the two phases separately for each TCSM algorithm.  Expected
shape: TCQ+ construction (e2e/eve) costs more than TCQ (v2v), while their
matching phases cost less — construction effort buys pruning.
"""

import pytest

from repro.core import RunContext, create_matcher

ALGORITHMS = ("tcsm-v2v", "tcsm-e2e", "tcsm-eve")


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_build_phase(benchmark, cm_graph, workload, algorithm):
    query, constraints = workload

    def build():
        matcher = create_matcher(algorithm, query, constraints, cm_graph)
        matcher.prepare()
        return matcher

    benchmark(build)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_match_phase(benchmark, cm_graph, workload, algorithm):
    query, constraints = workload
    matcher = create_matcher(algorithm, query, constraints, cm_graph)
    matcher.prepare()  # build once, outside the timed region

    def match():
        return sum(1 for _ in matcher.run(RunContext()))

    count = benchmark(match)
    benchmark.extra_info["matches"] = count
