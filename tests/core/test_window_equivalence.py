"""Property suite: the window kernel and the cost planner change nothing.

Random instances are swept across the configuration grid — three TCSM
algorithms × plan ``paper``/``cost`` × instance shape — and every cell
must produce the brute-force oracle's match multiset.  Every matcher
reads its timestamps through the window kernel (pure bisect arithmetic
on the snapshot's sorted runs), so this grid is what pins that the
kernel only ever skips timestamps no match could use.
"""

import pytest

from repro.core import MatchOptions, brute_force_matches, find_matches
from repro.datasets import random_instance

ALGORITHMS = ("tcsm-v2v", "tcsm-e2e", "tcsm-eve")

#: Instance shapes stressing different kernel paths: the default mix,
#: timestamp-heavy pairs (long runs -> big windows), and tight zero-ish
#: gaps (narrow windows -> most of each run skipped).
SHAPES = {
    "default": {},
    "many_timestamps": {
        "query_vertices": 3,
        "query_edges": 3,
        "num_constraints": 2,
        "data_vertices": 6,
        "data_edges": 60,
        "max_time": 8,
    },
    "tight_gaps": {
        "query_vertices": 4,
        "query_edges": 4,
        "num_constraints": 3,
        "max_gap": 1,
        "data_vertices": 10,
        "data_edges": 50,
    },
}


def _run(query, tc, graph, algorithm, plan):
    return find_matches(
        query, tc, graph, algorithm=algorithm, options=MatchOptions(plan=plan)
    )


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("seed", range(4))
def test_full_configuration_grid(shape, algorithm, seed):
    query, tc, graph = random_instance(seed=seed + 100, **SHAPES[shape])
    oracle = sorted(brute_force_matches(query, tc, graph))
    for plan in ("paper", "cost"):
        result = _run(query, tc, graph, algorithm, plan)
        assert sorted(result.matches) == oracle, f"{algorithm}/{plan}"


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("seed", range(4))
def test_kernel_is_on_by_default(algorithm, seed):
    # The kernel has no off switch: a default run reads windowed runs
    # and still finds exactly the oracle's matches.
    query, tc, graph = random_instance(seed=seed + 200)
    default = find_matches(query, tc, graph, algorithm=algorithm)
    assert sorted(default.matches) == sorted(
        brute_force_matches(query, tc, graph)
    )


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("seed", [300, 304, 306])
def test_kernel_actually_skips_on_run_heavy_instances(algorithm, seed):
    # On a run-heavy instance with matches the kernel must actually skip
    # something, otherwise this suite proves nothing about the windowed
    # paths (seeds chosen so every algorithm both matches and skips).
    query, tc, graph = random_instance(
        seed=seed, **SHAPES["many_timestamps"]
    )
    result = _run(query, tc, graph, algorithm, "paper")
    oracle = sorted(brute_force_matches(query, tc, graph))
    assert sorted(result.matches) == oracle
    assert result.stats.matches > 0
    assert result.stats.timestamps_skipped > 0
