"""Measurement harness: timed (and optionally memory-profiled) runs.

All experiment drivers funnel their matcher invocations through
:func:`measure`, which wraps :func:`repro.core.find_matches` with a time
budget, repetition, and optional ``tracemalloc`` peak-memory tracking —
the paper's Table IV measures resident memory; allocation peaks are the
closest language-portable equivalent.
"""

from __future__ import annotations

import argparse
import tracemalloc
from typing import Any

from ..core import MatchOptions, MatchResult, create_matcher, find_matches
from ..graphs import QueryGraph, TemporalConstraints, TemporalGraph
from .records import Measurement

__all__ = [
    "CORE_ALGORITHMS",
    "FAST_BASELINES",
    "HEAVY_BASELINES",
    "ALL_BASELINES",
    "DEFAULT_COMPARISON",
    "measure",
    "common_parser",
]

CORE_ALGORITHMS: tuple[str, ...] = ("tcsm-v2v", "tcsm-e2e", "tcsm-eve")
"""The paper's three algorithms, in presentation order."""

FAST_BASELINES: tuple[str, ...] = (
    "symbi",
    "turboflux",
    "graphflow",
    "iedyn",
)
"""CSM baselines that stay usable at our default scales."""

HEAVY_BASELINES: tuple[str, ...] = (
    "sj-tree",
    "rapidflow",
    "calig",
    "newsp",
    "ri-ds",
)
"""Baselines that routinely hit the time budget (as in the paper)."""

ALL_BASELINES: tuple[str, ...] = FAST_BASELINES + HEAVY_BASELINES

DEFAULT_COMPARISON: tuple[str, ...] = (
    FAST_BASELINES + HEAVY_BASELINES + CORE_ALGORITHMS
)
"""Table III's row order: baselines first, our algorithms last."""


def measure(
    experiment: str,
    dataset: str,
    algorithm: str,
    query: QueryGraph,
    constraints: TemporalConstraints,
    graph: TemporalGraph,
    query_name: str = "",
    constraint_name: str = "",
    time_budget: float | None = 30.0,
    repeat: int = 1,
    track_memory: bool = False,
    params: dict[str, object] | None = None,
    **options: Any,
) -> Measurement:
    """Run one (workload, algorithm) pair and record the outcome.

    With ``repeat > 1`` the minimum wall time over repetitions is kept
    (standard benchmarking practice); match counts and search statistics
    come from the first repetition.  With ``track_memory`` the peak
    traced allocation of the first repetition is recorded; a throwaway
    matcher is prepared on the same inputs first, so once-per-process
    work (the shape enumerator's compile, the graph's snapshot) is not
    charged to whichever cell runs first.
    """
    best: MatchResult | None = None
    first: MatchResult | None = None
    memory_mb = 0.0
    if track_memory:
        create_matcher(algorithm, query, constraints, graph, **options).prepare()
    for attempt in range(max(1, repeat)):
        if track_memory and attempt == 0:
            tracemalloc.start()
        result = find_matches(
            query,
            constraints,
            graph,
            algorithm=algorithm,
            options=MatchOptions(
                time_budget=time_budget, collect_matches=False
            ),
            **options,
        )
        if track_memory and attempt == 0:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            memory_mb = peak / (1024 * 1024)
        if best is None or result.total_seconds < best.total_seconds:
            if best is None:
                first = result
            best = result
    assert best is not None and first is not None  # loop runs >= once
    return Measurement(
        experiment=experiment,
        dataset=dataset,
        algorithm=algorithm,
        query=query_name,
        constraint=constraint_name,
        seconds=best.total_seconds,
        build_seconds=best.build_seconds,
        match_seconds=best.match_seconds,
        matches=first.stats.matches,
        timestamps_expanded=first.stats.timestamps_expanded,
        timestamps_skipped=first.stats.timestamps_skipped,
        memory_mb=memory_mb,
        failed_enumerations=first.stats.failed_enumerations,
        first_fail_layer=first.stats.first_fail_layer,
        budget_exhausted=first.stats.budget_exhausted,
        filters=first.stats.filter_summary(),
        params=params or {},
    )


def common_parser(description: str) -> argparse.ArgumentParser:
    """Shared CLI options for the experiment drivers."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="dataset scale factor (default: per-dataset Python-friendly)",
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="generator seed (default 1)"
    )
    parser.add_argument(
        "--time-budget",
        type=float,
        default=30.0,
        help="per-run wall-clock budget in seconds (default 30)",
    )
    parser.add_argument(
        "--csv",
        type=str,
        default=None,
        help="also write measurements to this CSV file",
    )
    return parser
