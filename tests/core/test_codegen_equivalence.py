"""Differential tests: the generated enumerators vs the oracle, and
``MatchOptions.codegen`` as the no-op it is.

Every V2V, E2E and EVE plan runs the one enumerator
:mod:`repro.core.codegen` writes for its query shape.  ``codegen`` is
still accepted and must select nothing: with it on, the match sequence
and every :class:`SearchStats` counter stream (candidates, validations,
per-layer failures, timestamp window bookkeeping, filter buckets) are
exactly those of a run without it — across query shapes, algorithms,
graph backends and result sinks — and a full enumeration finds the
brute-force oracle's match multiset.
"""

import gc
import random
import weakref

import pytest

from repro.core import MatchOptions, find_matches
from repro.core.engine import create_matcher
from repro.graphs import (
    QueryGraph,
    TemporalConstraints,
    TemporalGraph,
    ensure_snapshot,
)
from repro.graphs.segmented import SegmentedGraph

ALGORITHMS = ("tcsm-v2v", "tcsm-e2e", "tcsm-eve")


def random_graph(seed=3, n=30, degree=5, times_per_pair=4, horizon=500):
    rng = random.Random(seed)
    labels = ["A" if i % 2 == 0 else "B" for i in range(n)]
    graph = TemporalGraph(labels)
    for u in range(n):
        for v in rng.sample([v for v in range(n) if v != u], degree):
            for _ in range(times_per_pair):
                graph.add_edge(u, v, rng.randrange(0, horizon))
    return graph


def segmented_copy(source):
    """The same edges re-ingested through the appendable backend, with a
    frozen segment boundary in the middle (both segment kinds active)."""
    seg = SegmentedGraph([source.label(v) for v in range(source.num_vertices)])
    edges = []
    for u in range(source.num_vertices):
        for v in source.out_neighbor_ids(u):
            for t in source.timestamps_list(u, v):
                edges.append((u, v, t))
    half = len(edges) // 2
    seg.extend(edges[:half])
    seg.freeze()
    seg.extend(edges[half:])
    return seg


def key_stats(stats):
    """Every counter stream a run reports."""
    return {
        "candidates": stats.candidates_generated,
        "validations": stats.validations,
        "nodes": stats.nodes_expanded,
        "matches": stats.matches,
        "failed": stats.failed_enumerations,
        "first_fail": stats.first_fail_layer,
        "fail_layers": dict(stats.fail_layers),
        "expanded": stats.timestamps_expanded,
        "skipped": stats.timestamps_skipped,
        "filters": {
            name: (bucket.considered, bucket.pruned)
            for name, bucket in sorted(stats.filters.items())
        },
        "budget": stats.budget_exhausted,
        "limit": stats.limit_hit,
    }


def assert_equivalent(query, constraints, graph, algorithm, options, **kwargs):
    """One run with and one without ``codegen``, plus the oracle.

    The two runs must agree exactly; an unlimited, unpartitioned
    enumeration must find the oracle's match multiset.
    """
    base = find_matches(
        query, constraints, graph, algorithm=algorithm,
        options=options, **kwargs,
    )
    flagged = find_matches(
        query, constraints, graph, algorithm=algorithm,
        options=options.replace(codegen=True), **kwargs,
    )
    assert flagged.matches == base.matches, "match sequence diverged"
    assert key_stats(flagged.stats) == key_stats(base.stats), "counters diverged"
    whole = options.limit is None and options.partition is None
    if whole and options.mode == "enumerate":
        oracle = find_matches(
            query, constraints, graph, algorithm="brute-force",
            options=MatchOptions(tighten=options.tighten),
        )
        assert sorted(base.matches) == sorted(oracle.matches)
    return base, flagged


#: (query, constraints) triple covering a path, a cycle-with-chord, and
#: a self-pair (both directions between two query vertices).
PATTERNS = [
    (
        QueryGraph(["A", "B", "A"], [(0, 1), (1, 2)]),
        TemporalConstraints([(0, 1, 100)], num_edges=2),
    ),
    (
        QueryGraph(["A", "B", "A", "B"], [(0, 1), (1, 2), (2, 3), (0, 3)]),
        TemporalConstraints(
            [(0, 1, 120), (1, 2, 80), (2, 3, 200)], num_edges=4
        ),
    ),
    (
        QueryGraph(["A", "B"], [(0, 1), (1, 0)]),
        TemporalConstraints([(0, 1, 50)], num_edges=2),
    ),
]

SINK_OPTIONS = [
    MatchOptions(),
    MatchOptions(mode="count"),
    MatchOptions(limit=5),
    MatchOptions(limit=7, order_by="earliest"),
]


@pytest.fixture(scope="module")
def backends():
    source = random_graph()
    return {
        "dict": random_graph(),
        "snapshot": ensure_snapshot(source),
        "segmented": segmented_copy(source),
    }


class TestDifferentialGrid:
    """3 shapes x 3 algorithms x 3 backends x 4 sinks, all bit-identical."""

    @pytest.mark.parametrize("pattern_index", range(len(PATTERNS)))
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("backend", ("dict", "snapshot", "segmented"))
    def test_matches_and_counters_identical(
        self, backends, pattern_index, algorithm, backend
    ):
        query, constraints = PATTERNS[pattern_index]
        for options in SINK_OPTIONS:
            assert_equivalent(
                query, constraints, backends[backend], algorithm, options
            )

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_partitions_identical(self, backends, algorithm):
        query, constraints = PATTERNS[1]
        for index in range(3):
            assert_equivalent(
                query,
                constraints,
                backends["snapshot"],
                algorithm,
                MatchOptions(partition=(index, 3)),
            )

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_ablation_knobs_identical(self, backends, algorithm):
        query, constraints = PATTERNS[1]
        snapshot = backends["snapshot"]
        assert_equivalent(
            query, constraints, snapshot, algorithm,
            MatchOptions(), intersect_candidates=False,
        )
        assert_equivalent(
            query, constraints, snapshot, algorithm, MatchOptions(plan="cost")
        )
        assert_equivalent(
            query, constraints, snapshot, algorithm, MatchOptions(tighten=True)
        )

    def test_v2v_specific_knobs(self, backends):
        query, constraints = PATTERNS[1]
        snapshot = backends["snapshot"]
        assert_equivalent(
            query, constraints, snapshot, "tcsm-v2v",
            MatchOptions(), use_windows=False,
        )
        assert_equivalent(
            query, constraints, snapshot, "tcsm-v2v",
            MatchOptions(), count_based_nlf=False,
        )


class TestRandomizedFuzz:
    """Seeded random patterns over seeded random graphs."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_random_pattern(self, seed, algorithm):
        rng = random.Random(1000 + seed)
        graph = ensure_snapshot(
            random_graph(seed=seed, n=24, degree=4, times_per_pair=3)
        )
        num_vertices = rng.randrange(2, 5)
        labels = [rng.choice("AB") for _ in range(num_vertices)]
        edges = []
        # A random connected pattern: spanning edges plus one extra.
        for v in range(1, num_vertices):
            u = rng.randrange(v)
            edges.append((u, v) if rng.random() < 0.5 else (v, u))
        if rng.random() < 0.5:
            a = rng.randrange(num_vertices)
            b = rng.randrange(num_vertices)
            if a != b and (a, b) not in edges:
                edges.append((a, b))
        query = QueryGraph(labels, edges)
        constraints = []
        for later in range(1, len(edges)):
            if rng.random() < 0.7:
                earlier = rng.randrange(later)
                constraints.append(
                    (earlier, later, rng.randrange(20, 200))
                )
        temporal = TemporalConstraints(constraints, num_edges=len(edges))
        assert_equivalent(
            query, temporal, graph, algorithm, MatchOptions(limit=200)
        )


class TestCodegenMechanics:
    def test_codegen_on_unsupported_algorithm_is_ignored(self, backends):
        query, constraints = PATTERNS[0]
        base = find_matches(
            query, constraints, backends["snapshot"],
            algorithm="brute-force", options=MatchOptions(),
        )
        comp = find_matches(
            query, constraints, backends["snapshot"],
            algorithm="brute-force", options=MatchOptions(codegen=True),
        )
        assert sorted(comp.matches) == sorted(base.matches)

    def test_codegen_in_canonical_hash(self):
        """It selects nothing, so it keys nothing."""
        plain = MatchOptions().canonical_hash()
        flagged = MatchOptions(codegen=True).canonical_hash()
        assert plain == flagged

    def test_deadline_through_compiled_entry(self, backends):
        """A deadline stops the generated entry, flag or no flag."""
        query, constraints = PATTERNS[1]
        result = find_matches(
            query, constraints, backends["snapshot"], algorithm="tcsm-eve",
            options=MatchOptions(codegen=True, time_budget=1e-9),
        )
        assert result.timed_out
        assert result.stats.deadline_hit



@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_dropped_compiled_plan_is_freed_without_a_collection(algorithm):
    """A prepared plan that has run its compiled shape enumerator is in
    no reference cycle, so dropping its matcher frees it (and the
    candidate index only it holds) at once: a plan cache's evictions do
    not wait for the collector."""
    graph = ensure_snapshot(random_graph())
    query = QueryGraph(["A", "B", "A"], [(0, 1), (1, 2)])
    tc = TemporalConstraints([(0, 1, 50)], num_edges=2)
    gc.collect()
    gc.disable()
    try:
        matcher = create_matcher(algorithm, query, tc, graph)
        find_matches(query, tc, graph, matcher=matcher)
        plan = weakref.ref(matcher)
        del matcher
        assert plan() is None
    finally:
        gc.enable()
