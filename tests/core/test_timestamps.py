"""Tests for the joint timestamp-assignment solver."""

import itertools

import pytest

from repro.core import (
    count_timestamp_assignments,
    create_matcher,
    find_matches,
    iter_timestamp_assignments,
    windows_compatible,
)
from repro.core.timestamps import TimestampPlan
from repro.datasets import random_temporal_graph
from repro.graphs import QueryGraph, TemporalConstraints


def naive_assignments(options, constraints):
    """Reference: full cartesian product with constraint re-checks."""
    result = []
    for times in itertools.product(*options):
        if all(
            c.is_satisfied(times[c.earlier], times[c.later])
            for c in constraints
        ):
            result.append(tuple(times))
    return sorted(result)


class TestWindowsCompatible:
    def test_exact_pair_exists(self):
        assert windows_compatible([1, 5], [4, 9], gap=3)

    def test_ordering_matters(self):
        # Later must be >= earlier.
        assert not windows_compatible([10], [5], gap=100)

    def test_gap_boundary(self):
        assert windows_compatible([0], [7], gap=7)
        assert not windows_compatible([0], [8], gap=7)

    def test_empty_inputs(self):
        assert not windows_compatible([], [1, 2], gap=5)
        assert not windows_compatible([1, 2], [], gap=5)

    def test_zero_gap_requires_equality(self):
        assert windows_compatible([3, 7], [7], gap=0)
        assert not windows_compatible([3, 8], [7], gap=0)


class TestIterAssignments:
    def test_matches_naive_enumeration(self):
        options = [(1, 4, 9), (2, 5), (3, 6, 8)]
        tc = TemporalConstraints([(0, 1, 4), (1, 2, 3)], num_edges=3)
        got = sorted(iter_timestamp_assignments(options, tc))
        assert got == naive_assignments(options, tc)

    def test_windows_off_matches_windows_on(self):
        options = [(1, 4, 9), (2, 5), (3, 6, 8), (0, 10)]
        tc = TemporalConstraints(
            [(0, 1, 4), (1, 2, 3), (0, 3, 9)], num_edges=4
        )
        on = sorted(iter_timestamp_assignments(options, tc, use_windows=True))
        off = sorted(iter_timestamp_assignments(options, tc, use_windows=False))
        assert on == off == naive_assignments(options, tc)

    def test_unconstrained_edges_multiply(self):
        options = [(1, 2), (5, 6, 7)]
        tc = TemporalConstraints([], num_edges=2)
        assert count_timestamp_assignments(options, tc) == 6

    def test_empty_option_list_yields_nothing(self):
        options = [(1, 2), ()]
        tc = TemporalConstraints([], num_edges=2)
        assert count_timestamp_assignments(options, tc) == 0

    def test_arity_mismatch_raises(self):
        tc = TemporalConstraints([], num_edges=3)
        with pytest.raises(ValueError, match="option lists"):
            list(iter_timestamp_assignments([(1,)], tc))

    def test_infeasible_combination(self):
        # t1 - t0 in [0, 1] but closest timestamps differ by 5.
        options = [(0,), (5,)]
        tc = TemporalConstraints([(0, 1, 1)], num_edges=2)
        assert count_timestamp_assignments(options, tc) == 0

    def test_transitive_pruning_correct(self):
        # Chain 0 -> 1 -> 2 with small gaps; implied window on (0, 2).
        options = [tuple(range(0, 30, 3))] * 3
        tc = TemporalConstraints([(0, 1, 3), (1, 2, 3)], num_edges=3)
        got = sorted(iter_timestamp_assignments(options, tc))
        assert got == naive_assignments(options, tc)

    def test_randomized_against_naive(self):
        import random

        rng = random.Random(42)
        for _ in range(25):
            m = rng.randint(2, 4)
            options = [
                tuple(sorted(rng.sample(range(20), rng.randint(1, 4))))
                for _ in range(m)
            ]
            pairs = [
                (i, j) for i in range(m) for j in range(m) if i != j
            ]
            rng.shuffle(pairs)
            seen = set()
            triples = []
            for i, j in pairs[: rng.randint(0, m)]:
                if (i, j) not in seen:
                    seen.add((i, j))
                    triples.append((i, j, rng.randint(0, 8)))
            tc = TemporalConstraints(triples, num_edges=m)
            got = sorted(iter_timestamp_assignments(options, tc))
            assert got == naive_assignments(options, tc)


def _random_instances(seed, count=25):
    """Seeded (options, constraints) pairs: 1-4 edges, 0-m constraints."""
    import random

    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, 4)
        options = [
            tuple(sorted(rng.sample(range(20), rng.randint(1, 5))))
            for _ in range(m)
        ]
        pairs = [(i, j) for i in range(m) for j in range(m) if i != j]
        rng.shuffle(pairs)
        triples = [(i, j, rng.randint(0, 8)) for i, j in pairs[: rng.randint(0, m)]]
        yield options, TemporalConstraints(triples, num_edges=m)


class TestTimestampPlan:
    @pytest.mark.parametrize("use_windows", [True, False])
    def test_planned_solver_equals_one_off_solver(self, use_windows):
        for options, tc in _random_instances(7):
            plan = TimestampPlan(tc, use_windows)
            planned = list(plan.assignments(options))
            assert planned == list(
                iter_timestamp_assignments(options, tc, use_windows=use_windows)
            )
            assert sorted(planned) == naive_assignments(options, tc)
            # Depth-first over the plan's edge order, each run ascending.
            assert planned == sorted(
                planned, key=lambda times: [times[e] for e in plan.order]
            )

    @pytest.mark.parametrize("use_windows", [True, False])
    def test_one_plan_serves_many_option_sets(self, use_windows):
        tc = TemporalConstraints([(0, 1, 4), (1, 2, 3), (0, 3, 9)], num_edges=4)
        plan = TimestampPlan(tc, use_windows)
        for options, _ in _random_instances(11):
            if len(options) != 4:
                continue
            assert sorted(plan.assignments(options)) == naive_assignments(
                options, tc
            )

    def test_passed_distance_matrix_is_used(self):
        tc = TemporalConstraints([(0, 1, 4), (1, 2, 3)], num_edges=3)
        dist = tc.distance_matrix()
        assert TimestampPlan(tc, dist=dist).dist is dist
        assert TimestampPlan(tc, use_windows=False, dist=dist).dist is None

    def test_no_edges_yields_one_empty_assignment(self):
        tc = TemporalConstraints([], num_edges=0)
        assert list(TimestampPlan(tc).assignments([])) == [()]

    def test_arity_mismatch_raises(self):
        tc = TemporalConstraints([], num_edges=2)
        with pytest.raises(ValueError, match="option lists"):
            list(TimestampPlan(tc).assignments([(1,)]))


@pytest.mark.parametrize("codegen", [False, True])
def test_prepared_v2v_plan_never_recomputes_the_distance_matrix(
    monkeypatch, codegen
):
    """The joint solver is planned in prepare: leaves run no Floyd-Warshall."""
    graph = random_temporal_graph(30, 600, ["A", "B"], seed=3)
    query = QueryGraph(["A", "B", "A", "B"], [(0, 1), (1, 2), (2, 3)])
    tc = TemporalConstraints([(0, 1, 40), (1, 2, 40)], num_edges=3)
    matcher = create_matcher("tcsm-v2v", query, tc, graph, codegen=codegen)
    matcher.prepare()
    calls = []
    original = TemporalConstraints.distance_matrix

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(TemporalConstraints, "distance_matrix", counted)
    result = find_matches(query, tc, graph, matcher=matcher)
    leaves = result.stats.filters["timestamp-join"].considered
    assert leaves > 100 and result.stats.matches > 100
    assert calls == []
