"""The candidate spaces the enumerators iterate.

Every E2E/EVE slot-index entry must name exactly the candidate
neighbours (in id order) and the timestamp runs the public accessors
give, on compiled and shared-memory snapshots, with and without LDF
intersection; seeds must come in LDF's set order, so a limited run
returns the same first matches as before the index existed.  Every V2V
list entry must hold exactly the NLF survivors of the accessor-built
neighbour base, their indices in it and its length.
"""

import sys
import threading

import pytest

from repro.core import MatchOptions, find_matches
from repro.core.candidate_space import CLOSE, IN, OUT, SEED, pair_readers
from repro.core.engine import create_matcher
from repro.datasets import random_temporal_graph
from repro.graphs import (
    QueryGraph,
    SharedSnapshot,
    TemporalConstraints,
    compile_snapshot,
)

#: Between them every position kind: seed, out, in and close, plus a
#: second component whose seed is not the root.
QUERIES = (
    QueryGraph(["A", "B", "A"], [(0, 1), (1, 2), (2, 0)]),
    QueryGraph(["A", "B", "A", "B"], [(0, 1), (1, 2), (2, 3), (0, 3)]),
    QueryGraph(["A", "B", "B", "A"], [(0, 1), (3, 2)]),
)


def test_queries_cover_every_kind():
    graph = random_temporal_graph(30, 400, ["A", "B"], seed=5)
    kinds = set()
    for query in QUERIES:
        tc = TemporalConstraints([], num_edges=query.num_edges)
        matcher = create_matcher("tcsm-e2e", query, tc, graph)
        matcher.prepare()
        kinds.update(matcher.candidate_space.kinds[1:])
    assert kinds == {SEED, OUT, IN, CLOSE}


@pytest.fixture(params=["compiled", "shared"])
def data(request):
    graph = random_temporal_graph(30, 400, ["A", "B"], seed=5)
    snapshot = compile_snapshot(graph)
    if request.param == "compiled":
        yield snapshot
        return
    owner = SharedSnapshot.export(snapshot)
    attached = SharedSnapshot.attach(owner.name)
    try:
        yield attached.snapshot()
    finally:
        attached.close()
        owner.close()


def _runs(data, plane, slots):
    """(neighbour, run) per slot, read off the flat planes."""
    if plane == "out":
        nbrs, toff, times = data.out_nbrs, data.out_ts_offsets, data.out_times
    else:
        nbrs, toff, times = data.in_nbrs, data.in_ts_offsets, data.in_times
    return [(nbrs[k], tuple(times[toff[k] : toff[k + 1]])) for k in slots]


@pytest.mark.parametrize("intersect", [True, False])
@pytest.mark.parametrize("query", QUERIES)
def test_every_entry_equals_accessor_reference(data, query, intersect):
    tc = TemporalConstraints([], num_edges=query.num_edges)
    matcher = create_matcher(
        "tcsm-e2e", query, tc, data, intersect_candidates=intersect
    )
    matcher.prepare()
    space = matcher.candidate_space
    order = matcher.tcq_plus.order
    assert set(space.kinds) <= {SEED, OUT, IN, CLOSE}
    for pos, kind in enumerate(space.kinds):
        e = order[pos]
        qa, qb = query.edge(e)
        pairs = matcher.pair_candidates[e]

        def keep(u, v):
            if intersect:
                return (u, v) in pairs
            # Ablation: the label of the endpoint the position binds.
            return data.label(v if kind != IN else u) == query.label(
                qb if kind != IN else qa
            )

        if kind == SEED:
            # LDF's set order, not sorted.
            assert list(space.seeds(pos)) == list(pairs)
            continue
        for d in data.vertices():
            if kind == IN:
                want = [
                    (x, tuple(data.timestamps_list(x, d)))
                    for x in data.in_neighbor_ids(d)
                    if keep(x, d)
                ]
                assert _runs(data, "in", space.slots[pos][d]) == want
                continue
            want = [
                (x, tuple(data.timestamps_list(d, x)))
                for x in data.out_neighbor_ids(d)
                if keep(d, x)
            ]
            if kind == OUT:
                assert _runs(data, "out", space.slots[pos][d]) == want
            else:
                targets = space.slots[pos][d]
                assert list(targets) == [x for x, _ in want]
                assert _runs(data, "out", targets.values()) == want


def test_prepare_builds_no_entries():
    """Entries are filled on first touch, never eagerly in prepare."""
    graph = random_temporal_graph(30, 400, ["A", "B"], seed=5)
    query = QUERIES[1]
    tc = TemporalConstraints([], num_edges=query.num_edges)
    matcher = create_matcher("tcsm-eve", query, tc, graph)
    matcher.prepare()
    indexes = [i for i in matcher.candidate_space.slots if i is not None]
    assert indexes and not any(indexes)
    find_matches(query, tc, graph, matcher=matcher)
    assert all(indexes)


#: The first four matches of the triangle query below as the commit
#: before the slot index enumerated them (seeds in LDF's set order).
FIRST_FOUR = [
    (((28, 16, 32), (16, 20, 51), (20, 28, 72)), (28, 16, 20)),
    (((24, 17, 0), (17, 21, 7), (21, 24, 44)), (24, 17, 21)),
    (((18, 9, 45), (9, 26, 77), (26, 18, 88)), (18, 9, 26)),
    (((22, 9, 61), (9, 26, 77), (26, 22, 83)), (22, 9, 26)),
]


@pytest.mark.parametrize("codegen", [False, True])
@pytest.mark.parametrize("algorithm", ["tcsm-e2e", "tcsm-eve"])
def test_limit_returns_the_same_first_matches(algorithm, codegen):
    graph = random_temporal_graph(30, 400, ["A", "B"], seed=5)
    query = QUERIES[0]
    tc = TemporalConstraints([(0, 1, 40), (1, 2, 40)], num_edges=3)
    full = find_matches(
        query, tc, graph, algorithm=algorithm,
        options=MatchOptions(codegen=codegen),
    ).matches
    limited = find_matches(
        query, tc, graph, algorithm=algorithm,
        options=MatchOptions(limit=4, codegen=codegen),
    ).matches
    assert limited == full[:4]
    assert [
        (tuple(tuple(edge) for edge in m.edge_map), m.vertex_map)
        for m in limited
    ] == FIRST_FOUR


def test_concurrent_runs_share_one_lazily_filled_index():
    """Racing first-touch fills of one shared plan lose no candidates.

    Eight threads (more than the cores) run one prepared plan each, with
    a short switch interval so fills interleave; every run must see the
    sequential run's matches and counters.
    """
    graph = random_temporal_graph(30, 400, ["A", "B"], seed=5)
    query = QUERIES[1]
    tc = TemporalConstraints([(0, 1, 60), (1, 2, 60)], num_edges=4)
    want = find_matches(query, tc, graph, algorithm="tcsm-eve")
    matcher = create_matcher("tcsm-eve", query, tc, graph)
    matcher.prepare()
    results: list = []

    def run():
        results.append(find_matches(query, tc, graph, matcher=matcher))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 8
    for result in results:
        assert result.matches == want.matches
        assert result.stats == want.stats


# ----------------------------------------------------------------------
# V2V's per-position candidate neighbour lists
# ----------------------------------------------------------------------

#: Between them every V2V base: the prec's out-run, its in-run, and the
#: mutual list of a query pair linked both ways; plus a second component
#: whose seed is not the root.
V2V_QUERIES = (
    QueryGraph(["A", "B", "A"], [(0, 1), (2, 1)]),
    QueryGraph(["A", "B", "A"], [(0, 1), (1, 0), (1, 2)]),
    QueryGraph(["A", "B", "B", "A"], [(0, 1), (3, 2)]),
)


def _v2v_bases(matcher, data):
    """Per non-seed position: (query vertex, accessor-built base of d)."""
    tcq = matcher.tcq
    query = matcher.query
    for pos, u in enumerate(tcq.order):
        p = tcq.prec[pos]
        if p is None:
            assert matcher.candidate_lists[pos] is None
            continue
        need_out, need_in = query.has_edge(p, u), query.has_edge(u, p)

        def base(d, need_out=need_out, need_in=need_in):
            if need_out and need_in:
                return [x for x in data.in_neighbor_ids(d) if data.has_pair(d, x)]
            if need_out:
                return list(data.out_neighbor_ids(d))
            return list(data.in_neighbor_ids(d))

        yield pos, u, (need_out, need_in), base


def test_v2v_queries_cover_every_base():
    graph = random_temporal_graph(30, 400, ["A", "B"], seed=5)
    needs = set()
    for query in V2V_QUERIES:
        tc = TemporalConstraints([], num_edges=query.num_edges)
        matcher = create_matcher("tcsm-v2v", query, tc, graph)
        matcher.prepare()
        needs.update(need for _, _, need, _ in _v2v_bases(matcher, graph))
    assert needs == {(True, False), (False, True), (True, True)}


@pytest.mark.parametrize("intersect", [True, False])
@pytest.mark.parametrize("query", V2V_QUERIES)
def test_v2v_lists_equal_accessor_reference(data, query, intersect):
    """Each entry: the base's NLF survivors, their base indices, its length."""
    tc = TemporalConstraints([], num_edges=query.num_edges)
    matcher = create_matcher(
        "tcsm-v2v", query, tc, data, intersect_candidates=intersect
    )
    matcher.prepare()
    for pos, u, _, base in _v2v_bases(matcher, data):
        allowed = matcher.candidates[u]
        for d in data.vertices():
            members = base(d)
            kept = [
                i
                for i, x in enumerate(members)
                if (x in allowed if intersect else data.label(x) == query.label(u))
            ]
            assert matcher.candidate_lists[pos][d] == (
                tuple(members[i] for i in kept),
                tuple(kept),
                len(members),
            )


def test_pair_readers_equal_accessors(data):
    has_pair, pair_run = pair_readers(data)
    for u in data.vertices():
        for v in data.vertices():
            assert has_pair(u, v) == data.has_pair(u, v)
            assert tuple(pair_run(u, v)) == tuple(data.timestamps_list(u, v))


def test_v2v_prepare_builds_no_entries():
    """V2V's lists are filled on first touch, never eagerly in prepare."""
    graph = random_temporal_graph(30, 400, ["A", "B"], seed=5)
    query = V2V_QUERIES[1]
    tc = TemporalConstraints([], num_edges=query.num_edges)
    matcher = create_matcher("tcsm-v2v", query, tc, graph)
    matcher.prepare()
    lists = [entry for entry in matcher.candidate_lists if entry is not None]
    assert lists and not any(lists)
    find_matches(query, tc, graph, matcher=matcher)
    assert all(lists)


def test_concurrent_v2v_runs_share_one_lazily_filled_list():
    """Racing first-touch fills of one shared V2V plan lose nothing."""
    graph = random_temporal_graph(30, 400, ["A", "B"], seed=5)
    query = V2V_QUERIES[1]
    tc = TemporalConstraints([(0, 1, 60), (1, 2, 60)], num_edges=3)
    want = find_matches(query, tc, graph, algorithm="tcsm-v2v")
    assert want.matches
    matcher = create_matcher("tcsm-v2v", query, tc, graph)
    matcher.prepare()
    results: list = []

    def run():
        results.append(find_matches(query, tc, graph, matcher=matcher))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 8
    for result in results:
        assert result.matches == want.matches
        assert result.stats == want.stats
