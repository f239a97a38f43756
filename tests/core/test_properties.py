"""Property-based tests (hypothesis) for the core invariants.

Random TCSM instances are generated structurally (not from the seeded
helpers, so hypothesis can shrink) and the key library invariants are
checked: matcher/oracle agreement, match validity, order-construction
invariants, STN-closure neutrality, the array-level NLF/LDF filters
agreeing with their per-pair reference predicates, and the enumerators
over the candidate spaces agreeing with the oracle across the
configuration matrix.  Matcher/oracle agreement also covers timestamps
beyond 2**53, where a float window bound would round.
"""

from collections import Counter

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.core import (
    MatchOptions,
    SearchStats,
    brute_force_matches,
    build_tcq,
    build_tcq_plus,
    find_matches,
    initial_edge_candidate_pairs,
    initial_vertex_candidates,
    is_valid_match,
    ldf,
    nlf,
)
from repro.core.engine import create_matcher
from repro.graphs import (
    QueryGraph,
    SharedSnapshot,
    TemporalConstraints,
    TemporalGraph,
)

LABELS = ("A", "B")


@st.composite
def query_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    labels = [draw(st.sampled_from(LABELS)) for _ in range(n)]
    possible = [(a, b) for a in range(n) for b in range(n) if a != b]
    # Always include a spanning path so the query is connected.
    edges = [(i, i + 1) for i in range(n - 1)]
    extra = draw(
        st.lists(st.sampled_from(possible), max_size=3, unique=True)
    )
    for pair in extra:
        if pair not in edges:
            edges.append(pair)
    return QueryGraph(labels, edges)


@st.composite
def constraint_sets(draw, query):
    m = query.num_edges
    if m < 2:
        return TemporalConstraints([], num_edges=m)
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(0, m - 1), st.integers(0, m - 1)
            ).filter(lambda p: p[0] != p[1]),
            max_size=3,
        )
    )
    seen = set()
    triples = []
    for i, j in pairs:
        if (i, j) in seen:
            continue
        seen.add((i, j))
        triples.append((i, j, draw(st.integers(0, 6))))
    return TemporalConstraints(triples, num_edges=m)


@st.composite
def temporal_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    labels = [draw(st.sampled_from(LABELS)) for _ in range(n)]
    possible = [(a, b) for a in range(n) for b in range(n) if a != b]
    edges = draw(
        st.lists(
            st.tuples(st.sampled_from(possible), st.integers(0, 10)),
            min_size=1,
            max_size=14,
        )
    )
    return TemporalGraph(labels, [(u, v, t) for (u, v), t in edges])


@st.composite
def instances(draw):
    query = draw(query_graphs())
    constraints = draw(constraint_sets(query))
    graph = draw(temporal_graphs())
    return query, constraints, graph


#: Timestamps float arithmetic cannot hold exactly.
BIG_TIMES = (2**53 + 1, 2**53 + 3, 10**17 + 1, 2**62 + 1)


def beyond_2_53(test):
    """Add the path A->B->C at each big time, its second edge 0-2 later,
    under one constraint of gap 0, 1, 0.5 or 1.75 (floored to an int)."""
    query = QueryGraph(["A", "B", "C"], [(0, 1), (1, 2)])
    for t in BIG_TIMES:
        for offset in (0, 1, 2):
            graph = TemporalGraph(["A", "B", "C"], [(0, 1, t), (1, 2, t + offset)])
            for gap in (0, 1, 0.5, 1.75):
                tc = TemporalConstraints([(0, 1, gap)], num_edges=2)
                test = example((query, tc, graph))(test)
    return test


@settings(max_examples=120, deadline=None)
@beyond_2_53
@given(instances())
def test_matchers_agree_with_oracle(instance):
    query, tc, graph = instance
    oracle = set(brute_force_matches(query, tc, graph))
    for algo in ("tcsm-v2v", "tcsm-e2e", "tcsm-eve"):
        got = set(find_matches(query, tc, graph, algorithm=algo).matches)
        assert got == oracle


@settings(max_examples=120, deadline=None)
@given(instances())
def test_every_reported_match_is_valid(instance):
    query, tc, graph = instance
    for algo in ("tcsm-v2v", "tcsm-e2e", "tcsm-eve"):
        for match in find_matches(query, tc, graph, algorithm=algo).matches:
            assert is_valid_match(query, tc, graph, match)


@settings(max_examples=120, deadline=None)
@given(instances())
def test_stn_closure_never_changes_matches(instance):
    query, tc, graph = instance
    plain = set(find_matches(query, tc, graph, algorithm="tcsm-eve").matches)
    tightened = set(
        find_matches(
            query, tc, graph, algorithm="tcsm-eve",
            options=MatchOptions(tighten=True),
        ).matches
    )
    assert plain == tightened


@settings(max_examples=150, deadline=None)
@given(instances())
def test_tcq_order_invariants(instance):
    query, tc, _ = instance
    tcq = build_tcq(query, tc)
    assert sorted(tcq.order) == list(range(query.num_vertices))
    for pos in range(1, query.num_vertices):
        u = tcq.order[pos]
        if tcq.prec[pos] is not None:
            assert tcq.position[tcq.prec[pos]] < pos
            assert tcq.prec[pos] in query.neighbors(u)


@settings(max_examples=150, deadline=None)
@given(instances())
def test_tcq_plus_order_invariants(instance):
    query, tc, _ = instance
    tcq = build_tcq_plus(query, tc)
    assert sorted(tcq.order) == list(range(query.num_edges))
    covered: set[int] = set()
    for pos, e in enumerate(tcq.order):
        endpoints = set(query.edge(e))
        assert set(tcq.new_vertices[pos]) == endpoints - covered
        covered |= endpoints
    # Every constraint is placed exactly once.
    placed = [c for cs in tcq.check_at for c in cs]
    assert sorted(placed) == sorted(tc.constraints)


@settings(max_examples=80, deadline=None)
@given(instances(), st.integers(1, 4))
def test_limit_is_prefix_of_full_run(instance, limit):
    query, tc, graph = instance
    full = find_matches(query, tc, graph, algorithm="tcsm-eve").matches
    limited = find_matches(
        query, tc, graph, algorithm="tcsm-eve",
        options=MatchOptions(limit=limit),
    ).matches
    assert limited == full[: min(limit, len(full))]


@settings(max_examples=150, deadline=None)
@given(instances())
def test_array_filters_equal_per_pair_predicates(instance):
    query, _, graph = instance
    data = graph.freeze()
    for count_based in (True, False):
        stats = SearchStats()
        got = initial_vertex_candidates(
            query, data, count_based=count_based, stats=stats
        )
        scanned = 0
        for u in query.vertices():
            pool = data.vertices_with_label(query.label(u))
            scanned += len(pool)
            assert got[u] == {
                v for v in pool if nlf(query, data, u, v, count_based=count_based)
            }
        counters = stats.filter("nlf")
        assert counters.considered == scanned
        assert counters.pruned == counters.considered - sum(map(len, got))

    stats = SearchStats()
    got_pairs = initial_edge_candidate_pairs(query, data, stats=stats)
    scanned = 0
    for e, (qu, _) in enumerate(query.edges):
        pairs = [
            (du, dv)
            for du in data.vertices_with_label(query.label(qu))
            for dv in data.out_neighbor_ids(du)
        ]
        scanned += len(pairs)
        assert got_pairs[e] == {pair for pair in pairs if ldf(query, data, e, *pair)}
    counters = stats.filter("ldf")
    assert counters.considered == scanned
    assert counters.pruned == counters.considered - sum(map(len, got_pairs))


EDGE_LABELS = (None, "x")
#: Mostly wildcards, so labeled instances still have matches to check.
QUERY_EDGE_LABELS = (None, None, "x")


@st.composite
def labeled_instances(draw):
    """An instance whose query and data edges may carry edge labels."""
    query, constraints, graph = draw(instances())
    query = QueryGraph(
        query.labels,
        query.edges,
        [draw(st.sampled_from(QUERY_EDGE_LABELS)) for _ in query.edges],
    )
    labeled = TemporalGraph(graph.labels)
    for edge in graph.edges():
        label = draw(st.sampled_from(EDGE_LABELS))
        labeled.add_edge(edge.u, edge.v, edge.t, label=label)
    return query, constraints, labeled


@settings(max_examples=100, deadline=None)
@given(labeled_instances(), st.booleans(), st.integers(1, 3), st.booleans())
def test_slot_index_enumerators_agree(instance, intersect, parts, shared):
    """The enumerators over the candidate spaces.

    E2E/EVE iterate the slot index and V2V its per-position candidate
    lists.  The union of the runs over the partitions ``(i, parts)`` is
    the brute-force oracle's multiset.  Edge
    labels, the ``intersect_candidates=False`` ablation and a
    shared-memory snapshot are drawn too.
    """
    query, tc, graph = instance
    oracle = Counter(brute_force_matches(query, tc, graph))
    snapshot = graph.freeze()
    owner = attached = None
    if shared:
        owner = SharedSnapshot.export(snapshot)
        attached = SharedSnapshot.attach(owner.name)
        snapshot = attached.snapshot()
    try:
        for algorithm in ("tcsm-v2v", "tcsm-e2e", "tcsm-eve"):
            union: Counter = Counter()
            for index in range(parts):
                result = find_matches(
                    query,
                    tc,
                    snapshot,
                    options=MatchOptions(partition=(index, parts)),
                    matcher=create_matcher(
                        algorithm,
                        query,
                        tc,
                        snapshot,
                        intersect_candidates=intersect,
                    ),
                )
                union.update(result.matches)
            assert union == oracle
    finally:
        if attached is not None:
            attached.close()
            owner.close()
