"""Candidate filters: NLF (Definition 6) and LDF (Definition 7).

Both filters are *necessary* conditions for a data vertex/edge to
participate in any match, so applying them never loses results; they trim
the initial candidate sets fed to the matchers.

Definition 6(3) as printed is *set* containment over neighbour labels.
The classic Neighbourhood Label Frequency filter the paper cites [27] uses
*count* containment, which is also sound under injective matching (distinct
query neighbours must map to distinct data neighbours).  ``count_based``
selects between the two; the default (count-based) prunes more and is the
variant ablated in ``benchmarks/bench_ablation_filters.py``.
"""

from __future__ import annotations

from ..graphs import GraphSnapshot, QueryGraph

from .stats import SearchStats

__all__ = [
    "nlf",
    "ldf",
    "initial_vertex_candidates",
    "initial_edge_candidate_pairs",
]


def nlf(
    query: QueryGraph,
    data: GraphSnapshot,
    u: int,
    v: int,
    count_based: bool = True,
) -> bool:
    """Neighbor Label Filter: can data vertex *v* possibly match query *u*?

    Checks (Definition 6): equal labels; ``in/out`` degree dominance; and
    neighbour-label containment (count- or set-based).
    """
    if data.label(v) != query.label(u):
        return False
    if data.in_degree(v) < query.in_degree(u):
        return False
    if data.out_degree(v) < query.out_degree(u):
        return False
    query_counts = query.neighbor_label_counts(u)
    data_counts = data.neighbor_label_counts(v)
    if count_based:
        return all(
            data_counts.get(label, 0) >= needed
            for label, needed in query_counts.items()
        )
    return all(label in data_counts for label in query_counts)


def ldf(
    query: QueryGraph,
    data: GraphSnapshot,
    edge_index: int,
    data_u: int,
    data_v: int,
) -> bool:
    """Label Degree Filter: can data pair ``(data_u, data_v)`` match a query edge?

    Checks (Definition 7): label equality on both endpoints and the four
    degree-dominance conditions.
    """
    qu, qv = query.edge(edge_index)
    if data.label(data_u) != query.label(qu):
        return False
    if data.label(data_v) != query.label(qv):
        return False
    if data.in_degree(data_u) < query.in_degree(qu):
        return False
    if data.out_degree(data_u) < query.out_degree(qu):
        return False
    if data.in_degree(data_v) < query.in_degree(qv):
        return False
    if data.out_degree(data_v) < query.out_degree(qv):
        return False
    return True


def initial_vertex_candidates(
    query: QueryGraph,
    data: GraphSnapshot,
    count_based: bool = True,
    stats: SearchStats | None = None,
) -> list[frozenset[int]]:
    """Per query vertex, the set of NLF-passing data vertices.

    This is lines 1-3 of Algorithm 2.  Only data vertices carrying the
    query label are examined, via the snapshot's label index.  When
    *stats* is given, the ``"nlf"`` filter bucket records how many
    label-compatible vertices were considered and how many NLF pruned.
    """
    counters = (stats or SearchStats()).filter("nlf")
    candidates: list[frozenset[int]] = []
    for u in query.vertices():
        passing: set[int] = set()
        for v in data.vertices_with_label(query.label(u)):
            counters.considered += 1
            if nlf(query, data, u, v, count_based=count_based):
                passing.add(v)
            else:
                counters.pruned += 1
        candidates.append(frozenset(passing))
    return candidates


def initial_edge_candidate_pairs(
    query: QueryGraph,
    data: GraphSnapshot,
    stats: SearchStats | None = None,
) -> list[frozenset[tuple[int, int]]]:
    """Per query edge, the set of LDF-passing data vertex *pairs*.

    This is lines 1-3 of Algorithm 4, with one representational twist:
    candidates are stored as static pairs rather than expanded temporal
    edges, because every timestamp of a passing pair passes too (LDF looks
    only at labels and degrees).  Matchers expand timestamps on demand.
    When *stats* is given, the ``"ldf"`` bucket records scanned vs pruned
    pairs.
    """
    counters = (stats or SearchStats()).filter("ldf")
    candidates: list[frozenset[tuple[int, int]]] = []
    for edge_index, (qu, _) in enumerate(query.edges):
        passing: set[tuple[int, int]] = set()
        # Scan only pairs whose source carries the right label.
        for data_u in data.vertices_with_label(query.label(qu)):
            for data_v in data.out_neighbors(data_u):
                counters.considered += 1
                if ldf(query, data, edge_index, data_u, data_v):
                    passing.add((data_u, data_v))
                else:
                    counters.pruned += 1
        candidates.append(frozenset(passing))
    return candidates
