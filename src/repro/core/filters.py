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

from collections.abc import Hashable

from ..graphs import GraphSnapshot, QueryGraph

from .stats import SearchStats

__all__ = [
    "degree_candidates",
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

    The result equals :func:`nlf` applied to every scanned vertex.
    Degrees come from the snapshot's CSR offset planes (via
    :func:`degree_candidates`); only a vertex passing them has its label
    signature read, unchecked (the vertex came from the label index).
    """
    counters = (stats or SearchStats()).filter("nlf")
    candidates: list[frozenset[int]] = []
    for u in query.vertices():
        label = query.label(u)
        needed = tuple(query.neighbor_label_counts(u).items())
        needed_labels = frozenset(needed_label for needed_label, _ in needed)
        passing: set[int] = set()
        for v in degree_candidates(
            data, label, query.in_degree(u), query.out_degree(u)
        ):
            have = data.label_signature(v)
            if count_based:
                for needed_label, count in needed:
                    if have.get(needed_label, 0) < count:
                        break
                else:
                    passing.add(v)
            elif have.keys() >= needed_labels:
                passing.add(v)
        scanned = len(data.vertices_with_label(label))
        counters.considered += scanned
        counters.pruned += scanned - len(passing)
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
    pairs: every out-neighbour pair of every source carrying the query
    edge's source label.

    The result equals :func:`ldf` applied to every scanned pair.  The
    loop reads the CSR planes directly: a source failing its own degree
    bounds is rejected with its whole out-run, and a target is a set
    probe into the degree-passing vertices of the target label.
    """
    counters = (stats or SearchStats()).filter("ldf")
    out_offsets = data.out_offsets
    out_nbrs = data.out_nbrs
    # Per query vertex, the data vertices passing its label and degree
    # bounds, in label-index order (shared by every incident query edge).
    admissible = [
        degree_candidates(
            data, query.label(u), query.in_degree(u), query.out_degree(u)
        )
        for u in query.vertices()
    ]
    candidates: list[frozenset[tuple[int, int]]] = []
    for qu, qv in query.edges:
        # Every out-pair of every source with the right label is scanned;
        # a source failing its own degree bounds is rejected whole.
        considered = sum(
            out_offsets[du + 1] - out_offsets[du]
            for du in data.vertices_with_label(query.label(qu))
        )
        targets = set(admissible[qv])
        passing = {
            (du, dv)
            for du in admissible[qu]
            for dv in out_nbrs[out_offsets[du] : out_offsets[du + 1]]
            if dv in targets
        }
        counters.considered += considered
        counters.pruned += considered - len(passing)
        candidates.append(frozenset(passing))
    return candidates


def degree_candidates(
    data: GraphSnapshot, label: Hashable, min_in: int, min_out: int
) -> list[int]:
    """Data vertices with *label* and static degrees of at least the bounds.

    The label and degree-dominance part of NLF and LDF, and the whole of
    RI-DS's domain filter.  In label-index order; degrees are
    differences of the snapshot's CSR offsets.
    """
    out_offsets = data.out_offsets
    in_offsets = data.in_offsets
    return [
        v
        for v in data.vertices_with_label(label)
        if out_offsets[v + 1] - out_offsets[v] >= min_out
        and in_offsets[v + 1] - in_offsets[v] >= min_in
    ]
