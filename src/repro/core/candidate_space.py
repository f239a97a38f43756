"""Candidate spaces: per matching position, what the enumerators iterate.

Two indexes live here, one per algorithm family: the E2E/EVE slot index
(:class:`CandidateSpace`) and V2V's per-position candidate neighbour
lists (:func:`vertex_candidate_lists`, at the end of the module).

E2E and EVE (Algorithms 4-5) extend a partial match only along edges in
LDF's candidate set (Alg. 4 lines 1-3 and 14-15).  Stored as a set of
``(u, v)`` pairs, that set makes the enumerators scan every neighbour of
a bound vertex, probe the set, and then look the surviving pair's
timestamp run up again through a checked accessor.  Following Min et
al. (PAPERS.md), who backtrack over an auxiliary candidate structure
instead of the raw data graph, :class:`CandidateSpace` re-expresses the
candidate pairs as *CSR slot ids* of the snapshot's planes, per matching
position of the TCQ+ order.  A slot ``k`` names a neighbour
(``nbrs[k]``) and its sorted timestamp run
(``times[ts_offsets[k] : ts_offsets[k + 1]]``), so both enumerators read
the run straight off the flat planes.

What a position stores depends on which of its query edge's endpoints
the earlier positions already bound:

* ``OUT`` (source bound): bound data vertex -> tuple of the out-plane
  slots whose pair is a candidate, in id order.
* ``IN`` (target bound): the same over the in-plane.  An in-slot's run
  holds the same timestamps as the pair's out-slot run.
* ``CLOSE`` (both bound): bound source -> ``{candidate target:
  out-slot}``.  One probe answers both "is the pair a candidate" and
  "where is its run".
* ``SEED`` (neither): nothing.  Seeds iterate LDF's frozenset itself (or
  a partition's slice of it), so seed order does not change; a seed's
  out-slot is one bisect of its source's out-run.

Entries are filled per data vertex on first touch, so ``prepare`` pays
nothing for the index, and a vertex's neighbour run is scanned once per
plan rather than once per visit.  Racing fills of one vertex (two runs
of a shared plan) compute equal values, so the cache needs no lock.

With ``intersect_candidates=False`` (the filter ablation) only the
source of the slot ids changes: the raw CSR run plus the unbound
endpoint's label check.  (At a closing position that check is vacuous
for the bound target, which an earlier position label-checked.)

V2V (Algorithm 2) binds one query vertex per position, drawing its
candidates from the data neighbourhood of its prec's match ``d``: the
*base* is ``d``'s out-run, its in-run, or, when the query links the two
vertices both ways, the mutual list ``[x in in-run if (d, x) is a
pair]``.  Scanning the base and probing NLF's set per neighbour made
every visit pay for the non-candidates too.  :class:`NeighbourCandidates`
holds, per position and bound prec vertex, the *survivors* (base
members in NLF's set, or label matches when ``intersect_candidates`` is
off) in base order, each survivor's index in the base, and the base
length, filled on first touch like the slot index.  The enumerators
credit the skipped non-candidates (the index gaps, and the tail after
the last survivor) to the ``intersect`` counter and the failed
enumerations in bulk, so every counter keeps its per-neighbour meaning.
Its structural and temporal checks read pairs through
:func:`pair_readers`, the unchecked twins of ``has_pair`` and
``timestamps_list`` over the out-plane.
"""

from __future__ import annotations

import bisect
from collections.abc import Callable, Hashable, Iterable, Sequence

from ..graphs import GraphSnapshot, QueryGraph

from .partition import partition_slice

__all__ = [
    "CLOSE",
    "IN",
    "OUT",
    "SEED",
    "CandidateList",
    "CandidateSpace",
    "NeighbourCandidates",
    "pair_readers",
    "vertex_candidate_lists",
]

#: Position kinds, by which endpoints earlier positions bound.
SEED = "seed"
OUT = "out"
IN = "in"
CLOSE = "close"

Pair = tuple[int, int]


class _VertexSlots(dict[int, tuple[int, ...]]):
    """Bound data vertex -> its candidate slot ids, filled on first touch."""

    __slots__ = ("_offsets", "_nbrs", "_outward", "_pairs", "_labels", "_label")

    def __init__(
        self,
        offsets: Sequence[int],
        nbrs: Sequence[int],
        outward: bool,
        pairs: frozenset[Pair] | None,
        labels: Sequence[Hashable],
        label: Hashable,
    ) -> None:
        super().__init__()
        self._offsets = offsets
        self._nbrs = nbrs
        self._outward = outward
        self._pairs = pairs
        self._labels = labels
        self._label = label

    def candidate_slots(self, d: int) -> tuple[int, ...]:
        """Slots of *d*'s run whose pair is a candidate, in id order."""
        nbrs = self._nbrs
        slots = range(self._offsets[d], self._offsets[d + 1])
        pairs = self._pairs
        if pairs is None:
            # Ablation: the raw run, filtered by the unbound endpoint's label.
            labels, label = self._labels, self._label
            return tuple(k for k in slots if labels[nbrs[k]] == label)
        if self._outward:
            return tuple(k for k in slots if (d, nbrs[k]) in pairs)
        return tuple(k for k in slots if (nbrs[k], d) in pairs)

    def __missing__(self, d: int) -> tuple[int, ...]:
        found = self.candidate_slots(d)
        self[d] = found
        return found


class _TargetSlots(_VertexSlots):
    """Bound source -> ``{candidate target: out-slot}`` (closing positions)."""

    __slots__ = ()

    def __missing__(self, d: int) -> dict[int, int]:  # type: ignore[override]
        nbrs = self._nbrs
        found = {nbrs[k]: k for k in self.candidate_slots(d)}
        self[d] = found  # type: ignore[assignment]
        return found


class CandidateSpace:
    """Per matching position, the candidate pairs as CSR slot ids.

    ``kinds[pos]`` is ``SEED``, ``OUT``, ``IN`` or ``CLOSE``;
    ``slots[pos]`` is ``None`` for a seed position and otherwise the
    per-vertex index read as ``slots[pos][d]`` (a tuple of slots, or for
    a closing position a target -> slot dict).  See the module docstring.
    """

    __slots__ = ("kinds", "slots", "_pairs")

    def __init__(
        self,
        query: QueryGraph,
        graph: GraphSnapshot,
        order: Sequence[int],
        pair_candidates: Sequence[frozenset[Pair]],
        intersect: bool,
    ) -> None:
        kinds: list[str] = []
        slots: list[_VertexSlots | None] = []
        bound: set[int] = set()
        for edge_index in order:
            qa, qb = query.edge(edge_index)
            if qa in bound and qb in bound:
                kind = CLOSE
            elif qa in bound:
                kind = OUT
            elif qb in bound:
                kind = IN
            else:
                kind = SEED
            bound.update((qa, qb))
            kinds.append(kind)
            if kind == SEED:
                slots.append(None)
                continue
            outward = kind != IN
            index = _TargetSlots if kind == CLOSE else _VertexSlots
            slots.append(
                index(
                    graph.out_offsets if outward else graph.in_offsets,
                    graph.out_nbrs if outward else graph.in_nbrs,
                    outward,
                    pair_candidates[edge_index] if intersect else None,
                    graph.labels,
                    query.label(qb if outward else qa),
                )
            )
        self.kinds: tuple[str, ...] = tuple(kinds)
        self.slots = tuple(slots)
        self._pairs = [pair_candidates[e] for e in order]

    def seeds(
        self, pos: int, partition: tuple[int, int] | None = None
    ) -> Iterable[Pair]:
        """Candidate pairs of seed position *pos*, in LDF's set order.

        With a *partition*, the slice of them it owns (see
        :mod:`repro.core.partition`); only the root position may be
        partitioned.
        """
        pairs = self._pairs[pos]
        if partition is None:
            return pairs
        return partition_slice(pairs, partition)


#: One V2V list: (survivors, their indices in the base, base length).
CandidateList = tuple[tuple[int, ...], tuple[int, ...], int]


class NeighbourCandidates(dict[int, CandidateList]):
    """Bound prec vertex -> its candidate neighbours at one V2V position."""

    __slots__ = ("_out_plane", "_in_plane", "_need", "_allowed", "_labels", "_label")

    def __init__(
        self,
        graph: GraphSnapshot,
        need_out: bool,
        need_in: bool,
        allowed: frozenset[int] | None,
        label: Hashable,
    ) -> None:
        super().__init__()
        # (offsets, neighbours) of each CSR plane.
        self._out_plane = (graph.out_offsets, graph.out_nbrs)
        self._in_plane = (graph.in_offsets, graph.in_nbrs)
        self._need = (need_out, need_in)
        self._allowed = allowed
        self._labels = graph.labels
        self._label = label

    def base(self, d: int) -> Sequence[int]:
        """The neighbours of *d* a V2V position draws from, id order."""
        need_out, need_in = self._need
        if need_out:
            offsets, nbrs = self._out_plane
            out_run = nbrs[offsets[d] : offsets[d + 1]]
            if not need_in:
                return out_run
        offsets, nbrs = self._in_plane
        in_run = nbrs[offsets[d] : offsets[d + 1]]
        if not need_out:
            return in_run
        # Both runs are id-sorted, so their sorted intersection is the
        # in-run filtered by "(d, x) is a pair".
        return sorted(set(in_run).intersection(out_run))

    def __missing__(self, d: int) -> CandidateList:
        base = self.base(d)
        allowed = self._allowed
        if allowed is None:
            # Ablation: label matches only (Algorithm 2 line 15 as written).
            labels, label = self._labels, self._label
            kept = [i for i, x in enumerate(base) if labels[x] == label]
        else:
            kept = [i for i, x in enumerate(base) if x in allowed]
        found = (tuple([base[i] for i in kept]), tuple(kept), len(base))
        self[d] = found
        return found


def vertex_candidate_lists(
    query: QueryGraph,
    graph: GraphSnapshot,
    order: Sequence[int],
    prec: Sequence[int | None],
    candidates: Sequence[frozenset[int]],
    intersect: bool,
) -> tuple[NeighbourCandidates | None, ...]:
    """Per V2V position, its :class:`NeighbourCandidates` (None: a seed).

    *order* and *prec* are the TCQ's matching order and prec vertices,
    *candidates* NLF's per-query-vertex sets.  Nothing is filled here.
    """
    lists: list[NeighbourCandidates | None] = []
    for u, u_prec in zip(order, prec):
        if u_prec is None:
            lists.append(None)
            continue
        lists.append(
            NeighbourCandidates(
                graph,
                query.has_edge(u_prec, u),
                query.has_edge(u, u_prec),
                candidates[u] if intersect else None,
                query.label(u),
            )
        )
    return tuple(lists)


def pair_readers(
    graph: GraphSnapshot,
) -> tuple[Callable[[int, int], bool], Callable[[int, int], Sequence[int]]]:
    """Unchecked ``has_pair`` and ``timestamps_list`` over the out-plane.

    Both bisect ``a``'s id-sorted out-run for ``b``; the run reader
    returns the pair's sorted timestamps (``()`` for an absent pair).
    For vertex ids that come from the snapshot itself.
    """
    offsets = graph.out_offsets
    nbrs = graph.out_nbrs
    ts_offsets = graph.out_ts_offsets
    times = graph.out_times
    bl = bisect.bisect_left

    def has_pair(a: int, b: int) -> bool:
        hi = offsets[a + 1]
        k = bl(nbrs, b, offsets[a], hi)
        return k < hi and nbrs[k] == b

    def pair_run(a: int, b: int) -> Sequence[int]:
        hi = offsets[a + 1]
        k = bl(nbrs, b, offsets[a], hi)
        if k < hi and nbrs[k] == b:
            return times[ts_offsets[k] : ts_offsets[k + 1]]
        return ()

    return has_pair, pair_run
