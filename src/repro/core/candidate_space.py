"""Candidate-space slot index: LDF's pairs as CSR slot ids, per position.

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
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence

from ..graphs import GraphSnapshot, QueryGraph

from .partition import partition_slice

__all__ = [
    "CLOSE",
    "IN",
    "OUT",
    "SEED",
    "CandidateSpace",
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
