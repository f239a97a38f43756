"""Segmented appendable graphs: immutable CSR segments plus a mutable tail.

The one-shot stack freezes a :class:`~repro.graphs.TemporalGraph` into a
single compiled :class:`~repro.graphs.GraphSnapshot`; every ``add_edge``
invalidates that compilation, so an incremental workload pays a *full*
CSR recompile per arriving edge.  A :class:`SegmentedGraph` removes that
structural blocker the way an LSM tree does for sorted files:

* appends land in a small **mutable tail** (a plain dict-backed
  :class:`TemporalGraph`) — no compilation.  The duplicate check costs
  one probe per segment: a bisect into the segment's neighbour array,
  and a timestamp bisect only when the pair exists and ``t`` lies in
  the segment's time range;
* when the tail crosses ``merge_threshold`` temporal edges it is
  **flushed**: compiled once into an immutable CSR segment and appended
  to the segment list (the flush cost is amortised over the threshold);
* when the segment count crosses ``max_segments`` the segments are
  **compacted** into one snapshot by merging their sorted CSR planes
  directly (no builder round trip), bounding the per-read fan-out —
  reads touch at most ``max_segments + 1`` sorted sources.

Two kinds of reader use it.  The streaming engine's per-edge delta
search reads the live graph through a small merged surface
(``timestamps_list``, ``out_items`` / ``in_items``, ``edge_label``,
``vertices_with_label``): each per-pair read merges the (individually
sorted) runs of each segment and the tail.  One-shot matchers, like for
any other :data:`~repro.graphs.GraphView`, compile it once via
``freeze()`` and read only that snapshot.  ``freeze()`` is
segment-aware — a fully-compacted graph with an empty tail returns its
single segment *without recompiling*; otherwise it merges the segments
and the compiled tail like a compaction — and :attr:`fingerprint` hashes
segment fingerprints plus the tail edge list, so service cache keys stay
stable without forcing a compile.

A segmented graph is a **single-writer** structure: concurrent appends
must be serialised by the caller (the streaming engine holds one lock
around ingest); reads racing an append see either the old or the new
edge set, never a torn run, because flushed segments are immutable and
the tail's per-pair lists are only appended to.
"""

from __future__ import annotations

import hashlib
import heapq
from collections.abc import Hashable, Iterator, Sequence
from itertools import chain

from ..errors import GraphError
from ..obs import NULL_TRACER, TraceSink
from .labels import index_labels
from .snapshot import (
    _EDGE,
    GraphSnapshot,
    _merge_snapshots,
    compile_snapshot,
)
from .temporal_graph import TemporalEdge, TemporalGraph

__all__ = ["SegmentedGraph"]

Timestamp = int

_EMPTY_TIMES: tuple[Timestamp, ...] = ()


class SegmentedGraph:
    """An appendable temporal graph over compiled segments + a mutable tail.

    Parameters
    ----------
    labels:
        One label per vertex; the vertex universe is fixed up front (the
        standard continuous-subgraph-matching setting — edges stream in,
        vertices and labels are known).
    merge_threshold:
        Tail size (temporal edges) that triggers a flush into a compiled
        segment.
    max_segments:
        Segment count that triggers compaction into one snapshot.
    tracer:
        Span sink for ``segment-flush`` / ``segment-compact`` events
        (defaults to the no-op tracer).
    """

    __slots__ = (
        "_labels",
        "_segments",
        "_tail",
        "_merge_threshold",
        "_max_segments",
        "_num_static_edges",
        "_min_time",
        "_max_time",
        "_label_index",
        "_edges_by_time",
        "_frozen",
        "_fingerprint",
        "_flush_count",
        "_compaction_count",
        "tracer",
    )

    def __init__(
        self,
        labels: Sequence[Hashable],
        *,
        merge_threshold: int = 4096,
        max_segments: int = 8,
        tracer: TraceSink = NULL_TRACER,
    ) -> None:
        if merge_threshold < 1:
            raise GraphError(
                f"merge_threshold must be >= 1, got {merge_threshold}"
            )
        if max_segments < 1:
            raise GraphError(f"max_segments must be >= 1, got {max_segments}")
        self._labels: tuple[Hashable, ...] = tuple(labels)
        self._segments: list[GraphSnapshot] = []
        self._tail = TemporalGraph(self._labels)
        self._merge_threshold = merge_threshold
        self._max_segments = max_segments
        self._num_static_edges = 0
        self._min_time: Timestamp | None = None
        self._max_time: Timestamp | None = None
        self._label_index: dict[Hashable, tuple[int, ...]] | None = None
        self._edges_by_time: list[TemporalEdge] | None = None
        self._frozen: GraphSnapshot | None = None
        self._fingerprint: str | None = None
        self._flush_count = 0
        self._compaction_count = 0
        self.tracer = tracer

    @classmethod
    def from_snapshot(
        cls,
        snapshot: GraphSnapshot,
        *,
        merge_threshold: int = 4096,
        max_segments: int = 8,
        tracer: TraceSink = NULL_TRACER,
    ) -> "SegmentedGraph":
        """A segmented graph seeded with *snapshot* as its first segment.

        Zero-copy: the snapshot's CSR arrays are shared by reference, so
        opening a stream over an already-registered service graph costs
        no recompilation.
        """
        graph = cls(
            snapshot.labels,
            merge_threshold=merge_threshold,
            max_segments=max_segments,
            tracer=tracer,
        )
        if snapshot.num_temporal_edges:
            graph._segments.append(snapshot)
            graph._num_static_edges = snapshot.num_static_edges
            graph._min_time = snapshot.min_time
            graph._max_time = snapshot.max_time
        return graph

    # ------------------------------------------------------------------
    # construction (append path)
    # ------------------------------------------------------------------
    def append(
        self, u: int, v: int, t: Timestamp, label: Hashable | None = None
    ) -> bool:
        """Insert temporal edge ``(u, v, t)``; return ``True`` if new.

        Duplicate ``(u, v, t)`` triples — including ones already frozen
        into a segment — are ignored (``False``), matching
        :meth:`TemporalGraph.add_edge` semantics.  ``u`` and ``v`` are
        checked once; after that each segment costs one unchecked probe
        that answers both "is the edge there" and "is the pair there".
        The tail flushes into a compiled segment when it crosses
        ``merge_threshold``, and the segment list compacts when it
        crosses ``max_segments``; both are O(segment payload), amortised
        over the threshold.
        """
        n = len(self._labels)
        if not (0 <= u < n and 0 <= v < n):
            self._check_vertex(u)
            self._check_vertex(v)
        if u == v:
            raise GraphError(f"self loop ({u}, {u}, {t}) not allowed")
        pair_known = False
        for segment in self._segments:
            found = segment._probe(u, v, t)
            if found == _EDGE:
                present = segment.edge_label(u, v, t)
                if label is not None and present != label:
                    raise GraphError(
                        f"edge ({u}, {v}, {t}) already present with label "
                        f"{present!r}, not {label!r}"
                    )
                return False
            if found:
                pair_known = True
        tail = self._tail
        if not pair_known:
            pair_known = v in tail._out[u]
        if not tail._insert(u, v, t, label):
            return False
        if not pair_known:
            self._num_static_edges += 1
        if self._min_time is None or t < self._min_time:
            self._min_time = t
        if self._max_time is None or t > self._max_time:
            self._max_time = t
        self._invalidate()
        if tail.num_temporal_edges >= self._merge_threshold:
            self._flush_tail()
        return True

    def extend(
        self,
        edges: Sequence[tuple[int, int, Timestamp]] | Sequence[TemporalEdge],
    ) -> int:
        """Append *edges* in order; return the number actually new."""
        added = 0
        for u, v, t in edges:
            if self.append(u, v, t):
                added += 1
        return added

    def _invalidate(self) -> None:
        self._edges_by_time = None
        self._frozen = None
        self._fingerprint = None

    def _flush_tail(self) -> None:
        """Compile the tail into an immutable segment; maybe compact."""
        with self.tracer.span(
            "segment-flush", edges=self._tail.num_temporal_edges
        ):
            self._segments.append(compile_snapshot(self._tail))
            self._tail = TemporalGraph(self._labels)
            self._flush_count += 1
        if len(self._segments) > self._max_segments:
            self._compact()

    def _compact(self) -> None:
        """Merge every segment into one snapshot (full compaction).

        Merges the segments' sorted CSR planes vertex by vertex (see
        :func:`~repro.graphs.snapshot._merge_snapshots`) — no builder
        graph, no per-edge re-insert.  With ``max_segments`` K and flush
        threshold T this runs every K flushes, so the amortised cost per
        appended edge stays O(|graph| / (K * T)) — bounded, and tiny
        next to the full-recompile-per-edge path this structure replaces.
        """
        with self.tracer.span(
            "segment-compact", segments=len(self._segments)
        ):
            self._segments = [_merge_snapshots(self._segments)]
            self._compaction_count += 1

    # ------------------------------------------------------------------
    # segment introspection
    # ------------------------------------------------------------------
    @property
    def num_segments(self) -> int:
        """Immutable compiled segments currently live."""
        return len(self._segments)

    @property
    def tail_edges(self) -> int:
        """Temporal edges sitting in the mutable tail."""
        return self._tail.num_temporal_edges

    @property
    def flush_count(self) -> int:
        """Tail flushes performed over this graph's lifetime."""
        return self._flush_count

    @property
    def compaction_count(self) -> int:
        """Segment compactions performed over this graph's lifetime."""
        return self._compaction_count

    @property
    def merge_threshold(self) -> int:
        return self._merge_threshold

    @property
    def max_segments(self) -> int:
        return self._max_segments

    def describe(self) -> dict[str, object]:
        """Plain-data summary (service/metrics payloads)."""
        return {
            "num_vertices": self.num_vertices,
            "num_temporal_edges": self.num_temporal_edges,
            "num_static_edges": self.num_static_edges,
            "num_segments": self.num_segments,
            "tail_edges": self.tail_edges,
            "flushes": self._flush_count,
            "compactions": self._compaction_count,
            "merge_threshold": self._merge_threshold,
            "max_segments": self._max_segments,
        }

    def _sources(self) -> list[GraphSnapshot | TemporalGraph]:
        """Read sources in append order: segments first, tail last."""
        sources: list[GraphSnapshot | TemporalGraph] = list(self._segments)
        if self._tail.num_temporal_edges:
            sources.append(self._tail)
        return sources

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """Stable digest over segment fingerprints plus the tail edges.

        Segment-aware: flushed segments contribute their cached CSR
        fingerprints, so re-fingerprinting after an append only hashes
        the (small) tail — no compilation is forced.  Equal edge sets
        reached through different flush histories may hash differently;
        the digest identifies the *state*, which is what cache
        invalidation needs.
        """
        if self._fingerprint is None:
            h = hashlib.sha256()
            h.update(repr(self._labels).encode("utf-8"))
            for segment in self._segments:
                h.update(segment.fingerprint.encode("ascii"))
            for u, v, t in self._tail.edges_by_time():
                h.update(f"{u},{v},{t},{self._tail.edge_label(u, v, t)!r};".encode("utf-8"))
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._labels)

    @property
    def num_temporal_edges(self) -> int:
        """Number of distinct ``(u, v, t)`` triples (|ℰ| in Table II)."""
        return (
            sum(segment.num_temporal_edges for segment in self._segments)
            + self._tail.num_temporal_edges
        )

    @property
    def num_static_edges(self) -> int:
        """Number of distinct ``(u, v)`` pairs (|E| in Table II)."""
        return self._num_static_edges

    @property
    def min_time(self) -> Timestamp | None:
        return self._min_time

    @property
    def max_time(self) -> Timestamp | None:
        return self._max_time

    @property
    def time_span(self) -> Timestamp:
        """``max_time - min_time`` (0 for graphs with < 2 timestamps)."""
        if self._min_time is None or self._max_time is None:
            return 0
        return self._max_time - self._min_time

    def vertices(self) -> range:
        return range(len(self._labels))

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < len(self._labels):
            raise GraphError(f"vertex {v} out of range [0, {len(self._labels)})")

    def label(self, v: int) -> Hashable:
        self._check_vertex(v)
        return self._labels[v]

    @property
    def labels(self) -> tuple[Hashable, ...]:
        return self._labels

    def vertices_with_label(self, label: Hashable) -> tuple[int, ...]:
        return self._index().get(label, ())

    def distinct_labels(self) -> tuple[Hashable, ...]:
        """Labels carried by at least one vertex (first-appearance order)."""
        return tuple(self._index())

    def _index(self) -> dict[Hashable, tuple[int, ...]]:
        if self._label_index is None:
            self._label_index = index_labels(self._labels)
        return self._label_index

    # ------------------------------------------------------------------
    # adjacency (merged across sources)
    # ------------------------------------------------------------------
    def timestamps_list(self, u: int, v: int) -> Sequence[Timestamp]:
        """Sorted timestamps of ``u -> v``, merged across segments + tail.

        Single-source pairs return the source's run zero-copy; pairs
        spanning sources pay one k-way merge of their (short) runs.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        runs = [
            run
            for source in self._sources()
            if len(run := source.timestamps_list(u, v))
        ]
        if not runs:
            return _EMPTY_TIMES
        if len(runs) == 1:
            return runs[0]
        return list(heapq.merge(*runs))

    def edge_label(self, u: int, v: int, t: Timestamp) -> Hashable | None:
        """Label of temporal edge ``(u, v, t)``, or None if unlabeled."""
        for source in self._sources():
            label = source.edge_label(u, v, t)
            if label is not None:
                return label
        return None

    def out_items(
        self, u: int
    ) -> Iterator[tuple[int, Sequence[Timestamp]]]:
        """Iterate ``(v, sorted timestamps)`` over out-neighbours of ``u``."""
        self._check_vertex(u)
        sources = self._sources()
        if len(sources) == 1:
            yield from sources[0].out_items(u)
            return
        runs: dict[int, list[Sequence[Timestamp]]] = {}
        for source in sources:
            for v, times in source.out_items(u):
                runs.setdefault(v, []).append(times)
        for v in sorted(runs):
            parts = runs[v]
            yield v, parts[0] if len(parts) == 1 else list(heapq.merge(*parts))

    def in_items(
        self, v: int
    ) -> Iterator[tuple[int, Sequence[Timestamp]]]:
        """Iterate ``(u, sorted timestamps)`` over in-neighbours of ``v``."""
        self._check_vertex(v)
        sources = self._sources()
        if len(sources) == 1:
            yield from sources[0].in_items(v)
            return
        runs: dict[int, list[Sequence[Timestamp]]] = {}
        for source in sources:
            for u, times in source.in_items(v):
                runs.setdefault(u, []).append(times)
        for u in sorted(runs):
            parts = runs[u]
            yield u, parts[0] if len(parts) == 1 else list(heapq.merge(*parts))

    def out_edges(self, u: int) -> Iterator[TemporalEdge]:
        """All temporal edges leaving ``u``, timestamps expanded."""
        for v, times in self.out_items(u):
            for t in times:
                yield TemporalEdge(u, v, t)

    def edges(self) -> Iterator[TemporalEdge]:
        """All temporal edges in vertex order (not time order)."""
        for u in self.vertices():
            yield from self.out_edges(u)

    def edges_by_time(self) -> list[TemporalEdge]:
        """All temporal edges sorted by ``(t, u, v)`` (cached; read-only)."""
        if self._edges_by_time is None:
            self._edges_by_time = sorted(
                chain.from_iterable(
                    source.edges() for source in self._sources()
                ),
                key=lambda e: (e.t, e.u, e.v),
            )
        return self._edges_by_time

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def freeze(self) -> GraphSnapshot:
        """One merged CSR snapshot of segments + tail (cached).

        Segment-aware: a graph that is exactly one compiled segment with
        an empty tail returns that segment directly — no recompilation,
        which is what keeps ``ensure_snapshot`` cheap on a stream that
        just compacted or was seeded from a registered snapshot.
        Otherwise the tail is compiled and merged with the segments the
        way :meth:`_compact` merges them; the segment list itself is
        left as it is.
        """
        if self._frozen is None:
            sources = list(self._segments)
            if self._tail.num_temporal_edges or not sources:
                sources.append(compile_snapshot(self._tail))
            self._frozen = (
                sources[0] if len(sources) == 1 else _merge_snapshots(sources)
            )
        return self._frozen

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SegmentedGraph(num_vertices={self.num_vertices}, "
            f"temporal_edges={self.num_temporal_edges}, "
            f"segments={self.num_segments}, tail={self.tail_edges})"
        )
