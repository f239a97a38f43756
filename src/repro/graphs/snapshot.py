"""Frozen CSR snapshots: the compiled, immutable data plane.

A :class:`GraphSnapshot` is a :class:`~repro.graphs.TemporalGraph`
compiled once into a compact CSR-style representation backed by
``array``-module typed arrays:

* per-vertex neighbour *offsets* into a flat, id-sorted neighbour array
  (one entry per distinct ``(u, v)`` pair, out- and in-directions
  mirrored);
* per-pair timestamp *runs*: a second offset array maps each neighbour
  slot to its sorted slice of one flat timestamp array, so window queries
  are a bisect over machine integers instead of a dict probe plus list
  scan;
* label-partitioned vertex arrays (the label index), CSR degrees and
  lazily cached neighbour-label signatures, which together serve the NLF
  and LDF candidate filters without materialising a second static graph;
* a per-label edge index, so :meth:`timestamps_with_label` is one dict
  probe instead of a linear scan over per-timestamp label lookups.

A snapshot is the one read path of every matcher: ``prepare`` turns
whatever :data:`GraphView` it was given into a snapshot (via
:func:`ensure_snapshot`) and every hot loop, candidate filter and
generated enumerator reads only through it.  The static surface the
filters need (degrees, neighbour ids, label signatures) comes straight
from the CSR planes, so no second graph is materialised.  Being flat
and immutable, a snapshot pickles compactly (the arrays ship as machine
bytes), shares safely across threads without locks, and carries a
stable :attr:`fingerprint` for cache keys.

Build one with :meth:`TemporalGraph.freeze` (cached per graph) or
:func:`compile_snapshot` (always recompiles); :func:`ensure_snapshot`
accepts either backend and is what the matchers call.
"""

from __future__ import annotations

import bisect
import hashlib
from array import array
from collections import Counter
from collections.abc import Hashable, Iterator, Mapping, Sequence
from types import MappingProxyType
from typing import TYPE_CHECKING, Union

from ..errors import GraphError
from .labels import index_labels
from .temporal_graph import TemporalEdge, TemporalGraph

if TYPE_CHECKING:
    from .segmented import SegmentedGraph
    from .static_graph import StaticGraph

__all__ = [
    "GraphSnapshot",
    "GraphView",
    "SnapshotWriteBarrier",
    "compile_snapshot",
    "ensure_snapshot",
    "snapshot_compile_count",
    "snapshot_write_barrier",
]

Timestamp = int

_EMPTY_TIMES: Sequence[int] = memoryview(array("q"))

#: Process-wide count of CSR builds (the service's compile-once
#: guarantee is asserted against this probe in the test suite).
_COMPILE_COUNT = 0

#: Outcomes of :meth:`GraphSnapshot._probe`.
_NO_PAIR = 0
_PAIR = 1
_EDGE = 2


def snapshot_compile_count() -> int:
    """Number of CSR builds in this process.

    Counts :func:`compile_snapshot` calls and the segment merges of a
    :class:`~repro.graphs.SegmentedGraph` (compaction and ``freeze()``),
    each of which assembles one new snapshot.
    """
    return _COMPILE_COUNT


class GraphSnapshot:
    """Immutable CSR view of a temporal graph (see module docstring).

    Instances are produced by :func:`compile_snapshot` /
    :meth:`TemporalGraph.freeze`; the constructor is an internal
    assembly detail.  All mutating state is build-time only — the lazy
    caches (neighbour-label signatures, time-sorted edge list,
    fingerprint) are append-only and safe to race on.
    """

    __slots__ = (
        "_labels",
        "_num_temporal_edges",
        "_num_static_edges",
        "_min_time",
        "_max_time",
        "_out_offsets",
        "_out_nbrs",
        "_out_ts_offsets",
        "_out_times",
        "_in_offsets",
        "_in_nbrs",
        "_in_ts_offsets",
        "_in_times",
        "_out_offsets_mv",
        "_out_nbrs_mv",
        "_out_ts_offsets_mv",
        "_out_times_mv",
        "_in_offsets_mv",
        "_in_nbrs_mv",
        "_in_ts_offsets_mv",
        "_in_times_mv",
        "_label_index",
        "_edge_labels",
        "_label_times",
        "_nlc",
        "_edges_by_time",
        "_fingerprint",
        "_barrier",
    )

    def __init__(
        self,
        labels: tuple[Hashable, ...],
        out_offsets: array[int],
        out_nbrs: array[int],
        out_ts_offsets: array[int],
        out_times: array[int],
        in_offsets: array[int],
        in_nbrs: array[int],
        in_ts_offsets: array[int],
        in_times: array[int],
        label_index: dict[Hashable, tuple[int, ...]],
        edge_labels: dict[tuple[int, int, Timestamp], Hashable],
        min_time: Timestamp | None,
        max_time: Timestamp | None,
    ) -> None:
        self._labels = labels
        self._out_offsets = out_offsets
        self._out_nbrs = out_nbrs
        self._out_ts_offsets = out_ts_offsets
        self._out_times = out_times
        self._in_offsets = in_offsets
        self._in_nbrs = in_nbrs
        self._in_ts_offsets = in_ts_offsets
        self._in_times = in_times
        self._label_index = label_index
        self._edge_labels = dict(edge_labels)
        self._min_time = min_time
        self._max_time = max_time
        self._num_static_edges = len(out_nbrs)
        self._num_temporal_edges = len(out_times)
        # Per-label edge index: (u, v, label) -> sorted timestamp tuple.
        label_times: dict[tuple[int, int, Hashable], tuple[Timestamp, ...]] = {}
        if edge_labels:
            grouped: dict[tuple[int, int, Hashable], list[Timestamp]] = {}
            for (u, v, t), lab in edge_labels.items():
                grouped.setdefault((u, v, lab), []).append(t)
            label_times = {
                key: tuple(sorted(times)) for key, times in grouped.items()
            }
        self._label_times = label_times
        self._init_views()
        self._nlc: list[Counter[Hashable] | None] = [None] * len(labels)
        self._edges_by_time: list[TemporalEdge] | None = None
        self._fingerprint: str | None = None
        self._barrier: GraphSnapshot | None = None

    def _init_views(self) -> None:
        """(Re)build the zero-copy, read-only memoryviews over the arrays."""
        self._out_offsets_mv = memoryview(self._out_offsets).toreadonly()
        self._out_nbrs_mv = memoryview(self._out_nbrs).toreadonly()
        self._out_ts_offsets_mv = memoryview(self._out_ts_offsets).toreadonly()
        self._out_times_mv = memoryview(self._out_times).toreadonly()
        self._in_offsets_mv = memoryview(self._in_offsets).toreadonly()
        self._in_nbrs_mv = memoryview(self._in_nbrs).toreadonly()
        self._in_ts_offsets_mv = memoryview(self._in_ts_offsets).toreadonly()
        self._in_times_mv = memoryview(self._in_times).toreadonly()

    # ------------------------------------------------------------------
    # pickling (ship arrays as machine bytes; drop lazy caches)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict[str, object]:
        return {
            "labels": self._labels,
            "out_offsets": self._out_offsets,
            "out_nbrs": self._out_nbrs,
            "out_ts_offsets": self._out_ts_offsets,
            "out_times": self._out_times,
            "in_offsets": self._in_offsets,
            "in_nbrs": self._in_nbrs,
            "in_ts_offsets": self._in_ts_offsets,
            "in_times": self._in_times,
            "label_index": self._label_index,
            "edge_labels": self._edge_labels,
            "min_time": self._min_time,
            "max_time": self._max_time,
        }

    def __setstate__(self, state: dict[str, object]) -> None:
        GraphSnapshot.__init__(
            self,
            labels=state["labels"],  # type: ignore[arg-type]
            out_offsets=state["out_offsets"],  # type: ignore[arg-type]
            out_nbrs=state["out_nbrs"],  # type: ignore[arg-type]
            out_ts_offsets=state["out_ts_offsets"],  # type: ignore[arg-type]
            out_times=state["out_times"],  # type: ignore[arg-type]
            in_offsets=state["in_offsets"],  # type: ignore[arg-type]
            in_nbrs=state["in_nbrs"],  # type: ignore[arg-type]
            in_ts_offsets=state["in_ts_offsets"],  # type: ignore[arg-type]
            in_times=state["in_times"],  # type: ignore[arg-type]
            label_index=state["label_index"],  # type: ignore[arg-type]
            edge_labels=state["edge_labels"],  # type: ignore[arg-type]
            min_time=state["min_time"],  # type: ignore[arg-type]
            max_time=state["max_time"],  # type: ignore[arg-type]
        )

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """Stable hex digest of the compiled payload (cache-key safe).

        Covers labels, both CSR planes and the edge-label map; equal
        graphs produce equal fingerprints across processes (the arrays
        hash as machine bytes, the labels as canonical reprs).
        """
        if self._fingerprint is None:
            h = hashlib.sha256()
            h.update(repr(self._labels).encode("utf-8"))
            for arr in (
                self._out_offsets,
                self._out_nbrs,
                self._out_ts_offsets,
                self._out_times,
                self._in_offsets,
                self._in_nbrs,
                self._in_ts_offsets,
                self._in_times,
            ):
                h.update(arr.tobytes())
            if self._edge_labels:
                h.update(repr(sorted(self._edge_labels.items())).encode("utf-8"))
            # idempotent lazy cache: a racy recompute yields an identical digest
            self._fingerprint = h.hexdigest()  # reprolint: disable=R014
        return self._fingerprint

    @property
    def nbytes(self) -> int:
        """Bytes held by the CSR arrays (the compiled data plane payload)."""
        return sum(
            arr.itemsize * len(arr)
            for arr in (
                self._out_offsets,
                self._out_nbrs,
                self._out_ts_offsets,
                self._out_times,
                self._in_offsets,
                self._in_nbrs,
                self._in_ts_offsets,
                self._in_times,
            )
        )

    @property
    def owned_nbytes(self) -> int:
        """CSR bytes this process pays for this snapshot instance.

        Equal to :attr:`nbytes` for ordinary snapshots (the arrays are
        private to the process); the shared-memory subclass overrides
        this to 0 because its buffers alias one OS-level segment.  The
        fan-out benchmarks sum this across workers to demonstrate the
        K-process / one-graph-image memory win.
        """
        return self.nbytes

    # ------------------------------------------------------------------
    # basic accessors (TemporalGraph-compatible)
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._labels)

    @property
    def num_temporal_edges(self) -> int:
        """Number of distinct ``(u, v, t)`` triples (|ℰ| in Table II)."""
        return self._num_temporal_edges

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
        return self._label_index.get(label, ())

    def distinct_labels(self) -> tuple[Hashable, ...]:
        """Labels carried by at least one vertex (first-appearance order)."""
        return tuple(self._label_index)

    # ------------------------------------------------------------------
    # adjacency
    # ------------------------------------------------------------------
    def _out_slot(self, u: int, v: int) -> int:
        """CSR slot of pair ``(u, v)`` in the out-plane, or -1."""
        offsets = self._out_offsets
        lo, hi = offsets[u], offsets[u + 1]
        k = bisect.bisect_left(self._out_nbrs, v, lo, hi)
        if k < hi and self._out_nbrs[k] == v:
            return k
        return -1

    def _probe(self, u: int, v: int, t: Timestamp) -> int:
        """Unchecked membership probe of ``(u, v, t)``.

        Returns ``_NO_PAIR``, ``_PAIR`` (the pair exists but not at *t*)
        or ``_EDGE``.  One bisect into ``u``'s neighbour run, and a
        timestamp bisect only when the pair exists and *t* lies within
        ``[min_time, max_time]``.  Callers check ``u`` and ``v`` first.
        """
        k = self._out_slot(u, v)
        if k < 0:
            return _NO_PAIR
        if t < self._min_time or t > self._max_time:  # type: ignore[operator]
            return _PAIR
        toff = self._out_ts_offsets
        times = self._out_times
        stop = toff[k + 1]
        j = bisect.bisect_left(times, t, toff[k], stop)
        return _EDGE if j < stop and times[j] == t else _PAIR

    def has_pair(self, u: int, v: int) -> bool:
        """Does at least one temporal edge ``u -> v`` exist?"""
        self._check_vertex(u)
        self._check_vertex(v)
        return self._out_slot(u, v) >= 0

    def timestamps(self, u: int, v: int) -> tuple[Timestamp, ...]:
        """Sorted timestamps of interactions ``u -> v`` (``T(u, v)``)."""
        return tuple(self.timestamps_list(u, v))

    def timestamps_list(self, u: int, v: int) -> Sequence[Timestamp]:
        """Sorted timestamps of ``u -> v`` as a zero-copy array slice.

        Hot-path accessor: the returned :class:`memoryview` aliases the
        snapshot's flat timestamp array (read-only by construction).
        Returns an empty sequence for absent pairs.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        k = self._out_slot(u, v)
        if k < 0:
            return _EMPTY_TIMES
        toff = self._out_ts_offsets
        return self._out_times_mv[toff[k] : toff[k + 1]]

    def timestamps_with_label(
        self, u: int, v: int, label: Hashable
    ) -> Sequence[Timestamp]:
        """Timestamps of ``u -> v`` edges carrying exactly *label*.

        One probe into the per-label edge index built at compile time —
        no per-timestamp label lookups.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        return self._label_times.get((u, v, label), ())

    def timestamps_in_window(
        self, u: int, v: int, lo: float, hi: float
    ) -> tuple[Timestamp, ...]:
        """Timestamps ``t`` of ``u -> v`` edges with ``lo <= t <= hi``.

        Two bisects into the pair's sorted run; bounds may be floats
        (including ``±inf``) so STN-closure windows plug in directly.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        k = self._out_slot(u, v)
        if k < 0:
            return ()
        toff = self._out_ts_offsets
        times = self._out_times
        start, stop = toff[k], toff[k + 1]
        left = bisect.bisect_left(times, lo, start, stop)
        right = bisect.bisect_right(times, hi, start, stop)
        return tuple(self._out_times_mv[left:right])

    def timestamps_with_label_in_window(
        self, u: int, v: int, label: Hashable, lo: float, hi: float
    ) -> Sequence[Timestamp]:
        """Timestamps of ``u -> v`` edges with *label* and ``lo <= t <= hi``.

        One probe into the per-label edge index, then two bisects into
        that (sorted) run — the labeled twin of
        :meth:`timestamps_in_window`.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        times = self._label_times.get((u, v, label), ())
        if not times:
            return ()
        left = bisect.bisect_left(times, lo)
        right = bisect.bisect_right(times, hi)
        return times[left:right]

    def edge_label(self, u: int, v: int, t: Timestamp) -> Hashable | None:
        """Label of temporal edge ``(u, v, t)``, or None if unlabeled."""
        return self._edge_labels.get((u, v, t))

    @property
    def has_edge_labels(self) -> bool:
        """True if any temporal edge carries a label."""
        return bool(self._edge_labels)

    def out_neighbor_ids(self, u: int) -> Sequence[int]:
        """Distinct out-neighbours of ``u``, id-sorted, zero-copy."""
        self._check_vertex(u)
        offsets = self._out_offsets
        return self._out_nbrs_mv[offsets[u] : offsets[u + 1]]

    def in_neighbor_ids(self, v: int) -> Sequence[int]:
        """Distinct in-neighbours of ``v``, id-sorted, zero-copy."""
        self._check_vertex(v)
        offsets = self._in_offsets
        return self._in_nbrs_mv[offsets[v] : offsets[v + 1]]

    def out_items(
        self, u: int
    ) -> Iterator[tuple[int, Sequence[Timestamp]]]:
        """Iterate ``(v, sorted timestamps)`` over out-neighbours of ``u``."""
        self._check_vertex(u)
        offsets = self._out_offsets
        nbrs = self._out_nbrs
        toff = self._out_ts_offsets
        times = self._out_times_mv
        for k in range(offsets[u], offsets[u + 1]):
            yield nbrs[k], times[toff[k] : toff[k + 1]]

    def in_items(
        self, v: int
    ) -> Iterator[tuple[int, Sequence[Timestamp]]]:
        """Iterate ``(u, sorted timestamps)`` over in-neighbours of ``v``."""
        self._check_vertex(v)
        offsets = self._in_offsets
        nbrs = self._in_nbrs
        toff = self._in_ts_offsets
        times = self._in_times_mv
        for k in range(offsets[v], offsets[v + 1]):
            yield nbrs[k], times[toff[k] : toff[k + 1]]

    def out_pairs(
        self, u: int
    ) -> Iterator[tuple[int, tuple[Timestamp, ...]]]:
        """Iterate ``(v, timestamps)`` over out-neighbours of ``u``."""
        for v, times in self.out_items(u):
            yield v, tuple(times)

    def in_pairs(
        self, v: int
    ) -> Iterator[tuple[int, tuple[Timestamp, ...]]]:
        """Iterate ``(u, timestamps)`` over in-neighbours of ``v``."""
        for u, times in self.in_items(v):
            yield u, tuple(times)

    def out_edges(self, u: int) -> Iterator[TemporalEdge]:
        """All temporal edges leaving ``u``, timestamps expanded."""
        for v, times in self.out_items(u):
            for t in times:
                yield TemporalEdge(u, v, t)

    def in_edges(self, v: int) -> Iterator[TemporalEdge]:
        """All temporal edges entering ``v``, timestamps expanded."""
        for u, times in self.in_items(v):
            for t in times:
                yield TemporalEdge(u, v, t)

    def edges(self) -> Iterator[TemporalEdge]:
        """All temporal edges in vertex order (not time order)."""
        for u in self.vertices():
            yield from self.out_edges(u)

    def edges_by_time(self) -> list[TemporalEdge]:
        """All temporal edges sorted by ``(t, u, v)`` (cached; read-only).

        This is the insertion stream consumed by the continuous
        subgraph-matching baselines.
        """
        if self._edges_by_time is None:
            # idempotent lazy cache: a racy recompute yields an identical list
            self._edges_by_time = sorted(  # reprolint: disable=R014
                self.edges(), key=lambda e: (e.t, e.u, e.v)
            )
        return self._edges_by_time

    # ------------------------------------------------------------------
    # static (de-temporal) view: CSR planes, degrees and label signatures
    # ------------------------------------------------------------------
    @property
    def out_offsets(self) -> memoryview:
        """Read-only out-plane offsets (``num_vertices + 1`` entries).

        ``out_offsets[v + 1] - out_offsets[v]`` is ``out_degree(v)`` and
        ``out_nbrs[out_offsets[v] : out_offsets[v + 1]]`` is ``v``'s
        id-sorted out-neighbour run.  For hot loops that index arrays
        directly: no bounds checks, unlike the accessors.
        """
        return self._out_offsets_mv

    @property
    def in_offsets(self) -> memoryview:
        """Read-only in-plane offsets; ``in_degree(v)`` is one difference."""
        return self._in_offsets_mv

    @property
    def out_nbrs(self) -> memoryview:
        """Read-only flat out-neighbour plane, indexed by :attr:`out_offsets`."""
        return self._out_nbrs_mv

    @property
    def out_ts_offsets(self) -> memoryview:
        """Read-only run offsets of the out-plane, one per slot plus one.

        Out-slot ``k`` (pair ``(u, out_nbrs[k])``) owns the sorted run
        ``out_times[out_ts_offsets[k] : out_ts_offsets[k + 1]]``.
        """
        return self._out_ts_offsets_mv

    @property
    def out_times(self) -> memoryview:
        """Read-only flat timestamp plane of the out-direction."""
        return self._out_times_mv

    @property
    def in_nbrs(self) -> memoryview:
        """Read-only flat in-neighbour plane, indexed by :attr:`in_offsets`."""
        return self._in_nbrs_mv

    @property
    def in_ts_offsets(self) -> memoryview:
        """Read-only run offsets of the in-plane (see :attr:`out_ts_offsets`).

        In-slot ``k`` of vertex ``v`` is pair ``(in_nbrs[k], v)``; its run
        holds the same timestamps as that pair's out-slot run.
        """
        return self._in_ts_offsets_mv

    @property
    def in_times(self) -> memoryview:
        """Read-only flat timestamp plane of the in-direction."""
        return self._in_times_mv

    @property
    def label_runs(self) -> Mapping[tuple[int, int, Hashable], tuple[Timestamp, ...]]:
        """Read-only per-label edge index: ``(u, v, label)`` -> sorted run.

        The unchecked twin of :meth:`timestamps_with_label` for hot loops;
        an absent key means no ``u -> v`` edge carries that label.
        """
        return MappingProxyType(self._label_times)

    def out_degree(self, v: int) -> int:
        """Distinct out-neighbours of ``v`` (static out-degree)."""
        self._check_vertex(v)
        return self._out_offsets[v + 1] - self._out_offsets[v]

    def in_degree(self, v: int) -> int:
        """Distinct in-neighbours of ``v`` (static in-degree)."""
        self._check_vertex(v)
        return self._in_offsets[v + 1] - self._in_offsets[v]

    def out_neighbors(self, v: int) -> Sequence[int]:
        """Distinct out-neighbours (alias of :meth:`out_neighbor_ids`)."""
        return self.out_neighbor_ids(v)

    def in_neighbors(self, v: int) -> Sequence[int]:
        """Distinct in-neighbours (alias of :meth:`in_neighbor_ids`)."""
        return self.in_neighbor_ids(v)

    def neighbor_label_counts(self, v: int) -> Counter[Hashable]:
        """Multiset of labels over the undirected neighbourhood of ``v``.

        Cached per vertex; this is the label signature consumed by the
        NLF filter (Definition 6) and the EVE ``Vmatch`` look-ahead.  A
        vertex that is both an in- and an out-neighbour counts once, as
        in :meth:`StaticGraph.neighbor_label_counts`.
        """
        self._check_vertex(v)
        return self.label_signature(v)

    def label_signature(self, v: int) -> Counter[Hashable]:
        """:meth:`neighbor_label_counts` without the bounds check.

        For hot loops whose ``v`` is already a vertex id (read from the
        label index or a CSR plane): the candidate filters and EVE's
        ``Vmatch``.  Same cached signature object.
        """
        cached = self._nlc[v]
        if cached is None:
            labels = self._labels
            union = set(self.out_neighbor_ids(v))
            union.update(self.in_neighbor_ids(v))
            cached = Counter(labels[w] for w in union)
            self._nlc[v] = cached  # reprolint: disable=R014 -- idempotent lazy cache slot
        return cached

    def de_temporal(self) -> "StaticGraph":
        """A materialised :class:`StaticGraph` (compatibility shim).

        The snapshot serves the static surface (degrees, neighbour ids,
        label signatures) itself; this exists for callers that need a
        genuine :class:`StaticGraph` object.  Not cached.
        """
        from .static_graph import StaticGraph

        graph = StaticGraph(self._labels)
        for u in self.vertices():
            for v in self.out_neighbor_ids(u):
                graph.add_edge(u, v)
        return graph

    def freeze(self) -> "GraphSnapshot":
        """A snapshot is already frozen; returns itself."""
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GraphSnapshot(num_vertices={self.num_vertices}, "
            f"temporal_edges={self.num_temporal_edges}, "
            f"static_edges={self.num_static_edges})"
        )


def compile_snapshot(graph: TemporalGraph) -> GraphSnapshot:
    """Compile *graph* into a fresh :class:`GraphSnapshot`.

    O(|V| + |E| log deg + |ℰ|): neighbour lists are sorted per vertex,
    timestamp runs are already sorted in the builder.  Prefer the cached
    :meth:`TemporalGraph.freeze` unless you need a fresh compile.
    """
    global _COMPILE_COUNT
    _COMPILE_COUNT += 1
    n = graph.num_vertices
    out_adj = graph._out
    in_adj = graph._in
    out_offsets = array("q", [0])
    out_nbrs = array("q")
    out_ts_offsets = array("q", [0])
    out_times = array("q")
    in_offsets = array("q", [0])
    in_nbrs = array("q")
    in_ts_offsets = array("q", [0])
    in_times = array("q")
    for u in range(n):
        for v, times in sorted(out_adj[u].items()):
            out_nbrs.append(v)
            out_times.extend(times)
            out_ts_offsets.append(len(out_times))
        out_offsets.append(len(out_nbrs))
    for v in range(n):
        for u, times in sorted(in_adj[v].items()):
            in_nbrs.append(u)
            in_times.extend(times)
            in_ts_offsets.append(len(in_times))
        in_offsets.append(len(in_nbrs))
    return GraphSnapshot(
        labels=graph.labels,
        out_offsets=out_offsets,
        out_nbrs=out_nbrs,
        out_ts_offsets=out_ts_offsets,
        out_times=out_times,
        in_offsets=in_offsets,
        in_nbrs=in_nbrs,
        in_ts_offsets=in_ts_offsets,
        in_times=in_times,
        label_index=index_labels(graph.labels),
        # The builder holds only labeled edges; the snapshot copies it.
        edge_labels=graph._edge_labels,
        min_time=graph.min_time,
        max_time=graph.max_time,
    )


def _merge_snapshots(sources: Sequence[GraphSnapshot]) -> GraphSnapshot:
    """One snapshot holding the union of *sources*' edges (no builder).

    The sources share one vertex universe and labels.  Per vertex, the
    sorted neighbour runs of both CSR planes are merged; a pair present
    in several sources gets its timestamp runs merged and deduplicated,
    and the edge-label dicts are merged.  The result is array-for-array
    what :func:`compile_snapshot` builds from the same edge set (equal
    :attr:`~GraphSnapshot.fingerprint`) and counts as one build in
    :func:`snapshot_compile_count`.  This is how a
    :class:`~repro.graphs.SegmentedGraph` compacts its segments.
    """
    global _COMPILE_COUNT
    _COMPILE_COUNT += 1
    first = sources[0]
    n = len(first._labels)
    out_plane = _merge_plane(
        n,
        [
            (s._out_offsets, s._out_nbrs, s._out_ts_offsets, s._out_times)
            for s in sources
        ],
    )
    in_plane = _merge_plane(
        n,
        [
            (s._in_offsets, s._in_nbrs, s._in_ts_offsets, s._in_times)
            for s in sources
        ],
    )
    edge_labels: dict[tuple[int, int, Timestamp], Hashable] = {}
    for source in sources:
        edge_labels.update(source._edge_labels)
    min_times = [s._min_time for s in sources if s._min_time is not None]
    max_times = [s._max_time for s in sources if s._max_time is not None]
    return GraphSnapshot(
        labels=first._labels,
        out_offsets=out_plane[0],
        out_nbrs=out_plane[1],
        out_ts_offsets=out_plane[2],
        out_times=out_plane[3],
        in_offsets=in_plane[0],
        in_nbrs=in_plane[1],
        in_ts_offsets=in_plane[2],
        in_times=in_plane[3],
        label_index=first._label_index,
        edge_labels=edge_labels,
        min_time=min(min_times) if min_times else None,
        max_time=max(max_times) if max_times else None,
    )


_Plane = tuple[Sequence[int], Sequence[int], Sequence[int], Sequence[int]]


def _merge_plane(
    n: int, planes: list[_Plane]
) -> tuple[array[int], array[int], array[int], array[int]]:
    """Merge one CSR direction (offsets, neighbours, run offsets, times)."""
    offsets_out = array("q", [0])
    nbrs_out = array("q")
    toff_out = array("q", [0])
    times_out = array("q")
    for x in range(n):
        live = [plane for plane in planes if plane[0][x] != plane[0][x + 1]]
        if len(live) == 1:
            # Copy the vertex's runs whole, shifting their offsets.
            offsets, nbrs, toff, times = live[0]
            lo, hi = offsets[x], offsets[x + 1]
            start = toff[lo]
            shift = len(times_out) - start
            nbrs_out.extend(nbrs[lo:hi])
            times_out.extend(times[start : toff[hi]])
            toff_out.extend([k + shift for k in toff[lo + 1 : hi + 1]])
        elif live:
            runs: dict[int, Sequence[int]] = {}
            for offsets, nbrs, toff, times in live:
                for k in range(offsets[x], offsets[x + 1]):
                    y = nbrs[k]
                    run = times[toff[k] : toff[k + 1]]
                    prior = runs.get(y)
                    runs[y] = run if prior is None else _merge_runs(prior, run)
            for y in sorted(runs):
                nbrs_out.append(y)
                times_out.extend(runs[y])
                toff_out.append(len(times_out))
        offsets_out.append(len(nbrs_out))
    return offsets_out, nbrs_out, toff_out, times_out


def _merge_runs(first: Sequence[int], second: Sequence[int]) -> list[int]:
    """Sorted union of two sorted, non-empty timestamp runs."""
    if first[-1] < second[0]:
        return [*first, *second]
    if second[-1] < first[0]:
        return [*second, *first]
    return sorted({*first, *second})


#: Any graph a caller may hand to ``find_matches`` / ``create_matcher``:
#: the mutable dict builder, a compiled CSR snapshot, or the appendable
#: segmented graph used by the streaming subsystem.  Matchers compile it
#: once with :func:`ensure_snapshot` (cached by ``freeze()``) and read
#: only the snapshot; the input-equivalence tests pin identical matches
#: and counters across the three kinds.
GraphView = Union[TemporalGraph, GraphSnapshot, "SegmentedGraph"]


def ensure_snapshot(graph: GraphView) -> GraphSnapshot:
    """*graph* as a snapshot: frozen views pass through, graphs compile.

    Compilation is cached on the source graph (see
    :meth:`TemporalGraph.freeze`), so repeated matcher preparation
    against one graph compiles its data plane exactly once.
    Segment-aware: a :class:`~repro.graphs.SegmentedGraph` answers via
    its own cached :meth:`~repro.graphs.SegmentedGraph.freeze`, which
    returns its single compiled segment without recompiling whenever the
    tail is empty.  Never wraps
    in a write barrier — callers rely on identity pass-through; the
    engine applies :func:`snapshot_write_barrier` itself in sanitizer
    mode.
    """
    if isinstance(graph, GraphSnapshot):
        return graph
    return graph.freeze()


# ----------------------------------------------------------------------
# sanitizer write barrier (REPRO_SANITIZE=1 / MatchOptions(sanitize=True))
# ----------------------------------------------------------------------

#: Slots the R014 pragmas certify as idempotent lazy caches — the only
#: post-construction writes a snapshot may see (racy recompute yields an
#: identical value, so they stay writable under the barrier).
_LAZY_CACHE_SLOTS = frozenset({"_fingerprint", "_edges_by_time", "_barrier"})


class SnapshotWriteBarrier(GraphSnapshot):
    """A :class:`GraphSnapshot` that raises on post-construction mutation.

    The runtime half of reprolint's R014: any ``snapshot.attr = ...``
    outside construction raises
    :class:`~repro.obs.sanitize.SanitizerError` at the offending site
    instead of silently corrupting state shared across threads.  Reads,
    the CSR data plane, and the idempotent lazy caches behave exactly
    like the base class, so matcher results are unchanged — pinned by
    the tier-1 suite running under ``REPRO_SANITIZE=1``.
    """

    __slots__ = ("_sealed",)

    def __init__(self, *args: object, **kwargs: object) -> None:
        object.__setattr__(self, "_sealed", False)  # reprolint: disable=R003
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        object.__setattr__(self, "_sealed", True)  # reprolint: disable=R003

    def __setattr__(self, name: str, value: object) -> None:
        if not getattr(self, "_sealed", False) or name in _LAZY_CACHE_SLOTS:
            object.__setattr__(self, name, value)  # reprolint: disable=R003
            return
        from ..obs.sanitize import SanitizerError

        raise SanitizerError(
            f"write to GraphSnapshot.{name}: snapshots are frozen after "
            "compile; build a new snapshot instead (sanitizer barrier)"
        )

    def __delattr__(self, name: str) -> None:
        from ..obs.sanitize import SanitizerError

        raise SanitizerError(
            f"delete of GraphSnapshot.{name}: snapshots are frozen after "
            "compile (sanitizer barrier)"
        )

    def __reduce__(self) -> tuple[object, ...]:
        # The default slot-state protocol would route __setstate__ ->
        # __init__ -> blocked __setattr__ on a sealed instance; rebuild a
        # plain snapshot from pickled state and re-wrap instead.
        return (_rebuild_write_barrier, (self.__getstate__(),))


def _rebuild_write_barrier(state: dict[str, object]) -> "SnapshotWriteBarrier":
    """Unpickle helper: reconstruct a barrier-wrapped snapshot."""
    return SnapshotWriteBarrier(**state)  # type: ignore[arg-type]


def snapshot_write_barrier(snapshot: GraphSnapshot) -> GraphSnapshot:
    """*snapshot* wrapped in the write barrier (idempotent and cached).

    Rebuilds from pickle-equivalent state rather than aliasing slots, so
    the wrapped copy is independent; lazy caches re-materialise on first
    use.  Compile counts are unaffected (no CSR recompilation happens —
    the arrays are shared by reference), and the wrapper is cached on the
    source snapshot so repeated wrapping preserves identity (the
    registry's compile-once/reuse guarantees hold under the sanitizer).
    """
    if isinstance(snapshot, SnapshotWriteBarrier):
        return snapshot
    if snapshot._barrier is None:
        # idempotent lazy cache: a racy double-wrap publishes one of two
        # equivalent barriers over the same shared arrays
        snapshot._barrier = SnapshotWriteBarrier(  # reprolint: disable=R014
            **snapshot.__getstate__()  # type: ignore[arg-type]
        )
    return snapshot._barrier
