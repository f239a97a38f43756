"""Directed, vertex-labeled temporal graphs (Definition 1).

A temporal graph stores, for every ordered vertex pair ``(u, v)``, the set
of timestamps at which ``u`` interacted with ``v``.  Expanding timestamps
turns it into a directed multigraph whose elements are *temporal edges*
``(u, v, t)`` — the objects a TCSM mapping assigns to query edges.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import (
    Hashable,
    Iterable,
    ItemsView,
    Iterator,
    KeysView,
    Sequence,
)
from typing import TYPE_CHECKING, NamedTuple

from ..errors import GraphError
from .labels import index_labels
from .static_graph import StaticGraph

if TYPE_CHECKING:
    from .snapshot import GraphSnapshot

__all__ = ["TemporalEdge", "TemporalGraph"]

Timestamp = int

_EMPTY_TIMES: list[Timestamp] = []


class TemporalEdge(NamedTuple):
    """A single timestamped interaction ``u -> v`` at time ``t``."""

    u: int
    v: int
    t: Timestamp


class TemporalGraph:
    """A directed temporal graph with labeled vertices.

    Vertices are the integers ``0 .. num_vertices - 1``.  Duplicate
    ``(u, v, t)`` triples collapse into one temporal edge; self loops are
    rejected to match the paper's simple-graph setting.

    Parameters
    ----------
    labels:
        One label per vertex.
    edges:
        Iterable of ``(u, v, t)`` triples.

    Notes
    -----
    Timestamp lists per vertex pair are kept sorted, so :meth:`freeze`
    compiles them into the snapshot's sorted runs without re-sorting.
    The one-shot matchers never read a builder directly: they compile it
    once into a :class:`~repro.graphs.GraphSnapshot`.  The CSM baselines
    replay their insertion stream into a growing builder instead.
    """

    __slots__ = (
        "_labels",
        "_out",
        "_in",
        "_num_temporal_edges",
        "_num_static_edges",
        "_min_time",
        "_max_time",
        "_de_temporal",
        "_label_index",
        "_edge_labels",
        "_edges_by_time",
        "_frozen",
    )

    def __init__(
        self,
        labels: Sequence[Hashable],
        edges: Iterable[tuple[int, int, Timestamp]] = (),
    ) -> None:
        self._labels: tuple[Hashable, ...] = tuple(labels)
        n = len(self._labels)
        self._out: list[dict[int, list[Timestamp]]] = [{} for _ in range(n)]
        self._in: list[dict[int, list[Timestamp]]] = [{} for _ in range(n)]
        self._num_temporal_edges = 0
        self._num_static_edges = 0
        self._min_time: Timestamp | None = None
        self._max_time: Timestamp | None = None
        self._de_temporal: StaticGraph | None = None
        self._label_index: dict[Hashable, tuple[int, ...]] | None = None
        self._edge_labels: dict[tuple[int, int, Timestamp], Hashable] = {}
        self._edges_by_time: list[TemporalEdge] | None = None
        self._frozen: GraphSnapshot | None = None
        for u, v, t in edges:
            self.add_edge(u, v, t)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_edge(
        self, u: int, v: int, t: Timestamp, label: Hashable | None = None
    ) -> bool:
        """Insert temporal edge ``(u, v, t)``; return ``True`` if new.

        *label* optionally tags the interaction (transfer type, channel,
        ...); the paper's Section II notes the algorithms generalise to
        edge labels, and the matchers honour them — a query edge carrying
        a label only matches data edges carrying the same label.
        Re-adding an existing edge with a conflicting label raises
        :class:`GraphError`.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise GraphError(f"self loop ({u}, {u}, {t}) not allowed")
        return self._insert(u, v, t, label)

    def _insert(
        self, u: int, v: int, t: Timestamp, label: Hashable | None
    ) -> bool:
        """:meth:`add_edge` past its checks (``u``, ``v`` valid, ``u != v``)."""
        times = self._out[u].get(v)
        exists = False
        if times is None:
            self._out[u][v] = [t]
            self._in[v][u] = [t]
            self._num_static_edges += 1
        else:
            pos = bisect.bisect_left(times, t)
            if pos < len(times) and times[pos] == t:
                exists = True
            else:
                times.insert(pos, t)
                in_times = self._in[v][u]
                bisect.insort(in_times, t)
        if exists:
            if label is not None and self._edge_labels.get((u, v, t)) != label:
                raise GraphError(
                    f"edge ({u}, {v}, {t}) already present with label "
                    f"{self._edge_labels.get((u, v, t))!r}, not {label!r}"
                )
            return False
        if label is not None:
            self._edge_labels[(u, v, t)] = label
        self._num_temporal_edges += 1
        if self._min_time is None or t < self._min_time:
            self._min_time = t
        if self._max_time is None or t > self._max_time:
            self._max_time = t
        self._de_temporal = None
        self._edges_by_time = None
        self._frozen = None
        return True

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < len(self._labels):
            raise GraphError(f"vertex {v} out of range [0, {len(self._labels)})")

    # ------------------------------------------------------------------
    # basic accessors
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
    # adjacency
    # ------------------------------------------------------------------
    def has_pair(self, u: int, v: int) -> bool:
        """Does at least one temporal edge ``u -> v`` exist?"""
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._out[u]

    def timestamps(self, u: int, v: int) -> tuple[Timestamp, ...]:
        """Sorted timestamps of interactions ``u -> v`` (``T(u, v)``)."""
        self._check_vertex(u)
        self._check_vertex(v)
        return tuple(self._out[u].get(v, ()))

    def edge_label(self, u: int, v: int, t: Timestamp) -> Hashable | None:
        """Label of temporal edge ``(u, v, t)``, or None if unlabeled."""
        return self._edge_labels.get((u, v, t))

    @property
    def has_edge_labels(self) -> bool:
        """True if any temporal edge carries a label."""
        return bool(self._edge_labels)

    def timestamps_with_label(
        self, u: int, v: int, label: Hashable
    ) -> list[Timestamp]:
        """Timestamps of ``u -> v`` edges carrying exactly *label*."""
        self._check_vertex(u)
        self._check_vertex(v)
        edge_labels = self._edge_labels
        return [
            t
            for t in self._out[u].get(v, ())
            if edge_labels.get((u, v, t)) == label
        ]

    def out_items(self, u: int) -> ItemsView[int, list[Timestamp]]:
        """Iterate ``(v, sorted timestamps)`` over out-neighbours of ``u``.

        Zero-copy hot-path view (shared with :class:`GraphSnapshot`'s
        accessor surface); treat the yielded lists as read-only.
        """
        self._check_vertex(u)
        return self._out[u].items()

    def in_items(self, v: int) -> ItemsView[int, list[Timestamp]]:
        """Iterate ``(u, sorted timestamps)`` over in-neighbours of ``v``."""
        self._check_vertex(v)
        return self._in[v].items()

    def out_neighbor_ids(self, u: int) -> KeysView[int]:
        """Distinct out-neighbours of ``u`` as a set-like view (no copy).

        Hot-path accessor for the matchers; treat the view as read-only.
        """
        self._check_vertex(u)
        return self._out[u].keys()

    def in_neighbor_ids(self, v: int) -> KeysView[int]:
        """Distinct in-neighbours of ``v`` as a set-like view (no copy)."""
        self._check_vertex(v)
        return self._in[v].keys()

    def timestamps_list(self, u: int, v: int) -> list[Timestamp]:
        """Sorted timestamps of ``u -> v`` as the internal list (no copy).

        Hot-path variant of :meth:`timestamps`; callers must not mutate the
        returned list.  Returns an empty list for absent pairs.
        """
        self._check_vertex(u)
        self._check_vertex(v)
        return self._out[u].get(v, _EMPTY_TIMES)

    def out_pairs(self, u: int) -> Iterator[tuple[int, tuple[Timestamp, ...]]]:
        """Iterate ``(v, timestamps)`` over out-neighbours of ``u``."""
        self._check_vertex(u)
        for v, times in self._out[u].items():
            yield v, tuple(times)

    def in_pairs(self, v: int) -> Iterator[tuple[int, tuple[Timestamp, ...]]]:
        """Iterate ``(u, timestamps)`` over in-neighbours of ``v``."""
        self._check_vertex(v)
        for u, times in self._in[v].items():
            yield u, tuple(times)

    def out_edges(self, u: int) -> Iterator[TemporalEdge]:
        """All temporal edges leaving ``u``, timestamps expanded."""
        self._check_vertex(u)
        for v, times in self._out[u].items():
            for t in times:
                yield TemporalEdge(u, v, t)

    def in_edges(self, v: int) -> Iterator[TemporalEdge]:
        """All temporal edges entering ``v``, timestamps expanded."""
        self._check_vertex(v)
        for u, times in self._in[v].items():
            for t in times:
                yield TemporalEdge(u, v, t)

    def edges(self) -> Iterator[TemporalEdge]:
        """All temporal edges in vertex order (not time order)."""
        for u in self.vertices():
            yield from self.out_edges(u)

    def edges_by_time(self) -> list[TemporalEdge]:
        """All temporal edges sorted by ``(t, u, v)`` (cached; read-only).

        This is the insertion stream consumed by the continuous
        subgraph-matching baselines.  The cache is invalidated by
        :meth:`add_edge`; callers must not mutate the returned list.
        """
        if self._edges_by_time is None:
            self._edges_by_time = sorted(
                self.edges(), key=lambda e: (e.t, e.u, e.v)
            )
        return self._edges_by_time

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def de_temporal(self) -> StaticGraph:
        """The static graph obtained by dropping timestamps (cached)."""
        if self._de_temporal is None:
            graph = StaticGraph(self._labels)
            for u, targets in enumerate(self._out):
                for v in targets:
                    graph.add_edge(u, v)
            self._de_temporal = graph
        return self._de_temporal

    def freeze(self) -> "GraphSnapshot":
        """Compile this graph into an immutable CSR :class:`GraphSnapshot`.

        Cached: repeated calls return the same snapshot until the next
        :meth:`add_edge` invalidates it.
        """
        if self._frozen is None:
            from .snapshot import compile_snapshot

            self._frozen = compile_snapshot(self)
        return self._frozen

    def time_prefix(self, fraction: float) -> "TemporalGraph":
        """Subgraph containing the earliest ``fraction`` of temporal edges.

        Used by Exp-5 (scalability with varying |ℰ|).  Vertices are kept
        (ids stay stable); only edges are dropped.  The kept edge count
        is ``floor(|ℰ| * fraction)`` — explicit floor semantics, so slice
        sizes are monotone in *fraction* and never banker's-rounded.
        """
        if not 0.0 <= fraction <= 1.0:
            raise GraphError(f"fraction {fraction} outside [0, 1]")
        keep = math.floor(self._num_temporal_edges * fraction)
        prefix = TemporalGraph(self._labels)
        for edge in self.edges_by_time()[:keep]:
            prefix.add_edge(
                edge.u, edge.v, edge.t, self._edge_labels.get(edge)
            )
        return prefix

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TemporalGraph(num_vertices={self.num_vertices}, "
            f"temporal_edges={self.num_temporal_edges}, "
            f"static_edges={self.num_static_edges})"
        )
