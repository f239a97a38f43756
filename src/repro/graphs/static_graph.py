"""Directed, vertex-labeled static graphs.

A :class:`StaticGraph` is the *de-temporal* view of a temporal graph
(Definition 1 of the paper): timestamps are dropped and parallel temporal
edges collapse into one directed edge.  It is also the representation used
by the static baseline (RI-DS) and by the candidate filters, which only
look at structure and labels.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Hashable, Iterable, Iterator, Sequence

from ..errors import GraphError
from .labels import index_labels

__all__ = ["StaticGraph"]


class StaticGraph:
    """A simple directed graph with labeled vertices.

    Vertices are the integers ``0 .. num_vertices - 1``.  Self loops are
    rejected (the paper considers simple graphs); duplicate edges are
    silently collapsed, which makes the class directly usable as the
    de-temporal view of a temporal multigraph.

    Parameters
    ----------
    labels:
        One label per vertex; ``labels[v]`` is the label of vertex ``v``.
    edges:
        Iterable of ``(u, v)`` pairs.
    """

    __slots__ = (
        "_labels",
        "_out",
        "_in",
        "_num_edges",
        "_label_index",
        "_neighbor_label_counts",
    )

    def __init__(
        self,
        labels: Sequence[Hashable],
        edges: Iterable[tuple[int, int]] = (),
    ) -> None:
        self._labels: tuple[Hashable, ...] = tuple(labels)
        n = len(self._labels)
        self._out: list[set[int]] = [set() for _ in range(n)]
        self._in: list[set[int]] = [set() for _ in range(n)]
        self._num_edges = 0
        self._label_index: dict[Hashable, tuple[int, ...]] | None = None
        self._neighbor_label_counts: list[Counter[Hashable] | None] = [None] * n
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int) -> bool:
        """Insert edge ``(u, v)``; return ``True`` if it was new."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise GraphError(f"self loop ({u}, {u}) not allowed in a simple graph")
        if v in self._out[u]:
            return False
        self._out[u].add(v)
        self._in[v].add(u)
        self._num_edges += 1
        # Invalidate caches that depend on adjacency.
        self._neighbor_label_counts[u] = None
        self._neighbor_label_counts[v] = None
        return True

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < len(self._labels):
            raise GraphError(
                f"vertex {v} out of range [0, {len(self._labels)})"
            )

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def vertices(self) -> range:
        return range(len(self._labels))

    def label(self, v: int) -> Hashable:
        self._check_vertex(v)
        return self._labels[v]

    @property
    def labels(self) -> tuple[Hashable, ...]:
        return self._labels

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._out[u]

    def out_neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return frozenset(self._out[v])

    def in_neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return frozenset(self._in[v])

    def neighbors(self, v: int) -> frozenset[int]:
        """Undirected neighbourhood ``N(v)`` (union of in- and out-)."""
        self._check_vertex(v)
        return frozenset(self._out[v] | self._in[v])

    def out_degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._out[v])

    def in_degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._in[v])

    def degree(self, v: int) -> int:
        """Number of distinct undirected neighbours of ``v``."""
        return len(self.neighbors(v))

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, targets in enumerate(self._out):
            for v in sorted(targets):
                yield (u, v)

    # ------------------------------------------------------------------
    # label-driven accessors (used by candidate filters)
    # ------------------------------------------------------------------
    def vertices_with_label(self, label: Hashable) -> tuple[int, ...]:
        """All vertices carrying *label* (possibly empty)."""
        if self._label_index is None:
            self._label_index = index_labels(self._labels)
        return self._label_index.get(label, ())

    def neighbor_label_counts(self, v: int) -> Counter[Hashable]:
        """Multiset of labels over the undirected neighbourhood of ``v``.

        Cached per vertex; this is the signature consumed by the NLF filter
        (Definition 6) and by the EVE ``Vmatch`` look-ahead.
        """
        self._check_vertex(v)
        cached = self._neighbor_label_counts[v]
        if cached is None:
            cached = Counter(self._labels[w] for w in self._out[v] | self._in[v])
            self._neighbor_label_counts[v] = cached
        return cached

    # ------------------------------------------------------------------
    # dunder utilities
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StaticGraph(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges})"
        )
