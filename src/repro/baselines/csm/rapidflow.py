"""RapidFlow baseline [10]: query reduction before enumeration.

RapidFlow's key idea is to shrink the query before searching: degree-1
query vertices are stripped (they can be re-attached afterwards by a
simple neighbourhood scan), the reduced core is matched first, and the
stripped parts are re-expanded.  Dead ends caused by abundant leaf
candidates are thereby avoided.

Reproduction: we keep the shared pinned delta search, but replace the
query-edge order with a *core-first* order — edges of the iteratively
leaf-stripped core come first, stripped leaf edges re-attach in reverse
strip order.  (RapidFlow's dual-matching optimisation for automorphic
queries is out of scope; DESIGN.md records the simplification.)
"""

from __future__ import annotations

from ...core.windows import connected_edge_order
from ...graphs import QueryGraph
from .stream import CSMMatcherBase

__all__ = ["RapidFlowMatcher", "core_first_edge_order"]


def core_first_edge_order(query: QueryGraph, start_edge: int) -> list[int]:
    """Edges of the leaf-stripped core first, stripped edges last.

    The start (pinned) edge is always first regardless of stripping, so
    the order remains usable for delta searches.  Within the core and the
    stripped tail, edges keep connected-order adjacency.
    """
    m = query.num_edges
    # Iteratively strip degree-1 vertices and their single incident edge.
    alive_edges = set(range(m))
    stripped: list[int] = []
    changed = True
    while changed:
        changed = False
        for u in sorted(query.vertices()):
            incident_alive = [
                e for e in query.incident_edges(u) if e in alive_edges
            ]
            if len(incident_alive) == 1 and incident_alive[0] != start_edge:
                edge = incident_alive[0]
                alive_edges.discard(edge)
                stripped.append(edge)
                changed = True
    base = connected_edge_order(query, start_edge)
    core = [e for e in base if e in alive_edges]
    tail = [e for e in base if e not in alive_edges]
    return core + tail


class RapidFlowMatcher(CSMMatcherBase):
    """Query-reduction delta enumeration (RapidFlow)."""

    name = "rapidflow"

    def _on_prepare(self) -> None:
        self._pin_orders = [
            core_first_edge_order(self.query, e)
            for e in range(self.query.num_edges)
        ]
