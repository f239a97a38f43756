"""Continuous TCSM: temporal-constraint-aware incremental matching.

An extension beyond the paper's offline setting, motivated directly by
its experiments: the adapted CSM baselines (Section V) process the data
as an insertion stream but can only *post-filter* complete matches with
the temporal constraints — the paper shows how much that costs.  This
module supplies the missing piece: a continuous matcher that reports each
TCSM match the moment its last edge arrives, while pruning with the
constraint set *during* the per-insertion delta search, exactly as the
offline TCSM algorithms do.

Two prunings are applied on top of the shared stream substrate:

* **incremental constraint checking** — a constraint is validated as soon
  as both of its edges are bound in the partial match (no leaf
  post-filtering);
* **STN window pruning** — the transitive closure of the constraint set
  bounds every edge's timestamp relative to every bound edge
  (``t_e ∈ [t_x - D[e][x], t_x + D[x][e]]``); candidates outside the
  intersection of those windows are skipped before any structural work.

Registered with the engine as ``"tcsm-stream"``; the benchmark
``benchmarks/bench_continuous.py`` quantifies the advantage over the
post-filtering baselines.
"""

from __future__ import annotations

import math
from typing import cast

from ..baselines.csm.stream import CSMMatcherBase
from ..graphs import GraphView, QueryGraph, TemporalConstraints, TemporalEdge

__all__ = ["ContinuousTCSMMatcher"]


class ContinuousTCSMMatcher(CSMMatcherBase):
    """Delta matching with in-search temporal-constraint pruning.

    Parameters
    ----------
    query, constraints, graph:
        The matching problem; ``graph`` supplies the insertion stream
        (its temporal edges in time order).
    use_windows:
        Enable STN window pruning (default).  Turning it off leaves only
        incremental constraint checking (ablation knob).
    """

    name = "tcsm-stream"

    def __init__(
        self,
        query: QueryGraph,
        constraints: TemporalConstraints,
        graph: GraphView,
        use_windows: bool = True,
    ) -> None:
        super().__init__(query, constraints, graph)
        self.use_windows = use_windows

    def _on_prepare(self) -> None:
        m = self.query.num_edges
        # Constraints checkable at each (pin, position): both edges bound.
        self._check_plans: list[list[list[tuple[int, int, float]]]] = []
        for pin in range(m):
            order = self._pin_orders[pin]
            position = [0] * m
            for pos, e in enumerate(order):
                position[e] = pos
            plan: list[list[tuple[int, int, float]]] = [[] for _ in range(m)]
            for c in self.constraints:
                when = max(position[c.earlier], position[c.later])
                plan[when].append((c.earlier, c.later, c.gap))
            self._check_plans.append(plan)
        # STN closure distances for window pruning.
        self._dist: list[list[float]] | None
        if self.use_windows and len(self.constraints):
            self._dist = self.constraints.distance_matrix()
        else:
            self._dist = None

    def edge_assignment_allowed(
        self,
        pin: int,
        pos: int,
        edge_index: int,
        cand: TemporalEdge,
        edge_map: list[TemporalEdge | None],
    ) -> bool:
        # Window pruning against every already-bound edge.
        dist = self._dist
        if dist is not None:
            t = cand.t
            row = dist[edge_index]
            for other, bound in enumerate(edge_map):
                if bound is None or other == edge_index:
                    continue
                upper = dist[other][edge_index]
                if upper is not math.inf and t - bound.t > upper:
                    return False
                lower = row[other]
                if lower is not math.inf and bound.t - t > lower:
                    return False
        # Exact checks for constraints that just became fully bound.
        # (edge_map does not yet contain `cand` itself.)
        # The plan schedules a constraint at the position where its second
        # edge binds, so both reads below hit bound entries.
        bound_edges = cast("list[TemporalEdge]", edge_map)
        for earlier, later, gap in self._check_plans[pin][pos]:
            t_earlier = (
                cand.t if earlier == edge_index else bound_edges[earlier].t
            )
            t_later = cand.t if later == edge_index else bound_edges[later].t
            if not 0 <= t_later - t_earlier <= gap:
                return False
        return True


def _register() -> None:
    from .engine import register_algorithm

    register_algorithm("tcsm-stream", ContinuousTCSMMatcher)


_register()
