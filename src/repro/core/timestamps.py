"""Joint timestamp assignment under temporal constraints.

TCSM-V2V matches *vertices* first; once a full vertex embedding is found,
every query edge maps to a data vertex pair that may carry several
timestamps, and the algorithm must enumerate the timestamp combinations
that jointly satisfy the constraint set — the "edge permutation" cost the
paper attributes to vertex-based matching.  The static RI-DS baseline has
exactly the same post-processing step.

The solver here is a small backtracking search over query edges with two
prunings:

* window propagation — the STN distance matrix gives, for every assigned
  edge ``x`` and unassigned edge ``y``, the implied window
  ``t_y ∈ [t_x - D[y][x], t_x + D[x][y]]``; timestamps outside the
  intersection of all such windows are skipped via bisection;
* constraint ordering — edges are assigned most-constrained-first so
  violations surface early.

Both depend on the constraint set alone, so :class:`TimestampPlan` builds
them once (distance matrix, edge order, check table) and solves any
number of option sets; TCSM-V2V plans once in ``prepare`` and solves at
every leaf.  :func:`iter_timestamp_assignments` is the one-off form.

There is also an existence check (:func:`windows_compatible`) used for the
partial pruning inside TCSM-V2V's DFS.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Iterator, Sequence

from ..graphs import TemporalConstraints

__all__ = [
    "TimestampPlan",
    "iter_timestamp_assignments",
    "count_timestamp_assignments",
    "windows_compatible",
]


def windows_compatible(
    earlier_times: Sequence[int],
    later_times: Sequence[int],
    gap: float,
) -> bool:
    """Does some pair ``(a, b)`` with ``0 <= b - a <= gap`` exist?

    Both sequences must be sorted ascending.  Two-pointer sweep, O(n+m).
    """
    i = 0
    for b in later_times:
        # Advance past earlier-times that are too small to reach b.
        while i < len(earlier_times) and b - earlier_times[i] > gap:
            i += 1
        if i == len(earlier_times):
            return False
        if earlier_times[i] <= b:
            return True
    return False


class TimestampPlan:
    """The joint solver's static tables for one constraint set.

    Everything the solver derives from ``(constraints, use_windows)``
    alone is computed here once: the STN distance matrix (when windows
    are on), the most-constrained-first edge order and the per-position
    check table.  A matcher builds one plan in ``prepare`` and calls
    :meth:`assignments` at every complete embedding, so no leaf re-runs
    Floyd-Warshall.  *dist* lets a caller that already holds the
    constraints' distance matrix pass it in instead of recomputing it.
    """

    __slots__ = ("num_edges", "dist", "order", "checks")

    def __init__(
        self,
        constraints: TemporalConstraints,
        use_windows: bool = True,
        dist: Sequence[Sequence[float]] | None = None,
    ) -> None:
        m = constraints.num_edges
        self.num_edges = m
        self.dist: Sequence[Sequence[float]] | None = None
        if use_windows:
            self.dist = dist if dist is not None else constraints.distance_matrix()
        # Assign most-constrained edges first; unconstrained edges go last
        # so their (free) choices multiply after all checks passed.
        order = sorted(range(m), key=lambda e: -constraints.degree(e))
        position = [0] * m
        for pos, edge in enumerate(order):
            position[edge] = pos
        # Pre-index constraints by the later-assigned side so each is
        # checked exactly once, as soon as both sides are bound.
        checks: list[list[tuple[int, int, float, bool]]] = [[] for _ in range(m)]
        for c in constraints:
            if position[c.earlier] < position[c.later]:
                checks[position[c.later]].append(
                    (c.earlier, c.later, c.gap, True)
                )
            else:
                checks[position[c.earlier]].append(
                    (c.earlier, c.later, c.gap, False)
                )
        self.order = tuple(order)
        self.checks = tuple(tuple(entries) for entries in checks)

    def assignments(
        self, options: Sequence[Sequence[int]]
    ) -> Iterator[tuple[int, ...]]:
        """Yield every per-edge timestamp choice satisfying the constraints.

        ``options[i]`` is the sorted sequence of available timestamps for
        query edge ``i``; yields tuples index-aligned with *options*.
        """
        m = len(options)
        if m != self.num_edges:
            raise ValueError(
                f"got {m} option lists for {self.num_edges} query edges"
            )
        if any(len(times) == 0 for times in options):
            return
        if not m:
            yield ()
            return
        dist = self.dist
        order = self.order
        checks = self.checks
        chosen: list[int] = [0] * m
        last = m - 1

        def candidates_at(pos: int) -> Sequence[int]:
            """Position *pos*'s timestamps inside the windows the edges
            assigned before it (``order[:pos]``) imply."""
            edge = order[pos]
            times = options[edge]
            if dist is None or not pos:
                return times
            lo, hi = -math.inf, math.inf
            for other in order[:pos]:
                t_other = chosen[other]
                hi = min(hi, t_other + dist[other][edge])
                lo = max(lo, t_other - dist[edge][other])
            if lo > hi:
                return ()
            left = 0 if lo == -math.inf else bisect.bisect_left(times, lo)
            right = len(times) if hi == math.inf else bisect.bisect_right(times, hi)
            return times[left:right]

        # Depth-first over positions with an explicit stack of candidate
        # iterators (one per assigned position): the same order as the
        # recursive backtracking, without a generator per level.
        stack = [iter(candidates_at(0))]
        while stack:
            pos = len(stack) - 1
            edge = order[pos]
            for t in stack[pos]:
                for earlier, later, gap, current_is_later in checks[pos]:
                    if current_is_later:
                        delta = t - chosen[earlier]
                    else:
                        delta = chosen[later] - t
                    if not 0 <= delta <= gap:
                        break
                else:
                    chosen[edge] = t
                    if pos == last:
                        yield tuple(chosen)
                        continue
                    stack.append(iter(candidates_at(pos + 1)))
                    break
            else:
                stack.pop()


def iter_timestamp_assignments(
    options: Sequence[Sequence[int]],
    constraints: TemporalConstraints,
    use_windows: bool = True,
) -> Iterator[tuple[int, ...]]:
    """Yield every per-edge timestamp choice satisfying *constraints*.

    A one-off :class:`TimestampPlan`: callers that solve many option
    sets under one constraint set should build the plan once instead.

    Parameters
    ----------
    options:
        ``options[i]`` is the sorted sequence of available timestamps for
        query edge ``i`` (the data pair's interaction times).
    constraints:
        The temporal-constraint set; ``constraints.num_edges`` must equal
        ``len(options)``.
    use_windows:
        When True (default) the STN distance matrix prunes candidate
        timestamps by implied windows; turning it off reproduces the naive
        enumeration (ablation knob).

    Yields
    ------
    tuple of timestamps, index-aligned with *options*.
    """
    yield from TimestampPlan(constraints, use_windows).assignments(options)


def count_timestamp_assignments(
    options: Sequence[Sequence[int]],
    constraints: TemporalConstraints,
    use_windows: bool = True,
) -> int:
    """Number of satisfying timestamp combinations (see the iterator)."""
    return sum(
        1
        for _ in iter_timestamp_assignments(
            options, constraints, use_windows=use_windows
        )
    )
