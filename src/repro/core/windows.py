"""Temporal window-propagation kernel shared by every TCSM matcher.

The paper's Exp-9/Exp-10 show enumeration cost tracking the number of
*timestamps materialised* from candidate vertex pairs: the matchers used
to expand every timestamp of a pair and reject most of them afterwards
with per-constraint gap checks.  The CSR :class:`~repro.graphs.GraphSnapshot`
stores each pair's timestamps as one sorted run precisely so a feasible
interval can be read out by bisection — this module is the piece that
computes those intervals and does the slicing, and every matcher
(V2V temporal checks and leaf enumeration, E2E/EVE candidate expansion,
the HT estimator) funnels through it.

Three layers:

* **plans** — :func:`connected_edge_order` gives the pinned searches
  (the streaming kernel and the CSM baselines) a connected query-edge
  order per start edge; :func:`build_edge_window_plan` precomputes, per
  matching position, which already-bound query edges bound the current edge's
  timestamp and by how much (either the raw constraints or their STN
  closure via :meth:`TemporalConstraints.distance_matrix`);
* **windows** — :func:`feasible_window` intersects those bounds against
  the concrete bound timestamps into one ``[lo, hi]`` interval (``None``
  when the interval is empty, i.e. the subtree is dead);
* **slices** — :func:`windowed_times` / :func:`constraint_slices` /
  :func:`propagate_run_windows` bisect sorted timestamp runs down to the
  feasible interval, crediting the kept part to
  ``SearchStats.timestamps_expanded`` and the pruned part to
  ``SearchStats.timestamps_skipped``.

Every matcher reads its compiled snapshot's timestamps only through
this kernel.  The helpers work on plain sorted integer sequences — the
snapshot's zero-copy memoryview runs and the tuples of its per-label
index alike.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Sequence

from ..graphs import QueryGraph, TemporalConstraints

from .stats import SearchStats

__all__ = [
    "NO_WINDOW",
    "WindowBounds",
    "build_edge_window_plan",
    "connected_edge_order",
    "constraint_slices",
    "feasible_window",
    "propagate_run_windows",
    "window_slice",
    "windowed_times",
]

#: The unconstrained window: every timestamp is feasible.
NO_WINDOW: tuple[float, float] = (-math.inf, math.inf)

#: Per matching position: ``(other_edge, hi_add, lo_sub)`` triples, each
#: constraining the current edge's timestamp ``t`` to
#: ``t_other - lo_sub <= t <= t_other + hi_add`` once ``other_edge`` is
#: bound.  Only triples with at least one finite side are stored.
WindowBounds = tuple[tuple[int, float, float], ...]


def connected_edge_order(query: QueryGraph, start_edge: int) -> list[int]:
    """A query-edge order starting at *start_edge*, connected prefix first.

    BFS over edge adjacency (shared query vertex); edges in components not
    reachable from the start edge are appended in index order (their
    searches fall back to label scans).
    """
    m = query.num_edges
    order = [start_edge]
    seen = {start_edge}
    frontier = [start_edge]
    while frontier:
        nxt: list[int] = []
        for e in frontier:
            for other in range(m):
                if other in seen:
                    continue
                if query.edges_share_vertex(e, other):
                    seen.add(other)
                    order.append(other)
                    nxt.append(other)
        frontier = nxt
    for other in range(m):
        if other not in seen:
            order.append(other)
    return order


def build_edge_window_plan(
    order: Sequence[int],
    constraints: TemporalConstraints,
    closure: bool = True,
) -> tuple[WindowBounds, ...]:
    """Per position of *order*, the bounds earlier-positioned edges impose.

    Parameters
    ----------
    order:
        Query-edge matching order (TCQ+ ``TO``); position ``p`` binds
        edge ``order[p]`` and may consult edges at positions ``< p``.
    constraints:
        The temporal-constraint set over those edges.
    closure:
        When True (default), bounds come from the STN distance matrix —
        the tightest *implied* window, including transitive tightening
        through edges not yet bound.  When False, only the raw
        constraints with the other side already bound contribute; this
        reproduces exactly the per-constraint checks the matchers apply,
        which the HT estimator needs to keep its probe distribution (and
        therefore its seeded estimates) unchanged.
    """
    plan: list[WindowBounds] = []
    if closure:
        dist = constraints.distance_matrix()
        for pos, edge in enumerate(order):
            entries: list[tuple[int, float, float]] = []
            for other_pos in range(pos):
                other = order[other_pos]
                hi_add = dist[other][edge]
                lo_sub = dist[edge][other]
                if hi_add < math.inf or lo_sub < math.inf:
                    entries.append((other, hi_add, lo_sub))
            plan.append(tuple(entries))
        return tuple(plan)
    position = {edge: pos for pos, edge in enumerate(order)}
    raw: list[list[tuple[int, float, float]]] = [[] for _ in order]
    for c in constraints:
        # 0 <= t_later - t_earlier <= gap, attributed to whichever side
        # binds second (the position where the check becomes possible).
        if position[c.earlier] < position[c.later]:
            raw[position[c.later]].append((c.earlier, float(c.gap), 0.0))
        else:
            raw[position[c.earlier]].append((c.later, 0.0, float(c.gap)))
    return tuple(tuple(entries) for entries in raw)


def feasible_window(
    bounds: WindowBounds, edge_times: Sequence[int | None]
) -> tuple[float, float] | None:
    """Intersect *bounds* against bound timestamps into one ``[lo, hi]``.

    ``edge_times`` is indexed by query-edge id; every edge referenced by
    *bounds* must be bound (the plans only reference earlier positions).
    Returns ``None`` when the intersection is empty — no timestamp can
    extend the current partial match.
    """
    lo, hi = NO_WINDOW
    for other, hi_add, lo_sub in bounds:
        t_other = edge_times[other]
        assert t_other is not None  # plans only reference bound positions
        upper = t_other + hi_add
        if upper < hi:
            hi = upper
        lower = t_other - lo_sub
        if lower > lo:
            lo = lower
        if lo > hi:
            return None
    return (lo, hi)


def window_slice(
    times: Sequence[int], lo: float, hi: float
) -> Sequence[int]:
    """The ``lo <= t <= hi`` slice of a sorted run (bisect, zero-copy).

    Slicing a memoryview run from a snapshot aliases the underlying
    array; tuple runs (the per-label index) copy the (short) slice.
    """
    if lo == -math.inf and hi == math.inf:
        return times
    left = bisect.bisect_left(times, lo)
    right = bisect.bisect_right(times, hi)
    return times[left:right]


def windowed_times(
    times: Sequence[int],
    window: tuple[float, float],
    stats: SearchStats | None = None,
) -> Sequence[int]:
    """Slice *times* to *window*, crediting expanded vs skipped counters.

    The kept slice counts toward ``stats.timestamps_expanded`` (those
    timestamps *are* materialised by the caller); everything the window
    excluded counts toward ``stats.timestamps_skipped``.  With
    ``window=NO_WINDOW`` (a position no bound edge constrains) the whole
    run is kept and counted as expanded.
    """
    kept = window_slice(times, window[0], window[1])
    if stats is not None:
        stats.timestamps_expanded += len(kept)
        stats.timestamps_skipped += len(times) - len(kept)
    return kept


def constraint_slices(
    earlier_times: Sequence[int],
    later_times: Sequence[int],
    gap: float,
    stats: SearchStats | None = None,
) -> tuple[Sequence[int], Sequence[int]]:
    """Mutually windowed slices for one existential constraint check.

    For ``0 <= t_later - t_earlier <= gap``, any witnessing pair has its
    earlier side inside ``[min(later) - gap, max(later)]`` and its later
    side inside ``[min(earlier), max(earlier) + gap]`` — endpoints of a
    sorted run are O(1), so both slices are two bisects.  Feeding the
    slices to :func:`repro.core.windows_compatible` gives exactly the
    answer the full runs would, with only the feasible region expanded.
    """
    total = len(earlier_times) + len(later_times)
    if not len(earlier_times) or not len(later_times):
        if stats is not None:
            stats.timestamps_skipped += total
        return (), ()
    e_slice = window_slice(
        earlier_times, later_times[0] - gap, float(later_times[-1])
    )
    l_slice = window_slice(
        later_times, float(earlier_times[0]), earlier_times[-1] + gap
    )
    if stats is not None:
        kept = len(e_slice) + len(l_slice)
        stats.timestamps_expanded += kept
        stats.timestamps_skipped += total - kept
    return e_slice, l_slice


def propagate_run_windows(
    runs: Sequence[Sequence[int]],
    dist: Sequence[Sequence[float]],
) -> list[tuple[float, float]] | None:
    """Per-edge feasible windows for a complete vertex embedding.

    Given one sorted timestamp run per query edge and the STN distance
    matrix, each edge's timestamp must lie within
    ``[min(T_f) - D[e][f], max(T_f) + D[f][e]]`` for every other edge
    ``f`` — a timestamp outside that envelope violates some closure
    bound against *every* choice from ``T_f`` and can appear in no
    satisfying assignment.  One interval-propagation pass over the run
    endpoints (O(m²) for m query edges) yields the windows V2V slices
    its leaf enumeration with.

    Returns ``None`` when some run is empty or some window collapses —
    the embedding admits no timestamp assignment at all.
    """
    m = len(runs)
    if any(not len(run) for run in runs):
        return None
    windows: list[tuple[float, float]] = []
    for e in range(m):
        lo, hi = NO_WINDOW
        row_e = dist[e]
        for f in range(m):
            if f == e:
                continue
            d_fe = dist[f][e]
            if d_fe < math.inf:
                upper = runs[f][-1] + d_fe
                if upper < hi:
                    hi = upper
            d_ef = row_e[f]
            if d_ef < math.inf:
                lower = runs[f][0] - d_ef
                if lower > lo:
                    lo = lower
        if lo > hi:
            return None
        windows.append((lo, hi))
    return windows
