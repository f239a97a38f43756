"""Temporal constraints (Definition 3) and their difference-constraint view.

A constraint triple ``(i, j, k)`` requires the matched timestamps to obey
``0 <= t_j - t_i <= k``: edge ``e_i`` happens no later than ``e_j`` and at
most ``k`` time units earlier.  A set of such triples forms a simple
directed edge-weighted graph over query-edge indices (the paper's TC
graph).

Beyond the paper, this module treats the constraint set as a *simple
temporal network* (STN): Floyd–Warshall over the difference-constraint
graph yields the tightest implied window between every pair of edges, and
detects infeasible sets before any matching work happens.  Matchers can
optionally run on the closed set (``tighten=True`` in the engine), which is
one of the ablations called out in DESIGN.md.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple

from ..errors import ConstraintError, InfeasibleConstraintsError

__all__ = ["Constraint", "TemporalConstraints"]

Gap = float  # an int once validated; float admits math.inf for "no bound"


class Constraint(NamedTuple):
    """``0 <= t[later] - t[earlier] <= gap`` over query-edge indices.

    Field names replace the paper's positional ``(i, j, k)`` to keep the
    direction unambiguous: ``earlier`` is the paper's ``i``, ``later`` is
    ``j`` and ``gap`` is ``k``.
    """

    earlier: int
    later: int
    gap: Gap

    def is_satisfied(self, t_earlier: float, t_later: float) -> bool:
        """Check the window against two concrete timestamps."""
        return 0 <= t_later - t_earlier <= self.gap


class TemporalConstraints:
    """An immutable, validated set of temporal constraints.

    Parameters
    ----------
    triples:
        Iterable of ``(earlier, later, gap)`` triples or
        :class:`Constraint` objects.
    num_edges:
        Number of edges in the query graph the constraints refer to; used
        to validate indices eagerly (pass ``query.num_edges``).

    A finite gap is floored to an ``int``: timestamps are integers, so
    ``t_later - t_earlier <= gap`` holds exactly when it holds for
    ``floor(gap)``, and integral gaps keep every window bound
    (``t + gap``) exact beyond 2**53, where a float sum would round.

    Raises
    ------
    ConstraintError
        On out-of-range edge indices, negative gaps, self-referencing
        triples, or duplicate ``(earlier, later)`` pairs (Definition 3
        excludes loops and multi-edges).  Use :meth:`merged` to collapse
        duplicates instead of raising.
    """

    __slots__ = ("_constraints", "_num_edges", "_by_last", "_degree")

    def __init__(
        self,
        triples: Iterable[tuple[int, int, Gap] | Constraint],
        num_edges: int,
    ) -> None:
        if num_edges < 0:
            raise ConstraintError(f"num_edges must be >= 0, got {num_edges}")
        self._num_edges = num_edges
        seen: set[tuple[int, int]] = set()
        constraints: list[Constraint] = []
        for raw in triples:
            c = Constraint(*raw)
            self._validate(c)
            if math.isfinite(c.gap):
                c = c._replace(gap=math.floor(c.gap))
            key = (c.earlier, c.later)
            if key in seen:
                raise ConstraintError(
                    f"duplicate constraint between edges {c.earlier} and "
                    f"{c.later}; use TemporalConstraints.merged() to collapse"
                )
            seen.add(key)
            constraints.append(c)
        self._constraints: tuple[Constraint, ...] = tuple(constraints)
        self._by_last: dict[int, tuple[Constraint, ...]] | None = None
        self._degree: dict[int, int] | None = None

    def _validate(self, c: Constraint) -> None:
        for edge in (c.earlier, c.later):
            if not 0 <= edge < self._num_edges:
                raise ConstraintError(
                    f"constraint {c} references edge {edge}, outside "
                    f"[0, {self._num_edges})"
                )
        if c.earlier == c.later:
            raise ConstraintError(f"constraint {c} is a self loop")
        if not (c.gap >= 0):  # also rejects NaN
            raise ConstraintError(f"constraint {c} has negative gap")

    @classmethod
    def merged(
        cls,
        triples: Iterable[tuple[int, int, Gap] | Constraint],
        num_edges: int,
    ) -> "TemporalConstraints":
        """Like the constructor, but duplicate pairs keep the tightest gap."""
        best: dict[tuple[int, int], Gap] = {}
        for raw in triples:
            c = Constraint(*raw)
            key = (c.earlier, c.later)
            if key not in best or c.gap < best[key]:
                best[key] = c.gap
        return cls(
            (Constraint(i, j, k) for (i, j), k in best.items()), num_edges
        )

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of query edges this constraint set is validated against."""
        return self._num_edges

    def __len__(self) -> int:
        return len(self._constraints)

    def __iter__(self) -> Iterator[Constraint]:
        return iter(self._constraints)

    def __getitem__(self, index: int) -> Constraint:
        return self._constraints[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemporalConstraints):
            return NotImplemented
        return (
            self._num_edges == other._num_edges
            and set(self._constraints) == set(other._constraints)
        )

    def __hash__(self) -> int:
        return hash((self._num_edges, frozenset(self._constraints)))

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        return self._constraints

    def edges_involved(self) -> frozenset[int]:
        """Query-edge indices that appear in at least one constraint."""
        involved: set[int] = set()
        for c in self._constraints:
            involved.add(c.earlier)
            involved.add(c.later)
        return frozenset(involved)

    def degree(self, edge: int) -> int:
        """Number of constraints touching *edge* (``d(e)`` in Def. 5)."""
        if self._degree is None:
            degree: dict[int, int] = {}
            for c in self._constraints:
                degree[c.earlier] = degree.get(c.earlier, 0) + 1
                degree[c.later] = degree.get(c.later, 0) + 1
            self._degree = degree
        return self._degree.get(edge, 0)

    def involving(self, edge: int) -> tuple[Constraint, ...]:
        """All constraints having *edge* as either endpoint."""
        return tuple(
            c for c in self._constraints if edge in (c.earlier, c.later)
        )

    def constraints_ending_at(self, edge: int) -> tuple[Constraint, ...]:
        """Constraints whose *later* side is ``edge`` (cached by edge)."""
        if self._by_last is None:
            by_last: dict[int, list[Constraint]] = {}
            for c in self._constraints:
                by_last.setdefault(c.later, []).append(c)
            self._by_last = {k: tuple(v) for k, v in by_last.items()}
        return self._by_last.get(edge, ())

    # ------------------------------------------------------------------
    # STN view: implied windows, feasibility, closure
    # ------------------------------------------------------------------
    def distance_matrix(self) -> list[list[float]]:
        """All-pairs tightest bounds ``D[x][y]`` on ``t_y - t_x``.

        Each constraint contributes the arcs ``t_later - t_earlier <= gap``
        and ``t_earlier - t_later <= 0``.  Floyd–Warshall over query-edge
        indices (|E_q| is small) gives the tightest implied bound for every
        ordered pair; ``math.inf`` means unconstrained.  Finite entries
        are ``int`` (the gaps are), so ``t + D[x][y]`` is exact.
        """
        m = self._num_edges
        dist: list[list[float]] = [[math.inf] * m for _ in range(m)]
        for x in range(m):
            dist[x][x] = 0
        for c in self._constraints:
            if c.gap < dist[c.earlier][c.later]:
                dist[c.earlier][c.later] = c.gap
            if 0 < dist[c.later][c.earlier]:
                dist[c.later][c.earlier] = 0
        for mid in range(m):
            row_mid = dist[mid]
            for x in range(m):
                through = dist[x][mid]
                if through == math.inf:
                    continue
                row_x = dist[x]
                for y in range(m):
                    candidate = through + row_mid[y]
                    if candidate < row_x[y]:
                        row_x[y] = candidate
        return dist

    def is_feasible(self) -> bool:
        """True iff some timestamp assignment satisfies every constraint."""
        dist = self.distance_matrix()
        return all(dist[x][x] >= 0 for x in range(self._num_edges))

    def implied_window(self, earlier: int, later: int) -> tuple[float, float]:
        """Tightest implied bounds ``(lo, hi)`` on ``t_later - t_earlier``.

        ``(-inf, inf)`` if the pair is unconstrained (directly or
        transitively).
        """
        dist = self.distance_matrix()
        hi = dist[earlier][later]
        lo = -dist[later][earlier]
        return (lo, hi)

    def closed(self) -> "TemporalConstraints":
        """The transitive closure as a new, tightened constraint set.

        Emits one constraint for every ordered pair ``(x, y)`` with a finite
        implied upper bound *and* an implied ordering ``t_y >= t_x``; the
        result contains (a tightened version of) every input constraint.

        Raises
        ------
        InfeasibleConstraintsError
            If the constraint set admits no assignment (negative cycle).
        """
        dist = self.distance_matrix()
        m = self._num_edges
        for x in range(m):
            if dist[x][x] < 0:
                raise InfeasibleConstraintsError(
                    "temporal constraints admit no timestamp assignment"
                )
        closed: list[Constraint] = []
        for x in range(m):
            for y in range(m):
                if x == y:
                    continue
                if dist[x][y] < math.inf and dist[y][x] <= 0:
                    closed.append(Constraint(x, y, dist[x][y]))
        return TemporalConstraints(closed, m)

    def check(self, times: Sequence[float | None]) -> bool:
        """Validate a (partial) timestamp assignment.

        ``times[i]`` is the timestamp matched to query edge ``i`` or
        ``None`` if unmatched; constraints with an unmatched side pass.
        """
        for c in self._constraints:
            t_i = times[c.earlier]
            t_j = times[c.later]
            if t_i is None or t_j is None:
                continue
            if not c.is_satisfied(t_i, t_j):
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TemporalConstraints({list(self._constraints)!r}, "
            f"num_edges={self._num_edges})"
        )
