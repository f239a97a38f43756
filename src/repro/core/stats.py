"""Search statistics collected by every matcher.

Exp-9 of the paper ("Observations on Failed Enumeration") compares, per
algorithm, the total number of failed enumerations and the layer of the
matching tree at which the first failure occurs — both are indicators of
pruning power.  :class:`SearchStats` records exactly those quantities, plus
a few cheap counters that the experiment drivers report.

Per-filter pruning effectiveness (the paper's Exp-9 ablation, and the
lever TimeCSM-style temporal filtering turns) is recorded in
:class:`FilterStats` buckets, one per named filter: how many candidates
the filter *considered*, how many it *pruned*, and (derived) how many
survived.  Filters are chained, so for consecutive filters on the same
candidate stream ``later.considered == earlier.survivors`` — the test
suite pins this sum-consistency.  Counters are plain attribute increments
on slotted objects and stay on in production; matchers fetch the bucket
once before their DFS and touch only ints in the hot loop.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

__all__ = ["FilterStats", "SearchStats"]


@dataclass(slots=True)
class FilterStats:
    """Pruning counters for one named candidate filter.

    ``considered`` counts candidates the filter examined; ``pruned``
    counts those it rejected.  ``survivors`` is always the difference, so
    the three are sum-consistent by construction.
    """

    considered: int = 0
    pruned: int = 0

    @property
    def survivors(self) -> int:
        return self.considered - self.pruned

    def merge(self, other: "FilterStats") -> None:
        self.considered += other.considered
        self.pruned += other.pruned

    def as_dict(self) -> dict[str, int]:
        return {
            "considered": self.considered,
            "pruned": self.pruned,
            "survivors": self.survivors,
        }


@dataclass
class SearchStats:
    """Counters filled in by a matcher during one ``run()``.

    Attributes
    ----------
    candidates_generated:
        Candidate vertices/edges produced before validation.
    validations:
        Validation calls performed (structure + temporal checks).
    failed_enumerations:
        Candidates rejected by any check, plus matching-tree nodes that
        produced zero candidates.  This is the paper's "failed
        enumerations" metric (Fig. 21, left).
    first_fail_layer:
        Shallowest matching-tree layer (1-based) at which a failure was
        recorded, or ``None`` if the search never failed (Fig. 21, right).
    fail_layers:
        Failure count per layer — a superset of what Fig. 21 plots.
    nodes_expanded:
        Matching-tree nodes visited.
    matches:
        Matches emitted.
    budget_exhausted:
        Set when the matcher stopped early due to a limit/time budget;
        counts are then lower bounds.
    deadline_hit:
        Set when the early stop was caused specifically by the wall-clock
        deadline (a subset of ``budget_exhausted``).  Lets callers
        distinguish a *timed-out* run from one merely *truncated* by a
        match limit — the service layer tags responses with exactly this
        split.
    limit_hit:
        Set when the early stop was caused by the match limit — i.e. a
        satisfied result sink raised ``StopEnumeration`` (also a subset
        of ``budget_exhausted``, and disjoint from ``deadline_hit`` in
        any single run).  Together the two flags split the old
        conflated ``truncated`` reading into its two causes.
    timestamps_expanded:
        Temporal-edge timestamps materialised from candidate pairs (the
        expansion cost edge-based matchers pay per pair and V2V pays at
        its leaves).
    timestamps_skipped:
        Timestamps in probed runs that the window kernel excluded by
        bisection *instead of* materialising them (see
        :mod:`repro.core.windows`).  For any single probed run,
        ``expanded + skipped`` equals the run length, so this counter is
        exactly the enumerate-then-discard work the kernel avoided; it
        stays 0 with the kernel disabled.
    filters:
        Per-filter :class:`FilterStats`, keyed by filter name (``"nlf"``,
        ``"ldf"``, ``"temporal"``, ...); see :meth:`filter`.
    """

    candidates_generated: int = 0
    validations: int = 0
    failed_enumerations: int = 0
    first_fail_layer: int | None = None
    fail_layers: Counter[int] = field(default_factory=Counter)
    nodes_expanded: int = 0
    matches: int = 0
    budget_exhausted: bool = False
    deadline_hit: bool = False
    limit_hit: bool = False
    timestamps_expanded: int = 0
    timestamps_skipped: int = 0
    filters: dict[str, FilterStats] = field(default_factory=dict)

    def filter(self, name: str) -> FilterStats:
        """The (created-on-first-use) counter bucket for filter *name*.

        Matchers call this once per run, outside the hot loop, and then
        increment the returned object's ints directly.
        """
        bucket = self.filters.get(name)
        if bucket is None:
            bucket = FilterStats()
            self.filters[name] = bucket
        return bucket

    def filter_summary(self) -> dict[str, dict[str, int]]:
        """Plain-data view of every filter bucket (for JSON/metrics)."""
        return {
            name: bucket.as_dict()
            for name, bucket in sorted(self.filters.items())
        }

    def record_fail(self, layer: int) -> None:
        """Record one failed enumeration at 1-based *layer*."""
        self.failed_enumerations += 1
        self.fail_layers[layer] += 1
        if self.first_fail_layer is None or layer < self.first_fail_layer:
            self.first_fail_layer = layer

    def record_stop(self) -> None:
        """Record an early stop (a caught ``StopEnumeration``).

        The deadline check flags ``deadline_hit`` before it raises, so a
        stop it did not flag came from a satisfied sink: the limit.
        """
        self.budget_exhausted = True
        if not self.deadline_hit:
            self.limit_hit = True

    def merge(self, other: "SearchStats") -> None:
        """Accumulate *other* into self (used by multi-phase baselines)."""
        self.candidates_generated += other.candidates_generated
        self.validations += other.validations
        self.failed_enumerations += other.failed_enumerations
        self.fail_layers.update(other.fail_layers)
        self.nodes_expanded += other.nodes_expanded
        self.matches += other.matches
        self.budget_exhausted |= other.budget_exhausted
        self.deadline_hit |= other.deadline_hit
        self.limit_hit |= other.limit_hit
        self.timestamps_expanded += other.timestamps_expanded
        self.timestamps_skipped += other.timestamps_skipped
        for name, bucket in other.filters.items():
            self.filter(name).merge(bucket)
        if other.first_fail_layer is not None and (
            self.first_fail_layer is None
            or other.first_fail_layer < self.first_fail_layer
        ):
            self.first_fail_layer = other.first_fail_layer
