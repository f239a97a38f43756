"""Seed-space partitioning shared by the partition-aware matchers.

A *partition* ``(index, count)`` restricts a matcher to one deterministic
slice of the search tree's root candidates — the candidate set of the
first TCQ/TCQ+ position only.  Partition ``index`` owns
``sorted(candidates)[index::count]``: a round-robin over the id-sorted
candidates, which spreads dense id regions evenly across the slices.
Because every match binds the root to exactly one candidate, the match
sets of the ``count`` partitions are pairwise disjoint and their union
is exactly the unpartitioned match set; this is what lets the service
layer fan one query out across a worker pool and merge results without
deduplication.

Only the root position may be partitioned: restricting a *later* seed
(e.g. the seed of a second connected component) would cross-product the
restrictions and lose matches.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TypeVar

from ..errors import AlgorithmError

__all__ = ["check_partition", "partition_slice"]

_OrderedT = TypeVar("_OrderedT", int, "tuple[int, int]")


def check_partition(partition: object) -> tuple[int, int]:
    """Validate a ``(index, count)`` partition; returns it normalised.

    Raises :class:`AlgorithmError` on a malformed partition so a bad
    service request fails loudly instead of silently dropping matches.
    """
    match partition:
        case (int() as index, int() as count):
            pass
        case _:
            raise AlgorithmError(
                "partition must be an (index, count) pair of ints, "
                f"got {partition!r}"
            )
    if count < 1 or not 0 <= index < count:
        raise AlgorithmError(
            f"partition index {index} out of range for count {count}"
        )
    return index, count


def partition_slice(
    candidates: Iterable[_OrderedT], partition: tuple[int, int]
) -> list[_OrderedT]:
    """Deterministic slice of *candidates* owned by *partition*.

    Candidates are id-sorted first so the assignment is independent of
    set iteration order; the slices of one ``count`` are pairwise
    disjoint and jointly exhaustive — the exact-multiset merge
    invariant the executor relies on.
    """
    index, count = check_partition(partition)
    return sorted(candidates)[index::count]
