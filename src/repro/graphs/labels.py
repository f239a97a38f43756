"""Label handling utilities shared by all graph types.

Labels in the paper are opaque symbols attached to vertices (``A``, ``B``,
...).  The library accepts any hashable object as a label.  For dense
numeric processing (synthetic generators, NLF signatures) a
:class:`LabelTable` interns labels to consecutive integers.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Hashable, Iterable, Iterator, Sequence

__all__ = ["LabelTable", "index_labels", "label_histogram"]


class LabelTable:
    """Bidirectional mapping between labels and dense integer codes.

    >>> table = LabelTable(["A", "B", "A"])
    >>> table.code("A"), table.code("B")
    (0, 1)
    >>> table.label(1)
    'B'
    >>> len(table)
    2
    """

    __slots__ = ("_code_by_label", "_labels")

    def __init__(self, labels: Iterable[Hashable] = ()) -> None:
        self._code_by_label: dict[Hashable, int] = {}
        self._labels: list[Hashable] = []
        for label in labels:
            self.intern(label)

    def intern(self, label: Hashable) -> int:
        """Return the code for *label*, assigning a fresh one if unseen."""
        code = self._code_by_label.get(label)
        if code is None:
            code = len(self._labels)
            self._code_by_label[label] = code
            self._labels.append(label)
        return code

    def code(self, label: Hashable) -> int:
        """Return the code of a known *label*; raise ``KeyError`` otherwise."""
        return self._code_by_label[label]

    def label(self, code: int) -> Hashable:
        """Return the label for *code*; raise ``IndexError`` otherwise."""
        return self._labels[code]

    def __contains__(self, label: Hashable) -> bool:
        return label in self._code_by_label

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._labels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LabelTable({self._labels!r})"


def label_histogram(labels: Sequence[Hashable]) -> Counter[Hashable]:
    """Count occurrences of each label.

    Used by generators to report label skew and by NLF-style filters to
    compare neighbourhood label multisets.
    """
    return Counter(labels)


def index_labels(labels: Sequence[Hashable]) -> dict[Hashable, tuple[int, ...]]:
    """The label index: each label to its vertices, id-sorted.

    Labels appear in order of first appearance.  Every graph backend
    builds its ``vertices_with_label`` index with this.
    """
    index: dict[Hashable, list[int]] = {}
    for v, label in enumerate(labels):
        index.setdefault(label, []).append(v)
    return {label: tuple(vs) for label, vs in index.items()}
