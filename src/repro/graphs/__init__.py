"""Graph substrates: temporal/static data graphs, query graphs, constraints.

This subpackage knows nothing about matching; it provides the data model
that both the paper's algorithms (:mod:`repro.core`) and the baselines
(:mod:`repro.baselines`) consume.
"""

from .builders import QueryBuilder, TemporalGraphBuilder
from .constraints import Constraint, TemporalConstraints
from .io import (
    default_label_alphabet,
    load_labels,
    load_snap_temporal,
    save_labels,
    save_snap_temporal,
)
from .labels import LabelTable, label_histogram
from .metrics import GraphStatistics, graph_statistics
from .query_graph import QueryGraph
from .segmented import SegmentedGraph
from .query_io import (
    load_pattern,
    pattern_from_dict,
    pattern_to_dict,
    save_pattern,
)
from .shm import SharedGraphSnapshot, SharedSnapshot, attach_shared_snapshot
from .snapshot import (
    GraphSnapshot,
    GraphView,
    SnapshotWriteBarrier,
    compile_snapshot,
    ensure_snapshot,
    snapshot_compile_count,
    snapshot_write_barrier,
)
from .static_graph import StaticGraph
from .temporal_graph import TemporalEdge, TemporalGraph

__all__ = [
    "Constraint",
    "GraphSnapshot",
    "GraphStatistics",
    "GraphView",
    "LabelTable",
    "SnapshotWriteBarrier",
    "compile_snapshot",
    "ensure_snapshot",
    "graph_statistics",
    "snapshot_compile_count",
    "snapshot_write_barrier",
    "QueryBuilder",
    "QueryGraph",
    "SegmentedGraph",
    "SharedGraphSnapshot",
    "SharedSnapshot",
    "StaticGraph",
    "TemporalEdge",
    "TemporalGraph",
    "TemporalGraphBuilder",
    "TemporalConstraints",
    "attach_shared_snapshot",
    "default_label_alphabet",
    "label_histogram",
    "load_labels",
    "load_pattern",
    "load_snap_temporal",
    "pattern_from_dict",
    "pattern_to_dict",
    "save_labels",
    "save_pattern",
    "save_snap_temporal",
]
