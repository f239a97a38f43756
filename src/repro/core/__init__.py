"""Core TCSM algorithms: TCQ/TCQ+ construction and the three matchers."""

from .bruteforce import BruteForceMatcher, brute_force_matches
from .e2e import E2EMatcher
from .engine import (
    MatchResult,
    Matcher,
    PreparedRun,
    available_algorithms,
    count_matches,
    create_matcher,
    find_matches,
    invoke_run_sink,
    matcher_kwargs,
    merge_prepare_stats,
    register_algorithm,
    run_prepared,
    supports_partition,
)
from .results import CountEstimate, MatchSet
from .sink_matcher import SinkMatcherBase
from .sinks import (
    BoundedQueueSink,
    CollectSink,
    CountSink,
    ResultSink,
    StopEnumeration,
    TopKEarliestSink,
    build_sink,
    drain_into_sink,
    match_sort_key,
)
from .estimate import estimate_match_count, estimate_with_ci
from .eve import EVEMatcher
from .explain import constraint_slack, explain_match
from .filters import (
    initial_edge_candidate_pairs,
    initial_vertex_candidates,
    ldf,
    nlf,
)
from .match import Match, is_valid_match
from .options import MatchOptions, RunContext
from .partition import check_partition, partition_slice
from .planner import (
    PLAN_CHOICES,
    PlanCosts,
    candidate_edge_orders,
    candidate_vertex_orders,
    choose_edge_order,
    choose_vertex_order,
    plan_costs,
    score_edge_order,
    score_vertex_order,
    validate_plan,
)
from .motifs import count_motif, ordered_motif_constraints
from .render import render_tcq, render_tcq_plus
from .stats import FilterStats, SearchStats
from .tcf import TCF, build_tcf
from .tcq import TCQ, build_tcq, tcq_from_order, vertex_tsup
from .tcq_plus import TCQPlus, build_tcq_plus, edge_tsup, tcq_plus_from_order
from .validate import Diagnostic, lint_pattern
from .timestamps import (
    count_timestamp_assignments,
    iter_timestamp_assignments,
    windows_compatible,
)
from .v2v import V2VMatcher
from .windows import (
    NO_WINDOW,
    build_edge_window_plan,
    constraint_slices,
    feasible_window,
    propagate_run_windows,
    window_slice,
    windowed_times,
)

__all__ = [
    "BoundedQueueSink",
    "BruteForceMatcher",
    "CollectSink",
    "CountEstimate",
    "CountSink",
    "Diagnostic",
    "lint_pattern",
    "E2EMatcher",
    "EVEMatcher",
    "FilterStats",
    "Match",
    "MatchOptions",
    "MatchResult",
    "MatchSet",
    "Matcher",
    "ResultSink",
    "StopEnumeration",
    "TopKEarliestSink",
    "NO_WINDOW",
    "PLAN_CHOICES",
    "PlanCosts",
    "PreparedRun",
    "RunContext",
    "SearchStats",
    "SinkMatcherBase",
    "TCF",
    "TCQ",
    "TCQPlus",
    "V2VMatcher",
    "available_algorithms",
    "brute_force_matches",
    "build_edge_window_plan",
    "build_tcf",
    "build_tcq",
    "build_tcq_plus",
    "candidate_edge_orders",
    "candidate_vertex_orders",
    "check_partition",
    "choose_edge_order",
    "choose_vertex_order",
    "constraint_slack",
    "constraint_slices",
    "count_matches",
    "count_motif",
    "build_sink",
    "drain_into_sink",
    "estimate_match_count",
    "estimate_with_ci",
    "invoke_run_sink",
    "match_sort_key",
    "explain_match",
    "ordered_motif_constraints",
    "count_timestamp_assignments",
    "create_matcher",
    "edge_tsup",
    "feasible_window",
    "find_matches",
    "initial_edge_candidate_pairs",
    "initial_vertex_candidates",
    "is_valid_match",
    "iter_timestamp_assignments",
    "ldf",
    "matcher_kwargs",
    "merge_prepare_stats",
    "nlf",
    "partition_slice",
    "plan_costs",
    "propagate_run_windows",
    "register_algorithm",
    "render_tcq",
    "render_tcq_plus",
    "run_prepared",
    "score_edge_order",
    "score_vertex_order",
    "supports_partition",
    "tcq_from_order",
    "tcq_plus_from_order",
    "validate_plan",
    "vertex_tsup",
    "window_slice",
    "windowed_times",
    "windows_compatible",
]
