"""Seeded inputs and reference answers for the five workloads.

Everything a workload sends is generated here, in the launching process,
before the workload's own process starts: the graph, the patterns, every
request, and the answer each request must get.  The workload process
receives them as JSON lines on its standard input (see :mod:`workloads`),
so its memory holds the service, the front door and the requests, and
none of the state used to make them.

The graphs use a fixed generator seed, so a seed changes which requests
are drawn, not the distribution they are drawn from.  Each workload's
amount of work is fixed by ``seconds`` alone: it is sized to last about
that long at the rates below, measured on a 2-vCPU Linux VM running
CPython 3.11, and both commits of a comparison do the same work.
"""

from __future__ import annotations

import json
import math
import random
from typing import Any

from repro.core import MatchOptions, find_matches
from repro.datasets import extract_instance, load_dataset, paper_workloads
from repro.errors import DatasetError
from repro.graphs import TemporalGraph, pattern_from_dict, pattern_to_dict
from repro.service import ServiceConfig

GRAPH = "g"
DAY = 86_400
ALGORITHMS = ("tcsm-v2v", "tcsm-e2e", "tcsm-eve")
#: Graph generator seed, fixed so every seed sees the same graphs.
GRAPH_SEED = 1
#: Base of the per-request limits that defeat the result cache.
UNIQUE_LIMIT = 1_000_000_000
#: Service shape for a two-core box: at most two workers anywhere.
MAX_WORKERS = 2
#: A reference count no answer can have (``--corrupt-reference``).
WRONG = -1


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def graph_spec(graph: TemporalGraph) -> dict[str, Any]:
    """A graph as plain data the workload process rebuilds it from."""
    return {
        "name": GRAPH,
        "labels": list(graph.labels),
        "edges": [[e.u, e.v, e.t] for e in graph.edges()],
    }


def graph_info(graph: TemporalGraph) -> dict[str, int]:
    return {
        "vertices": graph.num_vertices,
        "temporal_edges": graph.num_temporal_edges,
        "static_edges": graph.num_static_edges,
    }


def count(graph: Any, pattern: dict[str, Any], algorithm: str, codegen: bool) -> int:
    query, constraints = pattern_from_dict(pattern)
    result = find_matches(
        query,
        constraints,
        graph,
        algorithm=algorithm,
        options=MatchOptions(mode="count", collect_matches=False, codegen=codegen),
    )
    return result.num_matches


def template(
    pattern: dict[str, Any],
    algorithm: str,
    codegen: bool = False,
    count_only: bool = False,
    plan: str | None = None,
) -> dict[str, Any]:
    """A query request without its ``id`` and ``limit``."""
    request: dict[str, Any] = {
        "op": "query",
        "graph": GRAPH,
        "pattern": pattern,
        "algorithm": algorithm,
    }
    if codegen:
        request["codegen"] = True
    if count_only:
        request["count_only"] = True
    if plan is not None:
        request["plan"] = plan
    return request


def sized(seconds: float, rate: float, block: int) -> int:
    """Requests for about *seconds* at *rate*, in whole blocks."""
    return block * max(1, math.ceil(seconds * rate / block))


def shuffled_blocks(rng: random.Random, population: int, n: int) -> list[int]:
    """*n* draws uniform over ``range(population)``, as back-to-back
    shuffled permutations: every block holds each class exactly once, so
    the mix a run measures does not change with the seed."""
    order: list[int] = []
    while len(order) < n:
        block = list(range(population))
        rng.shuffle(block)
        order.extend(block)
    return order[:n]


def paper_templates(
    graph: TemporalGraph, gap: int, modes: tuple[bool, ...], count_only: bool
) -> tuple[list[dict[str, Any]], list[int], list[str]]:
    """Templates for the nine (q, tc) patterns x algorithms x *modes*,
    their reference counts, and any disagreements.

    The three algorithms (and codegen) must agree on every pattern; a
    disagreement is reported as a failure of the program under test.
    """
    snapshot = graph.freeze()
    templates: list[dict[str, Any]] = []
    counts: list[int] = []
    problems: list[str] = []
    for qname, tname, query, constraints in paper_workloads(gap=gap):
        pattern = pattern_to_dict(query, constraints)
        seen: set[int] = set()
        for algorithm in ALGORITHMS:
            for codegen in modes:
                n = count(snapshot, pattern, algorithm, codegen)
                seen.add(n)
                templates.append(template(pattern, algorithm, codegen, count_only))
                counts.append(n)
        if len(seen) != 1:
            problems.append(f"{qname}-{tname}: references disagree {sorted(seen)}")
    return templates, counts, problems


def query_header(
    graph: TemporalGraph,
    *,
    pool: str,
    clients: int,
    templates: list[dict[str, Any]],
    counts: list[int | None],
    warmup: list[tuple[int, int]],
    items: list[tuple[int, int]],
    info: dict[str, Any],
    problems: list[str],
) -> dict[str, Any]:
    """Everything a query workload sends.

    ``warmup`` and ``items`` are ``(template, limit)`` pairs; ``counts``
    holds each template's reference count, or None when any count of at
    least 1 is right.
    """
    info = dict(
        info,
        graph=graph_info(graph),
        clients=clients,
        warmup_requests=len(warmup),
        timed_requests=len(items),
    )
    return {
        "kind": "query",
        "graph": graph_spec(graph),
        "service": {"pool": pool, "max_workers": MAX_WORKERS},
        "clients": clients,
        "templates": templates,
        "counts": counts,
        "warmup": warmup,
        "items": items,
        "info": info,
        "problems": problems,
    }


# ----------------------------------------------------------------------
# query workloads
# ----------------------------------------------------------------------
def zipf_weights(n: int, exponent: float) -> list[float]:
    return [1.0 / (rank**exponent) for rank in range(1, n + 1)]


def hot_mix(seed: int, seconds: float, smoke: bool) -> dict[str, Any]:
    """Dashboard steady state: Zipf repeats over 27 keys, 10% misses."""
    graph = load_dataset("CM", scale=0.03 if smoke else None, seed=GRAPH_SEED)
    templates, counts, problems = paper_templates(graph, 7 * DAY, (False,), False)
    rng = random.Random(seed)
    n = sized(seconds, 1400, 1)
    keys = rng.choices(range(len(templates)), zipf_weights(len(templates), 1.1), k=n)
    items = [
        (key, UNIQUE_LIMIT + i if rng.random() < 0.10 else 10)
        for i, key in enumerate(keys)
    ]
    return query_header(
        graph,
        pool="thread",
        clients=2,
        templates=templates,
        counts=counts,
        warmup=[(key, 10) for key in range(len(templates))],
        items=items,
        info={
            "dataset": "CM",
            "gap_days": 7,
            "keys": len(templates),
            "zipf": 1.1,
            "miss_share": 0.10,
        },
        problems=problems,
    )


def enum_heavy(seed: int, seconds: float, smoke: bool) -> dict[str, Any]:
    """Search-dominated: 54 cached plans, every answer freshly counted."""
    graph = load_dataset("EE", scale=0.01 if smoke else None, seed=GRAPH_SEED)
    templates, counts, problems = paper_templates(
        graph, 90 * DAY, (False, True), True
    )
    block = len(templates)
    order = shuffled_blocks(random.Random(seed), block, sized(seconds, 55, block))
    return query_header(
        graph,
        pool="thread",
        clients=2,
        templates=templates,
        counts=counts,
        # limit=1 prepares (and compiles) every plan without enumerating.
        warmup=[(key, 1) for key in range(block)],
        items=[(key, UNIQUE_LIMIT + i) for i, key in enumerate(order)],
        info={"dataset": "EE", "gap_days": 90, "plans": block},
        problems=problems,
    )


class _DegreeTable:
    """A static view whose ``degree`` is a table lookup."""

    def __init__(self, static: Any) -> None:
        self._static = static
        self._degree = [static.degree(v) for v in range(static.num_vertices)]

    def degree(self, v: int) -> int:
        return self._degree[v]

    def __getattr__(self, name: str) -> Any:
        return getattr(self._static, name)


class ExtractionView:
    """A graph view for drawing thousands of ``extract_instance`` patterns.

    ``extract_query`` recomputes every vertex degree on each call, which
    would make pattern generation cost seconds; this view answers the
    degrees from a table built once and delegates everything else.
    """

    def __init__(self, graph: TemporalGraph) -> None:
        self._graph = graph
        self._static = _DegreeTable(graph.de_temporal())

    def de_temporal(self) -> Any:
        return self._static

    def __getattr__(self, name: str) -> Any:
        return getattr(self._graph, name)


#: A pattern shape: (vertices, edges, constraints).
Shape = tuple[int, int, int]


def draw_pattern(
    view: ExtractionView, rng: random.Random, shape: Shape, seen: set[str]
) -> dict[str, Any]:
    """A seeded ``extract_instance`` pattern of *shape* not in *seen*."""
    while True:
        try:
            query, tc = extract_instance(view, *shape, seed=rng.randrange(2**31))
        except DatasetError:
            continue
        pattern = pattern_to_dict(query, tc)
        canonical = json.dumps(pattern, sort_keys=True, default=str)
        if canonical not in seen:
            seen.add(canonical)
            return pattern


#: Plan-churn classes: 4-6 vertices, a tree or one extra edge, 2 or 3
#: constraints, crossed with algorithm and codegen (72 classes).
CHURN_CLASSES: list[tuple[Shape, str, bool]] = [
    ((nv, nv - 1 + extra, nc), algorithm, codegen)
    for nv in (4, 5, 6)
    for extra in (0, 1)
    for nc in (2, 3)
    for algorithm in ALGORITHMS
    for codegen in (False, True)
]
CHURN_WARMUP = 6


def plan_churn(seed: int, seconds: float, smoke: bool) -> dict[str, Any]:
    """Ad-hoc queries: every request a never-seen pattern.

    Each pattern is extracted from the graph, so it has a match by
    construction and any ``match_count`` of at least 1 is right.
    """
    graph = load_dataset("UB", scale=0.004 if smoke else None, seed=GRAPH_SEED)
    view = ExtractionView(graph)
    rng = random.Random(seed)
    seen: set[str] = set()
    block = len(CHURN_CLASSES)
    order = shuffled_blocks(rng, block, CHURN_WARMUP + sized(seconds, 75, block))
    templates = []
    for cls in order:
        shape, algorithm, codegen = CHURN_CLASSES[cls]
        pattern = draw_pattern(view, rng, shape, seen)
        templates.append(template(pattern, algorithm, codegen, plan="cost"))
    return query_header(
        graph,
        pool="thread",
        clients=2,
        templates=templates,
        counts=[None] * len(templates),
        warmup=[(i, 100) for i in range(CHURN_WARMUP)],
        items=[(i, 100) for i in range(CHURN_WARMUP, len(templates))],
        info={
            "dataset": "UB",
            "classes": block,
            "plan_cache_size": ServiceConfig().plan_cache_size,
        },
        problems=[],
    )


def process_fanout(seed: int, seconds: float, smoke: bool) -> dict[str, Any]:
    """The fork-per-query process pool over a shared-memory graph."""
    graph = load_dataset("CM", scale=0.03 if smoke else None, seed=GRAPH_SEED)
    templates, counts, problems = paper_templates(graph, 7 * DAY, (False,), False)
    block = len(templates)
    order = shuffled_blocks(random.Random(seed), block, sized(seconds, 48, block))
    return query_header(
        graph,
        pool="process",
        clients=1,
        templates=templates,
        counts=counts,
        warmup=[(key, 1) for key in range(len(templates))],
        items=[(key, UNIQUE_LIMIT + i) for i, key in enumerate(order)],
        info={
            "dataset": "CM",
            "gap_days": 7,
            "pool": "process",
            "keys": len(templates),
        },
        problems=problems,
    )


QUERY_WORKLOADS = {
    "hot-mix": hot_mix,
    "enum-heavy": enum_heavy,
    "plan-churn": plan_churn,
    "process-fanout": process_fanout,
}


# ----------------------------------------------------------------------
# stream-ingest
# ----------------------------------------------------------------------
#: Edges per ingest request, and the stream's perturbations.
BATCH = 64
LATE_SHARE = 0.05
DUPLICATE_SHARE = 0.01
#: How far (in stream positions) a late or duplicate edge is displaced.
DISPLACEMENT = 256
SUBSCRIPTIONS = 4
#: Standing patterns: 3 vertices, 2 edges, 1 constraint, emitting within
#: this band over one pass of the stream, so rounds cost alike.
STREAM_SHAPE: Shape = (3, 2, 1)
EMISSIONS = (100, 2_000)
#: Batch time of one round (one pass over the stream) on the machine the
#: rates above come from; a run makes ``seconds / ROUND_SECONDS`` rounds.
ROUND_SECONDS = 2.5


def stream_ingest(
    seed: int, seconds: float, smoke: bool
) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """The base graph, then one line per round: each round's standing
    patterns with their expected emissions and its perturbed stream.

    Every round is the same pass over the stream, with its own patterns
    and its own late and duplicate edges.  A run makes at least two
    rounds, so a traced run has an untraced one to compare with.
    """
    full = load_dataset("CM", scale=0.03 if smoke else 1.0, seed=GRAPH_SEED)
    ordered = full.edges_by_time()
    cut = len(ordered) // 5
    base = TemporalGraph(full.labels, ordered[:cut])
    rest = [[e.u, e.v, e.t] for e in ordered[cut:]]
    view = ExtractionView(base)
    full_snapshot, base_snapshot = full.freeze(), base.freeze()
    rng = random.Random(seed)
    lo, hi = EMISSIONS if not smoke else (1, EMISSIONS[1])

    def draw_round() -> dict[str, Any]:
        patterns: list[dict[str, Any]] = []
        emissions: list[int] = []
        seen: set[str] = set()
        while len(patterns) < SUBSCRIPTIONS:
            pattern = draw_pattern(view, rng, STREAM_SHAPE, seen)
            delta = count(full_snapshot, pattern, "tcsm-eve", False) - count(
                base_snapshot, pattern, "tcsm-eve", False
            )
            if lo <= delta <= hi:
                patterns.append(pattern)
                emissions.append(delta)
        keyed: list[tuple[float, list[int]]] = []
        duplicates = 0
        for position, edge in enumerate(rest):
            late = rng.random() < LATE_SHARE
            delay = rng.randint(1, DISPLACEMENT) if late else 0
            keyed.append((position + delay, edge))
            if rng.random() < DUPLICATE_SHARE:
                duplicates += 1
                keyed.append((position + rng.randint(1, DISPLACEMENT) + 0.5, edge))
        keyed.sort(key=lambda item: item[0])
        return {
            "patterns": patterns,
            "emissions": emissions,
            "edges": [edge for _, edge in keyed],
            "new_edges": len(rest),
            "duplicates": duplicates,
        }

    rounds = [draw_round() for _ in range(max(2, math.ceil(seconds / ROUND_SECONDS)))]
    header = {
        "kind": "stream",
        "graph": graph_spec(base),
        "service": {"max_workers": MAX_WORKERS},
        "rounds": len(rounds),
        "batch": BATCH,
        "queue_capacity": EMISSIONS[1],
        "info": {
            "dataset": "CM",
            "scale": 0.03 if smoke else 1.0,
            "graph": graph_info(full),
            "base_edges": base.num_temporal_edges,
            "stream_edges": len(rest),
            "batch_edges": BATCH,
            "subscriptions": SUBSCRIPTIONS,
            "late_share": LATE_SHARE,
            "duplicate_share": DUPLICATE_SHARE,
            "rounds": len(rounds),
        },
    }
    return header, rounds


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def make_inputs(
    name: str, seed: int, seconds: float, smoke: bool, corrupt: bool
) -> list[str]:
    """The JSON lines a workload process reads: a header, then (for
    stream-ingest) one line per round.

    *corrupt* makes one reference answer wrong, so a run must fail.
    """
    rounds: list[dict[str, Any]] = []
    if name == "stream-ingest":
        header, rounds = stream_ingest(seed, seconds, smoke)
        if corrupt:
            rounds[0]["emissions"][0] += 1
    else:
        header = QUERY_WORKLOADS[name](seed, seconds, smoke)
        if corrupt:
            header["counts"][header["items"][0][0]] = WRONG
    return [json.dumps(line) for line in (header, *rounds)]
