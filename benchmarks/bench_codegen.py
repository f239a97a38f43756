"""The generated enumerators' record: counters pinned, seconds reported.

Every V2V, E2E and EVE plan runs the one enumerator
:mod:`repro.core.codegen` writes for its query shape.  Two workloads,
each run in count mode under all three TCSM matchers:

* **dense** — the Exp-1-style dense graph ``bench_topk.py`` uses (~80
  vertices, out-degree 12, ten timestamps per pair) and a three-edge
  A-B-A-B path: a few hundred thousand matches.
* **enum-heavy** — the suite's enum-heavy plans: the nine paper (q, tc)
  patterns on the EE stand-in at a 90-day gap.  Reported per algorithm,
  summed over the nine patterns.

Every run's match count, ``timestamps_expanded``/``timestamps_skipped``
and filter counters are deterministic; ``--check`` recomputes them and
compares against the committed ``BENCH_codegen.json``, with no timing
bar (timing on shared hosts is too noisy to gate on).

Runs standalone::

    PYTHONPATH=src python benchmarks/bench_codegen.py --check --out /tmp/codegen.json
    PYTHONPATH=src python benchmarks/bench_codegen.py

The first form exits non-zero on a counter mismatch and writes its
report to ``--out``.  The second, a full timed run, overwrites the
record, keeping its ``parent`` block (the same script's measurement of
an earlier commit).  Under pytest the counter check runs.
"""

import argparse
import json
import time
from pathlib import Path
from typing import Any

from bench_service import _environment
from bench_topk import GAP, GRAPH_SEED, NUM_VERTICES, OUT_DEGREE, TIMES_PER_PAIR
from bench_topk import dense_graph

from repro.api import prepare
from repro.core import MatchOptions, MatchResult, SearchStats, find_matches
from repro.datasets import load_dataset, paper_workloads
from repro.graphs import QueryGraph, TemporalConstraints

RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_codegen.json"

ALGORITHMS = ("tcsm-eve", "tcsm-e2e", "tcsm-v2v")

#: Timed runs per plan; the best one counts.
REPEATS = 2

#: The enum-heavy point: the suite's graph and gap.
ENUM_DATASET = "EE"
ENUM_GAP_DAYS = 90
DAY = 86_400


def workload(repeats: int = REPEATS) -> dict[str, object]:
    """What :func:`measure` runs, for the report's ``workload`` block."""
    return {
        "dense": {
            "vertices": NUM_VERTICES,
            "out_degree": OUT_DEGREE,
            "times_per_pair": TIMES_PER_PAIR,
            "graph_seed": GRAPH_SEED,
            "query": "A-B-A-B path",
            "gap": GAP,
        },
        "enum_heavy": {
            "dataset": ENUM_DATASET,
            "graph_seed": 1,
            "patterns": "paper q1-q3 x tc1-tc3",
            "gap_days": ENUM_GAP_DAYS,
        },
        "algorithms": list(ALGORITHMS),
        "mode": "count",
        "repeats": repeats,
    }


def _counters(stats: SearchStats) -> dict[str, object]:
    """The deterministic counters of one run."""
    return {
        "matches": stats.matches,
        "timestamps_expanded": stats.timestamps_expanded,
        "timestamps_skipped": stats.timestamps_skipped,
        "filters": {
            name: {"considered": bucket.considered, "pruned": bucket.pruned}
            for name, bucket in sorted(stats.filters.items())
        },
    }


def _best_run(
    query: QueryGraph,
    constraints: TemporalConstraints,
    graph: Any,
    algorithm: str,
    repeats: int,
) -> tuple[float, MatchResult]:
    """Best wall clock of *repeats* count runs of one prepared plan."""
    matcher = prepare(query, constraints, graph, algorithm)
    options = MatchOptions(mode="count")
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = find_matches(
            query, constraints, graph, options=options, matcher=matcher
        )
        best = min(best, time.perf_counter() - started)
    assert result is not None
    return best, result


def _dense_instance() -> tuple[QueryGraph, TemporalConstraints]:
    query = QueryGraph(["A", "B", "A", "B"], [(0, 1), (1, 2), (2, 3)])
    constraints = TemporalConstraints(
        [(0, 1, GAP), (1, 2, GAP)], num_edges=query.num_edges
    )
    return query, constraints


def measure_dense(repeats: int = REPEATS) -> dict[str, Any]:
    """Count runs of each algorithm on the dense workload."""
    graph = dense_graph()
    query, constraints = _dense_instance()
    seconds: dict[str, float] = {}
    counters: dict[str, dict[str, object]] = {}
    for algorithm in ALGORITHMS:
        key = algorithm.replace("tcsm-", "")
        seconds[key], result = _best_run(
            query, constraints, graph, algorithm, repeats
        )
        counters[f"dense/{key}"] = _counters(result.stats)
    return {
        "temporal_edges": graph.num_temporal_edges,
        "seconds": seconds,
        "counters": counters,
    }


def measure_enum_heavy(repeats: int = REPEATS) -> dict[str, Any]:
    """Seconds per algorithm over the nine paper patterns."""
    graph = load_dataset(ENUM_DATASET, seed=1).freeze()
    seconds = {algorithm.replace("tcsm-", ""): 0.0 for algorithm in ALGORITHMS}
    counters: dict[str, dict[str, object]] = {}
    for qname, tname, query, constraints in paper_workloads(
        gap=ENUM_GAP_DAYS * DAY
    ):
        for algorithm in ALGORITHMS:
            key = algorithm.replace("tcsm-", "")
            best, result = _best_run(query, constraints, graph, algorithm, repeats)
            seconds[key] += best
            counters[f"enum_heavy/{qname}-{tname}/{key}"] = _counters(
                result.stats
            )
    return {
        "temporal_edges": graph.num_temporal_edges,
        "seconds": seconds,
        "counters": counters,
    }


def measure(repeats: int = REPEATS) -> dict[str, Any]:
    """Both workloads; the counters of every run gathered in one map."""
    dense = measure_dense(repeats)
    enum_heavy = measure_enum_heavy(repeats)
    counters = {**dense.pop("counters"), **enum_heavy.pop("counters")}
    return {"dense": dense, "enum_heavy": enum_heavy, "counters": counters}


def counter_failures(
    counters: dict[str, Any], record: dict[str, Any]
) -> list[str]:
    """Counter mismatches against *record*."""
    want = record["counters"]
    return [
        f"{key}: {counters.get(key)}, record has {want.get(key)}"
        for key in sorted(set(counters) | set(want))
        if counters.get(key) != want.get(key)
    ]


def load_record(path: Path = RECORD_PATH) -> dict[str, Any]:
    with path.open(encoding="utf-8") as handle:
        return json.load(handle)


def test_counters_against_record() -> None:
    report = measure(repeats=1)
    failures = counter_failures(report["counters"], load_record())
    assert failures == [], failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="one timed run per plan; check the counters against the "
        "record, no timing bar, and leave the record alone",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help=f"where to write the report (default: {RECORD_PATH.name}, "
        "or nowhere with --check)",
    )
    args = parser.parse_args(argv)
    repeats = 1 if args.check else REPEATS
    report = measure(repeats)
    dense, enum_heavy = report["dense"], report["enum_heavy"]
    print(f"dense: {dense['temporal_edges']} temporal edges")
    for name, point in (("dense", dense), ("enum-heavy", enum_heavy)):
        for key, seconds in point["seconds"].items():
            print(f"{name:10s} {key}: {seconds:.3f}s")
    failures: list[str] = []
    if args.check:
        failures = counter_failures(report["counters"], load_record())
        if not failures:
            print(f"counters match {RECORD_PATH.name}")
    for failure in failures:
        print(f"REGRESSION: {failure}")
    out = args.out
    if out is None and not args.check:
        out = RECORD_PATH
    if out is not None:
        record: dict[str, Any] = {
            "environment": _environment(),
            "workload": workload(repeats),
            **report,
        }
        if out.exists():
            parent = load_record(out).get("parent")
            if parent is not None:
                record["parent"] = parent
        out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {out}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
