"""Compiled vs interpreted enumerators: the codegen record and its floor.

``MatchOptions(codegen=True)`` swaps the interpreted DFS for a
specialised enumeration function generated per (query shape, matching
order, window plan) — constraint checks unrolled, dead branches elided,
STN-closure window bounds inlined as constants.  That machinery only
earns its keep if it is actually faster.  Two workloads, each run in
count mode under both enumerators of all three TCSM matchers:

* **dense** — the Exp-1-style dense graph ``bench_topk.py`` uses (~80
  vertices, out-degree 12, ten timestamps per pair) and a three-edge
  A-B-A-B path: a few hundred thousand matches.  The compiled
  ``tcsm-eve`` run must finish at least ``MIN_SPEEDUP``x faster than the
  interpreted one (compile time excluded — a prepare-time cost paid once
  per cached plan, reported separately), with the same match count.
* **enum-heavy** — the suite's enum-heavy plans: the nine paper (q, tc)
  patterns on the EE stand-in at a 90-day gap.  Reported per algorithm,
  summed over the nine patterns.

Every run's match count, ``timestamps_expanded``/``timestamps_skipped``
and filter counters are deterministic; ``--check`` recomputes them and
compares against the committed ``BENCH_codegen.json``, with no timing
bar (timing on shared hosts is too noisy to gate on).  Interpreted and
compiled runs must also agree with each other.

Runs standalone::

    PYTHONPATH=src python benchmarks/bench_codegen.py --check --out /tmp/codegen.json
    PYTHONPATH=src python benchmarks/bench_codegen.py

The first form exits non-zero on a counter mismatch and writes its
report to ``--out``.  The second, a full timed run, also exits non-zero
below the floor and overwrites the record, keeping its ``parent`` block
(the same script's measurement of the commit before the candidate-space
slot index).  Under pytest the floor and the counter check run.
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

#: The matcher held to the speedup floor (and measured for context).
ALGORITHM = "tcsm-eve"
ALGORITHMS = ("tcsm-eve", "tcsm-e2e", "tcsm-v2v")

#: Floor pinned by the issue: the compiled enumerator must be >= 1.3x
#: faster than the interpreted matcher on the same prepared plan.
MIN_SPEEDUP = 1.3

#: Timed runs per (plan, enumerator); the best one counts.
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
    codegen: bool,
    repeats: int,
) -> tuple[float, MatchResult]:
    """Best wall clock of *repeats* count runs of one prepared plan."""
    matcher = prepare(
        query, constraints, graph, algorithm, options=MatchOptions(codegen=codegen)
    )
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
    """Interpreted vs compiled count runs on the dense workload."""
    graph = dense_graph()
    query, constraints = _dense_instance()
    seconds: dict[str, dict[str, float]] = {}
    counters: dict[str, dict[str, object]] = {}
    for algorithm in ALGORITHMS:
        key = algorithm.replace("tcsm-", "")
        row: dict[str, float] = {}
        for codegen in (False, True):
            mode = "codegen" if codegen else "interp"
            row[mode], result = _best_run(
                query, constraints, graph, algorithm, codegen, repeats
            )
            counters[f"dense/{key}/{mode}"] = _counters(result.stats)
        row["speedup"] = row["interp"] / max(1e-9, row["codegen"])
        seconds[key] = row
    # Compile cost, reported separately: a one-off prepare-time expense
    # amortised by the service's plan cache (compile once per PlanKey).
    started = time.perf_counter()
    matcher = prepare(
        query, constraints, graph, ALGORITHM, options=MatchOptions(codegen=True)
    )
    compile_seconds = time.perf_counter() - started
    source = getattr(matcher, "compiled_source", None)
    assert source is not None
    return {
        "temporal_edges": graph.num_temporal_edges,
        "seconds": seconds,
        "compile_seconds": compile_seconds,
        "compiled_source_lines": source.count("\n"),
        "counters": counters,
    }


def measure_enum_heavy(repeats: int = REPEATS) -> dict[str, Any]:
    """Seconds per algorithm and enumerator over the nine paper patterns."""
    graph = load_dataset(ENUM_DATASET, seed=1).freeze()
    seconds: dict[str, dict[str, float]] = {
        algorithm.replace("tcsm-", ""): {"interp": 0.0, "codegen": 0.0}
        for algorithm in ALGORITHMS
    }
    counters: dict[str, dict[str, object]] = {}
    for qname, tname, query, constraints in paper_workloads(
        gap=ENUM_GAP_DAYS * DAY
    ):
        for algorithm in ALGORITHMS:
            key = algorithm.replace("tcsm-", "")
            for codegen in (False, True):
                mode = "codegen" if codegen else "interp"
                best, result = _best_run(
                    query, constraints, graph, algorithm, codegen, repeats
                )
                seconds[key][mode] += best
                counters[f"enum_heavy/{qname}-{tname}/{key}/{mode}"] = _counters(
                    result.stats
                )
    for row in seconds.values():
        row["speedup"] = row["interp"] / max(1e-9, row["codegen"])
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
    return {
        "min_speedup": MIN_SPEEDUP,
        "dense": dense,
        "enum_heavy": enum_heavy,
        "counters": counters,
    }


def floor_failures(
    seconds: dict[str, dict[str, float]], counters: dict[str, Any]
) -> list[str]:
    """The speedup floor and same-answer bar on the dense workload."""
    failures: list[str] = []
    key = ALGORITHM.replace("tcsm-", "")
    speedup = seconds[key]["speedup"]
    if speedup < MIN_SPEEDUP:
        failures.append(
            f"codegen speedup {speedup:.2f}x on {ALGORITHM} is below the "
            f"{MIN_SPEEDUP:.1f}x floor over the interpreted matcher"
        )
    for algorithm in ALGORITHMS:
        akey = algorithm.replace("tcsm-", "")
        interp = counters[f"dense/{akey}/interp"]["matches"]
        compiled = counters[f"dense/{akey}/codegen"]["matches"]
        if interp != compiled:
            failures.append(
                f"{algorithm} compiled run counted {compiled} matches, "
                f"interpreted counted {interp}"
            )
    return failures


def counter_failures(
    counters: dict[str, Any], record: dict[str, Any]
) -> list[str]:
    """Counter mismatches against *record*, and between the enumerators."""
    failures: list[str] = []
    want = record["counters"]
    for key in sorted(set(counters) | set(want)):
        if counters.get(key) != want.get(key):
            failures.append(
                f"{key}: {counters.get(key)}, record has {want.get(key)}"
            )
        if key.endswith("/codegen"):
            interp = key[: -len("codegen")] + "interp"
            if counters.get(key) != counters.get(interp):
                failures.append(f"{key} differs from {interp}")
    return failures


def load_record(path: Path = RECORD_PATH) -> dict[str, Any]:
    with path.open(encoding="utf-8") as handle:
        return json.load(handle)


def test_codegen_speedup_floor() -> None:
    dense = measure_dense()
    failures = floor_failures(dense["seconds"], dense["counters"])
    assert failures == [], failures


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
        for key, row in point["seconds"].items():
            print(
                f"{name:10s} {key}: interpreted {row['interp']:.3f}s / "
                f"compiled {row['codegen']:.3f}s ({row['speedup']:.2f}x)"
            )
    print(
        f"compile cost: {dense['compile_seconds']:.3f}s for "
        f"{dense['compiled_source_lines']} generated lines"
    )
    if args.check:
        failures = counter_failures(report["counters"], load_record())
        if not failures:
            print(f"counters match {RECORD_PATH.name}")
    else:
        failures = floor_failures(dense["seconds"], report["counters"])
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
