"""Prepare cost per pattern: STN closure, NLF/LDF filters, planner.

Plan-churn traffic (every request a never-seen pattern) pays a full
``prepare`` per request, and the candidate filters (the paper's Defs.
6-7: NLF for V2V, LDF for E2E/EVE) are most of it.  This benchmark draws
patterns from the sx-askubuntu (UB) stand-in exactly as the suite's
plan-churn workload does (``benchmarks/suite/inputs.py``: 4-6 vertices,
a tree or one extra edge, 2 or 3 constraints, each extracted from the
graph), and times ``repro.api.prepare`` with ``plan="cost"`` on every
pattern for each TCSM algorithm.

The report carries, per algorithm, the mean and median prepare time
per pattern, and the total ``nlf`` / ``ldf`` filter counters over all
prepares.  The counters are deterministic: the check mode
(``--check``) recomputes them and compares the totals against the
committed ``BENCH_prepare.json`` record, with no timing bar (timing on
shared hosts is too noisy to gate on).

Runs standalone::

    PYTHONPATH=src python benchmarks/bench_prepare.py --check --out /tmp/prepare.json
    PYTHONPATH=src python benchmarks/bench_prepare.py

The first form exits non-zero on a counter mismatch and writes its
report to ``--out``.  The second, a full timed run, overwrites the
record (keeping its ``parent`` block: the same script's measurement of
the commit before the array-level filters).  Under pytest only the
counter check runs.
"""

import argparse
import json
import random
import statistics
import time
from pathlib import Path
from typing import Any

from bench_service import _environment
from suite.inputs import CHURN_CLASSES, GRAPH_SEED, ExtractionView, draw_pattern

from repro.api import prepare
from repro.core import MatchOptions
from repro.datasets import load_dataset
from repro.graphs import TemporalGraph, pattern_from_dict

RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_prepare.json"

SEED = 1
DATASET = "UB"
#: Patterns drawn per plan-churn shape (12 shapes).
PATTERNS_PER_SHAPE = 4
ALGORITHMS = ("tcsm-v2v", "tcsm-e2e", "tcsm-eve")
#: Timed prepares per (pattern, algorithm); the best one counts.
REPEATS = 3
#: The candidate filters whose counters the record pins.
FILTERS = ("nlf", "ldf")


def _shapes() -> list[tuple[int, int, int]]:
    """The distinct plan-churn pattern shapes, in class order."""
    shapes: list[tuple[int, int, int]] = []
    for shape, _, _ in CHURN_CLASSES:
        if shape not in shapes:
            shapes.append(shape)
    return shapes


def workload(seed: int = SEED, repeats: int = REPEATS) -> dict[str, object]:
    """What :func:`measure` runs, for the report's ``workload`` block."""
    return {
        "dataset": DATASET,
        "graph_seed": GRAPH_SEED,
        "pattern_seed": seed,
        "shapes": [list(shape) for shape in _shapes()],
        "patterns_per_shape": PATTERNS_PER_SHAPE,
        "algorithms": list(ALGORITHMS),
        "plan": "cost",
        "repeats": repeats,
    }


def patterns(seed: int = SEED) -> tuple[TemporalGraph, list[dict[str, Any]]]:
    """The UB graph and the plan-churn-shaped patterns drawn from it."""
    graph = load_dataset(DATASET, seed=GRAPH_SEED)
    view = ExtractionView(graph)
    rng = random.Random(seed)
    seen: set[str] = set()
    drawn = [
        draw_pattern(view, rng, shape, seen)
        for shape in _shapes()
        for _ in range(PATTERNS_PER_SHAPE)
    ]
    return graph, drawn


def measure(seed: int = SEED, repeats: int = REPEATS) -> dict[str, Any]:
    """Per-algorithm prepare times and the total filter counters."""
    graph, drawn = patterns(seed)
    snapshot = graph.freeze()  # compile once, outside the timed region
    parsed = [pattern_from_dict(pattern) for pattern in drawn]
    configs: dict[str, dict[str, float]] = {}
    totals = {name: {"considered": 0, "pruned": 0} for name in FILTERS}
    options = MatchOptions(plan="cost")
    for algorithm in ALGORITHMS:
        times: list[float] = []
        for query, constraints in parsed:
            best = float("inf")
            for _ in range(repeats):
                started = time.perf_counter()
                matcher = prepare(
                    query, constraints, snapshot, algorithm, options=options
                )
                best = min(best, time.perf_counter() - started)
            times.append(best)
            for name, bucket in matcher.prepare_stats.filters.items():
                if name in totals:
                    totals[name]["considered"] += bucket.considered
                    totals[name]["pruned"] += bucket.pruned
        configs[algorithm] = {
            "mean_ms": statistics.fmean(times) * 1e3,
            "median_ms": statistics.median(times) * 1e3,
        }
    every = [row["mean_ms"] for row in configs.values()]
    return {
        "patterns": len(drawn),
        "prepares": len(drawn) * len(configs),
        "mean_ms": statistics.fmean(every),
        "configs": configs,
        "filters": totals,
    }


def load_record(path: Path = RECORD_PATH) -> dict[str, Any]:
    with path.open(encoding="utf-8") as handle:
        return json.load(handle)


def check(report: dict[str, Any], record: dict[str, Any]) -> list[str]:
    """Counter mismatches against *record* (empty when all agree)."""
    failures: list[str] = []
    if report["patterns"] != record["patterns"]:
        failures.append(
            f"{report['patterns']} patterns drawn, record has "
            f"{record['patterns']}"
        )
    for name in FILTERS:
        for field in ("considered", "pruned"):
            got = report["filters"][name][field]
            want = record["filters"][name][field]
            if got != want:
                failures.append(f"{name}.{field} = {got}, record has {want}")
    return failures


def test_filter_counters_against_record() -> None:
    report = measure(repeats=1)
    failures = check(report, load_record())
    assert failures == [], failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="one timed prepare per pattern; check the filter counters "
        "against the record and leave the record alone",
    )
    parser.add_argument(
        "--out", type=Path, default=None,
        help=f"where to write the report (default: {RECORD_PATH.name}, "
        "or nowhere with --check)",
    )
    args = parser.parse_args(argv)
    repeats = 1 if args.check else REPEATS
    report = measure(repeats=repeats)
    for key, row in report["configs"].items():
        print(
            f"{key:20s} mean {row['mean_ms']:6.2f} ms  "
            f"median {row['median_ms']:6.2f} ms"
        )
    print(f"{'all':20s} mean {report['mean_ms']:6.2f} ms per pattern")
    for name, bucket in report["filters"].items():
        print(f"{name}: considered {bucket['considered']}, pruned {bucket['pruned']}")
    failures = check(report, load_record()) if args.check else []
    for failure in failures:
        print(f"MISMATCH: {failure}")
    if args.check and not failures:
        print(f"filter counters match {RECORD_PATH.name}")
    out = args.out
    if out is None and not args.check:
        out = RECORD_PATH
    if out is not None:
        record: dict[str, Any] = {
            "environment": _environment(),
            "workload": workload(repeats=repeats),
            **report,
        }
        if out.exists():
            parent = load_record(out).get("parent")
            if parent is not None:
                record["parent"] = parent
        out.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {out}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
