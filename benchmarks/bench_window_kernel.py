"""Window-bisect kernel: timestamps materialised, by gap, against a record.

The paper's Exp-10 sweeps the constraint gap ``k``: small gaps mean each
candidate pair's sorted timestamp run contains mostly-infeasible times,
which expand-then-filter loops materialise and reject one by one.  The
window kernel (:mod:`repro.core.windows`) bisects each run to its
feasible ``[lo, hi]`` slice instead, so the work it saves *grows* as
gaps tighten.

The matchers no longer have a kernel-off path, so the comparison is
against ``BENCH_window_kernel.json``: the last measurement of both paths
(on the medium CollegeMsg stand-in, over the same Exp-10-style sweep),
frozen with its environment.  Per gap, the current run must:

* find exactly the recorded number of matches;
* materialise at most the recorded kernel-on count of timestamps;
* materialise at least ``MIN_EXPANSION_REDUCTION``x fewer timestamps
  than the recorded kernel-off count.

Runs standalone (``python benchmarks/bench_window_kernel.py``, exits
non-zero on regression, ``--out report.json`` writes the report) and
under pytest.
"""

import argparse
import json
import time
from pathlib import Path

from repro.core import MatchOptions, find_matches
from repro.datasets import load_dataset, paper_constraints, paper_query
from repro.graphs import ensure_snapshot

#: The frozen two-path measurement this benchmark checks against.
RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_window_kernel.json"

#: Floor: the kernel must at least halve the timestamps materialised
#: relative to the recorded kernel-off count, at every gap.
MIN_EXPANSION_REDUCTION = 2.0

REPEATS = 3


def load_record(path: Path = RECORD_PATH) -> dict[str, object]:
    with path.open(encoding="utf-8") as handle:
        return json.load(handle)


def measure(record: dict[str, object] | None = None) -> dict[str, object]:
    """The recorded gap sweep, kernel on, as a flat report dict."""
    record = record if record is not None else load_record()
    workload = record["workload"]
    assert isinstance(workload, dict)
    graph = ensure_snapshot(
        load_dataset(
            workload["dataset"], scale=workload["scale"], seed=workload["seed"]
        )
    )
    query = paper_query(1)

    sweep: list[dict[str, float]] = []
    for gap in workload["gaps"]:
        constraints = paper_constraints(
            2, num_edges=query.num_edges, gap=gap
        )
        best_seconds = float("inf")
        for _ in range(REPEATS):
            started = time.perf_counter()
            result = find_matches(
                query,
                constraints,
                graph,
                algorithm=workload["algorithm"],
                options=MatchOptions(collect_matches=False),
            )
            best_seconds = min(best_seconds, time.perf_counter() - started)
        sweep.append(
            {
                "gap": float(gap),
                "matches": float(result.stats.matches),
                "expanded_on": float(result.stats.timestamps_expanded),
                "skipped_on": float(result.stats.timestamps_skipped),
                "seconds_on": best_seconds,
            }
        )
    return {
        "algorithm": workload["algorithm"],
        "temporal_edges": float(graph.num_temporal_edges),
        "sweep": sweep,
        "expanded_on": sum(row["expanded_on"] for row in sweep),
        "seconds_on": sum(row["seconds_on"] for row in sweep),
    }


def check(
    report: dict[str, object], record: dict[str, object] | None = None
) -> list[str]:
    """Regression messages (empty when every gap meets the record)."""
    record = record if record is not None else load_record()
    frozen = {row["gap"]: row for row in record["sweep"]}  # type: ignore[union-attr]
    failures: list[str] = []
    for row in report["sweep"]:  # type: ignore[union-attr]
        gap = row["gap"]
        want = frozen[gap]
        if row["matches"] != want["matches"]:
            failures.append(
                f"k={gap:.0f}: {row['matches']:.0f} matches, record has "
                f"{want['matches']:.0f}"
            )
        if row["expanded_on"] > want["expanded_on"]:
            failures.append(
                f"k={gap:.0f}: {row['expanded_on']:.0f} timestamps "
                f"expanded, above the recorded {want['expanded_on']:.0f}"
            )
        ceiling = want["expanded_off"] / MIN_EXPANSION_REDUCTION
        if row["expanded_on"] > ceiling:
            failures.append(
                f"k={gap:.0f}: {row['expanded_on']:.0f} timestamps "
                f"expanded, less than {MIN_EXPANSION_REDUCTION:.0f}x below "
                f"the recorded kernel-off {want['expanded_off']:.0f}"
            )
    return failures


def test_window_kernel_expansion_against_record() -> None:
    record = load_record()
    report = measure(record)
    assert check(report, record) == [], check(report, record)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=str, default=None,
        help="also write the JSON report to this path",
    )
    args = parser.parse_args(argv)
    record = load_record()
    report = measure(record)
    frozen = {row["gap"]: row for row in record["sweep"]}  # type: ignore[union-attr]
    print(f"algorithm:          {report['algorithm']}")
    print(f"temporal edges:     {report['temporal_edges']:.0f}")
    print("gap sweep (expanded now / recorded on / recorded off, seconds):")
    for row in report["sweep"]:  # type: ignore[union-attr]
        want = frozen[row["gap"]]
        print(
            f"  k={row['gap']:>8.0f}: {row['expanded_on']:>7.0f} / "
            f"{want['expanded_on']:>7.0f} / {want['expanded_off']:>7.0f}   "
            f"{row['seconds_on'] * 1e3:>7.1f} ms   "
            f"({row['matches']:.0f} matches)"
        )
    failures = check(report, record)
    for failure in failures:
        print(f"REGRESSION: {failure}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
        print(f"wrote report -> {args.out}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
