"""Environment record, printed tables, and ``--compare`` for the suite."""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
from pathlib import Path
from typing import Any

#: Fewer runs than this on either side of a comparison is unresolved.
MIN_RUNS = 3


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, seed: int, seconds: float, smoke: bool) -> dict[str, Any]:
    return {
        "commit": git_commit(root),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
    }


def print_environment(env: dict[str, Any]) -> None:
    print(
        f"commit {env['commit'][:12]}  python {env['python']}  "
        f"nproc {env['nproc']}  seed {env['seed']}  "
        f"seconds {env['seconds']}{'  (smoke)' if env['smoke'] else ''}"
    )


def print_record(record: dict[str, Any]) -> None:
    """One workload's metrics, checks, workload facts and layer table."""
    mode = "traced" if record["trace"] else "untraced"
    print(f"\n== {record['workload']} (seed {record['seed']}, {mode}) ==")
    for name, metric in record["metrics"].items():
        print(
            f"  {name:<36} {metric['value']:>14.6g} {metric['unit']:<8}"
            f" n={metric['samples']}"
        )
    print(
        f"  checks: {record['attempted']} attempted, {record['failed']} failed"
        f" ({'correct' if record['correct'] else 'INCORRECT'})"
    )
    for failure in record["failures"]:
        print(f"    FAIL {failure}")
    print("  workload: " + json.dumps(record["workload_info"], sort_keys=True))
    layers = record.get("layers")
    if layers:
        total = sum(row["self_ms_per_request"] for row in layers.values())
        print(f"  {'layer':<10} {'calls':>9} {'self ms/req':>12} {'share':>7}")
        for layer, row in layers.items():
            share = row["self_ms_per_request"] / total if total else 0.0
            print(
                f"  {layer:<10} {row['calls']:>9} "
                f"{row['self_ms_per_request']:>12.4f} {share:>7.1%}"
            )


def result_line(records: list[dict[str, Any]]) -> dict[str, Any]:
    """The last stdout line: one workload's metrics, or for several
    workloads each metric as ``<workload>/<metric>`` (median of repeats)."""
    if len(records) == 1:
        metrics = {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in records[0]["metrics"].items()
        }
    else:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for record in records:
            for name, m in record["metrics"].items():
                key = f"{record['workload']}/{name}"
                values.setdefault(key, []).append(m["value"])
                units[key] = m["unit"]
        metrics = {
            key: {"value": statistics.median(vals), "unit": units[key]}
            for key, vals in values.items()
        }
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(q1: float, median: float, q3: float) -> float:
    """Interquartile range as a share of the median."""
    return (q3 - q1) / abs(median) if median else 0.0


def beats_every(new: list[float], base: list[float], lower_better: bool) -> bool:
    """Whether every new run reads better than every base run."""
    if lower_better:
        return max(new) < min(base)
    return min(new) > max(base)


def verdict(
    base: list[float], new: list[float], bound: float | None, lower_better: bool
) -> tuple[str, float]:
    """Verdict and signed change of the median (positive = worse).

    Within the bound: unchanged, unless either side's run-to-run spread
    (interquartile range over median) is wider than the bound; then a
    regression could hide in the noise, and the verdict is unresolved
    unless every new run beats every base run.  Beyond the bound, better
    or worse only when the two sides' quartile ranges do not overlap;
    otherwise unresolved.  Metrics without a bound (per-layer) are
    judged by the overlap alone.
    """
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    change = (nm - bm) / abs(bm) if bm else (0.0 if nm == bm else float("inf"))
    if not lower_better:
        change = -change
    if len(base) < MIN_RUNS or len(new) < MIN_RUNS:
        return "unresolved", change
    if bound is not None and abs(change) <= bound:
        noisy = spread(b1, bm, b3) > bound or spread(n1, nm, n3) > bound
        if noisy and not beats_every(new, base, lower_better):
            return "unresolved", change
        return "unchanged", change
    separated = n1 > b3 or n3 < b1
    if not separated:
        return ("unchanged" if bound is None else "unresolved"), change
    return ("worse" if change > 0 else "better"), change


def load_runs(path: str) -> dict[tuple[str, str], list[float]]:
    data = json.loads(Path(path).read_text())
    values: dict[tuple[str, str], list[float]] = {}
    for record in data["runs"]:
        for name, metric in record["metrics"].items():
            values.setdefault((record["workload"], name), []).append(
                metric["value"]
            )
    return values


def compare(base_path: str, new_path: str, bench: dict[str, Any]) -> int:
    """Print medians, quartiles and a verdict per (workload, metric).

    Returns 1 when any pair is worse, else 0.
    """
    rules: dict[str, tuple[float | None, bool]] = {}
    for metric in bench["end_to_end"]:
        rules[metric["name"]] = (metric["bound"], metric["better"] == "lower")
    for metric in bench["per_layer"]:
        rules[metric["name"]] = (None, metric["better"] == "lower")
    base = load_runs(base_path)
    new = load_runs(new_path)
    print(
        f"{'workload':<15} {'metric':<34} {'base median [q1, q3]':>30} "
        f"{'new median [q1, q3]':>30} {'change':>8}  verdict"
    )
    worse = False
    for key in sorted(set(base) & set(new)):
        workload, name = key
        bound, lower_better = rules.get(name, (None, True))
        outcome, change = verdict(base[key], new[key], bound, lower_better)
        worse |= outcome == "worse"
        b1, bm, b3 = quartiles(base[key])
        n1, nm, n3 = quartiles(new[key])
        base_col = f"{bm:.5g} [{b1:.4g}, {b3:.4g}]"
        new_col = f"{nm:.5g} [{n1:.4g}, {n3:.4g}]"
        print(
            f"{workload:<15} {name:<34} {base_col:>30} {new_col:>30} "
            f"{change:>+8.1%}  {outcome}"
        )
    for key in sorted(set(base) ^ set(new)):
        side = "base" if key in base else "new"
        print(f"{key[0]:<15} {key[1]:<34} only in {side}", file=sys.stderr)
    return 1 if worse else 0
