"""Smoke test of the serving benchmark: every workload at tiny size.

Run from the repository root (about 25 seconds)::

    PYTHONPATH=src python -m pytest benchmarks/suite/test_suite_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from report import verdict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_suite(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    done = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--smoke", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    return done.returncode, done.stdout.strip().splitlines()


def result(lines: list[str]) -> dict:
    payload = json.loads(lines[-1])
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    return payload


def test_every_workload_reports_every_metric_and_passes(tmp_path: Path) -> None:
    out = tmp_path / "smoke.json"
    code, lines = run_suite("--seed", "2", "--out", str(out))
    assert code == 0, "\n".join(lines)
    assert result(lines)["failed"] == 0
    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    runs = json.loads(out.read_text())["runs"]
    assert [r["workload"] for r in runs] == [w["name"] for w in BENCH["workloads"]]
    for record in runs:
        assert record["correct"] and record["failed"] == 0, record["failures"]
        metrics = record["metrics"]
        assert {name: m["unit"] for name, m in metrics.items()} == units
        assert all(m["value"] > 0 for m in metrics.values()), metrics


def test_traced_run_reports_every_per_layer_metric() -> None:
    units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for workload in ("enum-heavy", "stream-ingest"):
        code, lines = run_suite("--workload", workload, "--trace")
        assert code == 0, "\n".join(lines)
        payload = result(lines)
        assert payload["correct"] and payload["failed"] == 0
        assert {n: m["unit"] for n, m in payload["metrics"].items()} == units
        assert payload["metrics"]["stream.dropped"]["value"] == 0


def test_a_corrupted_reference_count_is_caught() -> None:
    for workload in ("hot-mix", "stream-ingest"):
        code, lines = run_suite("--workload", workload, "--corrupt-reference")
        assert code != 0
        payload = result(lines)
        assert not payload["correct"] and payload["failed"] > 0


def test_without_the_program_it_fails_and_prints_no_result(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "suite")
    code, lines = run_suite("--workload", "hot-mix", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_compare_verdicts() -> None:
    base = [10.0, 10.1, 9.9, 10.2, 9.8]
    shifted = [x * 1.2 for x in base]
    assert verdict(base, shifted, 0.1, True)[0] == "worse"
    assert verdict(shifted, base, 0.1, True)[0] == "better"
    assert verdict(base, [x * 1.05 for x in base], 0.1, True)[0] == "unchanged"
    assert verdict(base, [7.0, 9.0, 12.0, 14.0, 15.0], 0.1, True)[0] == "unresolved"
    assert verdict(base, shifted, 0.1, False)[0] == "better"
    assert verdict(base[:2], shifted[:2], 0.1, True)[0] == "unresolved"
    # Within the bound, but one side spreads wider than the bound.
    noisy = [7.0, 9.0, 10.0, 12.0, 14.0]
    assert verdict(noisy, [x * 1.02 for x in noisy], 0.1, True)[0] == "unresolved"
    assert verdict(base, noisy, 0.1, True)[0] == "unresolved"
    # ... unless every new run beats every base run.
    wide = [9.0, 9.1, 9.2, 12.0, 13.0]
    assert verdict(wide, [8.7, 8.75, 8.8, 8.85, 8.9], 0.1, True)[0] == "unchanged"
