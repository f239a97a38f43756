"""Streaming ingest throughput and the amortised-append advantage.

Two claims back the streaming subsystem, both measured here:

* **Sustained ingest.** A shuffled synthetic edge stream is fed through
  a ``StreamingEngine`` carrying several standing subscriptions; the
  report records sustained edges/second (append + delta search +
  delivery) and the append-to-emission latency percentiles over every
  emitted match.
* **Amortised appends.** Appending the same stream through
  ``SegmentedGraph`` must beat the naive alternative — recompiling a
  full CSR snapshot after every edge (the exact pathology reprolint
  R017 flags) — by at least :data:`MIN_APPEND_ADVANTAGE` on amortised
  per-edge wall-clock, with proportionally fewer snapshot compilations
  (``snapshot_compile_count``).  The baseline only replays a prefix of
  the stream (per-edge recompilation is quadratic, which is the point);
  its graphs are therefore *smaller* than the segmented run's, so the
  measured advantage is a conservative floor.

Runs standalone (``python benchmarks/bench_streaming.py``, exits
non-zero on regression and writes the report, with its environment and
workload, to ``--out``; the default is the committed
``BENCH_streaming.json`` record) and under pytest.  ``snapshot_compile_count``
counts flush compiles and segment merges alike, so the compile bar
covers compaction too.
"""

import argparse
import json
import random
import time
from pathlib import Path

from bench_service import _environment

from repro.datasets import random_instance
from repro.graphs import SegmentedGraph, TemporalGraph, compile_snapshot
from repro.graphs import snapshot_compile_count
from repro.streaming import StreamingEngine

SEED = 7

#: Standing subscriptions held while the stream is ingested.
N_SUBSCRIPTIONS = 4

#: Random-instance shape: denser than the library defaults (which yield
#: zero-match instances) so the subscriptions actually emit.
INSTANCE = dict(
    query_vertices=3,
    query_edges=3,
    num_constraints=2,
    max_gap=25,
    data_vertices=30,
    data_edges=2500,
    num_labels=3,
    max_time=400,
)

#: Edges per ingest request (the CLI's ``repro ingest --batch`` shape).
BATCH = 64

#: Segmented-graph shape: flush every 256 edges, compact past 8 segments.
MERGE_THRESHOLD = 256
MAX_SEGMENTS = 8

#: Stream prefix replayed through the recompile-per-edge baseline.
BASELINE_EDGES = 400

#: Floor for amortised per-edge append advantage over full recompiles.
MIN_APPEND_ADVANTAGE = 10.0

OUT_PATH = Path("BENCH_streaming.json")


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (values need not be sorted)."""
    ranked = sorted(values)
    index = min(len(ranked) - 1, round(q * (len(ranked) - 1)))
    return ranked[index]


def _stream(seed: int) -> tuple[list[tuple[int, int, int]], TemporalGraph]:
    """The shuffled edge stream and its source graph."""
    _, _, source = random_instance(seed=seed, **INSTANCE)
    stream = list(source.edges())
    random.Random(seed + 1).shuffle(stream)
    return stream, source


def workload(seed: int = SEED) -> dict[str, object]:
    """What :func:`measure` runs, for the report's ``workload`` block."""
    return {
        "instance": "random_instance",
        "seed": seed,
        **INSTANCE,
        "shuffled": True,
        "subscriptions": N_SUBSCRIPTIONS,
        "batch": BATCH,
        "merge_threshold": MERGE_THRESHOLD,
        "max_segments": MAX_SEGMENTS,
        "baseline_edges": BASELINE_EDGES,
    }


def measure(seed: int = SEED) -> dict[str, float]:
    """All benchmark measurements as a flat report dict."""
    stream, source = _stream(seed)

    # -- sustained ingest with standing subscriptions -------------------
    engine = StreamingEngine(
        SegmentedGraph(
            source.labels,
            merge_threshold=MERGE_THRESHOLD,
            max_segments=MAX_SEGMENTS,
        )
    )
    for i in range(N_SUBSCRIPTIONS):
        # Distinct patterns over the shared label alphabet.
        query, constraints, _ = random_instance(seed=seed + i, **INSTANCE)
        engine.subscribe(query, constraints, sub_id=f"s{i}")
    started = time.perf_counter()
    for lo in range(0, len(stream), BATCH):
        engine.ingest(stream[lo : lo + BATCH])
    ingest_seconds = time.perf_counter() - started
    latencies = [
        emission.latency_seconds
        for i in range(N_SUBSCRIPTIONS)
        for emission in engine.poll(f"s{i}")
    ]

    # -- amortised append: segmented vs recompile-per-edge --------------
    segmented = SegmentedGraph(
        source.labels,
        merge_threshold=MERGE_THRESHOLD,
        max_segments=MAX_SEGMENTS,
    )
    compile_floor = snapshot_compile_count()
    started = time.perf_counter()
    for u, v, t in stream:
        segmented.append(u, v, t)
    segmented_seconds = time.perf_counter() - started
    segmented_compiles = snapshot_compile_count() - compile_floor

    baseline = TemporalGraph(source.labels)
    compile_floor = snapshot_compile_count()
    started = time.perf_counter()
    for u, v, t in stream[:BASELINE_EDGES]:
        baseline.add_edge(u, v, t)
        compile_snapshot(baseline)  # reprolint: disable=R017 -- measuring the recompile-per-edge baseline
    baseline_seconds = time.perf_counter() - started
    baseline_compiles = snapshot_compile_count() - compile_floor

    segmented_per_edge = segmented_seconds / len(stream)
    baseline_per_edge = baseline_seconds / BASELINE_EDGES
    return {
        "edges": float(len(stream)),
        "subscriptions": float(N_SUBSCRIPTIONS),
        "ingest_seconds": ingest_seconds,
        "edges_per_second": len(stream) / ingest_seconds,
        "emissions": float(len(latencies)),
        "latency_p50_seconds": _percentile(latencies, 0.50),
        "latency_p95_seconds": _percentile(latencies, 0.95),
        "latency_p99_seconds": _percentile(latencies, 0.99),
        "segmented_per_edge_seconds": segmented_per_edge,
        "baseline_per_edge_seconds": baseline_per_edge,
        "segmented_compiles": float(segmented_compiles),
        "baseline_compiles": float(baseline_compiles),
        "append_advantage": baseline_per_edge / segmented_per_edge,
    }


def check(report: dict[str, float]) -> list[str]:
    """Regression messages (empty when the report meets the bars)."""
    failures: list[str] = []
    if report["emissions"] < 1:
        failures.append(
            "no emissions: the standing subscriptions never matched"
        )
    if report["append_advantage"] < MIN_APPEND_ADVANTAGE:
        failures.append(
            f"amortised append advantage {report['append_advantage']:.1f}x "
            f"below the {MIN_APPEND_ADVANTAGE:.0f}x floor"
        )
    if (
        report["segmented_compiles"] * MIN_APPEND_ADVANTAGE
        > report["baseline_compiles"]
    ):
        failures.append(
            f"segmented appends compiled {report['segmented_compiles']:.0f} "
            f"snapshots for {report['edges']:.0f} edges — not amortised "
            f"(baseline: {report['baseline_compiles']:.0f} for "
            f"{BASELINE_EDGES} edges)"
        )
    return failures


def test_streaming_throughput_and_amortised_appends() -> None:
    report = measure()
    assert check(report) == [], check(report)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=Path, default=OUT_PATH,
        help=f"where to write the report (default: {OUT_PATH})",
    )
    args = parser.parse_args(argv)
    report = measure()
    print(f"edges streamed:     {report['edges']:.0f}")
    print(f"subscriptions:      {report['subscriptions']:.0f}")
    print(f"sustained ingest:   {report['edges_per_second']:.0f} edges/s")
    print(f"emissions:          {report['emissions']:.0f}")
    print(f"latency p50:        {report['latency_p50_seconds'] * 1e3:.2f} ms")
    print(f"latency p95:        {report['latency_p95_seconds'] * 1e3:.2f} ms")
    print(f"latency p99:        {report['latency_p99_seconds'] * 1e3:.2f} ms")
    print(
        f"append (segmented): {report['segmented_per_edge_seconds'] * 1e6:.1f}"
        f" us/edge ({report['segmented_compiles']:.0f} compiles)"
    )
    print(
        f"append (recompile): {report['baseline_per_edge_seconds'] * 1e6:.1f}"
        f" us/edge ({report['baseline_compiles']:.0f} compiles)"
    )
    print(f"append advantage:   {report['append_advantage']:.1f}x")
    failures = check(report)
    for failure in failures:
        print(f"REGRESSION: {failure}")
    record = {
        "environment": _environment(),
        "workload": workload(),
        **report,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
