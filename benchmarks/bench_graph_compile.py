"""Builder-vs-snapshot data plane: memory footprint.

The dict-of-dicts builder pays ~100 bytes of object headers per
``(u, v)`` pair and ~36 bytes per timestamp, where the CSR snapshot the
matchers read pays 8-byte machine integers.  This benchmark pins that on
the medium CollegeMsg stand-in: the snapshot adjacency payload is >= 30%
smaller than the builder's dict planes (it is ~84% smaller in practice).
Compile time is reported for context — it is a one-off per
``(graph, version)``, amortised by the registry.

The matchers have one read path (the snapshot), so there is no longer a
dict-backend enumeration to time against; the last measurement of both
paths is frozen in ``BENCH_graph_compile.json``.

Runs standalone (``python benchmarks/bench_graph_compile.py``, exits
non-zero on regression) and under pytest.
"""

import sys
import time

from repro.datasets import load_dataset
from repro.graphs import TemporalGraph, compile_snapshot

#: Medium synthetic dataset: ~700 vertices / ~7k temporal edges.
SCALE = 0.12
SEED = 1

#: Floor on the payload reduction; the measured one is far above it.
MIN_MEMORY_REDUCTION = 0.30


def _deep_sizeof(obj: object, seen: set[int] | None = None) -> int:
    """Recursive ``sys.getsizeof`` over containers (id-deduplicated)."""
    if seen is None:
        seen = set()
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    total = sys.getsizeof(obj)
    if isinstance(obj, dict):
        for key, value in obj.items():
            total += _deep_sizeof(key, seen) + _deep_sizeof(value, seen)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for value in obj:
            total += _deep_sizeof(value, seen)
    return total


def dict_plane_bytes(graph: TemporalGraph) -> int:
    """Deep footprint of the builder's two adjacency dict planes.

    Deliberate private access: this benchmark measures the storage
    representation itself, which no accessor exposes.
    """
    out_plane = graph._out  # reprolint: disable=R011
    in_plane = graph._in  # reprolint: disable=R011
    return _deep_sizeof(out_plane) + _deep_sizeof(in_plane)


def measure(scale: float = SCALE, seed: int = SEED) -> dict[str, float]:
    """All benchmark measurements as a flat report dict."""
    graph = load_dataset("CM", scale=scale, seed=seed)

    started = time.perf_counter()
    snapshot = compile_snapshot(graph)
    compile_seconds = time.perf_counter() - started

    builder_bytes = dict_plane_bytes(graph)
    snapshot_bytes = snapshot.nbytes

    return {
        "temporal_edges": float(graph.num_temporal_edges),
        "builder_bytes": float(builder_bytes),
        "snapshot_bytes": float(snapshot_bytes),
        "memory_reduction": 1.0 - snapshot_bytes / builder_bytes,
        "compile_seconds": compile_seconds,
    }


def check(report: dict[str, float]) -> list[str]:
    """Regression messages (empty when the report meets the bars)."""
    failures: list[str] = []
    if report["memory_reduction"] < MIN_MEMORY_REDUCTION:
        failures.append(
            f"memory reduction {report['memory_reduction']:.1%} below the "
            f"{MIN_MEMORY_REDUCTION:.0%} floor"
        )
    return failures


def test_snapshot_memory() -> None:
    report = measure()
    assert check(report) == [], check(report)


def main() -> int:
    report = measure()
    print(f"temporal edges:    {report['temporal_edges']:.0f}")
    print(f"builder planes:    {report['builder_bytes']:.0f} bytes")
    print(f"snapshot planes:   {report['snapshot_bytes']:.0f} bytes")
    print(f"memory reduction:  {report['memory_reduction']:.1%}")
    print(f"compile (one-off): {report['compile_seconds'] * 1e3:.1f} ms")
    failures = check(report)
    for failure in failures:
        print(f"REGRESSION: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
