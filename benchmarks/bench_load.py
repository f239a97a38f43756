"""Service load baseline: closed- and open-loop JSONL query traffic.

The first load benchmark for the serving stack.  A
:class:`~repro.service.TCSMService` is stood up behind the
:class:`~repro.service.AsyncFrontDoor` and driven with a mixed request
stream shaped like real client traffic:

* **warm** — the same pattern repeated (result-cache hits, the steady
  state of a dashboard);
* **cold** — a fresh ``limit`` per request, so every one misses the
  result cache and runs the matcher;
* **count-only** — ``count_only=true`` requests (no match payloads);
* **traced** — ``trace=true`` requests exercising span capture.

Two loops, two numbers:

* **Closed loop**: a fixed client population issues requests
  back-to-back and waits for each answer — sustained QPS and the
  p50/p95/p99 latency distribution at equilibrium.
* **Open loop**: requests arrive on a fixed schedule at a multiple of
  the measured closed-loop capacity, against deliberately small
  per-tenant queues — the *shed rate* (the fraction answered with
  ``{"status": "rejected", "shed": true}``) is the overload behaviour,
  and every non-shed request must still complete cleanly.

A third number isolates the front door itself: the **door round trip**
of one request through an :class:`~repro.service.AsyncFrontDoor` over a
no-op stub service (loop -> service thread -> loop), p50/p95 over
``DOOR_REQUESTS`` sequential requests.

Runs standalone and under pytest (smoke shape)::

    PYTHONPATH=src python benchmarks/bench_load.py --smoke --out /tmp/load.json
    PYTHONPATH=src python benchmarks/bench_load.py

It exits non-zero on regression; scale with ``--queries``, up to the
million-query soak.  The report carries ``environment`` and
``workload`` blocks and goes to ``--out``; without it, the script
overwrites the committed ``BENCH_load.json`` record, keeping its
``parent`` block (the same script's measurement of the commit before
the front door owned its service threads).
"""

import argparse
import asyncio
import json
import random
import time
from pathlib import Path
from typing import Any

from bench_service import _environment

from repro.datasets import random_instance
from repro.graphs import pattern_to_dict
from repro.service import (
    AsyncFrontConfig,
    AsyncFrontDoor,
    ServiceConfig,
    TCSMService,
)

SEED = 11

#: Random-instance shape (dense enough that queries do real search work).
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

#: Closed-loop requests (full run); ``--smoke`` divides this by 10.
N_QUERIES = 1500

#: Concurrent closed-loop clients.
CLIENTS = 4

#: Request mix weights: (kind, weight).
MIX = (("warm", 5), ("cold", 3), ("count", 1), ("trace", 1))

#: Open-loop arrival rate as a multiple of the measured cold-query
#: service rate (the front door's actual capacity, cache misses only).
OVERLOAD_FACTOR = 3.0

#: Cold queries timed to calibrate the open-loop arrival rate.
CALIBRATION_QUERIES = 20

#: Per-tenant queue bound in the open-loop phase (small, to force
#: shedding under the deliberate overload).
OPEN_QUEUE_DEPTH = 4

#: Open-loop burst length: long enough that the arrival schedule
#: outruns service capacity rather than fitting into the queues.
OPEN_QUERIES = 200

#: Sequential requests timed for the door round trip.
DOOR_REQUESTS = 5000

RECORD_PATH = Path(__file__).resolve().parent.parent / "BENCH_load.json"


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (values need not be sorted)."""
    ranked = sorted(values)
    index = min(len(ranked) - 1, round(q * (len(ranked) - 1)))
    return ranked[index]


def _requests(
    n: int, seed: int = SEED, cold_only: bool = False
) -> list[dict[str, object]]:
    """A deterministic mixed request stream of length *n*.

    ``cold_only`` forces every request onto the cache-missing path —
    the open-loop phase uses it so the offered overload does real
    matcher work instead of being absorbed by the result cache.
    """
    query, constraints, _ = random_instance(seed=seed, **INSTANCE)
    pattern = pattern_to_dict(query, constraints)
    kinds = [kind for kind, weight in MIX for _ in range(weight)]
    rng = random.Random(seed + 1)
    stream: list[dict[str, object]] = []
    for i in range(n):
        kind = "cold" if cold_only else kinds[rng.randrange(len(kinds))]
        request: dict[str, object] = {
            "op": "query",
            "id": i,
            "graph": "load",
            "pattern": pattern,
            "tenant": f"t{i % 2}",
        }
        if kind == "warm":
            request["limit"] = 10
        elif kind == "cold":
            # A fresh limit per request defeats the result cache, so
            # the matcher actually runs (the cold path).
            request["limit"] = 1000 + i
        elif kind == "count":
            request["count_only"] = True
        else:  # trace
            request["limit"] = 10
            request["trace"] = True
        stream.append(request)
    return stream


def _build_service(seed: int = SEED) -> TCSMService:
    service = TCSMService(
        ServiceConfig(max_workers=2, trace_sample_rate=0.0)
    )
    _, _, graph = random_instance(seed=seed, **INSTANCE)
    service.load_graph("load", graph)
    return service


async def _closed_loop(
    front: AsyncFrontDoor, stream: list[dict[str, object]]
) -> tuple[float, list[float], int]:
    """(wall seconds, per-request latencies, error count)."""
    latencies: list[float] = []
    errors = 0
    cursor = iter(stream)

    async def client() -> None:
        nonlocal errors
        for request in cursor:
            started = time.perf_counter()
            response = await front.submit(request)
            latencies.append(time.perf_counter() - started)
            if response.get("status") != "ok":
                errors += 1

    started = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(CLIENTS)))
    return time.perf_counter() - started, latencies, errors


async def _calibrate(
    service: TCSMService, stream: list[dict[str, object]]
) -> float:
    """Mean seconds per cold query, served back-to-back (no front door).

    This is the inverse of the single-threaded service rate — the right
    baseline for sizing the open-loop overload, because the open-loop
    front door runs one admission worker.
    """
    started = time.perf_counter()
    for request in stream:
        response = await asyncio.to_thread(service.submit, request)
        assert response.get("status") == "ok", response
    return (time.perf_counter() - started) / len(stream)


async def _open_loop(
    front: AsyncFrontDoor, stream: list[dict[str, object]], rate: float
) -> tuple[int, int, int]:
    """(issued, shed, errors) at a fixed arrival *rate* (req/s).

    Arrivals follow an absolute schedule (``start + i / rate``) rather
    than chained sleeps, so event-loop sleep granularity cannot silently
    lower the offered rate: an overshot sleep is repaid by issuing the
    next requests back-to-back.
    """
    interval = 1.0 / rate
    tasks: list[asyncio.Task[dict[str, object]]] = []
    started = time.perf_counter()
    for i, request in enumerate(stream):
        target = started + i * interval
        delay = target - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(front.submit(request)))
    responses = await asyncio.gather(*tasks)
    shed = sum(1 for r in responses if r.get("shed"))
    errors = sum(1 for r in responses if r.get("status") == "error")
    return len(responses), shed, errors


async def _measure_async(n_queries: int, seed: int) -> dict[str, float]:
    report: dict[str, float] = {}
    with _build_service(seed) as service:
        # -- closed loop ------------------------------------------------
        stream = _requests(n_queries, seed)
        async with AsyncFrontDoor(
            service, AsyncFrontConfig(max_queue_depth=max(64, n_queries))
        ) as front:
            # One warm-up pass over the pattern, outside the clock.
            await front.submit(stream[0])
            wall, latencies, errors = await _closed_loop(front, stream)
        qps = len(latencies) / wall
        report.update(
            queries=float(len(latencies)),
            closed_wall_seconds=wall,
            closed_qps=qps,
            closed_errors=float(errors),
            latency_p50_ms=_percentile(latencies, 0.50) * 1e3,
            latency_p95_ms=_percentile(latencies, 0.95) * 1e3,
            latency_p99_ms=_percentile(latencies, 0.99) * 1e3,
        )

        # -- open loop (deliberate overload) ----------------------------
        # Calibrate against the cold path itself: time a few cache-miss
        # queries back-to-back, then offer OVERLOAD_FACTOR times that
        # service rate.  (Closed-loop QPS would overestimate capacity —
        # it is mostly warm cache hits.)
        open_count = max(OPEN_QUERIES, n_queries // 4)
        cold_stream = _requests(
            open_count + CALIBRATION_QUERIES, seed + 2, cold_only=True
        )
        calibration = cold_stream[:CALIBRATION_QUERIES]
        open_stream = cold_stream[CALIBRATION_QUERIES:]
        cold_seconds = await _calibrate(service, calibration)
        offered = OVERLOAD_FACTOR / cold_seconds
        async with AsyncFrontDoor(
            service,
            # One admission worker with small batches and queues: the
            # overload hits a bounded system, not a deep pipeline.
            AsyncFrontConfig(
                max_queue_depth=OPEN_QUEUE_DEPTH, max_batch=2, workers=1
            ),
        ) as front:
            issued, shed, errors = await _open_loop(
                front, open_stream, offered
            )
        report.update(
            open_issued=float(issued),
            cold_query_ms=cold_seconds * 1e3,
            open_offered_qps=offered,
            open_shed=float(shed),
            open_shed_rate=shed / issued,
            open_errors=float(errors),
        )

        metrics = service.metrics_snapshot()
        counters = metrics.get("counters", {})
        report["result_cache_hits"] = float(
            counters.get("result_cache_hits", 0)
        )
    return report


def measure(n_queries: int = N_QUERIES, seed: int = SEED) -> dict[str, float]:
    """All load measurements as a flat report dict."""
    return asyncio.run(_measure_async(n_queries, seed))


class _NoOpService:
    """The cheapest possible service: the door's own cost is all there is."""

    def submit(self, request: dict[str, Any]) -> dict[str, Any]:
        return {"op": "ping", "status": "ok"}


async def _door_async(requests: int) -> list[float]:
    latencies: list[float] = []
    async with AsyncFrontDoor(_NoOpService()) as front:
        for _ in range(100):  # warm the loop and the service threads
            await front.submit({"op": "ping"})
        for _ in range(requests):
            started = time.perf_counter()
            await front.submit({"op": "ping"})
            latencies.append(time.perf_counter() - started)
    return latencies


def measure_door(requests: int = DOOR_REQUESTS) -> dict[str, float]:
    """Door round trip over a no-op service: one request at a time."""
    latencies = asyncio.run(_door_async(requests))
    return {
        "requests": float(requests),
        "p50_us": _percentile(latencies, 0.50) * 1e6,
        "p95_us": _percentile(latencies, 0.95) * 1e6,
    }


def workload(n_queries: int) -> dict[str, Any]:
    """What the report measured, for the record."""
    return {
        "instance": {"seed": SEED, **INSTANCE},
        "closed_loop": {
            "queries": n_queries,
            "clients": CLIENTS,
            "mix": dict(MIX),
            "service": {"pool": "thread", "max_workers": 2},
        },
        "open_loop": {
            "overload_factor": OVERLOAD_FACTOR,
            "calibration_queries": CALIBRATION_QUERIES,
            "queue_depth": OPEN_QUEUE_DEPTH,
            "queries": max(OPEN_QUERIES, n_queries // 4),
        },
        "door": {"requests": DOOR_REQUESTS, "service": "no-op stub"},
    }


def check(report: dict[str, float]) -> list[str]:
    """Regression messages (empty when the report meets the bars)."""
    failures: list[str] = []
    if report["closed_errors"] > 0:
        failures.append(
            f"{report['closed_errors']:.0f} closed-loop requests errored"
        )
    if report["open_errors"] > 0:
        failures.append(
            f"{report['open_errors']:.0f} open-loop requests errored "
            "(shedding must reject cleanly, not fail)"
        )
    if report["closed_qps"] <= 0:
        failures.append("closed-loop QPS is not positive")
    if report["result_cache_hits"] < 1:
        failures.append(
            "no result-cache hits: the warm fraction of the mix never "
            "hit the cache"
        )
    if not 0.0 < report["open_shed_rate"] < 1.0:
        failures.append(
            f"shed rate {report['open_shed_rate']:.3f} outside (0, 1): "
            "the deliberate overload should shed some but not all "
            "requests"
        )
    if (
        report["latency_p50_ms"] > report["latency_p95_ms"]
        or report["latency_p95_ms"] > report["latency_p99_ms"]
    ):
        failures.append("latency percentiles are not monotone")
    return failures


def test_load_baseline_smoke() -> None:
    report = measure(n_queries=N_QUERIES // 10)
    assert check(report) == [], check(report)


def test_door_round_trip_smoke() -> None:
    door = measure_door(requests=200)
    assert 0.0 < door["p50_us"] <= door["p95_us"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"CI shape: {N_QUERIES // 10} queries instead of {N_QUERIES}",
    )
    parser.add_argument(
        "--queries",
        type=int,
        default=None,
        help="closed-loop request count (overrides --smoke; try 1000000 "
        "for the full soak)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help=f"write the report here (default: overwrite {RECORD_PATH.name})",
    )
    args = parser.parse_args()
    n_queries = args.queries or (N_QUERIES // 10 if args.smoke else N_QUERIES)

    report = measure(n_queries=n_queries)
    print(f"closed loop:     {report['queries']:.0f} queries, "
          f"{CLIENTS} clients")
    print(f"sustained QPS:   {report['closed_qps']:.0f}")
    print(f"latency p50:     {report['latency_p50_ms']:.2f} ms")
    print(f"latency p95:     {report['latency_p95_ms']:.2f} ms")
    print(f"latency p99:     {report['latency_p99_ms']:.2f} ms")
    print(f"cache hits:      {report['result_cache_hits']:.0f}")
    print(f"cold query:      {report['cold_query_ms']:.2f} ms")
    print(f"open loop:       {report['open_issued']:.0f} queries at "
          f"{report['open_offered_qps']:.0f} req/s offered")
    print(f"shed rate:       {report['open_shed_rate']:.1%}")
    door = measure_door()
    print(f"door round trip: p50 {door['p50_us']:.1f} us, "
          f"p95 {door['p95_us']:.1f} us ({door['requests']:.0f} requests)")
    failures = check(report)
    for failure in failures:
        print(f"REGRESSION: {failure}")
    out = args.out or RECORD_PATH
    record: dict[str, Any] = {
        "environment": _environment(),
        "workload": workload(n_queries),
        **report,
        "door": door,
    }
    if out.exists():
        parent = json.loads(out.read_text()).get("parent")
        if parent is not None:
            record["parent"] = parent
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
