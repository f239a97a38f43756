"""Drive one workload against a live service, check it, and measure it.

This module runs in the workload's own process.  It reads the workload
as JSON lines made by :mod:`inputs` (a header, then one line per
stream-ingest round, read only when that round starts), so the process
holds the service, the front door and the requests, and nothing that
was used to make them.  Every workload follows one life cycle:

1. **Set-up** (``setup_s``).  A fresh ``TCSMService`` registers the graph,
   an ``AsyncFrontDoor`` starts, and the warm-up pass runs; on
   stream-ingest the standing subscriptions are made instead.  Query
   workloads set up :data:`SETUPS` times and keep the last service;
   stream-ingest sets up once per round.  ``setup_s`` is the median.
2. **The timed phase.**  Closed-loop clients send every generated request
   as a JSON line, which is decoded, admitted by the front door, served,
   encoded and decoded again, and every answer is checked against its
   reference.  The work is fixed by the inputs, not by the clock.

A traced run sends the first half of its requests (of its rounds, on
stream-ingest) untraced and the second half with the wrappers of
:mod:`layers` installed, so it can report the tracing overhead next to
the per-layer numbers.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import resource
import statistics
import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Any

from layers import Recorder, install_service_wrappers
from repro.graphs import TemporalGraph
from repro.service import (
    AsyncFrontConfig,
    AsyncFrontDoor,
    ServiceConfig,
    TCSMService,
)

#: Set-ups per query-workload run; ``setup_s`` is their median.
SETUPS = 5


# ----------------------------------------------------------------------
# the wire: one request as a JSON line, both ways
# ----------------------------------------------------------------------
async def exchange(
    front: AsyncFrontDoor, request: dict[str, Any], recorder: Recorder | None
) -> tuple[dict[str, Any], float]:
    """Send one request the way ``serve_stdio`` sees it; return the
    decoded reply and the client-measured latency."""
    started = time.perf_counter()
    if recorder is None:
        response = await front.submit(json.loads(json.dumps(request)))
        reply = json.loads(json.dumps(response))
        return reply, time.perf_counter() - started
    rid = request["id"]
    with recorder.request(rid):
        with recorder.span("wire.encode", rid):
            line = json.dumps(request)
        with recorder.span("wire.decode", rid):
            decoded = json.loads(line)
        response = await front.submit(decoded)
        with recorder.span("wire.encode", rid):
            out = json.dumps(response)
        with recorder.span("wire.decode", rid):
            reply = json.loads(out)
    return reply, time.perf_counter() - started


# ----------------------------------------------------------------------
# measuring
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """What one timed phase measured."""

    latencies: list[float] = field(default_factory=list)
    requests: int = 0
    wall: float = 0.0
    #: Replies kept for the per-layer numbers (traced phases only).
    replies: list[dict[str, Any]] = field(default_factory=list)

    def timing(self) -> dict[str, tuple[float, int]]:
        """``qps``, ``p50_ms`` and ``p95_ms``, each with its sample count."""
        n = len(self.latencies)
        return {
            "qps": (ratio(self.requests, self.wall), self.requests),
            "p50_ms": (percentile(self.latencies, 50) * 1e3, n),
            "p95_ms": (percentile(self.latencies, 95) * 1e3, n),
        }


class Run:
    """Failure bookkeeping and the set-up times of one workload run."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.attempted = 0
        self.failures: list[str] = []
        self.setups: list[float] = []
        self.registers: list[float] = []

    def check_reply(
        self, reply: dict[str, Any], lo: int = 0, hi: int | None = None
    ) -> bool:
        """Count one request; record a failure if the reply is wrong."""
        self.attempted += 1
        problem = None
        if reply.get("status") != "ok":
            problem = f"status {reply.get('status')}: {reply.get('error')}"
        elif reply.get("timed_out"):
            problem = "timed out"
        elif "match_count" in reply and not (
            lo <= reply["match_count"] <= (hi if hi is not None else lo)
        ):
            problem = f"match_count {reply['match_count']} not in [{lo}, {hi}]"
        if problem is not None:
            self.fail(f"request {reply.get('id')}: {problem}")
            return False
        return True

    def fail(self, message: str) -> None:
        self.failures.append(message)


def build_graph(spec: dict[str, Any]) -> TemporalGraph:
    """A fresh builder graph, so each set-up compiles its own snapshot."""
    return TemporalGraph(spec["labels"], spec["edges"])


def settle() -> None:
    """Collect garbage, then freeze every surviving object out of the
    cyclic collector.

    Called before each timed set-up, so every set-up starts from the same
    collector state, and the program's own collections never scan the
    harness's inputs: without it, whether a full collection over
    hundreds of thousands of input lists lands inside a 20-ms set-up
    depends on the seed.  Unfreezing first lets the collection free what
    earlier set-ups left behind.
    """
    gc.unfreeze()
    gc.collect()
    gc.freeze()


async def start_service(
    run: Run, config: ServiceConfig, name: str, graph: TemporalGraph
) -> tuple[TCSMService, AsyncFrontDoor]:
    """Service plus front door with the graph registered (timed by the
    caller as part of set-up)."""
    service = TCSMService(config)
    started = time.perf_counter()
    service.load_graph(name, graph)
    run.registers.append(time.perf_counter() - started)
    front = AsyncFrontDoor(service, AsyncFrontConfig(workers=1))
    await front.start()
    return service, front


async def stop_service(service: TCSMService, front: AsyncFrontDoor) -> None:
    await front.close()
    service.close()


# ----------------------------------------------------------------------
# query workloads
# ----------------------------------------------------------------------
class QueryLoad:
    """Sends a query workload's requests and checks their answers."""

    def __init__(self, header: dict[str, Any], run: Run) -> None:
        self.header = header
        self.run = run
        self.templates: list[dict[str, Any]] = header["templates"]
        self.counts: list[int | None] = header["counts"]
        self.config = ServiceConfig(**header["service"])
        self.next_id = 0

    def request(self, key: int, limit: int) -> dict[str, Any]:
        self.next_id += 1
        return dict(self.templates[key], id=self.next_id, limit=limit)

    def expected(self, key: int, limit: int) -> tuple[int, int]:
        """The accepted ``match_count`` range for one request."""
        reference = self.counts[key]
        if reference is None:
            return 1, limit
        exact = min(limit, reference)
        return exact, exact

    async def setup(self) -> tuple[TCSMService, AsyncFrontDoor]:
        spec = self.header["graph"]
        graph = build_graph(spec)
        settle()
        started = time.perf_counter()
        service, front = await start_service(self.run, self.config, spec["name"], graph)
        for key, limit in self.header["warmup"]:
            reply, _ = await exchange(front, self.request(key, limit), None)
            self.run.check_reply(reply, *self.expected(key, limit))
        self.run.setups.append(time.perf_counter() - started)
        return service, front

    async def phase(
        self,
        front: AsyncFrontDoor,
        items: list[list[int]],
        recorder: Recorder | None,
    ) -> Phase:
        """Send every item of *items* from the closed-loop clients."""
        phase = Phase()
        cursor = iter(items)

        async def client() -> None:
            for key, limit in cursor:
                reply, latency = await exchange(
                    front, self.request(key, limit), recorder
                )
                phase.latencies.append(latency)
                phase.requests += 1
                self.run.check_reply(reply, *self.expected(key, limit))
                if recorder is not None:
                    reply.pop("matches", None)
                    phase.replies.append(reply)

        gc.collect()
        started = time.perf_counter()
        await asyncio.gather(*(client() for _ in range(self.header["clients"])))
        phase.wall = time.perf_counter() - started
        return phase


async def run_queries(name: str, header: dict[str, Any], trace: bool) -> dict[str, Any]:
    run = Run(name)
    for problem in header["problems"]:
        run.fail(problem)
    load = QueryLoad(header, run)
    service = front = None
    for _ in range(SETUPS):
        if service is not None and front is not None:
            await stop_service(service, front)
        service, front = await load.setup()
    assert service is not None and front is not None
    items = header["items"]
    layers: dict[str, float] = {}
    recorder: Recorder | None = None
    try:
        if not trace:
            phase = await load.phase(front, items, None)
        else:
            half = len(items) // 2
            plain = await load.phase(front, items[:half], None)
            recorder = Recorder()
            before = Snapshot.take(service, front)
            install_service_wrappers(recorder, front, service)
            phase = await load.phase(front, items[half:], recorder)
            recorder.uninstall()
            after = Snapshot.take(service, front)
            layers = query_layers(recorder, phase, before, after, run)
            layers["trace.overhead_frac"] = overhead(plain, phase)
    finally:
        await stop_service(service, front)
    return finish(run, phase, dict(header["info"]), layers, recorder, trace)


# ----------------------------------------------------------------------
# stream-ingest
# ----------------------------------------------------------------------
@dataclass
class StreamTotals:
    """Sums over a phase's rounds (reports and final subscription rows)."""

    new_edges: int = 0
    ingest_seconds: float = 0.0
    flushes: int = 0
    compactions: int = 0
    searches: int = 0
    edges_seen: int = 0
    search_seconds: float = 0.0
    matches: int = 0
    dropped: int = 0
    admitted: int = 0
    batches: int = 0
    emit_latencies: list[float] = field(default_factory=list)


class StreamLoad:
    """Rounds of set-up, ingest + poll batches, and end-of-round checks."""

    def __init__(self, header: dict[str, Any], run: Run) -> None:
        self.header = header
        self.run = run
        self.config = ServiceConfig(**header["service"])
        self.next_id = 0
        self.rounds = 0

    def rid(self) -> int:
        self.next_id += 1
        return self.next_id

    async def one_round(
        self,
        plan: dict[str, Any],
        phase: Phase,
        totals: StreamTotals,
        recorder: Recorder | None,
    ) -> None:
        """Set up, stream every edge of one round, then check its totals."""
        spec = self.header["graph"]
        graph = build_graph(spec)
        settle()
        started = time.perf_counter()
        service, front = await start_service(self.run, self.config, spec["name"], graph)
        try:
            subs = await self.subscribe(front, plan)
            self.run.setups.append(time.perf_counter() - started)
            if len(subs) != len(plan["patterns"]):
                return
            gc.collect()
            if recorder is not None:
                install_service_wrappers(recorder, front, service)
            try:
                polled = await self.stream(front, plan, subs, phase, totals, recorder)
            finally:
                if recorder is not None:
                    recorder.uninstall()
            await self.close_out(front, plan, subs, polled, totals)
        finally:
            await stop_service(service, front)
            self.rounds += 1

    async def subscribe(self, front: AsyncFrontDoor, plan: dict[str, Any]) -> list[str]:
        subs: list[str] = []
        for pattern in plan["patterns"]:
            request = {
                "op": "subscribe",
                "id": self.rid(),
                "graph": self.header["graph"]["name"],
                "pattern": pattern,
                "queue_capacity": self.header["queue_capacity"],
            }
            reply, _ = await exchange(front, request, None)
            if self.run.check_reply(reply):
                subs.append(reply["subscription"]["id"])
        return subs

    async def stream(
        self,
        front: AsyncFrontDoor,
        plan: dict[str, Any],
        subs: list[str],
        phase: Phase,
        totals: StreamTotals,
        recorder: Recorder | None,
    ) -> list[int]:
        """The timed part: ingests of ``batch`` edges, each followed by a
        poll of every subscription.  Returns the emissions polled per
        subscription."""
        run = self.run
        edges = plan["edges"]
        batch = self.header["batch"]
        polled = [0] * len(subs)
        new_edges = duplicates = 0
        front_before = front.stats_snapshot()
        phase_start = time.perf_counter()
        for lo in range(0, len(edges), batch):
            batch_start = time.perf_counter()
            request = {
                "op": "ingest",
                "id": self.rid(),
                "graph": self.header["graph"]["name"],
                "edges": edges[lo : lo + batch],
            }
            reply, _ = await exchange(front, request, recorder)
            if not run.check_reply(reply):
                continue
            report = reply["report"]
            new_edges += report["new_edges"]
            duplicates += report["duplicates"]
            totals.new_edges += report["new_edges"]
            totals.ingest_seconds += report["seconds"]
            totals.flushes += report["flushes"]
            totals.compactions += report["compactions"]
            emitted = 0
            for i, sub in enumerate(subs):
                request = {"op": "poll", "id": self.rid(), "subscription_id": sub}
                reply, _ = await exchange(front, request, recorder)
                if run.check_reply(reply):
                    polled[i] += reply["count"]
                    emitted += reply["count"]
                    if recorder is not None:
                        totals.emit_latencies.extend(
                            e["latency_seconds"] for e in reply["emissions"]
                        )
            phase.latencies.append(time.perf_counter() - batch_start)
            phase.requests += 1 + len(subs)
            if emitted != report["emitted"]:
                run.fail(
                    f"batch at {lo}: ingest emitted {report['emitted']}, "
                    f"polls returned {emitted}"
                )
        phase.wall += time.perf_counter() - phase_start
        front_after = front.stats_snapshot()
        totals.admitted += front_after["admitted"] - front_before["admitted"]
        totals.batches += front_after["batches"] - front_before["batches"]
        if (new_edges, duplicates) != (plan["new_edges"], plan["duplicates"]):
            run.fail(
                f"round {self.rounds}: ingested {new_edges} new and "
                f"{duplicates} duplicate edges, expected "
                f"{plan['new_edges']} and {plan['duplicates']}"
            )
        return polled

    async def close_out(
        self,
        front: AsyncFrontDoor,
        plan: dict[str, Any],
        subs: list[str],
        polled: list[int],
        totals: StreamTotals,
    ) -> None:
        """Unsubscribe; every subscription must have emitted exactly
        count(final) - count(base) matches and dropped none."""
        run = self.run
        for i, sub in enumerate(subs):
            request = {"op": "unsubscribe", "id": self.rid(), "subscription_id": sub}
            reply, _ = await exchange(front, request, None)
            if not run.check_reply(reply):
                continue
            row = reply["subscription"]
            totals.searches += row["searches"]
            totals.edges_seen += row["edges_seen"]
            totals.search_seconds += row["search_seconds"]
            totals.matches += row["matches_emitted"]
            totals.dropped += row["emissions_dropped"]
            expected = plan["emissions"][i]
            if row["matches_emitted"] != expected or polled[i] != expected:
                run.fail(
                    f"round {self.rounds} {sub}: emitted "
                    f"{row['matches_emitted']}, polled {polled[i]}, "
                    f"count(final) - count(base) = {expected}"
                )
            if row["emissions_dropped"]:
                run.fail(
                    f"round {self.rounds} {sub}: dropped "
                    f"{row['emissions_dropped']} emissions"
                )

    async def phase(
        self, rounds: Iterator[dict[str, Any]], n: int, recorder: Recorder | None
    ) -> tuple[Phase, StreamTotals]:
        """The next *n* rounds, each a full pass over the stream."""
        phase = Phase()
        totals = StreamTotals()
        for _ in range(n):
            await self.one_round(next(rounds), phase, totals, recorder)
        return phase, totals


async def run_stream(
    header: dict[str, Any], rounds: Iterator[dict[str, Any]], trace: bool
) -> dict[str, Any]:
    run = Run("stream-ingest")
    load = StreamLoad(header, run)
    n = header["rounds"]
    layers: dict[str, float] = {}
    recorder: Recorder | None = None
    if not trace:
        phase, totals = await load.phase(rounds, n, None)
    else:
        plain, _ = await load.phase(rounds, n // 2, None)
        recorder = Recorder()
        phase, totals = await load.phase(rounds, n - n // 2, recorder)
        layers = stream_layers(recorder, phase, totals, run)
        layers["trace.overhead_frac"] = overhead(plain, phase)
    info = dict(header["info"])
    info["edges_per_s"] = ratio(totals.new_edges, totals.ingest_seconds)
    return finish(run, phase, info, layers, recorder, trace)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, *q* in [0, 100]."""
    ranked = sorted(values)
    if not ranked:
        return 0.0
    pos = (len(ranked) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ranked) - 1)
    return ranked[low] + (ranked[high] - ranked[low]) * (pos - low)


def mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def overhead(plain: Phase, traced: Phase) -> float:
    return ratio(traced.timing()["p50_ms"][0], plain.timing()["p50_ms"][0]) - 1.0


@dataclass
class Snapshot:
    """Service counters and front-door counters at one instant."""

    counters: dict[str, float]
    front: dict[str, Any]

    @classmethod
    def take(cls, service: TCSMService, front: AsyncFrontDoor) -> Snapshot:
        counters = service.metrics_snapshot()["counters"]
        return cls(dict(counters), front.stats_snapshot())

    def delta(self, later: Snapshot, name: str) -> float:
        return later.counters.get(name, 0) - self.counters.get(name, 0)


def common_layers(recorder: Recorder, phase: Phase, run: Run) -> dict[str, float]:
    """Layers every workload crosses: wire, front door, server."""
    n = max(1, phase.requests)
    return {
        "wire.decode_us": sum(recorder.durations("wire.decode")) / n * 1e6,
        "wire.encode_us": sum(recorder.durations("wire.encode")) / n * 1e6,
        "front.wait_ms": mean(recorder.front_waits()) * 1e3,
        "server.self_ms": mean(recorder.named_self("server.submit")) * 1e3,
        "graphs.register_ms": statistics.median(run.registers) * 1e3,
    }


def query_layers(
    recorder: Recorder, phase: Phase, before: Snapshot, after: Snapshot, run: Run
) -> dict[str, float]:
    """Per-layer metrics of a traced query phase.  Metrics of layers the
    phase never reached are left out (they read 0)."""
    metrics = common_layers(recorder, phase, run)
    d = before.delta
    batches = after.front["batches"] - before.front["batches"]
    admitted = after.front["admitted"] - before.front["admitted"]
    enumerated = [r for r in phase.replies if r.get("result_cache") != "hit"]
    built = [r["build_seconds"] for r in enumerated if r.get("plan_cache") == "miss"]
    expanded = d(after, "timestamps_expanded")
    metrics.update(
        {
            "front.batch_mean": ratio(admitted, batches),
            "cache.result_hit_frac": ratio(
                d(after, "result_cache_hits"),
                d(after, "result_cache_hits") + d(after, "result_cache_misses"),
            ),
            "cache.result_get_us": mean(recorder.durations("cache.get")) * 1e6,
            "plans.hit_frac": ratio(
                d(after, "plan_cache_hits"),
                d(after, "plan_cache_hits") + d(after, "plan_cache_misses"),
            ),
            "plans.prepare_ms": mean(built) * 1e3,
            "plans.prepare_share": ratio(sum(built), sum(phase.latencies)),
            "executor.queue_ms": mean([r["queue_seconds"] for r in enumerated]) * 1e3,
            "executor.run_ms": mean(
                recorder.durations("executor.run_matcher")
                + recorder.durations("executor.run_process")
            )
            * 1e3,
            "core.match_ms": mean([r["match_seconds"] for r in enumerated]) * 1e3,
            "core.ts_expanded": ratio(expanded, len(enumerated)),
            "core.ts_skipped": ratio(d(after, "timestamps_skipped"), len(enumerated)),
            "core.useful_ratio": ratio(
                sum(r["match_count"] for r in enumerated), expanded
            ),
        }
    )
    by_matcher: dict[str, list[float]] = {}
    for r in enumerated:
        mode = "codegen" if r.get("codegen") else "interp"
        short = r["algorithm"].split("-", 1)[1]
        by_matcher.setdefault(f"core.match_ms.{short}.{mode}", []).append(
            r["match_seconds"]
        )
    for name, times in by_matcher.items():
        metrics[name] = mean(times) * 1e3
    workers = [r for r in enumerated if r.get("worker_compiles")]
    metrics["graphs.worker_compiles"] = mean(
        [mean([float(c) for c in r["worker_compiles"]]) for r in workers]
    )
    metrics["graphs.worker_graph_mb"] = (
        mean([mean([float(b) for b in r["worker_graph_bytes"]]) for r in workers])
        / 1e6
    )
    considered = pruned = 0.0
    for counter in after.counters:
        if counter.startswith("filter_considered."):
            bucket = counter.split(".", 1)[1]
            c = d(after, counter)
            p = d(after, f"filter_pruned.{bucket}")
            metrics[f"filters.pruned_frac.{bucket}"] = ratio(p, c)
            considered += c
            pruned += p
    metrics["filters.pruned_frac"] = ratio(pruned, considered)
    return metrics


def stream_layers(
    recorder: Recorder, phase: Phase, totals: StreamTotals, run: Run
) -> dict[str, float]:
    metrics = common_layers(recorder, phase, run)
    kedges = totals.new_edges / 1000
    metrics.update(
        {
            "front.batch_mean": ratio(totals.admitted, totals.batches),
            "stream.ingest_ms": mean(recorder.durations("stream.ingest")) * 1e3,
            "stream.search_us": ratio(totals.search_seconds, totals.searches) * 1e6,
            "stream.search_frac": ratio(totals.searches, totals.edges_seen),
            "stream.matches_per_search": ratio(totals.matches, totals.searches),
            "stream.poll_ms": mean(recorder.durations("stream.poll")) * 1e3,
            "stream.emit_latency_ms": mean(totals.emit_latencies) * 1e3,
            "stream.dropped": float(totals.dropped),
            "segmented.flushes": ratio(totals.flushes, kedges),
            "segmented.compactions": ratio(totals.compactions, kedges),
            "segmented.append_share": 1.0
            - ratio(totals.search_seconds, totals.ingest_seconds),
        }
    )
    return metrics


def rss_peak_mb() -> float:
    """The largest peak RSS of this process or any reaped child.

    A forked worker's RSS includes the pages it shares with this process,
    so the two peaks are not added.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def finish(
    run: Run,
    phase: Phase,
    info: dict[str, Any],
    layers: dict[str, float],
    recorder: Recorder | None,
    trace: bool,
) -> dict[str, Any]:
    """The workload record: ``values`` maps each metric the run measured
    to ``(value, samples)``.

    In the layer table of a traced query run, enumeration (the replies'
    ``match_seconds``) is carved out of the executor's self time as the
    ``core`` row.
    """
    if trace:
        values = {name: (value, phase.requests) for name, value in layers.items()}
    else:
        values = {
            "setup_s": (statistics.median(run.setups), len(run.setups)),
            **phase.timing(),
            "rss_peak_mb": (rss_peak_mb(), 1),
        }
    info.update(
        measured_requests=phase.requests,
        latency_ms={
            f"p{q}": percentile(phase.latencies, q) * 1e3 for q in (50, 90, 95, 99)
        },
    )
    record: dict[str, Any] = {
        "workload": run.name,
        "trace": trace,
        "attempted": max(1, run.attempted),
        "failed": len(run.failures),
        "correct": not run.failures,
        "failures": run.failures[:10],
        "values": values,
        "workload_info": info,
    }
    if recorder is not None:
        table = recorder.layer_table()
        enumerated = [r for r in phase.replies if r.get("result_cache") != "hit"]
        if enumerated:
            core = sum(r["match_seconds"] for r in enumerated)
            table["executor"]["self_s"] -= core
            table["core"] = {"calls": len(enumerated), "self_s": core}
        record["layers"] = {
            layer: {
                "calls": row["calls"],
                "self_ms_per_request": row["self_s"] / max(1, phase.requests) * 1e3,
            }
            for layer, row in sorted(table.items())
        }
        record["spans"] = recorder.dump()
    return record


def run_workload(name: str, lines: Iterator[str], trace: bool) -> dict[str, Any]:
    """Run the workload whose JSON lines *lines* yields."""
    header = json.loads(next(lines))
    if header["kind"] == "stream":
        rounds = (json.loads(line) for line in lines)
        coro = run_stream(header, rounds, trace)
    else:
        coro = run_queries(name, header, trace)
    return asyncio.run(coro)
