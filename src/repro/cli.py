"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands
-----------
``match``
    Run TCSM matching: a SNAP temporal edge list (plus optional label
    sidecar) against a JSON pattern file (see
    :mod:`repro.graphs.query_io`).
``generate``
    Write a dataset stand-in (or any catalog entry) as a SNAP file with a
    label sidecar — useful for trying the CLI end to end offline.
``pattern-example``
    Write a sample pattern JSON (the paper's q1 with tc2) to edit.
``algorithms``
    List the registered matcher names.
``serve``
    Run the query service as a JSONL request/response loop over stdio:
    graphs are loaded once (``--graph name=path``, repeatable, or via
    ``load_graph`` requests) and served many times with plan/result
    caching and partitioned parallel execution (see docs/SERVICE.md).
``submit``
    Write a JSONL request line for ``serve`` — the two verbs compose
    into shell pipelines: ``repro submit ... | repro serve ...``.
``subscribe``
    Write a JSONL ``subscribe`` request registering a standing pattern
    against a served graph (see docs/STREAMING.md).
``ingest``
    Turn a SNAP-style edge file into batched JSONL ``ingest`` requests;
    piped into ``serve`` it appends edges and drives the standing
    subscriptions' delta searches.
``trace``
    Run one fully traced query (the paper's toy example by default),
    print the span tree and per-filter pruning counters, and optionally
    write Chrome trace-event JSON for chrome://tracing (see
    docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .core import MatchOptions, available_algorithms, find_matches
from .datasets import dataset_keys, load_dataset, paper_constraints, paper_query
from .errors import ReproError
from .graphs import load_pattern, load_snap_temporal, save_pattern, save_snap_temporal

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Temporal-constraint subgraph matching (TCSM).",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    match = sub.add_parser(
        "match", help="match a pattern against a temporal graph"
    )
    match.add_argument("--graph", required=True,
                       help="SNAP temporal edge list ('src dst t' lines)")
    match.add_argument("--pattern", required=True,
                       help="pattern JSON (query + constraints)")
    match.add_argument("--algorithm", default="tcsm-eve",
                       help="matcher name (see 'repro algorithms')")
    match.add_argument("--limit", type=int, default=None,
                       help="stop after this many matches")
    match.add_argument("--time-budget", type=float, default=None,
                       help="wall-clock budget in seconds")
    match.add_argument("--order-by", default="any",
                       choices=("any", "earliest"),
                       help="result order: 'earliest' keeps the top-limit "
                            "matches by latest edge timestamp")
    match.add_argument("--mode", default="enumerate",
                       choices=("enumerate", "count", "estimate"),
                       help="answer shape: enumerate matches, count "
                            "exactly, or estimate via HT sampling")
    match.add_argument("--codegen", action="store_true",
                       help="compile a specialised enumerator for this "
                            "(pattern, plan) before matching")
    match.add_argument("--count-only", action="store_true",
                       help="print only the match count")
    match.add_argument("--json", action="store_true",
                       help="emit matches as JSON lines")
    match.add_argument("--output", default=None,
                       help="also save matches to this .json or .csv file")
    match.add_argument("--num-labels", type=int, default=8,
                       help="random labels when no sidecar exists (default 8)")
    match.add_argument("--seed", type=int, default=0,
                       help="seed for random label assignment")

    generate = sub.add_parser(
        "generate", help="write a dataset stand-in as a SNAP file"
    )
    generate.add_argument("--dataset", default="CM",
                          help=f"catalog key ({', '.join(dataset_keys())})")
    generate.add_argument("--out", required=True, help="output path")
    generate.add_argument("--scale", type=float, default=None)
    generate.add_argument("--num-labels", type=int, default=8)
    generate.add_argument("--seed", type=int, default=0)

    example = sub.add_parser(
        "pattern-example", help="write a sample pattern JSON"
    )
    example.add_argument("--out", required=True, help="output path")

    sub.add_parser("algorithms", help="list registered matcher names")

    serve = sub.add_parser(
        "serve", help="serve JSONL queries over stdio (see docs/SERVICE.md)"
    )
    serve.add_argument("--graph", action="append", default=[],
                       metavar="NAME=PATH",
                       help="preload a SNAP temporal edge list (repeatable)")
    serve.add_argument("--workers", type=int, default=4,
                       help="process-pool size / partitions per query "
                            "(thread-pool queries run as one partition)")
    serve.add_argument("--pool", choices=("thread", "process"),
                       default="thread",
                       help="worker pool flavour (default thread)")
    serve.add_argument("--max-inflight", type=int, default=8,
                       help="admission limit on concurrent queries")
    serve.add_argument("--plan-cache", type=int, default=64,
                       help="prepared-plan cache capacity")
    serve.add_argument("--result-cache", type=int, default=256,
                       help="result cache capacity")
    serve.add_argument("--time-budget", type=float, default=30.0,
                       help="default per-query budget in seconds")
    serve.add_argument("--num-labels", type=int, default=8,
                       help="random labels for graphs without a sidecar")
    serve.add_argument("--seed", type=int, default=0,
                       help="seed for random label assignment")
    serve.add_argument("--trace-sample", type=float, default=0.0,
                       metavar="RATE",
                       help="fraction of queries to trace (0..1, default 0)")
    serve.add_argument("--trace-store", type=int, default=32,
                       help="retained traces before LRU eviction")
    serve.add_argument("--async", dest="use_async", action="store_true",
                       help="serve through the asyncio front door "
                            "(batched admission, per-tenant fairness, "
                            "queue-full shedding)")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="per-tenant queue bound before shedding "
                            "(with --async)")
    serve.add_argument("--batch", type=int, default=8,
                       help="max requests admitted per batch "
                            "(with --async)")

    trace = sub.add_parser(
        "trace", help="run one traced query and show spans + pruning counters"
    )
    trace.add_argument("--graph", default=None,
                       help="SNAP temporal edge list (default: paper toy "
                            "example)")
    trace.add_argument("--pattern", default=None,
                       help="pattern JSON (default: toy pattern)")
    trace.add_argument("--algorithm", default="tcsm-eve",
                       help="matcher name (see 'repro algorithms')")
    trace.add_argument("--limit", type=int, default=None,
                       help="stop after this many matches")
    trace.add_argument("--time-budget", type=float, default=None,
                       help="wall-clock budget in seconds")
    trace.add_argument("--codegen", action="store_true",
                       help="compile a specialised enumerator (adds a "
                            "codegen-compile span to the trace)")
    trace.add_argument("--tighten", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="tighten constraints via STN closure first "
                            "(default on, so the stn-closure span appears)")
    trace.add_argument("--out", default=None,
                       help="write Chrome trace-event JSON here "
                            "(open in chrome://tracing or Perfetto)")
    trace.add_argument("--num-labels", type=int, default=8,
                       help="random labels when no sidecar exists (default 8)")
    trace.add_argument("--seed", type=int, default=0,
                       help="seed for random label assignment")

    submit = sub.add_parser(
        "submit", help="print a JSONL request line for 'repro serve'"
    )
    submit.add_argument("--op", default="query",
                        choices=("query", "metrics", "graphs", "ping",
                                 "trace", "poll", "unsubscribe", "shutdown"),
                        help="request type (default query)")
    submit.add_argument("--graph", default=None,
                        help="registered graph name (query op)")
    submit.add_argument("--pattern", default=None,
                        help="pattern JSON file; inlined into the request")
    submit.add_argument("--algorithm", default=None,
                        help="matcher name (service default: tcsm-eve)")
    submit.add_argument("--limit", type=int, default=None,
                        help="stop after this many matches")
    submit.add_argument("--time-budget", type=float, default=None,
                        help="per-query wall-clock budget in seconds")
    submit.add_argument("--workers", type=int, default=None,
                        help="process-pool partitions for this query")
    submit.add_argument("--order-by", default=None,
                        choices=("any", "earliest"),
                        help="result order: 'earliest' returns the exact "
                             "top-limit matches by latest edge timestamp "
                             "(query op)")
    submit.add_argument("--mode", default=None,
                        choices=("enumerate", "count", "estimate"),
                        help="answer shape: enumerate matches, count "
                             "exactly, or estimate via HT sampling "
                             "(query op)")
    submit.add_argument("--probes", type=int, default=None,
                        help="HT sampling probes for --mode estimate "
                             "(service default: 200)")
    submit.add_argument("--estimate-seed", type=int, default=None,
                        help="RNG seed for --mode estimate (default 0)")
    submit.add_argument("--count-only", action="store_true",
                        help="request match counts without match payloads")
    submit.add_argument("--trace", action="store_true",
                        help="force tracing for this query (query op)")
    submit.add_argument("--trace-id", default=None,
                        help="retrieve one stored trace (trace op; omit to "
                             "list retained trace ids)")
    submit.add_argument("--subscription-id", default=None,
                        help="standing subscription id (poll/unsubscribe ops)")
    submit.add_argument("--max", type=int, default=None, dest="max_items",
                        help="cap emissions drained per poll (poll op)")
    submit.add_argument("--id", default=None,
                        help="request id echoed back in the response")

    subscribe = sub.add_parser(
        "subscribe",
        help="print a JSONL subscribe request registering a standing pattern",
    )
    subscribe.add_argument("--graph", required=True,
                           help="registered graph name on the server")
    subscribe.add_argument("--pattern", required=True,
                           help="pattern JSON file; inlined into the request")
    subscribe.add_argument("--subscription-id", default=None,
                           help="explicit subscription id (server assigns "
                                "'sN' when omitted)")
    subscribe.add_argument("--queue-capacity", type=int, default=None,
                           help="undelivered emissions buffered between "
                                "polls (service default 1024)")
    subscribe.add_argument("--lateness", type=int, default=None,
                           help="out-of-order slack, in timestamp units, "
                                "for partial expiry (default 0)")
    subscribe.add_argument("--search-budget", type=float, default=None,
                           help="seconds per delta search (default "
                                "unbounded, which keeps emissions exact)")
    subscribe.add_argument("--id", default=None,
                           help="request id echoed back in the response")

    ingest = sub.add_parser(
        "ingest",
        help="print batched JSONL ingest requests from an edge file",
    )
    ingest.add_argument("--graph", required=True,
                        help="registered graph name on the server")
    ingest.add_argument("--file", required=True,
                        help="edge file: 'src dst t [label]' lines "
                             "('-' reads stdin)")
    ingest.add_argument("--batch", type=int, default=256,
                        help="edges per ingest request (default 256)")
    ingest.add_argument("--trace", action="store_true",
                        help="trace each ingest batch (segment flushes and "
                             "per-edge delta searches)")
    ingest.add_argument("--id", default=None,
                        help="request id prefix; batches get '<id>-<n>'")
    return parser


def _cmd_match(args: argparse.Namespace) -> int:
    from .core import lint_pattern

    graph = load_snap_temporal(
        args.graph, num_labels=args.num_labels, seed=args.seed
    )
    query, constraints = load_pattern(args.pattern)
    diagnostics = lint_pattern(query, constraints, graph)
    for diagnostic in diagnostics:
        print(diagnostic, file=sys.stderr)
    if any(d.severity == "error" for d in diagnostics):
        print("error: pattern cannot match this graph", file=sys.stderr)
        return 2
    mode = "count" if args.count_only and args.mode == "enumerate" else args.mode
    result = find_matches(
        query,
        constraints,
        graph,
        algorithm=args.algorithm,
        options=MatchOptions(
            limit=args.limit,
            time_budget=args.time_budget,
            collect_matches=not args.count_only and mode == "enumerate",
            order_by=args.order_by,
            mode=mode,
            codegen=args.codegen,
        ),
    )
    if result.estimate is not None:
        est = result.estimate
        if args.json:
            print(json.dumps(est.to_dict()))
        else:
            print(f"~{est.count:.1f} matches "
                  f"(95% CI [{est.ci_low:.1f}, {est.ci_high:.1f}], "
                  f"{est.probes} probes)")
        return 0
    if args.count_only or mode == "count":
        print(result.stats.matches)
        return 0
    if args.output:
        from .core.results import MatchSet

        match_set = MatchSet(result.matches)
        out_path = Path(args.output)
        if out_path.suffix == ".csv":
            match_set.save_csv(out_path)
        else:
            match_set.save_json(out_path, query=query)
        print(f"# saved: {match_set.summary()} -> {out_path}",
              file=sys.stderr)
    for match in result.matches:
        if args.json:
            print(json.dumps({
                "vertices": list(match.vertex_map),
                "edges": [list(edge) for edge in match.edge_map],
            }))
        else:
            edges = " ".join(
                f"({e.u}->{e.v}@{e.t})" for e in match.edge_map
            )
            print(f"vertices={list(match.vertex_map)} edges={edges}")
    truncated = " (stopped at budget)" if result.stats.budget_exhausted else ""
    engine = f"{result.algorithm}+codegen" if args.codegen else result.algorithm
    print(
        f"# {result.num_matches} matches in "
        f"{result.total_seconds:.3f}s with {engine}{truncated}",
        file=sys.stderr,
    )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from .graphs import graph_statistics

    graph = load_dataset(
        args.dataset,
        scale=args.scale,
        num_labels=args.num_labels,
        seed=args.seed,
    )
    save_snap_temporal(graph, args.out)
    print(
        f"wrote {args.out} (labels in {Path(args.out).name}.labels)",
        file=sys.stderr,
    )
    print(graph_statistics(graph).describe(), file=sys.stderr)
    return 0


def _cmd_pattern_example(args: argparse.Namespace) -> int:
    query = paper_query(1)
    constraints = paper_constraints(2, num_edges=query.num_edges)
    save_pattern(query, constraints, args.out)
    print(f"wrote sample pattern (q1, tc2) to {args.out}", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import ServiceConfig, TCSMService, serve_stdio

    if not 0.0 <= args.trace_sample <= 1.0:
        print(f"error: --trace-sample must be within [0, 1], got "
              f"{args.trace_sample}", file=sys.stderr)
        return 2
    config = ServiceConfig(
        max_workers=args.workers,
        pool=args.pool,
        plan_cache_size=args.plan_cache,
        result_cache_size=args.result_cache,
        max_inflight=args.max_inflight,
        default_time_budget=args.time_budget,
        trace_sample_rate=args.trace_sample,
        trace_store_size=args.trace_store,
    )
    with TCSMService(config) as service:
        for spec in args.graph:
            name, sep, path = spec.partition("=")
            if not sep or not name or not path:
                print(f"error: --graph expects NAME=PATH, got {spec!r}",
                      file=sys.stderr)
                return 2
            handle = service.load_graph_file(
                name, path, num_labels=args.num_labels, seed=args.seed
            )
            print(f"# loaded {handle.describe()}", file=sys.stderr)
        if args.use_async:
            import asyncio

            from .service import AsyncFrontConfig, serve_stdio_async

            served = asyncio.run(
                serve_stdio_async(
                    service,
                    sys.stdin,
                    sys.stdout,
                    AsyncFrontConfig(
                        max_queue_depth=args.queue_depth,
                        max_batch=args.batch,
                    ),
                )
            )
        else:
            served = serve_stdio(service, sys.stdin, sys.stdout)
    print(f"# served {served} requests", file=sys.stderr)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .core import MatchOptions
    from .obs import Tracer, render_span_tree, write_chrome_trace

    if (args.graph is None) != (args.pattern is None):
        print("error: 'trace' needs both --graph and --pattern (or neither "
              "for the built-in toy example)", file=sys.stderr)
        return 2
    if args.graph is None:
        from .datasets import toy_instance

        query, constraints, graph, _, _ = toy_instance()
        source = "toy example (paper Fig. 2)"
    else:
        graph = load_snap_temporal(
            args.graph, num_labels=args.num_labels, seed=args.seed
        )
        query, constraints = load_pattern(args.pattern)
        source = args.graph
    tracer = Tracer()
    result = find_matches(
        query,
        constraints,
        graph,
        algorithm=args.algorithm,
        options=MatchOptions(
            limit=args.limit,
            time_budget=args.time_budget,
            tighten=args.tighten,
            codegen=args.codegen,
        ),
        tracer=tracer,
    )
    engine = f"{args.algorithm}+codegen" if args.codegen else args.algorithm
    print(f"# traced {engine} on {source}: "
          f"{result.num_matches} matches in {result.total_seconds:.4f}s")
    print(render_span_tree(tracer))
    summary = result.stats.filter_summary()
    if summary:
        width = max(len(name) for name in summary)
        print(f"{'filter':<{width}}  considered     pruned  survivors")
        for name, row in summary.items():
            print(f"{name:<{width}}  {row['considered']:>10} "
                  f"{row['pruned']:>10} {row['survivors']:>10}")
    if result.stats.timestamps_expanded or result.stats.timestamps_skipped:
        print(f"# timestamps expanded: {result.stats.timestamps_expanded}")
        print(f"# timestamps skipped:  {result.stats.timestamps_skipped}")
    if args.out:
        write_chrome_trace(tracer, args.out)
        print(f"# wrote Chrome trace ({len(tracer)} spans) -> {args.out}",
              file=sys.stderr)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    request: dict[str, object] = {"op": args.op}
    if args.id is not None:
        request["id"] = args.id
    if args.op == "query":
        if args.graph is None or args.pattern is None:
            print("error: 'submit --op query' needs --graph and --pattern",
                  file=sys.stderr)
            return 2
        from .graphs import pattern_to_dict

        query, constraints = load_pattern(args.pattern)
        request["graph"] = args.graph
        request["pattern"] = pattern_to_dict(query, constraints)
        if args.algorithm is not None:
            request["algorithm"] = args.algorithm
        if args.limit is not None:
            request["limit"] = args.limit
        if args.time_budget is not None:
            request["time_budget"] = args.time_budget
        if args.workers is not None:
            request["workers"] = args.workers
        if args.order_by is not None:
            request["order_by"] = args.order_by
        if args.mode is not None:
            request["mode"] = args.mode
        if args.probes is not None:
            request["probes"] = args.probes
        if args.estimate_seed is not None:
            request["seed"] = args.estimate_seed
        if args.count_only:
            request["count_only"] = True
        if args.trace:
            request["trace"] = True
    elif args.op == "trace" and args.trace_id is not None:
        request["trace_id"] = args.trace_id
    elif args.op in ("poll", "unsubscribe"):
        if args.subscription_id is None:
            print(f"error: 'submit --op {args.op}' needs --subscription-id",
                  file=sys.stderr)
            return 2
        request["subscription_id"] = args.subscription_id
        if args.op == "poll" and args.max_items is not None:
            request["max"] = args.max_items
    print(json.dumps(request))
    return 0


def _cmd_subscribe(args: argparse.Namespace) -> int:
    from .graphs import pattern_to_dict

    query, constraints = load_pattern(args.pattern)
    request: dict[str, object] = {
        "op": "subscribe",
        "graph": args.graph,
        "pattern": pattern_to_dict(query, constraints),
    }
    if args.id is not None:
        request["id"] = args.id
    if args.subscription_id is not None:
        request["subscription_id"] = args.subscription_id
    if args.queue_capacity is not None:
        request["queue_capacity"] = args.queue_capacity
    if args.lateness is not None:
        request["lateness"] = args.lateness
    if args.search_budget is not None:
        request["search_budget"] = args.search_budget
    print(json.dumps(request))
    return 0


def _parse_edge_line(line: str, lineno: int) -> list[object] | None:
    """Parse one 'src dst t [label]' edge line (None for blank/comment)."""
    text = line.strip()
    if not text or text.startswith("#"):
        return None
    parts = text.split()
    if len(parts) not in (3, 4):
        raise ReproError(
            f"edge line {lineno} needs 'src dst t [label]', got {text!r}"
        )
    try:
        edge: list[object] = [int(parts[0]), int(parts[1]), int(parts[2])]
    except ValueError as exc:
        raise ReproError(
            f"edge line {lineno}: non-integer src/dst/t in {text!r}"
        ) from exc
    if len(parts) == 4:
        label = parts[3]
        edge.append(int(label) if label.lstrip("-").isdigit() else label)
    return edge


def _cmd_ingest(args: argparse.Namespace) -> int:
    if args.batch < 1:
        print(f"error: --batch must be >= 1, got {args.batch}",
              file=sys.stderr)
        return 2
    if args.file == "-":
        lines = sys.stdin
    else:
        lines = Path(args.file).open(encoding="utf-8")
    batches = 0
    edges: list[list[object]] = []

    def flush() -> None:
        nonlocal batches, edges
        if not edges:
            return
        batches += 1
        request: dict[str, object] = {
            "op": "ingest",
            "graph": args.graph,
            "edges": edges,
        }
        if args.trace:
            request["trace"] = True
        if args.id is not None:
            request["id"] = f"{args.id}-{batches}"
        print(json.dumps(request))
        edges = []

    total = 0
    try:
        for lineno, line in enumerate(lines, start=1):
            edge = _parse_edge_line(line, lineno)
            if edge is None:
                continue
            edges.append(edge)
            total += 1
            if len(edges) >= args.batch:
                flush()
    finally:
        if lines is not sys.stdin:
            lines.close()
    flush()
    print(f"# {total} edges in {batches} ingest requests", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "match":
            return _cmd_match(args)
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "pattern-example":
            return _cmd_pattern_example(args)
        if args.command == "algorithms":
            for name in available_algorithms():
                print(name)
            return 0
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "submit":
            return _cmd_submit(args)
        if args.command == "subscribe":
            return _cmd_subscribe(args)
        if args.command == "ingest":
            return _cmd_ingest(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser.error(f"unknown command {args.command!r}")
    return 2  # pragma: no cover - parser.error raises


if __name__ == "__main__":  # pragma: no cover - module entry
    sys.exit(main())
