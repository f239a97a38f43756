"""One serving benchmark for TCSM: five workloads, end-to-end and per-layer.

Usage (from the repository root)::

    python3 benchmarks/suite/run.py --seed 1                  # all five
    python3 benchmarks/suite/run.py --workload hot-mix --seed 3 --seconds 15
    python3 benchmarks/suite/run.py --workload enum-heavy --seed 1 --trace
    python3 benchmarks/suite/run.py --seed 1 --repeat 5 --out base.json
    python3 benchmarks/suite/run.py --compare base.json new.json
    python3 benchmarks/suite/run.py --smoke

This process generates each workload's inputs and reference answers
(:mod:`inputs`), then runs the workload in a fresh subprocess of this
script (``--child``) that reads them on its standard input, so memory and
garbage-collector state never leak from one workload into the next, and
the measured process holds nothing but the service and its requests.
The program under test is imported from ``src/`` of the checkout this
script sits in; without it the script exits with status 2.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit status is 0 only when
every answer was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
#: Seconds of work per workload in ``--smoke`` (with tiny graphs).
SMOKE_SECONDS = 1.0
#: Wall time a workload process may take.  Its work is sized to
#: ``--seconds``, so this only stops a run that hangs.
CHILD_TIMEOUT_SECONDS = 150.0


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="TCSM serving benchmark (see benchmarks/suite/README.md)"
    )
    parser.add_argument(
        "--workload",
        action="append",
        help="workload to run (repeatable; default: all five)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="work per workload, sized to last about this long "
        "(default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="traced run, reporting the per-layer metrics instead; "
        "'--trace' and '--trace 1' turn it on, '--trace 0' leaves it off",
    )
    parser.add_argument("--trace-out", help="write the traced run's spans here")
    parser.add_argument("--out", help="write the run record (JSON) here")
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="run each workload N times, with seeds seed .. seed+N-1",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="every workload at tiny size"
    )
    parser.add_argument(
        "--compare",
        nargs=2,
        metavar=("BASE", "NEW"),
        help="compare two --out records against the bounds",
    )
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument(
        "--corrupt-reference", action="store_true", help=argparse.SUPPRESS
    )
    return parser.parse_args(argv)


def catalogue(
    values: dict[str, list[float]], entries: list[dict[str, Any]], required: bool
) -> dict[str, dict[str, Any]]:
    """The metrics BENCHMARK.json lists, in its order and with its units.

    ``values`` maps a metric name to ``(value, samples)``.  A per-layer
    metric of a layer the workload never reached reads 0; an end-to-end
    metric must have been measured.
    """
    metrics: dict[str, dict[str, Any]] = {}
    for entry in entries:
        name = entry["name"]
        value, samples = values[name] if required else values.get(name, (0.0, 0))
        metrics[name] = {"value": value, "unit": entry["unit"], "samples": samples}
    return metrics


def child_main(args: argparse.Namespace, bench: dict[str, Any]) -> int:
    """Run one workload, read from standard input, and print its record."""
    from workloads import run_workload

    trace = bool(args.trace)
    record = run_workload(args.child, iter(sys.stdin), trace)
    values = record.pop("values")
    if trace:
        record["metrics"] = catalogue(values, bench["per_layer"], required=False)
    else:
        record["metrics"] = catalogue(values, bench["end_to_end"], required=True)
    spans = record.pop("spans", None)
    if args.trace_out and spans is not None:
        Path(args.trace_out).write_text(
            json.dumps({"workload": args.child, "seed": args.seed, "spans": spans})
        )
    record["seed"] = args.seed
    print(json.dumps(record))
    return 0


def spawn(
    args: argparse.Namespace, workload: str, seed: int, trace_out: str | None
) -> dict[str, Any] | None:
    """Make *workload*'s inputs, run it in a fresh interpreter, and
    return its record, or None."""
    from inputs import make_inputs

    lines = make_inputs(
        workload, seed, args.seconds, args.smoke, args.corrupt_reference
    )
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--child",
        workload,
        "--seed",
        str(seed),
    ]
    if args.trace:
        command.append("--trace")
    if trace_out:
        command += ["--trace-out", trace_out]
    # A fixed hash seed takes string-hash layout out of the run-to-run
    # variation; the workload seed still decides every input.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(
            command,
            env=env,
            input="\n".join(lines) + "\n",
            stdout=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_SECONDS,
            check=False,
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: timed out", file=sys.stderr)
        return None
    output = done.stdout.strip().splitlines()
    if done.returncode != 0 or not output:
        print(f"{workload}: exited with {done.returncode}", file=sys.stderr)
        return None
    return json.loads(output[-1])


def trace_path(base: str | None, workload: str, seed: int, many: bool) -> str | None:
    """``--trace-out`` as given for one run, else one file per run."""
    if base is None or not many:
        return base
    path = Path(base)
    return str(path.with_name(f"{path.stem}.{workload}.{seed}{path.suffix}"))


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench = json.loads(BENCHMARK.read_text())
    if args.compare:
        from report import compare

        return compare(args.compare[0], args.compare[1], bench)
    if args.child:
        return child_main(args, bench)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(bench["run_seconds"])

    from report import environment, print_environment, print_record, result_line

    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workload or names
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    env = environment(ROOT, args.seed, args.seconds, args.smoke)
    print_environment(env)
    many = len(workloads) * args.repeat > 1
    records: list[dict[str, Any]] = []
    for offset in range(args.repeat):
        for workload in workloads:
            seed = args.seed + offset
            trace_out = trace_path(args.trace_out, workload, seed, many)
            record = spawn(args, workload, seed, trace_out)
            if record is None:
                return 1
            print_record(record)
            sys.stdout.flush()
            records.append(record)
    if args.out:
        Path(args.out).write_text(
            json.dumps({"environment": env, "runs": records}, indent=1) + "\n"
        )
    line = result_line(records)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
