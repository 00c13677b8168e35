"""Command-line bench tool, mirroring the artifact's ``test_rdma``.

The paper's appendix (A.4.1) runs::

    LD_PRELOAD=libmlx5.so ./test/test_rdma 96 8

and prints::

    rdma-read: #threads=96, #depth=8, #block_size=8, BW=848.217 MB/s,
    IOPS=111.177 M/s, conn establish time=1245.924 ms

This module provides the simulated equivalent::

    python -m repro.bench.cli 96 8 --policy smart
    python -m repro.bench.cli --help

and can append a CSV line to a dump file, exactly like the artifact.

Figure grids run through the same tool: ``--figure fig7`` regenerates a
paper figure, and ``--jobs N`` (or ``REPRO_JOBS=N``) fans its
independent simulation points out over a process pool.

``traffic`` is a subcommand driving the open-loop Poisson queue::

    python -m repro.bench.cli traffic --app hashtable --rate 2.0
    python -m repro.bench.cli traffic --sweep 0.5,1,2,4 --json knee.json

A single run prints one row; ``--sweep`` runs the ``latency_throughput``
knee-finder experiment over the given offered rates instead.

``claims`` runs the claim-bearing figure grids, evaluates the paper's
claims (``repro.bench.claims``) on them and prints the scorecard::

    python -m repro.bench.cli claims --jobs 2 > docs/SCORECARD.md
    python -m repro.bench.cli claims --figure fig3 --figure fig4
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from typing import Callable, List, Optional

from repro.bench.microbench import OPS, POLICIES, run_microbench
from repro.bench.parallel import default_jobs
from repro.bench.report import format_table, write_experiment_json
from repro.bench.runner import APPS, RunArgumentError
from repro.workloads import ycsb

#: ``traffic --workload`` choices
_WORKLOADS = {
    w.name: w
    for w in (ycsb.WRITE_HEAVY, ycsb.READ_HEAVY, ycsb.READ_ONLY, ycsb.UPDATE_ONLY)
}


#: The flags several subcommands share, declared once as their
#: ``add_argument`` keywords.  A subcommand passes its own default; where
#: the published ``--help`` of one subcommand words a flag differently,
#: it passes that wording as an override.
_COMMON_FLAGS = {
    "threads": {"type": int},
    "measure_us": {"type": float},
    "seed": {"type": int},
    "jobs": {"type": int, "help": "process-pool workers (0 = all cores)"},
    "json": {"metavar": "PATH", "help": "also write the result as JSON to PATH"},
}


def add_common_flags(parser: argparse.ArgumentParser,
                     overrides: Optional[dict] = None, **defaults) -> None:
    """Declare the shared flags named in ``defaults`` (in that order) on
    ``parser``, each with this subcommand's default; ``overrides`` maps
    a flag to the ``add_argument`` keywords it words differently."""
    for name, default in defaults.items():
        keywords = {**_COMMON_FLAGS[name], **(overrides or {}).get(name, {})}
        parser.add_argument("--" + name.replace("_", "-"), default=default,
                            **keywords)


def _csv(text: Optional[str], convert: Callable) -> Optional[tuple]:
    """``"a,b"`` -> ``(convert("a"), convert("b"))``; ``None`` (the
    sweep's own grid) when the flag was not given."""
    if not text:
        return None
    return tuple(convert(item) for item in text.split(",") if item.strip())


def _write_json(path: str, payload) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {path}")


#: ``traffic`` flags of one point that ``--sweep`` does not take: the
#: knee sweep runs each app's baseline and SMART system on its default
#: mix, benchmark and seed, at the rates ``--sweep`` lists
_ONE_POINT_FLAGS = ("system", "workload", "theta", "benchmark", "rate", "seed")


def _check_load(args) -> None:
    """Reject a skew or sweep rate the workload and arrival models refuse
    (a traceback, not a usage error), and a one-point flag beside
    ``--sweep`` (silently dropped, not swept), before anything is built;
    the runner itself refuses a zero rate or worker count."""
    if args.theta is not None and not args.theta >= 0:
        raise RunArgumentError(f"--theta must be >= 0, got {args.theta}")
    if any(not rate > 0 for rate in _csv(args.sweep, float) or ()):
        raise RunArgumentError(f"--sweep rates must be > 0, got {args.sweep}")
    if args.sweep is not None:
        defaults = build_traffic_parser()
        for name in _ONE_POINT_FLAGS:
            default = defaults.get_default(name)
            if getattr(args, name) != default:
                raise RunArgumentError(
                    f"--{name} must be left at its default ({default}) with "
                    f"--sweep, got {getattr(args, name)}")


def _check_jobs(args) -> None:
    """A negative ``--jobs`` is a usage error, not a pool traceback."""
    if args.jobs is not None and args.jobs < 0:
        raise RunArgumentError(
            f"--jobs must be >= 0 (0 = all cores), got {args.jobs}")


def _run_sweep(args, sweep: Callable, tag: str = "", **grid) -> int:
    """Run a sweep experiment over the ``--jobs`` pool, print its table
    (``tag`` prefixes the timing line) and write ``--json``."""
    _check_jobs(args)
    jobs = args.jobs if args.jobs is not None else default_jobs()
    started = time.time()  # lint: disable=SIM001 (host wall clock)
    result = sweep(jobs=jobs, **grid)
    wall_s = time.time() - started  # lint: disable=SIM001 (host wall clock)
    print(result.format())
    print(f"{tag}wall time={wall_s:.1f} s (jobs={jobs})")
    if args.json:
        print(f"wrote {write_experiment_json(result, args.json)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="simulated equivalent of SMART's test_rdma micro-benchmark",
    )
    parser.add_argument("threads", type=int, nargs="?", default=96,
                        help="worker thread count (default: 96)")
    parser.add_argument("depth", type=int, nargs="?", default=8,
                        help="outstanding work requests per thread (default: 8)")
    parser.add_argument("--policy", choices=POLICIES, default="smart",
                        help="QP allocation policy (default: smart)")
    parser.add_argument("--op", choices=OPS, default="read")
    parser.add_argument("--block-size", type=int, default=8,
                        help="payload bytes per work request (default: 8)")
    parser.add_argument("--memory-nodes", type=int, default=1)
    add_common_flags(
        parser, {"measure_us": {"help": "measured window, simulated microseconds"},
                 "seed": {"help": "draws the WR addresses and each thread's memory node"}},
        measure_us=1500.0, seed=1,
    )
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="fault schedule: 'seeded' or clause list, e.g. "
                             "'loss=0.02@0.5ms+1ms,crash=1@0.8ms+0.4ms' "
                             "(kind=value@start+duration[:node])")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="seed for the fault schedule / per-message draws "
                             "(same seed replays a faulty run bit-identically)")
    parser.add_argument("--sanitize", action="store_true",
                        help="attach RDMASan (remote-memory race sanitizer); "
                             "exits 1 when any finding or leak is reported")
    parser.add_argument("--dump-file-path", default=None,
                        help="append a CSV result line to this file")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a Perfetto/chrome://tracing timeline "
                             "(JSON) of the run to PATH")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write the metrics (counters, gauges, "
                             "latency histograms) as JSON to PATH")
    parser.add_argument("--figure", default=None, metavar="NAME",
                        help="regenerate a paper figure/table grid instead of "
                             "a single point (fig3..fig14, table1; 'all' runs "
                             "the whole suite)")
    add_common_flags(
        parser,
        {"jobs": {"metavar": "N",
                  "help": "process-pool workers for --figure grids "
                          "(default: $REPRO_JOBS or 1 = serial; "
                          "0 = all cores)"},
         "json": {"help": "with --figure: also write the result rows as JSON"}},
        jobs=None, json=None,
    )
    return parser


def build_traffic_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench traffic",
        description="open-loop Poisson load "
                    "(arrivals independent of completions)",
    )
    parser.add_argument("--app", choices=tuple(APPS), default="hashtable")
    parser.add_argument("--system", default=None,
                        help="system under test (default: the SMART variant "
                             "for --app; e.g. race, smart-ht, ford, sherman)")
    parser.add_argument("--workload", choices=tuple(_WORKLOADS), default=None,
                        help="YCSB mix for hashtable/btree (default: write-heavy)")
    parser.add_argument("--theta", type=float, default=None,
                        help="override the workload's Zipfian skew")
    parser.add_argument("--benchmark", choices=("smallbank", "tatp"),
                        default="smallbank", help="DTX benchmark")
    parser.add_argument("--rate", type=float, default=1.0,
                        help="offered Poisson load in MOPS")
    parser.add_argument("--workers", type=int, default=16,
                        help="worker coroutines draining the queue")
    add_common_flags(parser, threads=8)
    parser.add_argument("--servers", type=int, default=1,
                        help="btree only: combined compute+memory blades")
    parser.add_argument("--item-count", type=int, default=30_000)
    parser.add_argument("--warmup-us", type=float, default=1000.0)
    add_common_flags(parser, {"seed": {"help": "draws the op stream and the arrival gaps"}},
                     measure_us=1500.0, seed=0)
    parser.add_argument("--sweep", default=None, metavar="RATES",
                        help="comma-separated offered rates (MOPS): run the "
                             "latency_throughput knee sweep instead of one point")
    add_common_flags(
        parser,
        {"jobs": {"metavar": "N",
                  "help": "process-pool workers for --sweep (0 = all cores)"},
         "json": {"help": "also write results as JSON to PATH"}},
        jobs=None, json=None,
    )
    return parser


def build_claims_parser() -> argparse.ArgumentParser:
    from repro.bench.claims import CLAIMS

    parser = argparse.ArgumentParser(
        prog="repro-bench claims",
        description="run the claim-bearing figure grids and print the "
                    "scorecard (docs/SCORECARD.md is this command's output)",
    )
    parser.add_argument("--figure", action="append", choices=tuple(CLAIMS),
                        metavar="KEY",
                        help="only this figure's section (repeatable; "
                             f"default: all of {', '.join(CLAIMS)})")
    add_common_flags(parser, jobs=None)
    return parser


def _run_claims(args) -> int:
    from repro.bench.claims import CLAIMS, scorecard

    _check_jobs(args)
    # stdout is the document; progress goes to stderr
    print(scorecard(args.figure or list(CLAIMS), args.jobs,
                    progress=lambda line: print(line, file=sys.stderr)), end="")
    return 0


def _run_traffic(args) -> int:
    _check_load(args)
    if args.sweep is not None:
        from repro.bench.experiments import latency_throughput

        return _run_sweep(
            args, latency_throughput, app=args.app,
            rates_mops=_csv(args.sweep, float), threads=args.threads,
            workers=args.workers, item_count=args.item_count,
            warmup_ns=args.warmup_us * 1e3, measure_ns=args.measure_us * 1e3,
        )

    from repro.traffic import run_open_loop

    workload = _WORKLOADS.get(args.workload)
    if args.theta is not None:
        workload = (workload or ycsb.WRITE_HEAVY).with_theta(args.theta)

    started = time.time()  # lint: disable=SIM001 (host wall clock)
    result = run_open_loop(
        app=args.app, system=args.system, rate_mops=args.rate,
        workload=workload, workers=args.workers, threads=args.threads,
        servers=args.servers, item_count=args.item_count,
        benchmark=args.benchmark, warmup_ns=args.warmup_us * 1e3,
        measure_ns=args.measure_us * 1e3, seed=args.seed,
    )
    wall_s = time.time() - started  # lint: disable=SIM001 (host wall clock)
    print(format_table(
        ["offered", "achieved", "backlog", "p50_us", "p99_us", "queue_p99_us"],
        [[result.offered_mops, result.achieved_mops, result.backlog,
          (result.p50_latency_ns or 0) / 1e3, (result.p99_latency_ns or 0) / 1e3,
          (result.queue_p99_ns or 0) / 1e3]],
        title=f"open-loop {result.app} ({result.system}), Poisson arrivals",
    ))
    print(f"wall time={wall_s:.1f} s")
    if args.json:
        _write_json(args.json, dataclasses.asdict(result))
    return 0


def run_figures(args) -> int:
    from repro.bench.experiments import ALL_EXPERIMENTS

    if args.trace or args.metrics_out:
        print("--trace/--metrics-out apply to single-point runs, "
              "not --figure grids", file=sys.stderr)
        return 2
    names = list(ALL_EXPERIMENTS) if args.figure == "all" else [args.figure]
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown figure(s) {unknown}; choose from "
              f"{', '.join(ALL_EXPERIMENTS)} or 'all'", file=sys.stderr)
        return 2
    if len(names) > 1 and args.json and args.json.endswith(".json"):
        # A .json target is the file itself: each figure would overwrite it.
        print("--json must be a directory (one <figure>.json each) when "
              f"several figures run, got {args.json!r}", file=sys.stderr)
        return 2
    for name in names:
        _run_sweep(args, ALL_EXPERIMENTS[name], tag=f"[{name}] ")
        print()
    return 0


def format_phase_breakdown(breakdown) -> str:
    """Render the per-phase latency table printed under a traced run."""
    from repro.obs.tracing import SEGMENTS

    lines = [
        "batch lifecycle breakdown "
        f"({breakdown['batches']:.0f} complete batches):",
        f"  {'segment':<24}{'mean ns':>12}{'share':>8}",
    ]
    total = breakdown["total"] or 1.0
    for name, _, _ in SEGMENTS:
        lines.append(
            f"  {name:<24}{breakdown[name]:>12.1f}"
            f"{breakdown[name] / total:>7.1%}"
        )
    lines.append(f"  {'total':<24}{breakdown['total']:>12.1f}")
    return "\n".join(lines)


def run_bench(args) -> int:
    """The default command: one point, or a ``--figure`` grid."""
    return run_figures(args) if args.figure else run_single(args)


def run_single(args) -> int:
    obs = None
    if args.trace or args.metrics_out:
        from repro.obs import Observability

        obs = Observability()
    started = time.time()  # lint: disable=SIM001 (host wall clock)
    result = run_microbench(
        policy=args.policy,
        threads=args.threads,
        depth=args.depth,
        payload=args.block_size,
        op=args.op,
        memory_nodes=args.memory_nodes,
        measure_ns=args.measure_us * 1e3,
        seed=args.seed,
        faults=args.faults,
        fault_seed=args.fault_seed,
        obs=obs,
        sanitize=args.sanitize,
    )
    bandwidth_mbps = result.throughput_mops * args.block_size
    wall_ms = (time.time() - started) * 1e3  # lint: disable=SIM001 (host wall clock)
    print(
        f"rdma-{args.op}: #threads={args.threads}, #depth={args.depth}, "
        f"#block_size={args.block_size}, BW={bandwidth_mbps:.3f} MB/s, "
        f"IOPS={result.throughput_mops:.3f} M/s, "
        f"sim wall time={wall_ms:.3f} ms"
    )
    if args.faults:
        print(
            f"faults: dropped={result.messages_dropped}, "
            f"retransmits={result.retransmissions}, "
            f"wasted_wrs={result.wasted_wrs}"
        )
    if args.dump_file_path:
        with open(args.dump_file_path, "a") as dump:
            dump.write(
                f"rdma-{args.op},{args.threads},{args.depth},{args.block_size},"
                f"{bandwidth_mbps:.3f},{result.throughput_mops:.3f},{wall_ms:.3f}\n"
            )
    if obs is not None:
        if result.phase_breakdown:
            print(format_phase_breakdown(result.phase_breakdown))
        obs.write(
            trace_path=args.trace,
            metrics_path=args.metrics_out,
            metadata={
                "bench": f"rdma-{args.op}",
                "threads": args.threads,
                "depth": args.depth,
                "block_size": args.block_size,
                "policy": args.policy,
            },
        )
        for path in (args.trace, args.metrics_out):
            if path:
                print(f"wrote {path}")
    if result.sanitizer is not None:
        report = result.sanitizer
        print(
            f"rdmasan: ops_checked={report['ops_checked']}, "
            f"findings={len(report['findings'])}, leaks={len(report['leaks'])}"
        )
        for finding in report["findings"]:
            print(f"  {finding['kind']}: blade={finding['blade']} "
                  f"region={finding['region']} addr={finding['addr']:#x} "
                  f"bytes={finding['bytes']}")
        for leak in report["leaks"]:
            details = " ".join(f"{key}={value}" for key, value in leak.items()
                                if key != "kind")
            print(f"  leak {leak['kind']}: {details}")
        if report["findings"] or report["leaks"]:
            return 1
    return 0


#: subcommand -> (parser builder, handler); ``None`` is the bench tool itself
SUBCOMMANDS = {
    None: (build_parser, run_bench),
    "traffic": (build_traffic_parser, _run_traffic),
    "claims": (build_claims_parser, _run_claims),
}


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    name = argv[0] if argv and argv[0] in SUBCOMMANDS else None
    build, handler = SUBCOMMANDS[name]
    try:
        return handler(build().parse_args(argv[1:] if name else argv))
    except RunArgumentError as error:
        print(error, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
