#!/usr/bin/env python3
"""The repo's end-to-end + per-layer host-performance benchmark.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
                                  [--seconds S] [--trace 0|1] [--check]

Runs pinned simulation points (see WORKLOADS and README.md), prints
every metric by name with its unit, checks the simulated outputs and
ends with one JSON line.  Without ``--workload`` each workload runs in
its own subprocess, one after another.  It claims no gain and gates
nothing itself: ``BENCHMARK.json`` at the repo root carries the bounds.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import pathlib
import re
import resource
import subprocess
import sys
import time
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
REPO = HERE.parent.parent
RESULTS_DIR = REPO / "benchmarks" / "results" / "e2e"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(REPO / "src"))

import layers  # noqa: E402  (benchmarks/e2e/layers.py)
from probe import Probe, Repeat  # noqa: E402

#: ``--seconds`` the pinned windows below are sized for: at this value
#: the measured windows of one run add up to 6-16 host seconds on the
#: box they were sized on.  Another value scales every window by one
#: common factor, never a thread, coroutine or item count.
NOMINAL_SECONDS = 10.0

#: layers whose self time ``BENCHMARK.json`` names (every discovered
#: layer is timed and written to the trace file)
TRACED_LAYERS = (
    "sim", "rnic", "network", "memory", "core", "apps", "workloads",
    "bench", "cluster",
)


@dataclasses.dataclass(frozen=True)
class Workload:
    """One pinned, closed-loop simulation point."""

    name: str
    runner: str  # run_microbench | run_hashtable | run_dtx
    repeats: int  # R: R-1 on seeds of their own, the last replays the first
    measure_ns: float  # simulated window at NOMINAL_SECONDS
    kwargs: Dict[str, Any]  # keyword arguments besides measure_ns, seed
    ycsb: Optional[str]  # YCSB mix passed as workload=, zipfian theta 0.99
    op: str
    why: str
    #: ``OperationStats.failed_ops`` counts operations that ended in a
    #: logical "no": a lookup that found nothing, a transaction its own
    #: business rule rolled back.  On the pinned points that only happens
    #: to SmallBank (SendPayment from an account Amalgamate emptied, ~4 %
    #: of transactions, a correct outcome by the benchmark's spec), so
    #: there they are reported (``core.failed_ops``) but are not failures.
    rollbacks_are_outcomes: bool = False


_APP = dict(threads=16, coroutines=8, item_count=100_000, warmup_ns=1e6)

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "verbs_micro", "run_microbench", 5, 1.6e6,
        dict(policy="per-thread-db", threads=96, depth=8, payload=8, op="read",
             warmup_ns=0.4e6, latency_samples=True),
        None, "WR",
        "raw verbs (Fig 3/4/13): sim+rnic+memory only, no core/apps, tiny "
        "setup - a kernel or RNIC-engine change shows most, an app change "
        "must show nothing",
    ),
    Workload(
        "ht_write_skew", "run_hashtable", 3, 1.6e6,
        dict(system="smart-ht", **_APP), "WRITE_HEAVY", "op",
        "contended hash table (Fig 5/7/14): READ-CAS-retry, backoff and "
        "adaptive credit make core and apps.race do their most work",
    ),
    Workload(
        "ht_read_only", "run_hashtable", 3, 0.6e6,
        dict(system="smart-ht", **_APP), "READ_ONLY", "op",
        "same deployment and skew, lookups only: no CAS, no retries, highest "
        "op rate, so per-op fixed costs weigh most; a retry-path gain bought "
        "at the expense of reads shows here",
    ),
    Workload(
        "dtx_smallbank", "run_dtx", 4, 10.0e6,
        dict(system="smart-dtx", benchmark="smallbank", **_APP), None, "txn",
        "longest ops (read, lock-CAS, validate, NVM undo-log, write-back, "
        "unlock over 2 replicas): apps.ford and memory do most, lowest op rate",
        rollbacks_are_outcomes=True,
    ),
)}


def point_kwargs(workload: Workload, seed: int, measure_ns: float) -> Dict[str, Any]:
    """The keyword arguments of one runner call."""
    kwargs = dict(workload.kwargs, measure_ns=measure_ns, seed=seed)
    if workload.ycsb is not None:
        from repro.workloads import ycsb

        kwargs["workload"] = getattr(ycsb, workload.ycsb).with_theta(0.99)
    return kwargs


def runner_seeds(seed: int, repeats: int) -> List[int]:
    """The runner seed of each repeat of one run.

    The contended points are chaotic in their seed: over ten seeds the
    simulated throughput of one ``ht_write_skew`` window spreads by 8 %
    and the p99 of one ``dtx_smallbank`` window by 15-20 %, and longer
    windows narrow that only slowly.  So the first R-1 repeats each take
    a seed of their own and the run reports their pooled counts and mean
    latencies — more simulated evidence for the same host time — while
    the last repeat replays the first for the determinism guard.
    Different ``--seed`` values share no runner seed.
    """
    first = seed * repeats
    return [first + i for i in range(repeats - 1)] + [first]


def distinct(repeats: List[Repeat]) -> List[Repeat]:
    """The repeats that ran on seeds of their own (all but the replay)."""
    return repeats[:-1] if len(repeats) > 1 else repeats


def pool(repeats: List[Repeat]) -> Repeat:
    """Several repeats' measured windows as one: counts, ops and
    simulated time summed; simulated latencies, throughput and
    utilisations averaged."""
    n = len(repeats)

    def total(field: str):
        return sum(getattr(r, field) for r in repeats)

    return dataclasses.replace(
        repeats[0],
        window_sim_ns=total("window_sim_ns"), ops=total("ops"),
        failed_ops=total("failed_ops"), retries=total("retries"),
        counts={name: sum(r.counts[name] for r in repeats) for name in repeats[0].counts},
        requester_util=total("requester_util") / n,
        responder_util=total("responder_util") / n,
        sim_mops=total("sim_mops") / n,
        sim_p50_ns=total("sim_p50_ns") / n,
        sim_p99_ns=total("sim_p99_ns") / n,
    )


# -- metrics -------------------------------------------------------------------

Metric = Tuple[float, str]  # value, unit


#: the share of a run's window slices that are at least as fast as the
#: one reported: low, because the noise only ever adds time
QUIET_QUANTILE = 0.10


def quiet_ns_per_event(repeats: List[Repeat]) -> float:
    """Host ns per kernel event of the measured windows, undisturbed.

    Every window of the run is timed in slices (see probe.py); this is
    the QUIET_QUANTILE-th fastest of all of them.  On a shared box the
    noise is one-sided and comes in episodes — a neighbour slows the
    core by 10-25 % for 5-30 s, longer than a repeat — so the median
    repeat of the same commit moved by 15 % from run to run and even
    the best repeat by 5-6 %; a low quantile over the slices of a whole
    run needs only a tenth of the run to be quiet and moved by 3-4 %.
    """
    per_event = sorted(ns / events for r in repeats for events, ns in r.slices)
    return per_event[int(QUIET_QUANTILE * (len(per_event) - 1))]


def end_to_end(repeats: List[Repeat], peak_rss_mb: float) -> Dict[str, Metric]:
    """The seven end-to-end metrics of one run.

    Exact and simulated numbers are pooled over the distinct repeats.
    ``point_wall_s`` is the best of all repeats and ``wall_us_per_op``
    is built from the quiet slices (both for the reason given under
    :func:`quiet_ns_per_event`: noise only adds, so the least disturbed
    measurement is the one to keep); ``setup_s`` is the median, as the
    contract asks.
    """
    window = pool(distinct(repeats))
    events_per_op = window.counts["events"] / window.ops
    return {
        "point_wall_s": (min(r.wall_s for r in repeats), "s"),
        "setup_s": (median(r.setup_s for r in repeats), "s"),
        "wall_us_per_op": (events_per_op * quiet_ns_per_event(repeats) / 1e3, "us"),
        "events_per_op": (events_per_op, "count"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "sim_mops": (window.sim_mops, "Mops"),
        "sim_p99_us": (window.sim_p99_ns / 1e3, "sim_us"),
    }


def per_layer_untraced(repeats: List[Repeat]) -> Dict[str, Metric]:
    """Per-layer counts of the measured window (exact) and host costs
    (``sim.*`` the quiet estimate and the best repeat, like the
    end-to-end times they add up to; ``bench.*`` medians)."""
    r = pool(distinct(repeats))
    c, ops = r.counts, r.ops
    wrs = c["wqe_processed"]
    return {
        "sim.events": (c["events"], "count"),
        "sim.host_ns_per_event": (quiet_ns_per_event(repeats), "ns"),
        "sim.warmup_s": (min(x.warmup_s for x in repeats), "s"),
        "sim.measure_s": (min(x.window_s for x in repeats), "s"),
        "rnic.wrs_per_op": (wrs / ops, "count"),
        "rnic.doorbells_per_op": (c["doorbell_rings"] / ops, "count"),
        "rnic.cqes_per_op": (c["cqe_delivered"] / ops, "count"),
        "rnic.events_per_wr": (c["events"] / wrs, "count"),
        "rnic.wqe_miss_rate": (c["wqe_cache_miss_wrs"] / wrs, "ratio"),
        "rnic.dram_bytes_per_wr": (c["dram_bytes"] / wrs, "B"),
        "rnic.requester_util": (r.requester_util, "ratio"),
        "rnic.responder_util": (r.responder_util, "ratio"),
        "network.messages_per_op": (c["messages"] / ops, "count"),
        "network.bytes_per_op": (c["bytes_carried"] / ops, "B"),
        "memory.reads_per_op": (c["reads"] / ops, "count"),
        "memory.writes_per_op": (c["writes"] / ops, "count"),
        "memory.atomics_per_op": (c["atomics"] / ops, "count"),
        "memory.cas_success_ratio": (
            1.0 - c["failed_cas"] / c["atomics"] if c["atomics"] else 1.0, "ratio"),
        "memory.blade_capacity_mb": (r.blade_capacity_bytes / 2**20, "MB"),
        "core.retries_per_op": (r.retries / ops, "count"),
        "core.useful_attempt_ratio": (ops / (ops + r.retries), "ratio"),
        "core.failed_ops": (r.failed_ops, "count"),
        "core.sim_p50_us": (r.sim_p50_ns / 1e3, "sim_us"),
        "apps.ops": (ops, "count"),
        "bench.collect_s": (median(x.collect_s for x in repeats), "s"),
        "bench.cpu_user_s": (median(x.cpu_user_s for x in repeats), "s"),
        "bench.cpu_sys_s": (median(x.cpu_sys_s for x in repeats), "s"),
        "bench.minor_faults": (median(x.minor_faults for x in repeats), "count"),
    }


def per_layer_traced(traced: Repeat, untraced: Repeat,
                     noop_cost: layers.WrapperCost) -> Tuple[Dict[str, Metric], dict]:
    """Self time and calls per layer, from the traced repeat.

    Returns the metrics and, for the trace file, the tables behind them.
    The wrapper cost is fitted to each phase's own measured overhead
    (traced minus untraced host time of that phase: bulk load is a tight
    loop of tiny calls, where a stamp costs about what it costs around a
    no-op; the measured window is not), so a phase's layers add up to
    its untraced time unless a callable's share of the overhead exceeds
    what was charged to it (clamped at 0) —
    ``trace.unattributed_share`` is what that leaves unexplained of the
    window.
    """
    tables, costs = {}, {}
    for phase, table, traced_s, untraced_s in (
        ("setup", traced.trace_setup, traced.setup_s, untraced.setup_s),
        ("window", traced.trace_window, traced.window_s, untraced.window_s),
    ):
        costs[phase] = layers.fit_to_overhead(
            noop_cost, table, (traced_s - untraced_s) * 1e9)
        tables[phase] = layers.by_layer(table, costs[phase])
    window, setup = tables["window"], tables["setup"]
    zero = {"self_ns": 0.0, "entries": 0}
    metrics: Dict[str, Metric] = {}
    for layer in TRACED_LAYERS:
        row = window.get(layer, zero)
        metrics[f"{layer}.self_us_per_op"] = (row["self_ns"] / 1e3 / traced.ops, "us")
        metrics[f"{layer}.calls_per_op"] = (row["entries"] / traced.ops, "count")
        metrics[f"{layer}.setup_self_s"] = (setup.get(layer, zero)["self_ns"] / 1e9, "s")
    untraced_us = untraced.window_s * 1e6 / untraced.ops
    explained_us = sum(row["self_ns"] for row in window.values()) / 1e3 / traced.ops
    metrics["trace.overhead_ratio"] = (
        (traced.window_s * 1e6 / traced.ops) / untraced_us, "ratio")
    metrics["trace.unattributed_share"] = (
        abs(untraced_us - explained_us) / untraced_us, "ratio")
    details = {
        "wrapper_cost_ns": {"noop": noop_cost._asdict(),
                            **{phase: cost._asdict() for phase, cost in costs.items()}},
        "layers": tables,
        "top_callables": layers.top_callables(traced.trace_window, costs["window"]),
    }
    return metrics, details


# -- output checks ----------------------------------------------------------------


def exact_fields(repeat: Repeat) -> Dict[str, Any]:
    """What a deterministic simulator must repeat exactly."""
    return {
        "sim_digest": repeat.sim_digest,
        "ops": repeat.ops,
        "failed_ops": repeat.failed_ops,
        "retries": repeat.retries,
        "sim_mops": repeat.sim_mops,
        "sim_p50_ns": repeat.sim_p50_ns,
        "sim_p99_ns": repeat.sim_p99_ns,
        "window_sim_ns": repeat.window_sim_ns,
        "requester_util": repeat.requester_util,
        "responder_util": repeat.responder_util,
        **{f"counts.{k}": v for k, v in repeat.counts.items()},
    }


def failed_operations(workload: Workload, repeats: List[Repeat]) -> int:
    """Operations of the measured windows that failed (expected: 0)."""
    if workload.rollbacks_are_outcomes:
        return 0
    return sum(r.failed_ops for r in repeats)


def output_errors(workload: Workload, repeats: List[Repeat]) -> List[str]:
    """Determinism guard and consistency checks over a run's repeats.

    The last repeat ran the first one's seed again (in a traced run:
    with every layer wrapped), so the two must agree on everything the
    simulator computes.
    """
    errors = []
    reference = exact_fields(repeats[0])
    if len(repeats) > 1:
        for name, value in exact_fields(repeats[-1]).items():
            if value != reference[name]:
                errors.append(f"replay differs from repeat 0 on {name}: "
                              f"{value!r} != {reference[name]!r}")
    for index, r in enumerate(repeats):
        if r.ops <= 0 or r.counts["events"] <= 0 or r.counts["wqe_processed"] <= 0:
            errors.append(f"repeat {index}: empty measured window")
            continue
        # The probe's window must be the window the runner reported on.
        mops = r.ops / r.window_sim_ns * 1e3
        if not math.isclose(mops, r.sim_mops, rel_tol=1e-9):
            errors.append(f"repeat {index}: {r.ops} ops in {r.window_sim_ns} ns is "
                          f"{mops} Mops, runner reported {r.sim_mops}")
        if workload.runner == "run_microbench" and r.ops != r.counts["cqe_delivered"]:
            errors.append(f"repeat {index}: {r.ops} WRs measured, "
                          f"{r.counts['cqe_delivered']} CQEs counted")
        if r.sim_p99_ns is None or r.sim_p99_ns < r.sim_p50_ns:
            errors.append(f"repeat {index}: p99 {r.sim_p99_ns} below p50 {r.sim_p50_ns}")
    return errors


# -- running one workload ----------------------------------------------------------


def run_repeats(workload: Workload, seeds: List[int], measure_ns: float,
                timer: Optional[layers.LayerTimer] = None) -> List[Repeat]:
    """Back-to-back repeats of the point, one per seed, each on a fresh
    deployment."""
    with Probe(timer) as probe:
        return [
            probe.repeat(workload.runner, point_kwargs(workload, seed, measure_ns))
            for seed in seeds
        ]


def run_traced(workload: Workload, seed: int, measure_ns: float):
    """One repeat with every layer's callables wrapped.

    Returns the repeat, the timer and the wrapper cost calibrated on a no-op.
    """
    cost = layers.calibrate()
    timer = layers.LayerTimer()
    timer.install(layers.discover_layers("repro"))
    try:
        (repeat,) = run_repeats(workload, [seed], measure_ns, timer)
    finally:
        timer.uninstall()
    return repeat, timer, cost


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in this process; returns the full report."""
    measure_ns = workload.measure_ns * seconds / NOMINAL_SECONDS
    seeds = runner_seeds(seed, workload.repeats)
    report: Dict[str, Any] = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
    }
    if not trace:
        repeats = run_repeats(workload, seeds, measure_ns)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = end_to_end(repeats, peak_rss_mb)
        walls = [r.wall_s for r in repeats]
        extra = per_layer_untraced(repeats)
        extra["bench.repeat_spread"] = ((max(walls) - min(walls)) / median(walls), "ratio")
        report["per_layer_untraced"] = as_json(extra)
    else:
        # One seed, half the window: the traced repeat runs ~3x slower.
        measure_ns /= 2
        seeds = seeds[:1]
        repeats = run_repeats(workload, seeds, measure_ns)
        traced, timer, noop_cost = run_traced(workload, seeds[0], measure_ns)
        metrics = per_layer_untraced(repeats)
        traced_metrics, details = per_layer_traced(traced, repeats[0], noop_cost)
        metrics.update(traced_metrics)
        report.update(details, public_callables=timer.public_callables)
        # The traced repeat is the replay: tracing must not perturb the
        # simulation either.
        repeats = repeats + [traced]
    errors = output_errors(workload, repeats)
    attempted = sum(r.ops for r in repeats)
    failed = attempted if errors else failed_operations(workload, repeats)
    digests = "".join(r.sim_digest for r in distinct(repeats))
    report.update(
        measure_ns=measure_ns,
        runner_seeds=seeds,
        repeats=[_repeat_summary(r) for r in repeats],
        errors=errors,
        sim_digest=hashlib.sha256(digests.encode()).hexdigest(),
        result={
            "correct": not errors and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": as_json(metrics),
        },
    )
    return report


def as_json(metrics: Dict[str, Metric]) -> Dict[str, dict]:
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def _repeat_summary(repeat: Repeat) -> dict:
    summary = dataclasses.asdict(repeat)
    del summary["trace_setup"], summary["trace_window"]
    return summary


# -- printing ------------------------------------------------------------------------

HOST_SPREAD = {  # end-to-end host metric -> the whole-repeat quantity behind it
    "point_wall_s": lambda r: r["wall_s"],
    "setup_s": lambda r: r["setup_s"],
    "wall_us_per_op": lambda r: r["window_s"] * 1e6 / r["ops"],
}


def print_report(report: dict) -> None:
    workload = WORKLOADS[report["workload"]]
    repeats = report["repeats"]
    print(f"== {workload.name}: {workload.runner}, op = one {workload.op}, "
          f"seed {report['seed']}, window {report['measure_ns'] / 1e6:g} sim ms, "
          f"{'1 untraced + 1 traced repeat' if report['trace'] else f'R={len(repeats)}'}, "
          f"runner seeds {report['runner_seeds']}")
    print(f"   {workload.why}")
    sections = [("metrics", report["result"]["metrics"])]
    if "per_layer_untraced" in report:
        sections.append(("per-layer, untraced", report["per_layer_untraced"]))
    for title, metrics in sections:
        print(f"-- {title}")
        for name, metric in metrics.items():
            line = f"{name:<28} {metric['value']:>16.6g} {metric['unit']}"
            if not report["trace"] and name in HOST_SPREAD:
                values = [HOST_SPREAD[name](r) for r in repeats]
                line += (f"   [whole repeats: min {min(values):.6g}, "
                         f"max {max(values):.6g}, R={len(values)}]")
            print(line)
    if report["trace"]:
        print("-- top callables by self time in the measured window")
        ops = repeats[-1]["ops"]
        for row in report["top_callables"]:
            print(f"{row['self_ns'] / 1e3 / ops:>10.3f} us/op {row['calls'] / ops:>9.2f} "
                  f"calls/op  {row['callable']}")
    print(f"sim_digest {report['sim_digest']}")
    result = report["result"]
    print(f"ops_attempted {result['attempted']}  ops_failed {result['failed']}")
    for error in report["errors"]:
        print(f"OUTPUT CHECK FAILED: {error}")


def write_report(report: dict) -> None:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    prefix = "trace_" if report["trace"] else ""
    path = RESULTS_DIR / f"{prefix}{report['workload']}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")


# -- --check: BENCHMARK.json and the emitted output agree -------------------------

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
LIMITS = {"workloads": 8, "end_to_end": 16, "per_layer": 128}


def check_errors(spec: dict, report: dict) -> List[str]:
    """Everything on which BENCHMARK.json and one run's output disagree."""
    errors = []
    for section, limit in LIMITS.items():
        names = [entry["name"] for entry in spec[section]]
        if not 1 <= len(names) <= limit:
            errors.append(f"{section}: {len(names)} entries, limit {limit}")
        errors += [f"{section}: bad name {n!r}" for n in names if not NAME_RE.match(n)]
    every = [e["name"] for section in LIMITS for e in spec[section]]
    errors += [f"name {n!r} used {every.count(n)} times"
               for n in sorted(set(every)) if every.count(n) > 1]
    if {e["name"] for e in spec["workloads"]} != set(WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from run.py's WORKLOADS")
    expected = {e["name"]: e["unit"]
                for e in spec["per_layer" if report["trace"] else "end_to_end"]}
    emitted = report["result"]["metrics"]
    errors += [f"metric {n!r} named in BENCHMARK.json was not emitted"
               for n in expected.keys() - emitted.keys()]
    errors += [f"metric {n!r} emitted but not named in BENCHMARK.json"
               for n in emitted.keys() - expected.keys()]
    for name in expected.keys() & emitted.keys():
        value, unit = emitted[name]["value"], emitted[name]["unit"]
        if unit != expected[name]:
            errors.append(f"metric {name!r}: unit {unit!r}, BENCHMARK.json says "
                          f"{expected[name]!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            errors.append(f"metric {name!r}: value {value!r} is not a finite number")
    if report["trace"]:
        found = report["public_callables"]
        errors += [f"layer {layer!r} has a package but no public callable was found"
                   for layer, count in found.items() if count == 0]
        errors += [f"layer {layer!r} is reported but repro has no such package"
                   for layer in TRACED_LAYERS if layer not in found]
    return errors


# -- command line ---------------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in a fresh subprocess, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, str(pathlib.Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.check:
            command.append("--check")
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        status = status or done.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(done.stdout, end="")
            print(f"{name}: no result line (exit {done.returncode})", file=sys.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"][name] = result["metrics"]
    print(json.dumps(combined))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS,
                        help="host seconds the measured windows should add up to "
                             "(scales every simulated window; default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from one untraced and one "
                             "traced repeat at half the window")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--check", action="store_true",
                        help="fail unless BENCHMARK.json and the output agree")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (REPO / "src" / "repro").is_dir():
        print(f"run.py: no simulator source at {REPO / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)

    started = time.perf_counter()
    report = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          bool(args.trace))
    if args.check:
        spec = json.loads((REPO / "BENCHMARK.json").read_text())
        report["errors"] += [f"--check: {e}" for e in check_errors(spec, report)]
        if report["errors"]:
            report["result"]["correct"] = False
    report["run_wall_s"] = time.perf_counter() - started
    print_report(report)
    write_report(report)
    print(json.dumps(report["result"]))
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
