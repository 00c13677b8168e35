"""One entry point per paper figure/table.

Every function regenerates the corresponding experiment and returns an
:class:`ExperimentResult` whose rows mirror the series the paper plots.
Grids default to a "quick" subsample of the paper's x-axes so the whole
suite runs in minutes; set ``REPRO_FULL=1`` for the full grids.

Each figure declares its grid as ``(label, PointSpec)`` pairs and hands
them to :func:`_sweep`, which routes the specs through
:func:`repro.bench.parallel.run_points` — so the fully independent
simulation points can fan out over a process pool: pass ``jobs=N`` (or
set ``REPRO_JOBS=N``) to parallelize — and builds one table row per
point (or per group of consecutive points).  Results are collected in
spec order, which keeps the emitted tables — and every simulated number
in them — identical between serial and parallel runs.

Absolute numbers come from the simulated RNIC, so they are compared to
the paper by *shape* (who wins, by what factor, where curves peak): the
claims are predicates in :mod:`repro.bench.claims`, their verdicts on the
quick grids are docs/SCORECARD.md.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.microbench import run_dynamic_microbench, run_microbench
from repro.bench.parallel import PointSpec, run_points
from repro.bench.report import find_knee, format_table
from repro.bench.runner import (
    BENCH_DELTA_NS, app_class, bench_features, run_btree, run_dtx, run_hashtable,
)
from repro.core.features import baseline, cumulative_ladder, full
from repro.traffic import OpenLoopResult, run_open_loop
from repro.workloads.ycsb import (
    READ_HEAVY,
    READ_ONLY,
    UPDATE_ONLY,
    WRITE_HEAVY,
    YcsbWorkload,
)


def full_grids() -> bool:
    return os.environ.get("REPRO_FULL", "0") not in ("", "0")


def _grid(quick: Sequence, complete: Sequence) -> Sequence:
    return complete if full_grids() else quick


@dataclass
class ExperimentResult:
    """A reproduced figure/table: tabular series plus the paper's claim."""

    name: str
    headers: List[str]
    rows: List[List]
    paper_claim: str
    observations: List[str] = field(default_factory=list)
    #: optional (x_column, y_columns) to render an ASCII chart in format()
    chart_spec: Optional[Tuple[str, Tuple[str, ...]]] = None

    def format(self) -> str:
        lines = [format_table(self.headers, self.rows, title=self.name)]
        if self.chart_spec is not None:
            from repro.bench.plotting import line_chart

            x_column, y_columns = self.chart_spec
            lines.append("")
            lines.append(
                line_chart(
                    {column: self.series(column) for column in y_columns},
                    x_labels=self.series(x_column),
                )
            )
        lines.append(f"paper: {self.paper_claim}")
        lines.extend(f"note:  {o}" for o in self.observations)
        return "\n".join(lines)

    def series(self, column: str) -> List:
        index = self.headers.index(column)
        return [row[index] for row in self.rows]

    def to_dict(self) -> Dict:
        """JSON-ready form (the machine-readable twin of :meth:`format`)."""
        return {
            "name": self.name,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "paper_claim": self.paper_claim,
            "observations": list(self.observations),
        }


# -- the sweep helper every figure goes through ---------------------------------------


def _sweep(
    name: str,
    headers: List[str],
    points: Sequence[Tuple[Any, PointSpec]],
    row: Callable[[Any, Any], List],
    paper_claim: str,
    jobs: Optional[int] = None,
    group: int = 1,
    observe: Optional[Callable[[List[Tuple[Any, Any]]], List[str]]] = None,
    chart_spec: Optional[Tuple[str, Tuple[str, ...]]] = None,
) -> ExperimentResult:
    """Run a figure's ``(label, PointSpec)`` grid and build its table.

    The specs go through :func:`run_points` (in order, over the ``jobs``
    pool) and each becomes ``row(label, result)``.  With ``group=n`` the
    table is pivoted: every ``n`` consecutive points make one row,
    ``row(label, results)``, under the first point's label.  ``observe``
    turns the same ``(label, result)`` list into the notes printed under
    the table.
    """
    labels = [label for label, _ in points]
    results = run_points([spec for _, spec in points], jobs=jobs)
    if group > 1:
        labels = labels[::group]
        results = [results[i:i + group] for i in range(0, len(results), group)]
    labelled = list(zip(labels, results))
    return ExperimentResult(
        name=name,
        headers=headers,
        rows=[row(label, result) for label, result in labelled],
        paper_claim=paper_claim,
        observations=observe(labelled) if observe else [],
        chart_spec=chart_spec,
    )


#: the closed-loop window of every app figure that does not say otherwise
_APP_WINDOW = dict(warmup_ns=1.0e6, measure_ns=1.5e6)


def _app_point(run: Callable, system: str, threads: int, item_count: int,
               **kwargs) -> PointSpec:
    """One ``run_hashtable``/``run_dtx``/``run_btree`` point over the
    shared window (``kwargs`` may override it)."""
    return PointSpec(run, dict(_APP_WINDOW, system=system, threads=threads,
                               item_count=item_count, **kwargs))


def _us(ns: Optional[float]) -> float:
    """A latency column in microseconds (0 when nothing was sampled)."""
    return (ns or 0) / 1e3


def _mops_row(label: List, result) -> List:
    return label + [result.throughput_mops]


def _load_row(label: List, result) -> List:
    """Offered and achieved MOPS, p50 and p99 of a closed-loop point (it offers
    what it completes) or an open-loop one (the arrivals its window saw); a
    point that measured no operation is refused, not printed as 0 us."""
    open_loop = isinstance(result, OpenLoopResult)
    if (result.completed if open_loop else result.ops) == 0:
        raise RuntimeError(f"point {label} measured no operations")
    done = result.achieved_mops if open_loop else result.throughput_mops
    return label + [result.offered_mops if open_loop else done, done,
                    _us(result.p50_latency_ns), _us(result.p99_latency_ns)]


def _latency_row(label: List, result) -> List:
    """:func:`_load_row` without the offered column."""
    row = _load_row(label, result)
    del row[len(label)]
    return row


#: the load label of a closed-loop point in Figs 9 and 11
FULL = "full"


def _load_points(run: Callable, systems: Sequence[str], threads: int, item_count: int,
                 rates_mops: Sequence[float], label: List, **kwargs) -> List:
    """Figs 9/11: each system at full load (closed loop), then at each offered
    rate (open loop: Poisson arrivals served by the same 8 coroutines a thread)."""
    return [(label + [system, load], _app_point(
                run, system, threads, item_count, **kwargs,
                **({} if load == FULL else {"rate_mops": load})))
            for system in systems for load in (FULL, *rates_mops)]


# -- Section 3: scalability bottlenecks ---------------------------------------------


def fig3_qp_policies(
    threads: Optional[Sequence[int]] = None,
    op: str = "read",
    measure_ns: float = 1.0e6,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Figure 3: 8-byte READ/WRITE throughput under QP allocation policies."""
    threads = threads or _grid((2, 8, 32, 48, 96), (2, 4, 8, 16, 24, 32, 48, 64, 80, 96))
    policies = ("shared-qp", "multiplexed-qp", "per-thread-qp", "per-thread-db")
    return _sweep(
        name=f"Figure 3 ({op}): throughput (MOPS) vs threads by QP policy",
        headers=["threads"] + list(policies),
        points=[
            (t, PointSpec(run_microbench, dict(
                policy=policy, threads=t, depth=8, op=op, measure_ns=measure_ns,
            )))
            for t in threads
            for policy in policies
        ],
        group=len(policies),
        row=lambda t, results: [t] + [r.throughput_mops for r in results],
        paper_claim=(
            "per-thread QP collapses past 32 threads (halves by 96); per-thread "
            "doorbell reaches the 110 MOPS hardware limit; shared QP is flat and "
            "up to 130x worse; multiplexed QP sits in between"
        ),
        chart_spec=("threads", policies),
        jobs=jobs,
    )


def fig4_cache_thrashing(
    threads: Optional[Sequence[int]] = None,
    depths: Optional[Sequence[int]] = None,
    op: str = "read",
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Figure 4: throughput and DRAM traffic vs outstanding work requests."""
    threads = threads or _grid((16, 36, 96), (16, 36, 64, 96))
    depths = depths or _grid((2, 8, 32), (1, 2, 4, 8, 16, 32, 64))
    return _sweep(
        name=f"Figure 4 ({op}): OWR sweep (per-thread doorbell)",
        headers=["threads", "owrs/thread", "total_owrs", "MOPS", "dram_B/wr"],
        points=[
            ((t, d), PointSpec(run_microbench, dict(
                policy="per-thread-db", threads=t, depth=d, op=op, measure_ns=1.0e6,
            )))
            for t in threads
            for d in depths
        ],
        row=lambda td, r: [td[0], td[1], td[0] * td[1], r.throughput_mops,
                           r.dram_bytes_per_wr],
        paper_claim=(
            "throughput peaks near 768 total OWRs; 96x32 runs at ~49.5% of the "
            "peak while DRAM traffic per WR grows 93 -> 180 bytes"
        ),
        jobs=jobs,
    )


def fig5_race_contention(
    threads: Optional[Sequence[int]] = None,
    thetas: Optional[Sequence[float]] = None,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Figure 5: RACE update throughput/latency vs threads and skew."""
    threads = threads or _grid((2, 8, 96), (2, 4, 8, 16, 32, 64, 96))
    thetas = thetas or _grid((0.0, 0.99), (0.0, 0.5, 0.8, 0.9, 0.95, 0.99))
    return _sweep(
        name="Figure 5: RACE updates vs parallelism and Zipfian skew",
        headers=["sweep", "threads", "theta", "MOPS", "p50_us", "p99_us"],
        points=[
            (["threads", t, 0.99],
             _app_point(run_hashtable, "race", t, 100_000, workload=UPDATE_ONLY))
            for t in threads
        ] + [
            (["theta", 16, theta], _app_point(
                run_hashtable, "race", 16, 100_000,
                workload=UPDATE_ONLY.with_theta(theta)))
            for theta in thetas
        ],
        row=_latency_row,
        paper_claim=(
            "RACE peaks at only 8 threads; p99 latency grows up to 17.1x with "
            "more threads; raising theta 0 -> 0.99 grows p50 1.9x and p99 78.4x"
        ),
        jobs=jobs,
    )


# -- Section 6.2.1: hash table ---------------------------------------------------------


_HT_WORKLOADS = (
    ("write-heavy", WRITE_HEAVY),
    ("read-heavy", READ_HEAVY),
    ("read-only", READ_ONLY),
)


def _ht_workloads() -> Sequence[Tuple[str, YcsbWorkload]]:
    """The YCSB mixes of Figs 7/8/12.  Read-heavy behaves between the
    other two; the quick grid skips it (``REPRO_FULL=1`` restores it)."""
    return _HT_WORKLOADS if full_grids() else (_HT_WORKLOADS[0], _HT_WORKLOADS[2])


def _scaling_points(run: Callable, systems: Sequence[str], threads: Sequence[int],
                    scale_out: Sequence[int], scale_out_threads: int,
                    scale_out_kwarg: str, item_count: int) -> List:
    """Figs 7/12: per YCSB mix, a scale-up sweep over ``threads`` then a
    scale-out sweep (``scale_out_kwarg`` = blade count), every system at
    each step."""
    points = []
    for label, workload in _ht_workloads():
        for t in threads:
            for system in systems:
                points.append((["scale-up", label, system, t, 1], _app_point(
                    run, system, t, item_count, workload=workload)))
        for n in scale_out:
            for system in systems:
                points.append((
                    ["scale-out", label, system, scale_out_threads, n],
                    _app_point(run, system, scale_out_threads, item_count,
                               workload=workload, **{scale_out_kwarg: n}),
                ))
    return points


def fig7_hashtable(
    threads: Optional[Sequence[int]] = None,
    compute_blades: Optional[Sequence[int]] = None,
    scale_out_threads: Optional[int] = None,
    item_count: int = 50_000,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Figure 7: RACE vs SMART-HT, scale-up (a-c) and scale-out (d-f)."""
    threads = threads or _grid((8, 96), (2, 8, 16, 32, 48, 64, 96))
    compute_blades = compute_blades or _grid((2, 4), (2, 3, 4, 5, 6))
    scale_out_threads = scale_out_threads or (96 if full_grids() else 24)
    return _sweep(
        name="Figure 7: hash table throughput (MOPS), RACE vs SMART-HT",
        headers=["mode", "workload", "system", "threads", "blades", "MOPS"],
        points=_scaling_points(
            run_hashtable, ("race", "smart-ht"), threads, compute_blades,
            scale_out_threads, "compute_blades", item_count,
        ),
        row=_mops_row,
        paper_claim=(
            "scale-up: RACE peaks at 2.8 (write-heavy, 8 threads) while SMART-HT "
            "reaches 5.7 at 48; read-only 11.4 vs 23.7.  scale-out (576 threads): "
            "SMART-HT up to 132.4x (write-heavy), 77.3x (read-heavy), "
            "2.0-3.8x (read-only)"
        ),
        jobs=jobs,
    )


def fig8_breakdown(
    threads: Optional[Sequence[int]] = None,
    item_count: int = 50_000,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Figure 8: cumulative technique ladder on the hash table."""
    threads = threads or _grid((8, 96), (8, 16, 32, 48, 64, 96))
    return _sweep(
        name="Figure 8: hash table performance breakdown (MOPS)",
        headers=["workload", "threads", "config", "MOPS"],
        points=[
            ([label, t, name], _app_point(
                run_hashtable, "smart-ht", t, item_count,
                workload=workload, features=features))
            for label, workload in _ht_workloads()
            for t in threads
            for name, features in cumulative_ladder()
        ],
        row=_mops_row,
        paper_claim=(
            "ThdResAlloc dominates read-heavy gains; WorkReqThrot helps "
            "write-heavy at 8-32 threads; ConflictAvoid dominates write-heavy "
            "at high thread counts"
        ),
        jobs=jobs,
    )


def fig9_ht_latency(
    rates_mops: Optional[Sequence[float]] = None,
    item_count: int = 50_000,
    threads: int = 96,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Figure 9: throughput vs latency (read-only, 96 threads)."""
    rates_mops = rates_mops or _grid((1.0, 2.0, 4.0, 8.0), (1.0, 2.0, 4.0, 8.0, 16.0, 32.0))
    return _sweep(
        name="Figure 9: hash table throughput vs latency (read-only, 96 threads)",
        headers=["system", "load", "offered", "MOPS", "p50_us", "p99_us"],
        points=_load_points(run_hashtable, ("race", "smart-ht"), threads, item_count,
                            rates_mops, [], workload=READ_ONLY),
        row=_load_row,
        paper_claim=(
            "SMART-HT cuts median latency by 69.6% and tail latency by up to "
            "80.6% at matched throughput"
        ),
        jobs=jobs,
    )


# -- Section 6.2.2: distributed transactions ---------------------------------------------


def fig10_dtx(
    threads: Optional[Sequence[int]] = None,
    item_count: int = 50_000,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Figure 10: FORD+ vs SMART-DTX throughput (SmallBank, TATP)."""
    threads = threads or _grid((8, 24, 96), (8, 16, 24, 32, 40, 48, 64, 80, 96))
    return _sweep(
        name="Figure 10: committed txns (M/s), FORD+ vs SMART-DTX",
        headers=["benchmark", "system", "threads", "Mtxn/s"],
        points=[
            ([benchmark, system, t],
             _app_point(run_dtx, system, t, item_count, benchmark=benchmark))
            for benchmark in ("smallbank", "tatp")
            for t in threads
            for system in ("ford", "smart-dtx")
        ],
        row=_mops_row,
        paper_claim=(
            "FORD+ peaks at 24 (SmallBank) / 32 (TATP) threads then degrades; "
            "SMART-DTX keeps scaling: up to 5.2x (SmallBank) and 2.6x (TATP)"
        ),
        jobs=jobs,
    )


def fig11_dtx_latency(
    rates_mops: Optional[Sequence[float]] = None,
    item_count: int = 50_000,
    threads: int = 96,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Figure 11: throughput vs median latency, 96 threads x 8 coroutines."""
    rates_mops = rates_mops or _grid((0.1, 0.4), (0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4))
    return _sweep(
        name="Figure 11: DTX throughput vs median latency (96 threads)",
        headers=["benchmark", "system", "load", "offered", "Mtxn/s", "p50_us"],
        points=[point for benchmark in ("smallbank", "tatp") for point in _load_points(
            run_dtx, ("ford", "smart-dtx"), threads, item_count, rates_mops, [benchmark],
            benchmark=benchmark)],
        row=lambda label, r: _load_row(label, r)[:-1],  # no p99 column
        paper_claim=(
            "SMART-DTX cuts median latency by up to 45.8% (SmallBank) and "
            "77.0% (TATP); at low load the systems match"
        ),
        jobs=jobs,
    )


# -- Section 6.2.3: B+Tree ------------------------------------------------------------------


def fig12_btree(
    threads: Optional[Sequence[int]] = None,
    servers: Optional[Sequence[int]] = None,
    scale_out_threads: Optional[int] = None,
    item_count: int = 30_000,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Figure 12: Sherman+ vs Sherman+ w/SL vs SMART-BT."""
    threads = threads or _grid((16, 94), (2, 8, 16, 32, 48, 64, 94))
    servers = servers or _grid((2,), (2, 3, 4, 5, 6))
    scale_out_threads = scale_out_threads or (94 if full_grids() else 32)
    return _sweep(
        name="Figure 12: B+Tree throughput (MOPS)",
        headers=["mode", "workload", "system", "threads", "servers", "MOPS"],
        points=_scaling_points(
            run_btree, ("sherman", "sherman-sl", "smart-bt"), threads, servers,
            scale_out_threads, "servers", item_count,
        ),
        row=_mops_row,
        paper_claim=(
            "speculative lookup gives up to 1.6x on read-heavy; Sherman+ w/SL "
            "stops scaling past 64 threads (16.3 at 94); SMART-BT reaches 2.0x "
            "Sherman+ on read-only; write-heavy is roughly tied (HOPL already "
            "minimizes lock messages)"
        ),
        jobs=jobs,
    )


# -- Section 6.3: micro-benchmarks ---------------------------------------------------------------


def fig13_micro(
    threads: Optional[Sequence[int]] = None,
    batches: Optional[Sequence[int]] = None,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Figure 13: thread-aware allocation + throttling microbenchmarks."""
    threads = threads or _grid((16, 56, 96), (8, 16, 24, 32, 40, 56, 72, 96))
    batches = batches or _grid((4, 16, 64), (1, 2, 4, 8, 16, 32, 64))
    policies = ("per-thread-qp", "per-thread-context", "per-thread-db", "smart")
    return _sweep(
        name="Figure 13: QP allocation + throttling micro-bench (MOPS)",
        headers=["sweep", "threads", "batch"] + list(policies),
        points=[
            ([sweep, t, b], PointSpec(run_microbench, dict(
                policy=policy, threads=t, depth=b, measure_ns=1.5e6,
            )))
            for sweep, t, b in [("threads", t, 16) for t in threads]
            + [("batch", 96, b) for b in batches]
            for policy in policies
        ],
        group=len(policies),
        row=lambda label, results: label + [r.throughput_mops for r in results],
        paper_claim=(
            "(a) +ThdResAlloc reaches the 110 MOPS limit, up to 4.3x over "
            "per-thread QP; +WorkReqThrot stays flat at 56+ threads (up to "
            "5.0x / 1.9x over per-thread QP / context).  (b) with batch > 8, "
            "+WorkReqThrot is the best configuration"
        ),
        jobs=jobs,
    )


def table1_dynamic(
    intervals_ns: Optional[Sequence[float]] = None,
    total_ns: float = 24e6,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Table 1: throughput under a dynamically changing thread count.

    The paper's interval ladder (32..2048 ms against a 512 ms epoch) is
    scaled to the bench epoch (stable phase = 60 x Δ = 18 ms): the ratio
    interval/epoch spans the same 1/16..4 range.
    """
    # Shorten the stable phase so several epochs fit in a bench run; the
    # interval:epoch ratios still span the paper's 1/16..4 range.
    stable_epochs = 20
    epoch_ns = (5 + stable_epochs) * BENCH_DELTA_NS
    intervals_ns = intervals_ns or _grid(
        tuple(epoch_ns * f for f in (1 / 8, 1 / 2, 2)),
        tuple(epoch_ns * f for f in (1 / 16, 1 / 8, 1 / 4, 1 / 2, 1, 2, 4)),
    )
    features_on = bench_features(
        full().with_overrides(
            backoff=False, dynamic_backoff_limit=False,
            coroutine_throttling=False, stable_epochs=stable_epochs,
        )
    )
    features_off = bench_features(
        baseline().with_overrides(thread_aware_alloc=True)
    )
    return _sweep(
        name="Table 1: dynamic workload, w/ and w/o WorkReqThrot (MOPS)",
        headers=["interval_ms", "interval/epoch", "w/o_throttle", "w/_throttle"],
        points=[
            (interval, PointSpec(run_dynamic_microbench, dict(
                changing_interval_ns=interval, throttled=throttled,
                features=features, total_ns=max(total_ns, interval * 5),
            )))
            for interval in intervals_ns
            for throttled, features in ((False, features_off), (True, features_on))
        ],
        group=2,
        row=lambda interval, off_on: [
            interval / 1e6, interval / epoch_ns,
            off_on[0].throughput_mops, off_on[1].throughput_mops],
        paper_claim=(
            "with changing intervals longer than the epoch, throttled "
            "throughput is near the 110 MOPS maximum; faster changes lose up "
            "to 13%, but throttling still wins at every interval"
        ),
        jobs=jobs,
    )


def fig14_conflict(
    threads: Optional[Sequence[int]] = None,
    item_count: int = 50_000,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Figure 14: conflict-avoidance ladder on 100% updates, theta=0.99."""
    threads = threads or _grid((16, 96), (8, 16, 32, 48, 64, 96))
    ladder = [
        ("none", full().with_overrides(
            backoff=False, dynamic_backoff_limit=False, coroutine_throttling=False)),
        ("+Backoff", full().with_overrides(
            dynamic_backoff_limit=False, coroutine_throttling=False)),
        ("+DynLimit", full().with_overrides(coroutine_throttling=False)),
        ("+CoroThrot", full()),
    ]

    def retry_free(labelled):
        distributions = {
            name: result.retry_distribution
            for (t, name), result in labelled if t == max(threads)
        }
        return [
            f"{name}: {dist.get(0, 0.0) * 100:.1f}% of updates complete "
            f"without retries at {max(threads)} threads"
            for name, dist in distributions.items()
        ]

    return _sweep(
        name="Figure 14: conflict avoidance (100% updates, theta=0.99)",
        headers=["threads", "config", "MOPS", "avg_retries"],
        points=[
            ((t, name), _app_point(
                run_hashtable, "smart-ht", t, item_count, workload=UPDATE_ONLY,
                features=features, warmup_ns=1.8e6, measure_ns=2.0e6))
            for t in threads
            for name, features in ladder
        ],
        row=lambda label, r: [*label, r.throughput_mops, r.avg_retries],
        observe=retry_free,
        paper_claim=(
            "without conflict avoidance retries reach 11.5/op at 96 threads; "
            "+Backoff keeps them under 1.7; +DynLimit adds 1.6x throughput; "
            "all techniques: 1.1 retries/op and 93.3% of updates retry-free"
        ),
        jobs=jobs,
    )


# -- open-loop latency-throughput knee (not a paper figure) --------------------------


def latency_throughput(
    app: str = "hashtable",
    rates_mops: Optional[Sequence[float]] = None,
    threads: int = 8,
    workers: int = 32,
    item_count: int = 30_000,
    warmup_ns: float = 1.0e6,
    measure_ns: float = 1.5e6,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Open-loop offered-load sweep: find the latency-throughput knee.

    Like the open-loop points of Figs 9/11, this sweep offers Poisson
    arrivals at fixed rates, here through the by-name
    :func:`repro.traffic.run_open_loop` with ``workers`` in total, and
    reports achieved throughput, total (arrival→completion) latency and
    queueing delay.
    Past the knee the baseline's queue grows without bound while SMART's
    higher capacity keeps absorbing load.  The sweep runs ``app``'s
    baseline (its first system) against its SMART refactor.
    """
    adapter = app_class(app)
    systems = (next(iter(adapter.systems)), adapter.default_system)
    rates_mops = rates_mops or _grid(
        (0.5, 1.0, 2.0, 4.0), (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)
    )

    def rate_row(rate, results):
        row = [rate]
        for result in results:
            row += [result.achieved_mops, _us(result.p99_latency_ns),
                    _us(result.queue_p99_ns)]
        return row

    def knees(labelled):
        observations = []
        for index, system in enumerate(systems):
            achieved = [results[index].achieved_mops
                        for _, results in labelled]
            knee = find_knee(list(rates_mops), achieved)
            observations.append(
                f"{system}: knee at {knee} MOPS offered" if knee is not None
                else f"{system}: no knee within the sweep "
                     f"(kept up through {max(rates_mops)} MOPS)"
            )
        return observations

    return _sweep(
        name=f"Open-loop latency-throughput knee ({app}, {threads} threads)",
        headers=["offered"] + [
            f"{system}_{column}" for system in systems
            for column in ("mops", "p99_us", "qd99_us")],
        points=[
            (rate, PointSpec(run_open_loop, dict(
                app=app, system=system, rate_mops=rate, threads=threads,
                workers=workers, item_count=item_count,
                warmup_ns=warmup_ns, measure_ns=measure_ns,
            )))
            for rate in rates_mops
            for system in systems
        ],
        group=len(systems),
        row=rate_row,
        observe=knees,
        paper_claim=(
            "not a paper figure — open-loop companion to Figs 9/11: offered "
            "load is independent of completions, so past-saturation queueing "
            "delay is measured instead of omitted (coordinated omission); "
            "SMART's knee sits at a higher offered rate than the baseline's"
        ),
        chart_spec=("offered", tuple(f"{system}_mops" for system in systems)),
        jobs=jobs,
    )


# -- chaos harness (not a paper figure) ----------------------------------------------


def chaos_recovery(
    measure_ns: float = 2.0e6,
    # seed 9 leaves in-doubt log records at the crash in *both* crash
    # scenarios, so the table always shows NVM rollback at restart
    fault_seed: int = 9,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Fault-injection scenarios on the FORD transaction stack (SmallBank).

    Four runs: fault-free baseline, a packet-loss window, a memory-blade
    crash+restart, and both together.  Crash restarts run FORD's NVM
    log-ring recovery; the table shows the wasted-IOPS and
    recovery-latency cost of each scenario.  Every scenario is fully
    deterministic under its ``fault_seed``.  (Fault times are absolute,
    placed inside the measurement window [1 ms, 1 ms + measure_ns); the
    baseline FORD feature set keeps the warmup at exactly 1 ms.)
    """
    scenarios = [
        ("none", None),
        ("loss", "loss=0.02@1.2ms+1.2ms"),
        ("crash", "crash=2@1.4ms+0.5ms"),
        ("crash+loss", "loss=0.01@1.1ms+1.6ms,crash=1@1.4ms+0.4ms"),
    ]
    return _sweep(
        name="Chaos: FORD DTX under injected faults (SmallBank)",
        headers=["scenario", "Mtxn/s", "crashes", "recoveries", "avg_rec_us",
                 "fault_aborts", "retransmits", "error_cqes", "wasted_wrs",
                 "rolled_back"],
        points=[
            (name, _app_point(
                run_dtx, "ford", 4, 20_000, benchmark="smallbank", coroutines=4,
                measure_ns=measure_ns, faults=faults, fault_seed=fault_seed))
            for name, faults in scenarios
        ],
        row=lambda name, r: [
            name, r.throughput_mops, r.crashes, r.recoveries,
            round(r.avg_recovery_us, 2), r.fault_aborts, r.retransmissions,
            r.error_completions, r.wasted_wrs, r.rolled_back],
        paper_claim=(
            "not a paper figure — fault-injection harness: FORD's NVM undo "
            "logs (§2.3 of the FORD design) make blade crashes recoverable; "
            "throughput dips inside fault windows, clients reconnect with "
            "jittered probes, and in-doubt records are rolled back at restart"
        ),
        jobs=jobs,
    )


ALL_EXPERIMENTS: Dict[str, Callable[[], ExperimentResult]] = {
    "fig3": fig3_qp_policies,
    "fig3_write": functools.partial(fig3_qp_policies, op="write"),
    "fig4": fig4_cache_thrashing,
    "fig5": fig5_race_contention,
    "fig7": fig7_hashtable,
    "fig8": fig8_breakdown,
    "fig9": fig9_ht_latency,
    "fig10": fig10_dtx,
    "fig11": fig11_dtx_latency,
    "fig12": fig12_btree,
    "fig13": fig13_micro,
    "table1": table1_dynamic,
    "fig14": fig14_conflict,
    "latency_throughput": latency_throughput,
    "chaos": chaos_recovery,
}
