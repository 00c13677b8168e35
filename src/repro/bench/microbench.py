"""The §3.1 bench tool (``test_rdma`` in the artifact).

Each thread repeatedly posts ``depth`` READ/WRITE work requests to
uniformly random addresses in a 1 GB remote region, rings the doorbell
once, and waits for all acknowledgements — exactly the paper's loop.
Throughput is measured from device counters over a warm window; DRAM
traffic per WR (the Fig-4b metric) comes from the same counters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.bench.runner import (
    Deployment,
    RunArgumentError,
    bench_features,
    check_run_args,
    collect,
    effective_warmup_ns,
    instrument,
    run_window,
)
from repro.cluster import Cluster, ComputeThread
from repro.core import OperationStats, SmartContext, SmartFeatures, SmartThread
from repro.core.features import baseline as baseline_features, full
from repro.rnic import policies, verbs
from repro.rnic.config import RnicConfig
from repro.rnic.qp import read_wr, write_wr
from repro.sim.rng import percentile

#: Remote region the paper's bench tool targets.
DEFAULT_REGION_BYTES = 1 << 30

#: Table 1's active-thread counts: the workload jumps between them.
TABLE1_THREADS = (36, 96)

#: the five QP allocation policies, plus per-thread-db with SMART's
#: throttling on top
POLICIES = policies.POLICIES + ("smart",)


@dataclass
class MicrobenchResult:
    """One measurement point of the bench tool."""

    policy: str
    threads: int
    depth: int
    payload: int
    op: str
    throughput_mops: float
    dram_bytes_per_wr: float
    batch_latency_p50_ns: Optional[float] = None
    batch_latency_p99_ns: Optional[float] = None
    doorbells_used: int = 0
    #: WRs completed OK in the window (``throughput_mops``' numerator);
    #: error and flush CQEs are not counted
    measured_wrs: int = 0
    # Fault-injection observability over the measured window (zero for
    # fault-free runs).
    retransmissions: int = 0
    messages_dropped: int = 0
    wasted_wrs: int = 0
    #: batch-weighted per-segment means (only when an Observability is
    #: attached; None keeps fault-free results byte-identical)
    phase_breakdown: Optional[dict] = None
    #: RDMASan report (only when the run was sanitized; None otherwise)
    sanitizer: Optional[dict] = None

    def __str__(self) -> str:
        return (
            f"rdma-{self.op}: policy={self.policy}, #threads={self.threads}, "
            f"#depth={self.depth}, #block_size={self.payload}, "
            f"IOPS={self.throughput_mops:.1f} M/s"
        )


#: the bench tool's verbs (``op=``)
OPS = ("read", "write")


def _make_wrs(op: str, payload: int, depth: int, region_base: int, region_size: int,
              rng: random.Random, blade) -> List:
    """One batch of ``depth`` WRs at uniformly random slots, one
    ``rng.randrange(slots)`` draw per WR (``op`` was checked by the
    runner)."""
    stride = max(payload, 8)
    slots = region_size // stride
    # Addresses inside one blade add like offsets: pack the region's once.
    base = blade.global_addr(region_base)
    # READ takes the payload size, WRITE the (zero) payload itself.
    make, arg = (read_wr, payload) if op == "read" else (write_wr, bytes(payload))
    if slots < 1:
        # randrange's own check; with k = 0 the loop below never ends
        raise ValueError("empty range for randrange()")
    # rng.randrange(slots), inlined: CPython's _randbelow_with_getrandbits
    # draws k bits and redraws until the value is below slots — the same
    # getrandbits calls in the same order, without two frames per draw.
    getrandbits = rng.getrandbits
    k = slots.bit_length()
    wrs = []
    for _ in range(depth):
        slot = getrandbits(k)
        while slot >= slots:
            slot = getrandbits(k)
        wrs.append(make(base + slot * stride, arg))
    return wrs


def run_microbench(
    policy: str = "per-thread-db",
    threads: int = 96,
    depth: int = 8,
    payload: int = 8,
    op: str = "read",
    memory_nodes: int = 1,
    warmup_ns: float = 0.4e6,
    measure_ns: float = 1.6e6,
    config: Optional[RnicConfig] = None,
    seed: int = 1,
    latency_samples: bool = False,
    faults=None,
    fault_seed: int = 0,
    obs=None,
    sanitize=False,
) -> MicrobenchResult:
    """Run the bench tool at one (policy, threads, depth) point.

    ``faults`` arms a fault schedule (spec string, ``"seeded"`` or a
    :class:`repro.faults.FaultSchedule`); loss shows up as transparent
    RC retransmissions, crashes as flushed/error completions until the
    blade restarts and the injector resets the errored QPs.

    ``obs`` attaches a :class:`repro.obs.Observability` before the run
    and collects metrics / the phase breakdown afterwards.  Attachment
    is passive: simulated numbers are bit-identical with or without it.
    """
    if policy not in POLICIES:
        raise RunArgumentError(f"policy must be one of {POLICIES}, got {policy!r}")
    if op not in OPS:
        raise RunArgumentError(f"op must be one of {OPS}, got {op!r}")
    # A SMART worker with nothing to post (depth 0) never yields: the
    # run would spin inside one generator step, out of reach of any deadline.
    check_run_args(warmup_ns, measure_ns=measure_ns, threads=threads,
                   depth=depth, memory_nodes=memory_nodes, payload=payload)
    features = None
    if policy == "smart":
        # Throttling without conflict avoidance, on the bench-scale Δ so
        # the C_max search converges inside a short simulation.
        features = bench_features(full().with_overrides(
            backoff=False, dynamic_backoff_limit=False, coroutine_throttling=False))
        # Measure in the stable phase, after the first UPDATE pass.
        warmup_ns = effective_warmup_ns(features, warmup_ns)
    elif policy == "per-thread-db":
        # Thread-aware allocation only; no throttling or backoff.
        features = baseline_features().with_overrides(thread_aware_alloc=True)

    cluster = Cluster(config)
    compute = cluster.add_node()
    compute.add_threads(threads)
    remotes = cluster.add_nodes(memory_nodes)
    regions = [r.storage.alloc_region("bench", min(DEFAULT_REGION_BYTES,
               r.storage.capacity - 4096))
               for r in remotes]

    smart_threads: List[SmartThread] = []
    doorbells_used = 0
    if features is None:
        policies.connect(compute, remotes, policy)
    else:
        context = SmartContext(compute, remotes, features)
        doorbells_used = context.doorbells_in_use()
        if policy == "smart":
            smart_threads = [
                SmartThread(t, features, seed=seed + i)
                for i, t in enumerate(compute.threads)
            ]

    # The verbs-only connection policies run no SMART features.
    deployment = Deployment(
        cluster, [compute], remotes, smart_threads, features or baseline_features()
    )
    _, sanitizer = instrument(
        deployment, None, faults, fault_seed, warmup_ns, measure_ns, obs, sanitize
    )

    latencies: List[float] = []
    sim = cluster.sim

    def raw_worker(thread: ComputeThread, rng: random.Random):
        remote = remotes[rng.randrange(len(remotes))]
        region = regions[remote.node_id - 1]
        qp = thread.qp_for(remote.node_id)
        while True:
            wrs = _make_wrs(op, payload, depth, region.base, region.size, rng,
                            remote.storage)
            start = sim.now
            yield from verbs.post_and_wait(thread, qp, wrs)
            if latency_samples and sim.now >= warmup_ns:
                latencies.append(sim.now - start)

    def smart_worker(smart: SmartThread, rng: random.Random):
        handle = smart.handle()
        remote = remotes[rng.randrange(len(remotes))]
        region = regions[remote.node_id - 1]
        blade = remote.storage
        while True:
            for wr in _make_wrs(op, payload, depth, region.base, region.size,
                                rng, blade):
                handle._buffer.append(wr)
            start = sim.now
            yield from handle.post_send()
            yield from handle.sync()
            if latency_samples and sim.now >= warmup_ns:
                latencies.append(sim.now - start)

    rng = random.Random(seed)
    workers = []
    if smart_threads:
        for smart in smart_threads:
            workers.append(sim.spawn(smart_worker(smart, random.Random(rng.random()))))
    else:
        for thread in compute.threads:
            workers.append(sim.spawn(raw_worker(thread, random.Random(rng.random()))))

    snapshot = run_window(deployment, warmup_ns, measure_ns,
                          compute.device.counters.snapshot)
    window = compute.device.counters.delta(snapshot)
    # Goodput: error and flush CQEs complete a WR without doing it.
    completed_ok = window.cqe_delivered - window.cqe_failed

    throughput_mops = completed_ok / measure_ns * 1e3
    result = MicrobenchResult(
        policy=policy,
        threads=threads,
        depth=depth,
        payload=payload,
        op=op,
        throughput_mops=throughput_mops,
        dram_bytes_per_wr=window.dram_bytes_per_wr,
        doorbells_used=doorbells_used,
        measured_wrs=completed_ok,
    )
    if latencies:
        ordered = sorted(latencies)
        result.batch_latency_p50_ns = percentile(ordered, 0.50)
        result.batch_latency_p99_ns = percentile(ordered, 0.99)
    stats = None
    if smart_threads:
        stats = OperationStats.merge([s.stats for s in smart_threads])
    return collect(result, deployment, stats, warmup_ns, measure_ns, obs,
                   sanitizer)


@dataclass
class DynamicWorkloadResult:
    """Table-1 style measurement under a changing thread count."""

    changing_interval_ns: float
    throttled: bool
    throughput_mops: float


def run_dynamic_microbench(
    changing_interval_ns: float,
    throttled: bool,
    features: SmartFeatures,
    total_ns: float = 20e6,
    config: Optional[RnicConfig] = None,
    seed: int = 1,
) -> DynamicWorkloadResult:
    """The Table-1 experiment: the number of *active* threads jumps
    between the :data:`TABLE1_THREADS` counts every
    ``changing_interval_ns``; each active thread posts 64 8-byte READs
    per doorbell.  ``throttled`` labels the result; ``features`` is what
    decides it.

    With throttling enabled, the adaptive C_max search keeps the
    outstanding-WR count near the sweet spot as long as the workload is
    stable for at least one epoch; faster changes leave C_max stale.
    """
    max_threads = max(TABLE1_THREADS)
    cluster = Cluster(config)
    compute = cluster.add_node()
    compute.add_threads(max_threads)
    remotes = cluster.add_nodes(1)
    region = remotes[0].storage.alloc_region(
        "bench", min(DEFAULT_REGION_BYTES, remotes[0].storage.capacity - 4096)
    )
    context = SmartContext(compute, remotes, features)
    smart_threads = [
        SmartThread(t, features, seed=seed + i) for i, t in enumerate(compute.threads)
    ]

    sim = cluster.sim
    active = [min(TABLE1_THREADS)]
    rng = random.Random(seed)

    idle = sim.delay(changing_interval_ns / 8)

    def worker(index: int, smart: SmartThread, wrng: random.Random):
        handle = smart.handle()
        blade = remotes[0].storage
        while True:
            if index >= active[0]:
                yield idle
                continue
            for wr in _make_wrs("read", 8, 64, region.base, region.size,
                                wrng, blade):
                handle._buffer.append(wr)
            yield from handle.post_send()
            yield from handle.sync()

    def controller():
        choices = list(TABLE1_THREADS)
        while True:
            yield sim.timeout(changing_interval_ns)
            active[0] = choices[rng.randrange(len(choices))]

    workers = [
        sim.spawn(worker(i, smart, random.Random(rng.random())))
        for i, smart in enumerate(smart_threads)
    ]
    control_process = sim.spawn(controller())

    # Table 1's own warmup: its throttled features carry adaptive credit,
    # whose effective warmup would move the window.
    warmup = min(2e6, total_ns / 10)
    deployment = Deployment(cluster, [compute], remotes, smart_threads, features)
    snapshot = run_window(deployment, warmup, total_ns - warmup,
                          compute.device.counters.snapshot)
    window = compute.device.counters.delta(snapshot)
    completed_ok = window.cqe_delivered - window.cqe_failed
    throughput = completed_ok / (total_ns - warmup) * 1e3
    return DynamicWorkloadResult(changing_interval_ns, throttled, throughput)
