"""Graph experiment runner: one BFS/PageRank job, run to completion.

Unlike the YCSB-style runners (open-ended streams measured over a
window), a graph traversal is a finite job: the runner spawns the
driver, advances the simulation in fixed slices until it finishes, and
reports job-level metrics — elapsed time, per-edge throughput, and the
wasted-IOPS ledger the offload experiment headlines (failed/retried
CASes vs. active messages).

Result checksums (levels, ranks, visit counts) are the differential
harness's currency: all three execution modes must produce identical
values on a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.apps.graph.client import GraphClient, GraphStats, MODES
from repro.apps.graph.server import GraphServer, UNVISITED
from repro.bench.runner import (
    RunArgumentError, build_deployment, check_run_args, collect_sanitizer,
    instrument,
)
from repro.core.features import baseline
from repro.rnic.config import RnicConfig
from repro.workloads.graph import GraphSpec, checksum_u64s, edge_count

#: slice length the runner advances the simulation by while polling the
#: driver; a pure scheduling horizon, invisible to simulated behaviour
RUN_SLICE_NS = 0.5e6
#: simulated time after which a still-running job is an error, not a
#: result (with the per-slice deadlock check: a run fails, never hangs)
RUN_DEADLINE_NS = 5.0e9


@dataclass
class GraphRunResult:
    """Outcome of one graph experiment point."""

    mode: str
    algo: str
    vertices: int
    degree: int
    skew: float
    chunk: int
    threads: int
    coroutines: int
    memory_blades: int
    elapsed_ns: float
    edges: int
    #: graph edges traversed per microsecond of simulated time
    edges_per_us: float
    visited: int
    levels_checksum: int
    ranks_checksum: int
    #: client-side wasted-IOPS ledger
    wasted_cas: int
    cas_retries: int
    am_messages: int
    #: blade-side offload counters (summed over memory blades)
    am_handled: int
    am_rejected: int
    am_aborted: int
    handler_busy_ns: float
    #: remote ops that made no progress: lost/retried CAS + the device
    #: ledger (retransmissions, error completions, flushed WRs)
    wasted_iops: int
    fault_aborts: int = 0
    crashes: int = 0
    sim_events: int = 0
    sanitizer: Optional[Dict] = None
    by_depth: Optional[Dict[int, int]] = None


def run_graph(
    mode: str = "onesided",
    algo: str = "bfs",
    vertices: int = 192,
    degree: int = 6,
    skew: float = 0.0,
    threads: int = 2,
    coroutines: int = 2,
    chunk: int = 32,
    rounds: int = 2,
    config: Optional[RnicConfig] = None,
    seed: int = 0,
    faults=None,
    fault_seed: int = 0,
    obs=None,
    sanitize=False,
) -> GraphRunResult:
    """One point of the near-memory offload experiment.

    ``mode`` picks the execution strategy (see
    :data:`repro.apps.graph.client.MODES`); ``algo`` is ``"bfs"`` (from
    vertex 0) or ``"pagerank"``.  ``chunk`` is the offload fan-out
    (frontier slots per active message).  One compute blade runs the
    baseline features against two memory blades; a seeded fault
    schedule targets the first simulated millisecond.  The handler-core
    cost knobs (``offload_*``) are :class:`RnicConfig` fields: pass
    ``config``.
    """
    if mode not in MODES:
        raise RunArgumentError(f"mode must be one of {MODES}, got {mode!r}")
    if algo not in ("bfs", "pagerank"):
        raise RunArgumentError(f"algo must be bfs or pagerank, got {algo!r}")
    if vertices < 2:
        raise RunArgumentError(f"vertices must be >= 2, got {vertices!r}")
    check_run_args(0.0, degree=degree, threads=threads, coroutines=coroutines,
                   chunk=chunk)
    deployment = build_deployment(baseline(), threads, config=config, seed=seed)
    spec = GraphSpec(
        name=f"graph-v{vertices}-d{degree}-s{seed}",
        vertex_count=vertices,
        degree=degree,
        kind="rmat" if skew > 0.0 else "uniform",
        skew=skew,
        seed=seed,
    )
    server = GraphServer(deployment.memory_nodes, spec)
    meta = server.meta()

    injector, sanitizer = instrument(
        deployment, server, faults, fault_seed, warmup_ns=0.0,
        measure_ns=1.0e6, obs=obs, sanitize=sanitize,
    )

    sim = deployment.cluster.sim
    handles = [
        smart.handle()
        for smart in deployment.smart_threads
        for _ in range(coroutines)
    ]
    stats = GraphStats()
    client = GraphClient(meta, handles, mode, chunk=chunk, stats=stats)
    if algo == "bfs":
        driver = sim.spawn(client.bfs(0))
    else:
        driver = sim.spawn(client.pagerank(rounds))

    while not driver.triggered:
        before = sim.events_executed
        sim.run(until=sim.now + RUN_SLICE_NS)
        if driver.triggered:
            break
        if sim.events_executed == before:
            raise RuntimeError(
                f"graph run deadlocked at t={sim.now:.0f} ns "
                f"(mode={mode}, algo={algo})"
            )
        if sim.now > RUN_DEADLINE_NS:
            raise RuntimeError(
                f"graph run exceeded the {RUN_DEADLINE_NS:.0f} ns deadline"
            )
    if driver.error is not None:
        raise driver.error
    elapsed = float(driver.value)
    for smart in deployment.smart_threads:
        smart.stop()

    levels = server.read_levels()
    ranks = server.read_ranks()
    visited = sum(1 for level in levels if level != UNVISITED)
    edges = edge_count(server.adjacency)

    am_handled = am_rejected = am_aborted = 0
    handler_busy = 0.0
    wasted_device = 0
    fault_aborts = 0
    for node in deployment.cluster.nodes:
        counters = node.device.counters
        am_handled += counters.am_handled
        am_rejected += counters.am_rejected
        am_aborted += counters.am_aborted
        handler_busy += counters.handler_busy_ns
        wasted_device += int(counters.wasted_wrs)
    for smart in deployment.smart_threads:
        fault_aborts += smart.stats.fault_aborts

    result = GraphRunResult(
        mode=mode,
        algo=algo,
        vertices=vertices,
        degree=degree,
        skew=skew,
        chunk=chunk,
        threads=threads,
        coroutines=coroutines,
        memory_blades=len(deployment.memory_nodes),
        elapsed_ns=elapsed,
        edges=edges,
        edges_per_us=(edges / elapsed * 1e3) if elapsed > 0 else 0.0,
        visited=visited,
        levels_checksum=checksum_u64s(levels),
        ranks_checksum=checksum_u64s(ranks),
        wasted_cas=stats.wasted_cas,
        cas_retries=stats.cas_retries,
        am_messages=stats.am_messages,
        am_handled=am_handled,
        am_rejected=am_rejected,
        am_aborted=am_aborted,
        handler_busy_ns=handler_busy,
        wasted_iops=stats.wasted_cas + wasted_device,
        fault_aborts=fault_aborts,
        crashes=injector.crashes_fired if injector is not None else 0,
        sim_events=sim.events_executed,
        by_depth=dict(stats.by_depth) if algo == "bfs" else None,
    )
    if obs is not None:
        obs.collect_cluster(deployment.cluster, window_ns=elapsed)
    return collect_sanitizer(sanitizer, result)
