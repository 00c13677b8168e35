"""Open-loop experiment runner for the three SMART applications.

Runs the :class:`repro.bench.runner.App` adapters of the closed-loop
pipeline — same deployments, same app servers and clients, same
warmup/measure discipline — but drives the clients from an
:class:`OpenLoopEngine` instead of closed client loops, so offered load
is independent of service progress and queueing delay is measured
rather than omitted.

``run_open_loop`` runs as a :mod:`repro.bench.parallel` sweep point, so
every argument (including :class:`TenantSpec` and its arrival process /
SLO members) must stay picklable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional

from repro.bench.runner import (
    App,
    app_class,
    check_run_args,
    collect_window,
    deploy_app,
    effective_warmup_ns,
    instrument,
)
from repro.core import OperationStats
from repro.traffic.arrivals import PoissonArrivals
from repro.traffic.engine import OpenLoopEngine, TenantState
from repro.traffic.tenant import NO_SLO, Slo, TenantSpec


@dataclass
class TenantResult:
    """Measured-window outcome for one tenant."""

    tenant: str
    workers: int
    #: long-run mean of the arrival process (what the sweep asked for)
    nominal_mops: float
    #: arrivals actually generated in the window
    offered_mops: float
    #: ops completed in the window
    achieved_mops: float
    offered: int
    completed: int
    shed: int
    deferred: int
    #: ops still queued (admitted, not yet issued) at window end —
    #: grows without bound past the knee when admission is off
    backlog: int
    max_queue_depth: int
    #: arrival→completion latency (includes queueing delay)
    p50_latency_ns: Optional[float]
    p99_latency_ns: Optional[float]
    #: arrival→issue queueing delay
    queue_p50_ns: Optional[float]
    queue_p99_ns: Optional[float]
    queue_mean_ns: float
    avg_retries: float


@dataclass
class OpenLoopResult:
    """Aggregated outcome of one open-loop experiment point."""

    app: str
    system: str
    threads: int
    measure_ns: float
    tenants: List[TenantResult] = field(default_factory=list)

    @property
    def offered_mops(self) -> float:
        return sum(t.offered_mops for t in self.tenants)

    @property
    def achieved_mops(self) -> float:
        return sum(t.achieved_mops for t in self.tenants)


def _tenant_result(state: TenantState, measure_ns: float) -> TenantResult:
    stats = state.stats
    queue_hist = state.queue_delay_hist
    return TenantResult(
        tenant=state.spec.name,
        workers=state.spec.workers,
        nominal_mops=state.spec.arrivals.offered_mops,
        offered_mops=state.offered / measure_ns * 1e3,
        achieved_mops=stats.ops / measure_ns * 1e3,
        offered=state.offered,
        completed=stats.ops,
        shed=state.shed,
        deferred=state.deferred,
        backlog=state.backlog,
        max_queue_depth=state.max_queue_depth,
        p50_latency_ns=stats.latency_percentile_ns(0.50),
        p99_latency_ns=stats.latency_percentile_ns(0.99),
        queue_p50_ns=queue_hist.percentile(0.50),
        queue_p99_ns=queue_hist.percentile(0.99),
        queue_mean_ns=queue_hist.mean,
        avg_retries=stats.avg_retries,
    )


# -- the runner ----------------------------------------------------------------


def run_open_loop(
    app: str = "hashtable",
    system: Optional[str] = None,
    tenants: Optional[List[TenantSpec]] = None,
    rate_mops: float = 1.0,
    arrivals=None,
    slo: Optional[Slo] = None,
    workers: int = 8,
    threads: int = 8,
    servers: int = 1,
    item_count: int = 50_000,
    benchmark: str = "smallbank",
    config=None,
    warmup_ns: float = 1.0e6,
    measure_ns: float = 2.0e6,
    seed: int = 0,
    obs=None,
) -> OpenLoopResult:
    """One open-loop experiment point.

    With ``tenants=None`` a single default tenant is built from
    ``rate_mops`` / ``arrivals`` / ``slo`` / ``workers`` (Poisson
    arrivals unless an explicit process is given).  Each tenant's
    workers are spread round-robin over the deployment's SMART threads,
    so tenants contend for the same RNICs and fabric while keeping
    private queues, stats and admission state.  ``app`` names one of
    :data:`repro.bench.runner.APPS`, ``system`` one of its systems (run
    on that system's feature set); the hash table and DTX deploy one
    compute blade against two memory blades, the B+Tree ``servers``
    combined blades.
    """
    check_run_args(warmup_ns, measure_ns=measure_ns, threads=threads,
                   item_count=item_count, servers=servers)
    adapter = app_class(app).for_open_loop(item_count, benchmark)
    compute_blades = servers if adapter.colocated else 1
    system = system or adapter.default_system
    if tenants is None:
        tenants = [TenantSpec(
            "t0",
            arrivals or PoissonArrivals(rate_mops),
            slo=slo or NO_SLO,
            workers=workers,
        )]

    deployment = deploy_app(adapter, system, threads, compute_blades,
                            memory_blades=2, features=None, config=config,
                            seed=seed)
    instrument(deployment, obs=obs)

    # Workers go round-robin over the SMART threads across tenants; one
    # seeder draws each tenant's stream seed, then its arrival seed.
    sim = deployment.cluster.sim
    engine = OpenLoopEngine(sim, seed=seed)
    seeder = random.Random(seed)
    smart_threads = deployment.smart_threads
    worker_index = 0
    for spec in tenants:
        stream = adapter.stream(spec.workload, seeder.getrandbits(31))
        executors = []
        for _ in range(spec.workers):
            smart = smart_threads[worker_index % len(smart_threads)]
            executors.append(partial(_executor, adapter, smart))
            worker_index += 1
        engine.add_tenant(spec, stream, executors, seeder.getrandbits(31))

    warm = effective_warmup_ns(deployment.features, warmup_ns)
    sim.run(until=warm)
    for smart in smart_threads:
        smart.stats.reset()
    engine.reset_window()
    sim.run(until=warm + measure_ns)

    result = OpenLoopResult(
        app=app, system=system, threads=threads, measure_ns=measure_ns,
        tenants=[_tenant_result(state, measure_ns) for state in engine.tenants],
    )

    if obs is not None:
        merged = OperationStats.merge([s.stats for s in smart_threads])
        collect_window(obs, deployment, merged, warmup_ns, measure_ns)
        engine.collect(obs)
    return result


def _executor(app: App, smart):
    """A worker's executor factory (see :class:`OpenLoopEngine`): a
    fresh client, and ``execute(op)`` returning that client's own
    generator for the op."""
    return partial(app.dispatch, app.make_client(smart))
