"""Open-loop load: one Poisson queue in front of an app's clients.

The closed-loop runners in :mod:`repro.bench.runner` issue each op only
after the previous one completes, which under-reports latency past
saturation (coordinated omission).  :func:`run_open_loop` generates
arrivals independently of service progress:

* one arrival process draws seeded Poisson gaps
  (:func:`repro.sim.rng.exponential_interval_ns`) and appends one
  workload op per arrival to a FIFO queue, putting one token in a
  :class:`repro.sim.TokenBucket` for it;
* ``workers`` coroutines, each with its own app client and placed
  round-robin over the deployment's SMART threads, take a token, pop the
  oldest op and run it.

Each op's arrival→issue delay goes to a :class:`LogHistogram`, its
arrival→completion latency to an :class:`OperationStats`, so p50/p99 come
out of the standard percentile path.  The point runs as a
:mod:`repro.bench.parallel` sweep point, so every argument stays
picklable.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

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
from repro.obs.metrics import LogHistogram
from repro.sim import Simulator, TokenBucket
from repro.sim.rng import exponential_interval_ns


@dataclass
class OpenLoopResult:
    """Measured-window outcome of one open-loop point."""

    app: str
    system: str
    threads: int
    measure_ns: float
    workers: int
    #: arrivals generated in the window
    offered_mops: float
    #: ops completed in the window
    achieved_mops: float
    offered: int
    completed: int
    #: ops still queued (arrived, not yet issued) at window end — grows
    #: without bound past the knee
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


class OpenLoopQueue:
    """The FIFO between the arrival process and the workers, with the
    measured window's counters."""

    __slots__ = ("queue", "tokens", "stats", "offered", "max_queue_depth",
                 "queue_delay_hist")

    def __init__(self, sim: Simulator):
        #: (arrival_time_ns, op) arrived but not yet issued
        self.queue: Deque[Tuple[int, object]] = deque()
        self.tokens = TokenBucket(sim, 0, name="open_loop.queue")
        self.stats = OperationStats()
        self.reset_window()

    def reset_window(self) -> None:
        """Zero the window's counters at the warmup/measure boundary.
        The queue itself is kept — backlog built during warmup is real
        offered load — and depth tracking restarts from it; ``stats`` is
        reset in place (the workers hold it)."""
        self.stats.reset()
        self.offered = 0
        self.max_queue_depth = len(self.queue)
        self.queue_delay_hist = LogHistogram()

    def collect(self, obs) -> None:
        """The window's metrics under ``open_loop.``: op stats, offered
        count and (when non-empty) the queue-delay histogram."""
        obs.collect_stats(self.stats, prefix="open_loop")
        obs.counters["open_loop.offered"] = (float(self.offered), "")
        if self.queue_delay_hist.count:
            obs.histograms["open_loop.queue_delay_ns"] = self.queue_delay_hist


def _arrivals(sim: Simulator, state: OpenLoopQueue, stream, rate_mops: float,
              seed: int):
    """Poisson arrivals at ``rate_mops``, one stream op each."""
    rng = random.Random(seed)
    mean_ns = 1e3 / rate_mops
    # One recycled Delay: the kernel reads the gap at yield time, so
    # re-arming one instance avoids an allocation per arrival.
    nap = sim.delay(0)
    queue = state.queue
    while True:
        yield nap.retime(exponential_interval_ns(mean_ns, rng))
        queue.append((sim.now, next(stream)))
        state.offered += 1
        state.max_queue_depth = max(state.max_queue_depth, len(queue))
        state.tokens.put(1)


def _worker(sim: Simulator, state: OpenLoopQueue, app: App, smart):
    """Drain the queue through one client of ``app`` on ``smart``."""
    client = app.make_client(smart)
    dispatch = app.dispatch
    stats = state.stats
    while True:
        yield state.tokens.take(1)
        arrived_at, op = state.queue.popleft()
        state.queue_delay_hist.record(sim.now - arrived_at)
        yield from dispatch(client, op)
        stats.record_op(sim.now - arrived_at)


def run_open_loop(
    app: str = "hashtable",
    system: Optional[str] = None,
    rate_mops: float = 1.0,
    workload=None,
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
    """One open-loop point: Poisson arrivals at ``rate_mops`` served by
    ``workers`` coroutines spread round-robin over the SMART threads.

    ``app`` names one of :data:`repro.bench.runner.APPS`, ``system`` one
    of its systems; ``workload`` is the YCSB mix of the hash table and
    B+Tree (``None``: write-heavy), ``benchmark`` DTX's.  The hash table
    and DTX deploy one compute blade against two memory blades, the
    B+Tree ``servers`` combined blades.
    """
    check_run_args(warmup_ns, measure_ns=measure_ns, threads=threads,
                   item_count=item_count, servers=servers,
                   rate_mops=rate_mops, workers=workers)
    adapter = app_class(app).for_open_loop(item_count, benchmark, workload)
    compute_blades = servers if adapter.colocated else 1
    system = system or adapter.default_system
    deployment = deploy_app(adapter, system, threads, compute_blades,
                            memory_blades=2, features=None, config=config,
                            seed=seed)
    instrument(deployment, obs=obs)

    # One seeder draws the stream seed, then the arrival seed; the
    # arrival process is spawned before the workers.
    sim = deployment.cluster.sim
    seeder = random.Random(seed)
    stream = adapter.stream(seeder.getrandbits(31))
    state = OpenLoopQueue(sim)
    smart_threads = deployment.smart_threads
    processes = [sim.spawn(
        _arrivals(sim, state, stream, rate_mops, seeder.getrandbits(31)),
        name="open_loop.arrivals")]
    processes += [
        sim.spawn(_worker(sim, state, adapter,
                          smart_threads[index % len(smart_threads)]),
                  name=f"open_loop.w{index}")
        for index in range(workers)
    ]

    warm = effective_warmup_ns(deployment.features, warmup_ns)
    sim.run(until=warm)
    for smart in smart_threads:
        smart.stats.reset()
    state.reset_window()
    sim.run(until=warm + measure_ns)

    stats = state.stats
    queue_hist = state.queue_delay_hist
    result = OpenLoopResult(
        app=app, system=system, threads=threads, measure_ns=measure_ns,
        workers=workers,
        offered_mops=state.offered / measure_ns * 1e3,
        achieved_mops=stats.ops / measure_ns * 1e3,
        offered=state.offered,
        completed=stats.ops,
        backlog=len(state.queue),
        max_queue_depth=state.max_queue_depth,
        p50_latency_ns=stats.latency_percentile_ns(0.50),
        p99_latency_ns=stats.latency_percentile_ns(0.99),
        queue_p50_ns=queue_hist.percentile(0.50),
        queue_p99_ns=queue_hist.percentile(0.99),
        queue_mean_ns=queue_hist.mean,
        avg_retries=stats.avg_retries,
    )
    if obs is not None:
        merged = OperationStats.merge([s.stats for s in smart_threads])
        collect_window(obs, deployment, merged, warmup_ns, measure_ns)
        state.collect(obs)
    return result
