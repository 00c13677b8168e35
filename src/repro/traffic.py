"""Open-loop load: one Poisson queue in front of an app's clients.

The closed-loop load of :func:`repro.bench.runner.run_app` issues each op
only after the previous one completes, which under-reports latency past
saturation (coordinated omission).  ``run_app(..., rate_mops=r)``
generates arrivals independently of service progress instead, through
one :class:`OpenLoopQueue`:

* one arrival process draws seeded Poisson gaps
  (:func:`repro.sim.rng.exponential_interval_ns`) and appends one
  workload op per arrival to a FIFO queue, putting one token in a
  :class:`repro.sim.TokenBucket` for it;
* ``coroutines`` workers per SMART thread, each with its own app client
  (worker *i* on thread *i* mod *T*), take a token, pop the oldest op and
  run it.

Each op's arrival→issue delay goes to a :class:`LogHistogram`, its
arrival→completion latency to an :class:`OperationStats`, so p50/p99 come
out of the standard percentile path.  Everything else — faults, RDMASan,
observability, the window and the collect step — is ``run_app``'s, as it
is for a closed-loop point.  :func:`run_open_loop` names the app and
counts workers in total; it runs as a :mod:`repro.bench.parallel` sweep
point, so every argument stays picklable.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

from repro.bench.runner import (
    App,
    PointColumns,
    RunArgumentError,
    app_class,
    check_run_args,
    run_app,
)
from repro.core import OperationStats
from repro.obs.metrics import LogHistogram
from repro.sim import Simulator, TokenBucket
from repro.sim.rng import exponential_interval_ns


@dataclass
class OpenLoopResult(PointColumns):
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
                 "queue_delay_hist", "workers")

    def __init__(self, sim: Simulator):
        #: (arrival_time_ns, op) arrived but not yet issued
        self.queue: Deque[Tuple[int, object]] = deque()
        self.tokens = TokenBucket(sim, 0, name="open_loop.queue")
        self.stats = OperationStats()
        self.workers = 0
        self.reset_window()

    @classmethod
    def serve(cls, sim: Simulator, app: App, smart_threads, coroutines: int,
              rate_mops: float, seed: int) -> "OpenLoopQueue":
        """A queue fed by Poisson arrivals at ``rate_mops`` and drained by
        ``coroutines`` workers per SMART thread, placed round-robin.  One
        seeder draws the stream seed, then the arrival seed; the arrival
        process is spawned before the workers."""
        seeder = random.Random(seed)
        stream = app.stream(seeder.getrandbits(31))
        state = cls(sim)
        sim.spawn(
            _arrivals(sim, state, stream, rate_mops, seeder.getrandbits(31)),
            name="open_loop.arrivals")
        state.workers = coroutines * len(smart_threads)
        for index in range(state.workers):
            sim.spawn(_worker(sim, state, app,
                              smart_threads[index % len(smart_threads)]),
                      name=f"open_loop.w{index}")
        return state

    def reset_window(self) -> None:
        """Zero the window's counters at the warmup/measure boundary.
        The queue itself is kept — backlog built during warmup is real
        offered load — and depth tracking restarts from it; ``stats`` is
        reset in place (the workers hold it)."""
        self.stats.reset()
        self.offered = 0
        self.max_queue_depth = len(self.queue)
        self.queue_delay_hist = LogHistogram()

    def result(self, app: str, system: str, threads: int,
               measure_ns: float) -> OpenLoopResult:
        """The window's :class:`OpenLoopResult` (its fault columns are
        filled by the runner's collect step)."""
        stats = self.stats
        queue_hist = self.queue_delay_hist
        return OpenLoopResult(
            app=app, system=system, threads=threads, measure_ns=measure_ns,
            workers=self.workers,
            offered_mops=self.offered / measure_ns * 1e3,
            achieved_mops=stats.ops / measure_ns * 1e3,
            offered=self.offered,
            completed=stats.ops,
            backlog=len(self.queue),
            max_queue_depth=self.max_queue_depth,
            p50_latency_ns=stats.latency_percentile_ns(0.50),
            p99_latency_ns=stats.latency_percentile_ns(0.99),
            queue_p50_ns=queue_hist.percentile(0.50),
            queue_p99_ns=queue_hist.percentile(0.99),
            queue_mean_ns=queue_hist.mean,
            avg_retries=stats.avg_retries,
        )

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
    **run,
) -> OpenLoopResult:
    """One open-loop point of the app called ``app``: Poisson arrivals at
    ``rate_mops`` served by ``workers`` coroutines, an equal share on each
    SMART thread (``workers`` must be a multiple of their count).

    ``app`` names one of :data:`repro.bench.runner.APPS`, ``system`` one
    of its systems; ``workload`` is the YCSB mix of the hash table and
    B+Tree (``None``: write-heavy), ``benchmark`` DTX's.  The hash table
    and DTX deploy one compute blade against two memory blades, the
    B+Tree ``servers`` combined blades.  ``run`` is
    :func:`repro.bench.runner.run_app`'s keyword arguments (``config``,
    the window, ``seed``, ``faults``, ``obs``, ``sanitize``, …).
    """
    check_run_args(threads=threads, item_count=item_count, servers=servers,
                   workers=workers)
    adapter = app_class(app).for_open_loop(item_count, benchmark, workload)
    compute_blades = servers if adapter.colocated else 1
    smart_threads = threads * compute_blades
    if workers % smart_threads:
        raise RunArgumentError(
            f"workers must be a multiple of the {smart_threads} SMART "
            f"threads, got {workers!r}")
    return run_app(adapter, system or adapter.default_system, threads=threads,
                   coroutines=workers // smart_threads,
                   compute_blades=compute_blades, rate_mops=rate_mops, **run)
