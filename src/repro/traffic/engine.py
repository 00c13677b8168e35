"""The open-loop traffic engine: arrivals → admission → queue → workers.

For each tenant the engine spawns one *arrival* process (walking the
tenant's seeded arrival-gap stream and offering one workload op per
arrival) and ``spec.workers`` *worker* processes (each with its own app
client/handle) draining the tenant's FIFO queue.  The hand-off rides a
:class:`repro.sim.TokenBucket` — one token per queued op — so dispatch
order is deterministic and workers park without polling.

The engine measures what closed-loop runners cannot: the arrival→issue
*queueing delay* of every admitted op (fed to a mergeable
:class:`LogHistogram`) and the arrival→completion *total latency* (the
tenant's ``OperationStats`` latency list, so p50/p99 come out of the
standard percentile path).  The open-loop bookkeeping — offered, shed
and deferred counts (the admission controller's decisions) and the
queue-delay histogram — lives on each :class:`TenantState`, not in core's
``OperationStats``; :meth:`OpenLoopEngine.collect` exports it.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Iterator, List, Tuple

from repro.core.stats import OperationStats
from repro.obs.metrics import LogHistogram
from repro.sim import Simulator, TokenBucket
from repro.traffic.admission import ADMIT, DEFER, AdmissionController
from repro.traffic.tenant import TenantSpec

#: a zero-arg factory returning a one-op executor generator function
ExecutorFactory = Callable[[], Callable]


class TenantState:
    """Runtime state of one tenant inside the engine."""

    __slots__ = (
        "spec", "stream", "queue", "tokens", "stats", "admission",
        "max_queue_depth", "offered", "shed", "deferred", "queue_delay_hist",
    )

    def __init__(
        self,
        sim: Simulator,
        spec: TenantSpec,
        stream: Iterator,
        workers: int,
        seed: int,
    ):
        self.spec = spec
        self.stream = stream
        #: FIFO of (arrival_time_ns, op) admitted but not yet issued
        self.queue: Deque[Tuple[int, object]] = deque()
        self.tokens = TokenBucket(sim, 0, name=f"{spec.name}.queue")
        self.stats = OperationStats()
        self.admission = AdmissionController(spec.slo, workers, seed=seed)
        self.reset_window()

    def reset_window(self) -> None:
        """Zero the window's counters; ``stats`` is reset in place (the
        workers hold it).  Depth tracking restarts from the backlog."""
        self.stats.reset()
        #: deepest the queue got since the last window reset
        self.max_queue_depth = len(self.queue)
        #: arrivals generated / dropped / pushed back for a later re-offer
        self.offered = 0
        self.shed = 0
        self.deferred = 0
        #: arrival -> issue queueing delay of every admitted op
        self.queue_delay_hist = LogHistogram()

    @property
    def backlog(self) -> int:
        """Ops admitted but not yet issued to a worker."""
        return len(self.queue)


class OpenLoopEngine:
    """Multi-tenant open-loop load generation over one simulator."""

    def __init__(self, sim: Simulator, seed: int = 0):
        self.sim = sim
        self.seed = seed
        self.tenants: List[TenantState] = []
        #: arrival/worker Process handles, so failures stay inspectable
        self.processes: List = []

    # -- wiring ------------------------------------------------------------

    def add_tenant(
        self,
        spec: TenantSpec,
        stream: Iterator,
        executors: List[ExecutorFactory],
        arrival_seed: int,
    ) -> TenantState:
        """Register a tenant and spawn its arrival + worker processes.

        ``stream`` yields one op per arrival; ``executors`` provides one
        factory per worker, each returning an ``execute(op)`` generator
        function bound to a fresh app client.
        """
        state = TenantState(
            self.sim, spec, stream, len(executors),
            seed=(self.seed << 8) ^ arrival_seed,
        )
        self.tenants.append(state)
        self.processes.append(
            self.sim.spawn(
                self._arrival_loop(state, arrival_seed), name=f"{spec.name}.arrivals"
            )
        )
        for index, factory in enumerate(executors):
            self.processes.append(
                self.sim.spawn(
                    self._worker_loop(state, factory), name=f"{spec.name}.w{index}"
                )
            )
        return state

    # -- measurement window ------------------------------------------------

    def reset_window(self) -> None:
        """Zero per-tenant stats at the warmup/measure boundary.

        The queue itself is *not* cleared — backlog built during warmup
        is real offered load — but depth tracking restarts from the
        current backlog.
        """
        for state in self.tenants:
            state.reset_window()

    def collect(self, obs) -> None:
        """Each tenant's metrics under ``tenant.<name>``: its op stats,
        and — once it has been offered load — its offered / shed /
        deferred counts, plus the queue-delay histogram when non-empty."""
        for state in self.tenants:
            prefix = f"tenant.{state.spec.name}"
            obs.collect_stats(state.stats, prefix=prefix)
            if state.offered:
                obs.counters[f"{prefix}.offered"] = (float(state.offered), "")
                obs.counters[f"{prefix}.shed"] = (float(state.shed), "")
                obs.counters[f"{prefix}.deferred"] = (float(state.deferred), "")
            if state.queue_delay_hist.count:
                obs.histograms[f"{prefix}.queue_delay_ns"] = state.queue_delay_hist

    # -- processes ---------------------------------------------------------

    def _arrival_loop(self, state: TenantState, arrival_seed: int):
        sim = self.sim
        # One recycled Delay per tenant: arrival gaps vary, but the
        # kernel reads the gap at yield time, so re-arming a single
        # instance avoids a per-arrival allocation on the open-loop
        # fast path (past-knee sweeps offer millions of arrivals).
        nap = sim.delay(0)
        for gap in state.spec.arrivals.gaps(arrival_seed):
            yield nap.retime(gap)
            op = next(state.stream)
            state.offered += 1
            self._offer(state, op, 0)

    def _offer(self, state: TenantState, op, attempt: int) -> None:
        decision = state.admission.decide(len(state.queue), attempt)
        if decision is ADMIT:
            state.queue.append((self.sim.now, op))
            state.max_queue_depth = max(state.max_queue_depth, len(state.queue))
            state.tokens.put(1)
        elif decision is DEFER:
            state.deferred += 1
            delay = state.admission.defer_delay_ns(attempt)
            self.sim.call_after(delay, self._reoffer, (state, op, attempt + 1))
        else:
            state.shed += 1

    def _reoffer(self, pending: Tuple[TenantState, object, int]) -> None:
        state, op, attempt = pending
        self._offer(state, op, attempt)

    def _worker_loop(self, state: TenantState, factory: ExecutorFactory):
        execute = factory()
        sim = self.sim
        stats = state.stats
        admission = state.admission
        while True:
            yield state.tokens.take(1)
            arrived_at, op = state.queue.popleft()
            state.queue_delay_hist.record(sim.now - arrived_at)
            issued_at = sim.now
            yield from execute(op)
            admission.observe_service(sim.now - issued_at)
            stats.record_op(sim.now - arrived_at)
