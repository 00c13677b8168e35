"""Phase split and window counters for one repeat of one pinned point.

Everything here reaches into ``src/`` through wrappers installed from
this file around three public callables:

* ``Simulator.run`` — every call is stamped.  A runner calls it once per
  phase, so for one repeat *setup* is runner entry → first call,
  *warm-up* is first call → last call, the *measured window* is the last
  call and *collect* is last return → runner return; the four partition
  the repeat's wall time exactly.  Kernel events, device counters,
  fabric and blade counts are read before and after each call, outside
  the stamps, and the window's numbers are their difference.  Each call
  is passed on as ``SLICES`` consecutive ``run(until=...)`` calls of equal
  simulated length (the kernel's own contract makes that the same
  simulation), each timed, so one window yields ``SLICES`` samples of
  host ns per kernel event instead of one.
* ``bench.runner.measure`` — its return value (the merged
  ``OperationStats``) gives ops, failed ops, retries and p50.
* ``Cluster.__init__`` — records the cluster, to reach its devices.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import resource
import time
from typing import Any, Callable, Dict, List, Optional

from layers import delta

#: ``PerfCounters`` fields summed over all nodes into the window counts
DEVICE_COUNTERS = (
    "wqe_processed", "doorbell_rings", "cqe_delivered", "dram_bytes",
    "wqe_cache_miss_wrs",
)
#: ... and the two whose per-node maximum gives the busiest pipeline
DEVICE_BUSY = ("requester_busy_ns", "responder_busy_ns")
BLADE_COUNTERS = ("reads", "writes", "atomics", "failed_cas")

#: timed pieces every ``Simulator.run(until=...)`` call is passed on in
SLICES = 40


@dataclasses.dataclass
class RunCall:
    """One ``Simulator.run`` call: host stamps and counts either side."""

    before: Dict[str, Any]
    trace_before: Optional[dict] = None
    start_ns: int = 0
    end_ns: int = 0
    after: Optional[Dict[str, Any]] = None
    trace_after: Optional[dict] = None
    #: (kernel events, host ns) of each slice that executed any event
    slices: List[tuple] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class Repeat:
    """Everything measured on one repeat."""

    # host time, seconds
    wall_s: float
    setup_s: float
    warmup_s: float
    window_s: float
    collect_s: float
    cpu_user_s: float
    cpu_sys_s: float
    minor_faults: int
    # the measured window, exact
    window_sim_ns: int
    ops: int
    failed_ops: int
    retries: int
    counts: Dict[str, float]  # window deltas, see _counts()
    slices: List[tuple]  # (kernel events, host ns) per slice of the window
    requester_util: float
    responder_util: float
    blade_capacity_bytes: int
    # the runner's own result
    sim_mops: float
    sim_p50_ns: float
    sim_p99_ns: float
    sim_digest: str
    # layer-timer snapshots (traced repeats only)
    trace_setup: Optional[dict] = None
    trace_window: Optional[dict] = None


def result_digest(result) -> str:
    """sha256 over every field of a runner's result dataclass."""
    blob = json.dumps(dataclasses.asdict(result), sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


class Probe:
    """Installs the three wrappers; :meth:`repeat` runs one point."""

    def __init__(self, timer=None):
        #: a ``layers.LayerTimer`` whose table is snapshot at the phase
        #: boundaries, or None for an untraced repeat
        self.timer = timer
        self._clusters: List = []
        self._calls: List[RunCall] = []
        self._stats = None
        self._originals: List = []

    # -- wrappers -------------------------------------------------------------

    def __enter__(self) -> "Probe":
        import repro.bench.runner as runner
        from repro.cluster import Cluster
        from repro.sim import Simulator

        probe = self
        sim_run = Simulator.run
        measure = runner.measure
        cluster_init = Cluster.__init__
        clock = time.perf_counter_ns

        def run(sim, until=None, max_events=None):
            call = RunCall(probe._counts(sim))
            probe._calls.append(call)
            if probe.timer is not None:
                call.trace_before = probe.timer.snapshot()
            call.start_ns = clock()
            try:
                if until is None or max_events is not None:
                    return sim_run(sim, until=until, max_events=max_events)
                begin = sim.now
                step = (until - begin) / SLICES
                for index in range(1, SLICES + 1):
                    events = sim.events_executed
                    started = clock()
                    sim_run(sim, until=until if index == SLICES else begin + step * index)
                    ended = clock()
                    if sim.events_executed > events:
                        call.slices.append((sim.events_executed - events, ended - started))
            finally:
                call.end_ns = clock()
                call.after = probe._counts(sim)
                if probe.timer is not None:
                    call.trace_after = probe.timer.snapshot()

        def measure_and_keep(*args, **kwargs):
            probe._stats = measure(*args, **kwargs)
            return probe._stats

        def init(cluster, *args, **kwargs):
            cluster_init(cluster, *args, **kwargs)
            probe._clusters.append(cluster)

        self._originals = [
            (Simulator, "run", sim_run),
            (runner, "measure", measure),
            (Cluster, "__init__", cluster_init),
        ]
        Simulator.run = run
        runner.measure = measure_and_keep
        Cluster.__init__ = init
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals = []

    def _cluster_of(self, sim):
        for cluster in reversed(self._clusters):
            if cluster.sim is sim:
                return cluster
        raise RuntimeError("Simulator.run on a simulator no recorded Cluster owns")

    def _counts(self, sim) -> Dict[str, Any]:
        cluster = self._cluster_of(sim)
        counts: Dict[str, Any] = {
            "sim_now": sim.now,
            "events": sim.events_executed,
            "messages": cluster.fabric.messages,
            "bytes_carried": cluster.fabric.bytes_carried,
        }
        for name in DEVICE_COUNTERS:
            counts[name] = sum(getattr(n.device.counters, name) for n in cluster.nodes)
        for name in DEVICE_BUSY:
            counts[name] = [getattr(n.device.counters, name) for n in cluster.nodes]
        for name in BLADE_COUNTERS:
            counts[name] = sum(getattr(n.storage, name) for n in cluster.nodes)
        return counts

    # -- one repeat -------------------------------------------------------------

    def repeat(self, runner_name: str, kwargs: Dict[str, Any]) -> Repeat:
        """Run one point on a fresh deployment and take it apart."""
        import repro.bench.microbench as microbench
        import repro.bench.runner as runner

        # Looked up now, so a traced repeat calls the timed runner.
        module = microbench if runner_name == "run_microbench" else runner
        run_point: Callable = getattr(module, runner_name)

        gc.collect()
        trace_start = self.timer.snapshot() if self.timer is not None else None
        usage_before = resource.getrusage(resource.RUSAGE_SELF)
        entry_ns = time.perf_counter_ns()
        result = run_point(**kwargs)
        exit_ns = time.perf_counter_ns()
        usage = resource.getrusage(resource.RUSAGE_SELF)

        calls = self._calls
        if len(calls) < 2:
            raise RuntimeError(
                f"{runner_name} made {len(calls)} Simulator.run call(s); the "
                "phase split needs a warm-up call and a measured call")
        first, window = calls[0], calls[-1]
        cluster = self._clusters[-1]
        before, after = window.before, window.after
        window_sim_ns = after["sim_now"] - before["sim_now"]
        counts = {
            name: after[name] - before[name]
            for name in ("events", "messages", "bytes_carried")
            + DEVICE_COUNTERS + BLADE_COUNTERS
        }

        def busiest(name: str) -> float:
            busy = max(b - a for a, b in zip(before[name], after[name]))
            return busy / window_sim_ns

        if self._stats is not None:  # run_hashtable / run_dtx
            stats = self._stats
            ops, failed, retries = stats.ops, stats.failed_ops, stats.retries
            p50, p99 = result.p50_latency_ns, result.p99_latency_ns
        else:  # run_microbench: op = one WR, latency = one doorbell batch
            ops, failed, retries = result.measured_wrs, result.wasted_wrs, 0
            p50, p99 = result.batch_latency_p50_ns, result.batch_latency_p99_ns

        repeat = Repeat(
            wall_s=(exit_ns - entry_ns) / 1e9,
            setup_s=(first.start_ns - entry_ns) / 1e9,
            warmup_s=(window.start_ns - first.start_ns) / 1e9,
            window_s=(window.end_ns - window.start_ns) / 1e9,
            collect_s=(exit_ns - window.end_ns) / 1e9,
            cpu_user_s=usage.ru_utime - usage_before.ru_utime,
            cpu_sys_s=usage.ru_stime - usage_before.ru_stime,
            minor_faults=usage.ru_minflt - usage_before.ru_minflt,
            window_sim_ns=window_sim_ns,
            ops=ops,
            failed_ops=int(failed),
            retries=retries,
            counts=counts,
            slices=window.slices,
            requester_util=busiest("requester_busy_ns"),
            responder_util=busiest("responder_busy_ns"),
            blade_capacity_bytes=sum(n.storage.capacity for n in cluster.nodes),
            sim_mops=result.throughput_mops,
            sim_p50_ns=p50,
            sim_p99_ns=p99,
            sim_digest=result_digest(result),
        )
        if self.timer is not None:
            repeat.trace_setup = delta(first.trace_before, trace_start)
            repeat.trace_window = delta(window.trace_after, window.trace_before)
        # Drop the deployment before the next repeat builds its own, so
        # peak RSS is one deployment's, not the sum.
        self._clusters.clear()
        self._calls.clear()
        self._stats = None
        return repeat
