"""Unified observability: metrics registry + timeline tracing + export.

One :class:`Observability` object owns a :class:`MetricsRegistry` and a
:class:`TraceRecorder` for a run.  Attach it to a cluster (and its
SMART threads) *before* the simulation starts; afterwards collect
metrics and write the artifacts::

    obs = Observability()
    result = run_microbench(..., obs=obs)
    obs.write(trace_path="trace.json", metrics_path="metrics.json")

Attachment is strictly passive — it adds one :class:`SpanTracer` to
each device's ``observers`` and installs recorder references that
``instant`` sites check with a single ``is not None`` test.  Neither
ever schedules simulator events or consumes randomness, so an
instrumented run produces *bit-identical* simulated results, and an
un-instrumented run is byte-identical to a build without this package
(the same determinism bar as the fault-free fast path).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.export import chrome_trace, write_chrome_trace
from repro.obs.metrics import Counter, Gauge, LogHistogram, MetricsRegistry
from repro.obs.tracing import (
    SEGMENT_LANES,
    SEGMENTS,
    SpanTracer,
    TraceEvent,
    TraceRecorder,
    merge_summaries,
)

__all__ = [
    "Observability",
    "MetricsRegistry",
    "LogHistogram",
    "Counter",
    "Gauge",
    "TraceRecorder",
    "TraceEvent",
    "SpanTracer",
    "SEGMENTS",
    "SEGMENT_LANES",
    "chrome_trace",
    "write_chrome_trace",
    "merge_summaries",
]

#: counter fields copied verbatim from each device's PerfCounters
_DEVICE_COUNTERS = (
    "wqe_processed", "doorbell_rings", "dram_bytes", "wqe_cache_miss_wrs",
    "mtt_lookups", "mtt_miss_wrs", "responder_ops", "cqe_delivered",
    "requester_busy_ns", "responder_busy_ns", "protection_faults",
    "retransmissions", "wasted_wire_bytes", "error_completions",
    "flushed_wrs", "qp_errors",
    "odp_faults", "odp_invalidations", "merged_wrs",
    "am_handled", "am_rejected", "am_aborted", "handler_busy_ns",
    "am_queue_peak",
)


def _tracer_of(device) -> Optional[SpanTracer]:
    """The :class:`SpanTracer` among ``device``'s observers, if any."""
    for observer in device.observers:
        if isinstance(observer, SpanTracer):
            return observer
    return None


class Observability:
    """Metrics + tracing for one simulated run."""

    def __init__(self):
        self.registry = MetricsRegistry()
        self.recorder = TraceRecorder()
        self._clusters = []

    # -- wiring ------------------------------------------------------------

    def attach_cluster(self, cluster) -> "Observability":
        """Instrument every device, the fabric and the fault layer.

        Call before the simulation runs; a node the cluster adds later is
        attached as it joins.  Devices that already carry a tracer keep it
        (only the recorder reference is added).
        """
        cluster.recorder = self.recorder
        cluster.fabric.recorder = self.recorder
        if cluster not in self._clusters:
            self._clusters.append(cluster)
        cluster.attach(self)
        return self

    def attach_node(self, node) -> None:
        device = node.device
        device.recorder = self.recorder
        if _tracer_of(device) is None:
            device.observers += (
                SpanTracer(self.recorder, device.name, capacity=50_000),
            )

    def attach_smart_threads(self, smart_threads) -> "Observability":
        """Emit application-level op spans from these threads' handles."""
        for smart in smart_threads:
            smart.recorder = self.recorder
        return self

    def attach_deployment(self, deployment) -> "Observability":
        """Convenience for :class:`repro.bench.runner.Deployment`."""
        self.attach_cluster(deployment.cluster)
        self.attach_smart_threads(deployment.smart_threads)
        return self

    # -- run annotations ---------------------------------------------------

    def phase(self, name: str, start_ns: float, end_ns: float,
              args: Optional[Dict] = None) -> None:
        """Mark a run phase (warmup/measure) on the sim-wide track."""
        self.recorder.span("sim", "phases", name, start_ns, end_ns, args)

    # -- collection --------------------------------------------------------

    def collect_cluster(self, cluster, window_ns: Optional[float] = None) -> None:
        """Snapshot device/fabric/sim counters into the registry."""
        registry = self.registry
        for node in cluster.nodes:
            device = node.device
            prefix = device.name
            counters = device.counters
            for field in _DEVICE_COUNTERS:
                metric = registry.counter(f"{prefix}.{field}")
                metric.value = float(getattr(counters, field))
            registry.gauge(f"{prefix}.outstanding_wrs").set(device.outstanding)
            registry.gauge(f"{prefix}.contexts").set(len(device.contexts))
            registry.gauge(f"{prefix}.dram_bytes_per_wr", "B").set(
                counters.dram_bytes_per_wr
            )
            if window_ns:
                registry.gauge(f"{prefix}.requester_utilization").set(
                    counters.requester_utilization(window_ns)
                )
            tracer = _tracer_of(device)
            if tracer is not None:
                registry.counter(f"{prefix}.trace_batches_dropped").value = float(
                    tracer.dropped
                )
        fabric = cluster.fabric
        registry.counter("fabric.messages").value = float(fabric.messages)
        registry.counter("fabric.bytes_carried", "B").value = float(fabric.bytes_carried)
        registry.counter("fabric.messages_dropped").value = float(fabric.messages_dropped)
        registry.counter("fabric.messages_duplicated").value = float(
            fabric.messages_duplicated
        )
        registry.counter("fabric.messages_delayed").value = float(fabric.messages_delayed)
        registry.counter("sim.events_executed").value = float(
            cluster.sim.events_executed
        )
        registry.gauge("sim.now_ns", "ns").set(cluster.sim.now)
        registry.counter("trace.events_dropped").value = float(self.recorder.dropped)

    def collect_stats(self, stats, prefix: str = "ops") -> None:
        """Fold an :class:`OperationStats` into the registry."""
        registry = self.registry
        registry.counter(f"{prefix}.completed").value = float(stats.ops)
        registry.counter(f"{prefix}.retries").value = float(stats.retries)
        registry.counter(f"{prefix}.failed").value = float(stats.failed_ops)
        registry.counter(f"{prefix}.fault_aborts").value = float(stats.fault_aborts)
        registry.counter(f"{prefix}.recoveries").value = float(stats.recoveries)
        hist = getattr(stats, "latency_hist", None)
        if hist is not None and hist.count:
            registry.adopt_histogram(f"{prefix}.latency_ns", hist)
        # Open-loop traffic accounting (repro.traffic).  All zero for
        # closed-loop runs, so their metrics JSON stays byte-identical.
        if getattr(stats, "offered", 0):
            registry.counter(f"{prefix}.offered").value = float(stats.offered)
            registry.counter(f"{prefix}.shed").value = float(stats.shed)
            registry.counter(f"{prefix}.deferred").value = float(stats.deferred)
        queue_hist = getattr(stats, "queue_delay_hist", None)
        if queue_hist is not None and queue_hist.count:
            registry.adopt_histogram(f"{prefix}.queue_delay_ns", queue_hist)

    def collect_memory(self, cluster) -> None:
        """Snapshot every blade allocator's occupancy/fragmentation
        statistics (pull-based — never perturbs simulated behaviour)."""
        for node in cluster.nodes:
            node.storage.allocator.publish_metrics(
                self.registry, f"memory.blade{node.node_id}"
            )

    def phase_breakdown(self, cluster=None) -> Optional[Dict[str, float]]:
        """Batch-weighted per-segment means across the attached devices."""
        clusters = [cluster] if cluster is not None else self._clusters
        summaries = []
        for member in clusters:
            for node in member.nodes:
                tracer = _tracer_of(node.device)
                if tracer is not None:
                    summaries.append(tracer.summary())
        return merge_summaries(summaries)

    # -- output ------------------------------------------------------------

    def write(self, trace_path=None, metrics_path=None,
              metadata: Optional[Dict] = None) -> None:
        """Write the Perfetto trace and/or the metrics JSON."""
        if trace_path is not None:
            write_chrome_trace(self.recorder, trace_path, metadata)
        if metrics_path is not None:
            self.registry.write_json(metrics_path)
