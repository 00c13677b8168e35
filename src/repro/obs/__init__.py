"""Unified observability: collect-time metrics + timeline tracing + export.

One :class:`Observability` object owns a :class:`TraceRecorder` for a
run and the metrics its ``collect_*`` methods build once the run is
over: ``counters`` and ``gauges`` map a dotted name to ``(value, unit)``
and ``histograms`` a name to a :class:`LogHistogram` (``ops.latency_ns``
is built from the exact latency list of the run's ``OperationStats``).
Nothing is recorded per op for the metrics, so a run nobody observes
pays nothing for them.  Attach it to a cluster with
:meth:`Observability.attach_cluster` — the one attach call — once its
nodes are added and *before* the simulation starts; afterwards collect
metrics and write the artifacts::

    obs = Observability()
    result = run_microbench(..., obs=obs)
    obs.write(trace_path="trace.json", metrics_path="metrics.json")

Attachment is strictly passive — it adds one :class:`SpanTracer` to
each device's ``observers`` and fills the simulator's one
``Simulator.recorder`` slot, which every ``instant`` / span site (RNIC,
fabric, fault injector, SMART handles, sanitizer) checks with a single
``is not None`` test.  Neither ever schedules simulator events or
consumes randomness, so an instrumented run produces *bit-identical*
simulated results, and an un-instrumented run is byte-identical to a
build without this package (the same determinism bar as the
fault-free fast path).  Nothing outside this package imports it: the
simulation core never loads ``repro.obs``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.obs.export import chrome_trace, write_chrome_trace
from repro.obs.metrics import LogHistogram
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
    "LogHistogram",
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
)

#: allocator statistics that count events; the rest are byte gauges
_ALLOCATOR_COUNTERS = ("allocs", "failed_allocs")


def _tracer_of(device) -> Optional[SpanTracer]:
    """The :class:`SpanTracer` among ``device``'s observers, if any."""
    for observer in device.observers:
        if isinstance(observer, SpanTracer):
            return observer
    return None


class Observability:
    """Metrics + tracing for one simulated run."""

    def __init__(self):
        #: dotted name -> (value, unit), written at collect time
        self.counters: Dict[str, Tuple[float, str]] = {}
        self.gauges: Dict[str, Tuple[float, str]] = {}
        self.histograms: Dict[str, LogHistogram] = {}
        self.recorder = TraceRecorder()

    # -- wiring ------------------------------------------------------------

    def attach_cluster(self, cluster) -> "Observability":
        """Trace everything on ``cluster``'s simulator: fill its recorder
        slot and give every device a :class:`SpanTracer`.

        Call before the simulation runs, after every node is added.
        Devices that already carry a tracer keep it.
        """
        cluster.sim.recorder = self.recorder
        for node in cluster.nodes:
            self.attach_node(node)
        return self

    def attach_node(self, node) -> None:
        device = node.device
        if _tracer_of(device) is None:
            device.observers += (
                SpanTracer(self.recorder, device.name, capacity=50_000),
            )

    # -- run annotations ---------------------------------------------------

    def phase(self, name: str, start_ns: float, end_ns: float,
              args: Optional[Dict] = None) -> None:
        """Mark a run phase (warmup/measure) on the sim-wide track."""
        self.recorder.span("sim", "phases", name, start_ns, end_ns, args)

    # -- collection --------------------------------------------------------

    def collect_cluster(self, cluster, window_ns: Optional[float] = None) -> None:
        """Snapshot device/fabric/sim counters into the metrics."""
        counters, gauges = self.counters, self.gauges
        for node in cluster.nodes:
            device = node.device
            prefix = device.name
            perf = device.counters
            for field in _DEVICE_COUNTERS:
                counters[f"{prefix}.{field}"] = (float(getattr(perf, field)), "")
            gauges[f"{prefix}.outstanding_wrs"] = (device.outstanding, "")
            gauges[f"{prefix}.contexts"] = (len(device.contexts), "")
            gauges[f"{prefix}.dram_bytes_per_wr"] = (perf.dram_bytes_per_wr, "B")
            if window_ns:
                gauges[f"{prefix}.requester_utilization"] = (
                    perf.requester_utilization(window_ns), "")
            tracer = _tracer_of(device)
            if tracer is not None:
                counters[f"{prefix}.trace_batches_dropped"] = (
                    float(tracer.dropped), "")
        fabric = cluster.fabric
        counters["fabric.messages"] = (float(fabric.messages), "")
        counters["fabric.bytes_carried"] = (float(fabric.bytes_carried), "B")
        counters["fabric.messages_dropped"] = (float(fabric.messages_dropped), "")
        counters["fabric.messages_duplicated"] = (
            float(fabric.messages_duplicated), "")
        counters["fabric.messages_delayed"] = (float(fabric.messages_delayed), "")
        counters["sim.events_executed"] = (float(cluster.sim.events_executed), "")
        gauges["sim.now_ns"] = (cluster.sim.now, "ns")
        counters["trace.events_dropped"] = (float(self.recorder.dropped), "")

    def collect_stats(self, stats, prefix: str = "ops") -> None:
        """Fold an :class:`OperationStats` into the metrics; the latency
        histogram is built here, from the stats' exact latency list."""
        counters = self.counters
        counters[f"{prefix}.completed"] = (float(stats.ops), "")
        counters[f"{prefix}.retries"] = (float(stats.retries), "")
        counters[f"{prefix}.failed"] = (float(stats.failed_ops), "")
        counters[f"{prefix}.fault_aborts"] = (float(stats.fault_aborts), "")
        counters[f"{prefix}.recoveries"] = (float(stats.recoveries), "")
        if stats.latencies_ns:
            hist = LogHistogram()
            for latency in stats.latencies_ns:
                hist.record(latency)
            self.histograms[f"{prefix}.latency_ns"] = hist

    def collect_memory(self, cluster) -> None:
        """Snapshot every blade allocator's occupancy statistics
        (pull-based — never perturbs simulated behaviour)."""
        for node in cluster.nodes:
            prefix = f"memory.blade{node.node_id}"
            for name, value in node.storage.allocator.stats().items():
                if name in _ALLOCATOR_COUNTERS:
                    self.counters[f"{prefix}.{name}"] = (value, "")
                else:
                    self.gauges[f"{prefix}.{name}"] = (value, "B")

    def phase_breakdown(self, cluster) -> Optional[Dict[str, float]]:
        """Batch-weighted per-segment means across ``cluster``'s devices."""
        summaries = []
        for node in cluster.nodes:
            tracer = _tracer_of(node.device)
            if tracer is not None:
                summaries.append(tracer.summary())
        return merge_summaries(summaries)

    # -- output ------------------------------------------------------------

    def metrics(self) -> Dict:
        """The metrics JSON object, each kind sorted by name."""
        def scalars(metrics):
            return {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())}

        return {
            "counters": scalars(self.counters),
            "gauges": scalars(self.gauges),
            "histograms": {name: hist.to_dict()
                           for name, hist in sorted(self.histograms.items())},
        }

    def write(self, trace_path=None, metrics_path=None,
              metadata: Optional[Dict] = None) -> None:
        """Write the Perfetto trace and/or the metrics JSON."""
        if trace_path is not None:
            write_chrome_trace(self.recorder, trace_path, metadata)
        if metrics_path is not None:
            path = Path(metrics_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(self.metrics(), indent=2) + "\n")
