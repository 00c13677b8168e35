"""Neo-Host-style performance counters.

The paper measures PCIe inbound bandwidth (RNIC -> host DRAM traffic) with
Mellanox Neo-Host to expose WQE cache thrashing (Fig 4b).  The simulated
device maintains the equivalent counters so benches can report the same
metric.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class PerfCounters:
    """Monotonic counters; snapshot-and-subtract to measure a window."""

    wqe_processed: int = 0
    doorbell_rings: int = 0
    dram_bytes: float = 0.0
    wqe_cache_miss_wrs: float = 0.0
    mtt_lookups: int = 0
    mtt_miss_wrs: float = 0.0
    responder_ops: int = 0
    cqe_delivered: int = 0
    cqe_failed: int = 0
    """CQEs of ``cqe_delivered`` that complete a failed batch (error or
    flush, see ``RnicDevice.fail_batch``), counted when delivered.  A
    WR's own access-error status is not counted here."""
    requester_busy_ns: float = 0.0
    responder_busy_ns: float = 0.0
    protection_faults: int = 0

    # -- fault-injection accounting (the wasted-IOPS ledger) ------------------
    retransmissions: int = 0
    wasted_wire_bytes: float = 0.0
    """Wire bytes spent on messages that were dropped, duplicated or
    retransmitted — IOPS/bandwidth the fabric burned without making
    application progress."""

    error_completions: int = 0
    """WRs completed with a non-OK status (remote abort, retry exceeded)."""

    flushed_wrs: int = 0
    """WRs posted on an ERROR-state QP and flushed without execution."""

    qp_errors: int = 0
    """QP transitions into the ERROR state."""

    def snapshot(self) -> "PerfCounters":
        return PerfCounters(**vars(self))

    def delta(self, earlier: "PerfCounters") -> "PerfCounters":
        """Counters accumulated since ``earlier``."""
        return PerfCounters(
            **{k: getattr(self, k) - getattr(earlier, k) for k in vars(self)}
        )

    @property
    def dram_bytes_per_wr(self) -> float:
        """Average RNIC->DRAM traffic per processed work request."""
        if self.wqe_processed == 0:
            return 0.0
        return self.dram_bytes / self.wqe_processed

    @property
    def wqe_miss_rate(self) -> float:
        if self.wqe_processed == 0:
            return 0.0
        return self.wqe_cache_miss_wrs / self.wqe_processed

    @property
    def wasted_wrs(self) -> float:
        """WRs whose processing made no application progress."""
        return self.retransmissions + self.error_completions + self.flushed_wrs

    def requester_utilization(self, window_ns: float) -> float:
        """Fraction of a window the requester pipeline was busy.  ~1.0
        means the device ceiling (IOPS or bandwidth) is the bottleneck."""
        return self.requester_busy_ns / window_ns if window_ns > 0 else 0.0

    def responder_utilization(self, window_ns: float) -> float:
        return self.responder_busy_ns / window_ns if window_ns > 0 else 0.0
