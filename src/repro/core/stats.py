"""Operation-level statistics collected by SMART handles and app clients.

Every measured number is stored once: ``latencies_ns`` is the exact list
of every recorded op's latency, and the metrics histogram
``Observability.collect_stats`` renders is built from it at collect time,
only when a run is observed.  Open-loop arrival accounting (offered /
shed / deferred, queueing delay) is the traffic engine's and lives on
:class:`repro.traffic.engine.TenantState`, so this module imports
nothing from ``repro.obs``.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional

from repro.sim.rng import percentile


class OperationStats:
    """Throughput / latency / retry accounting for one client thread."""

    def __init__(self):
        self.ops = 0
        self.retries = 0
        self.failed_ops = 0
        self.retry_histogram: Counter = Counter()
        #: every recorded op's latency (ascending after :meth:`merge`)
        self.latencies_ns: List[float] = []
        #: ops aborted by a fault completion (flush / remote-abort /
        #: retry-exceeded) — the wasted-IOPS side of fault injection
        self.fault_aborts = 0
        #: completed QP reconnect rounds and their latencies
        self.recoveries = 0
        self.failed_recoveries = 0
        self.recovery_latencies_ns: List[float] = []

    def record_op(self, latency_ns: float, retries: int = 0, failed: bool = False) -> None:
        if latency_ns < 0:
            raise ValueError(f"negative latency: {latency_ns}")
        self.ops += 1
        self.retries += retries
        self.retry_histogram[min(retries, 32)] += 1
        if failed:
            self.failed_ops += 1
        self.latencies_ns.append(latency_ns)

    def record_fault_abort(self) -> None:
        """One op attempt thrown away because a WR completed with error."""
        self.fault_aborts += 1

    def record_recovery(self, latency_ns: float, failed: bool = False) -> None:
        """One QP reconnect round (recovery latency is always recorded,
        warmup or not — faults don't respect measurement windows)."""
        if failed:
            self.failed_recoveries += 1
            return
        self.recoveries += 1
        self.recovery_latencies_ns.append(latency_ns)

    def reset(self) -> None:
        self.__init__()

    # -- aggregation -------------------------------------------------------

    @staticmethod
    def merge(parts: List["OperationStats"]) -> "OperationStats":
        """Aggregate thread-local stats; the merged latencies are the
        parts' lists concatenated and sorted."""
        total = OperationStats()
        for part in parts:
            total.ops += part.ops
            total.retries += part.retries
            total.failed_ops += part.failed_ops
            total.fault_aborts += part.fault_aborts
            total.recoveries += part.recoveries
            total.failed_recoveries += part.failed_recoveries
            total.recovery_latencies_ns.extend(part.recovery_latencies_ns)
            total.retry_histogram.update(part.retry_histogram)
            total.latencies_ns.extend(part.latencies_ns)
        total.latencies_ns.sort()
        total.recovery_latencies_ns.sort()
        return total

    @property
    def avg_retries(self) -> float:
        return self.retries / self.ops if self.ops else 0.0

    @property
    def avg_recovery_ns(self) -> float:
        if not self.recovery_latencies_ns:
            return 0.0
        return sum(self.recovery_latencies_ns) / len(self.recovery_latencies_ns)

    def latency_percentile_ns(self, fraction: float) -> Optional[float]:
        if not self.latencies_ns:
            return None
        return percentile(sorted(self.latencies_ns), fraction)

    def retry_distribution(self) -> Dict[int, float]:
        """Fraction of ops by retry count (Fig 14c)."""
        total = sum(self.retry_histogram.values())
        if total == 0:
            return {}
        return {k: v / total for k, v in sorted(self.retry_histogram.items())}
