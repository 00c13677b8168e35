"""RNIC model parameters.

Defaults are calibrated to the paper's testbed (Mellanox ConnectX-6,
200 Gbps, PCIe 3.0 x16, dual-socket 96-core Xeon; hardware IOPS limit
110 MOP/s).  Calibration targets, all taken from the paper's text:

* hardware ceiling 110 MOPS for 8-byte READs (§6.1);
* per-thread-QP throughput roughly halves from 48 to 96 threads because
  ~8 threads share each of the 12 medium-latency doorbells (§3.1, Fig 3);
* 96 threads x 8 OWRs (=768 outstanding WRs) is the throughput peak;
  96 x 32 runs at ~49.5% of it; 36 x 32 (=1152) loses only ~5% (§3.2);
* DRAM traffic per WR grows 93 -> 180 bytes from depth 8 to 32 at 96
  threads (Fig 4b);
* MTT/MPT hit ratio is >95% with a shared device context and drops toward
  70% with per-thread contexts (§2.2).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property

#: rates, bandwidths, the clock, capacities, and the exponent of the
#: WQE-miss curve: zero or less cannot be priced
_POSITIVE = (
    "max_iops", "responder_iops", "network_bandwidth_gbps",
    "pcie_bandwidth_gbps", "cpu_ghz", "wqe_cache_capacity",
    "blade_capacity_bytes", "wqe_miss_shape",
)
#: hit ratios
_UNIT_INTERVAL = ("mtt_shared_hit", "mtt_hit_floor")
#: coefficients, byte counts and retry budgets: zero is a legal setting,
#: a negative is not (every ``*_ns`` field too, see _NON_NEGATIVE_FIELDS)
_NON_NEGATIVE = (
    "wqe_share_factor", "wqe_miss_penalty", "wr_base_dma_bytes",
    "wqe_miss_dma_bytes", "mtt_hit_decay_per_context", "mtt_miss_penalty",
    "low_latency_uars", "doorbell_bounce_cap",
    "transport_retry_limit", "reconnect_retry_limit",
)
#: counts the model needs at least one of: a medium-latency doorbell for
#: QPs past the dedicated ones
_AT_LEAST_ONE = ("medium_latency_uars",)


@dataclass(frozen=True)
class RnicConfig:
    """All tunables of the simulated RNIC, CPU cost model and fabric.

    Immutable: one instance is shared by every device, thread, doorbell
    and cache model of a deployment, and the derived rates below are
    computed once per instance.  :meth:`with_overrides` builds a variant.
    """

    name: str = "ConnectX-6"

    # -- processing ceilings -------------------------------------------------
    max_iops: float = 110e6
    """Requester WQE issue ceiling (ops/s) with a warm WQE cache."""

    responder_iops: float = 115e6
    """Responder-side execution ceiling (ops/s); the paper observes the
    outbound path does not degrade with QP count, so it is a flat rate."""

    network_bandwidth_gbps: float = 200.0
    pcie_bandwidth_gbps: float = 128.0
    """PCIe 3.0 x16 on the paper's testbed (their footnote 6)."""

    # -- doorbells (UARs) ------------------------------------------------------
    low_latency_uars: int = 4
    medium_latency_uars: int = 12
    max_uars: int = 512
    """Driver default: 16 doorbells per context (4 dedicated low-latency +
    12 shared medium-latency); CX-6 supports up to 512 with a driver mod."""

    doorbell_mmio_ns: float = 70.0
    """MMIO write to the UAR page, inside the spinlock."""

    doorbell_bounce_ns: float = 100.0
    """Cache-line bounce per *queued* waiter at spinlock hand-off."""

    doorbell_share_ns: float = 75.0
    """Cache-line bounce per *sharer* of the spinlock line paid on every
    acquisition: each thread spinning on the lock keeps invalidating it."""

    wqe_share_factor: float = 1.0
    """The per-WQE work under the lock (write-combining buffer copy) also
    bounces with sharers: cost = wqe_under_lock_ns * n * (1 + factor *
    sharers).  Together with ``doorbell_share_ns`` this reconciles the
    paper's data: batch-8 posts collapse to ~55% at 96 threads (Fig 3)
    while single-WQE rings still sustain ~16 M rings/s (Fig 12's
    Sherman+ w/ SL), because the batched post holds the contended lock
    8x longer."""

    doorbell_bounce_cap: int = 16

    # -- WQE cache -------------------------------------------------------------
    wqe_cache_capacity: int = 896
    """Outstanding WRs that fit on chip; beyond this, WQE fetches start
    missing to host DRAM over PCIe."""

    wqe_miss_shape: float = 2.5
    """Exponent of the miss curve: miss = (1 - cap/owr)^shape for
    owr > cap.  Calibrated so 1152 OWRs lose ~5% and 3072 lose ~50%."""

    wqe_miss_penalty: float = 2.4
    """Service-time multiplier coefficient per unit miss rate."""

    wr_base_dma_bytes: float = 93.0
    """Host DRAM traffic per WR with a warm cache (Fig 4b floor)."""

    wqe_miss_dma_bytes: float = 123.0
    """Extra DRAM bytes per WR at miss rate 1.0 (Fig 4b: 180 B at 96x32)."""

    # -- MTT/MPT cache -----------------------------------------------------------
    mtt_shared_hit: float = 0.95
    mtt_hit_floor: float = 0.70
    mtt_hit_decay_per_context: float = 0.03
    """Each extra device context registers its own MRs and dilutes the
    translation cache: hit = max(floor, shared_hit - decay*(contexts-1))."""

    mtt_miss_penalty: float = 3.6
    """Service multiplier coefficient applied to miss rate in excess of the
    shared-context baseline (so one shared context runs at max_iops)."""

    # -- CPU cost model -----------------------------------------------------------
    wqe_build_ns: float = 30.0
    """CPU time to build and enqueue one WQE."""

    wqe_under_lock_ns: float = 20.0
    """Per-WQE driver work done while holding the doorbell spinlock
    (write-combining buffer copy, producer-index update)."""

    cqe_poll_ns: float = 40.0
    """CPU time to poll one CQE."""

    cpu_ghz: float = 2.4
    """Xeon Gold 6240R nominal frequency; converts the paper's
    cycle-denominated backoff constants to nanoseconds."""

    # -- fabric / memory ----------------------------------------------------------
    one_way_latency_ns: float = 1000.0
    """Half of the ~2 us small-op RTT."""

    nvm_write_extra_ns: float = 300.0
    """Extra responder latency for writes landing in Optane-backed regions."""

    blade_capacity_bytes: int = 64 << 20

    # -- fault handling / recovery -------------------------------------------------
    retransmit_timeout_ns: float = 16_000.0
    """RC transport ack timeout before a lost message is retransmitted
    (hardware retry; order of the IB local-ack-timeout at small scale)."""

    transport_retry_limit: int = 7
    """RC retry_count: retransmissions before the QP gives up, completes
    the WR with error and transitions to the ERROR state."""

    crash_detect_ns: float = 50_000.0
    """Latency from a remote blade dying to the requester surfacing
    completion-with-error for WRs targeting it (timeout + CM notification)."""

    reconnect_probe_ns: float = 20_000.0
    """Cost of one reconnect attempt (CM handshake probe) during recovery."""

    reconnect_retry_limit: int = 64
    """Reconnect attempts before a client gives the remote node up."""

    enforce_protection: bool = False
    """When on, responders check every one-sided access against the
    blade's registered regions (the MPT's security-check role, §2.2);
    out-of-region accesses complete with an access error instead of
    executing.  Off by default: the paper's workloads are all
    well-formed, and raw-offset access keeps small experiments terse."""

    def __post_init__(self) -> None:
        """Reject a value the model would crash on mid-run or price as
        nonsense, naming the field."""
        for name in _POSITIVE:
            if not getattr(self, name) > 0:
                self._reject(name, "> 0")
        for name in _UNIT_INTERVAL:
            if not 0.0 <= getattr(self, name) <= 1.0:
                self._reject(name, "in [0, 1]")
        for name in _NON_NEGATIVE_FIELDS:
            if not getattr(self, name) >= 0:
                self._reject(name, ">= 0")
        for name in _AT_LEAST_ONE:
            if not getattr(self, name) >= 1:
                self._reject(name, ">= 1")
        default_uars = self.low_latency_uars + self.medium_latency_uars
        if not self.max_uars >= default_uars:
            self._reject("max_uars", f">= low_latency_uars + medium_latency_uars ({default_uars})")

    def _reject(self, name: str, rule: str) -> None:
        raise ValueError(f"RnicConfig.{name} must be {rule}, got {getattr(self, name)!r}")

    def cycles_to_ns(self, cycles: float) -> float:
        return cycles / self.cpu_ghz

    @cached_property
    def iops_service_ns(self) -> float:
        return 1e9 / self.max_iops

    @cached_property
    def responder_service_ns(self) -> float:
        return 1e9 / self.responder_iops

    @cached_property
    def network_bytes_per_ns(self) -> float:
        return self.network_bandwidth_gbps / 8.0

    @cached_property
    def pcie_bytes_per_ns(self) -> float:
        return self.pcie_bandwidth_gbps / 8.0

    def with_overrides(self, **kwargs) -> "RnicConfig":
        """A copy with selected fields replaced."""
        return replace(self, **kwargs)


#: what ``__post_init__`` checks for >= 0: the list above and every
#: ``*_ns`` field (read off the class, hence built below it)
_NON_NEGATIVE_FIELDS = _NON_NEGATIVE + tuple(
    field.name for field in fields(RnicConfig) if field.name.endswith("_ns")
)


def connectx6() -> RnicConfig:
    """The paper's testbed NIC."""
    return RnicConfig()
