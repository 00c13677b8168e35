"""Tenants: an arrival process + workload mix + SLO, bound to workers.

A :class:`TenantSpec` is the unit of multi-tenancy in the traffic
engine: each tenant gets its own arrival process, its own operation
queue and admission controller, and a dedicated set of worker coroutines
(spread over the deployment's :class:`repro.core.SmartThread`\\ s, so
tenants still contend for the same RNICs and fabric).  Per-tenant op
statistics ride in a standard :class:`repro.core.OperationStats`; the
open-loop counters (offered, shed, deferred, queueing delay) sit beside
it on the engine's :class:`repro.traffic.engine.TenantState`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.traffic.arrivals import ArrivalProcess

#: admission policies (see repro.traffic.admission)
ADMIT_NONE = "none"
ADMIT_SHED = "shed"
ADMIT_DEFER = "defer"
POLICIES = (ADMIT_NONE, ADMIT_SHED, ADMIT_DEFER)


@dataclass(frozen=True)
class Slo:
    """A tenant's service-level objective.

    ``target_p99_ns`` bounds total (arrival→completion) latency; the
    admission controller converts it into a queue-depth budget from the
    observed service time.  ``max_queue_depth`` is an explicit hard cap
    (both may be set; the tighter one wins).  ``policy`` picks what
    happens to an arrival over budget: ``"shed"`` drops it, ``"defer"``
    re-offers it after a jittered backoff up to ``defer_limit`` times
    before shedding, ``"none"`` disables admission control entirely.
    """

    target_p99_ns: Optional[float] = None
    max_queue_depth: Optional[int] = None
    policy: str = ADMIT_SHED
    defer_limit: int = 4

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        if self.target_p99_ns is not None and self.target_p99_ns <= 0:
            raise ValueError(f"target_p99_ns must be positive, got {self.target_p99_ns}")
        if self.max_queue_depth is not None and self.max_queue_depth < 0:
            raise ValueError(
                f"max_queue_depth must be >= 0, got {self.max_queue_depth}"
            )
        if self.defer_limit < 0:
            raise ValueError(f"defer_limit must be >= 0, got {self.defer_limit}")

    @property
    def unlimited(self) -> bool:
        """True when no budget can ever bind (admission is a no-op)."""
        return (self.policy == ADMIT_NONE
                or (self.target_p99_ns is None and self.max_queue_depth is None))


#: the SLO that admits everything (knee-finder sweeps use it to expose
#: unbounded queueing growth past saturation)
NO_SLO = Slo(policy=ADMIT_NONE)


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of an open-loop run.

    ``workload`` is a :class:`repro.workloads.ycsb.YcsbWorkload` for the
    hash-table/B+Tree apps or a benchmark name (``"smallbank"`` /
    ``"tatp"``) for DTX; ``None`` picks the runner's default.
    ``workers`` is the number of dedicated worker coroutines serving
    this tenant's queue.
    """

    name: str
    arrivals: ArrivalProcess
    workload: object = None
    slo: Slo = field(default_factory=lambda: NO_SLO)
    workers: int = 4

    def __post_init__(self):
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
