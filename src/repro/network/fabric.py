"""Latency/bandwidth model of the switched fabric.

The paper's testbed is a single 200 Gbps InfiniBand switch with sub-600 ns
port-to-port latency; end-to-end RTT for small one-sided verbs is ~2 us.
Per-link serialization is accounted for inside the RNIC processing engines
(they know payload sizes); the fabric only contributes propagation delay.

Fault injection (:mod:`repro.faults`) extends the perfect fabric with
:class:`LinkFault` windows — per-link packet loss, duplication and delay
spikes.  All randomness comes from one injector-owned RNG, so a fixed
seed replays a faulty run bit-identically; with no fault windows
installed the RNG is never consulted and the fabric behaves exactly like
the original perfect model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class LinkFault:
    """A window of degraded delivery on the fabric.

    ``node_id`` restricts the fault to links touching one blade (either
    endpoint); ``None`` degrades every link.  Probabilities are evaluated
    per message with the injector's seeded RNG.
    """

    start_ns: float
    duration_ns: float
    loss: float = 0.0
    duplicate: float = 0.0
    extra_delay_ns: float = 0.0
    node_id: Optional[int] = None

    def __post_init__(self):
        if self.duration_ns < 0:
            raise ValueError("duration_ns must be >= 0")
        for p in (self.loss, self.duplicate):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must be in [0, 1]")

    @property
    def end_ns(self) -> float:
        return self.start_ns + self.duration_ns

    def active(self, now: float, src: Optional[int], dst: Optional[int]) -> bool:
        if not self.start_ns <= now < self.end_ns:
            return False
        return self.node_id is None or self.node_id == src or self.node_id == dst


class Fabric:
    """Propagation-delay model between any two blades."""

    def __init__(self, sim, one_way_latency_ns: float = 1000.0):
        if one_way_latency_ns < 0:
            raise ValueError("latency must be >= 0")
        #: the cluster's simulator (its ``recorder`` slot takes fault instants)
        self.sim = sim
        self.one_way_latency_ns = one_way_latency_ns
        self.messages = 0
        self.bytes_carried = 0
        #: active/scheduled :class:`LinkFault` windows (empty = perfect fabric)
        self.faults: List[LinkFault] = []
        #: seeded RNG owned by the fault injector; only consulted while a
        #: fault window is active, so fault-free runs never draw from it
        self.fault_rng: Optional[random.Random] = None
        # Fault statistics
        self.messages_dropped = 0
        self.messages_duplicated = 0
        self.messages_delayed = 0

    def add_fault(self, fault: LinkFault) -> None:
        self.faults.append(fault)

    def clear_expired_faults(self, now: float) -> None:
        self.faults = [f for f in self.faults if f.end_ns > now]

    def transit(
        self,
        payload_bytes: int,
        now: float,
        src: Optional[int] = None,
        dst: Optional[int] = None,
    ) -> Tuple[float, bool, bool]:
        """Account one message; returns ``(delay_ns, dropped, duplicated)``.

        The fast path (no installed faults) only counts the message and
        returns the propagation delay.
        """
        self.messages += 1
        self.bytes_carried += payload_bytes
        delay = self.one_way_latency_ns
        if not self.faults:
            return delay, False, False
        dropped = duplicated = False
        for fault in self.faults:
            if not fault.active(now, src, dst):
                continue
            rng = self.fault_rng
            if rng is None:
                raise RuntimeError(
                    "link faults installed without an RNG; attach a FaultInjector"
                )
            if fault.extra_delay_ns:
                delay += fault.extra_delay_ns
                self.messages_delayed += 1
            if fault.loss and rng.random() < fault.loss:
                dropped = True
            if fault.duplicate and rng.random() < fault.duplicate:
                duplicated = True
        if dropped:
            self.messages_dropped += 1
        if duplicated:
            self.messages_duplicated += 1
        if self.sim.recorder is not None and (dropped or duplicated):
            name = "message_dropped" if dropped else "message_duplicated"
            self.sim.recorder.instant(
                "fabric", "links", name, now,
                {"src": src, "dst": dst, "bytes": payload_bytes},
            )
        return delay, dropped, duplicated
