"""Doorbell registers (UARs) and their spinlocks.

Figure 2 of the paper: a default mlx5 context exposes 16 doorbells — 4
low-latency ones that are each *dedicated* to the first QPs created, and
12 medium-latency ones that later QPs share round-robin.  Every doorbell
update is protected by a pthread spinlock in the driver, so two threads
whose QPs landed on the same doorbell contend implicitly.
"""

from __future__ import annotations

from typing import List

from repro.sim import Simulator, SpinLock
from repro.rnic.config import RnicConfig

LOW_LATENCY = "low-latency"
MEDIUM_LATENCY = "medium-latency"

class Doorbell:
    """One UAR doorbell register."""

    def __init__(self, sim: Simulator, config: RnicConfig, index: int, kind: str):
        self.index = index
        self.kind = kind
        self.lock = SpinLock(
            sim,
            name=f"db{index}",
            bounce_ns=config.doorbell_bounce_ns,
            bounce_cap=config.doorbell_bounce_cap,
        )
        self.bound_qps = 0
        #: distinct threads that have rung this doorbell; the spinlock's
        #: cache line is shared by all of them, so every acquisition pays
        #: a bounce per *sharer*, not just per queued waiter
        self.users = set()
        #: held_cost_ns memo: (user count, WQE count) -> ns, valid for
        #: ``_costs_config`` only — a ring priced by another config resets
        #: it, and holding the config means its identity cannot be reused
        self._costs = {}
        self._costs_config = None

    def note_user(self, thread_id: int) -> None:
        self.users.add(thread_id)

    def held_cost_ns(self, config, n_wrs: int) -> float:
        """Time spent holding this doorbell's spinlock for one ring of
        ``n_wrs`` work requests."""
        if config is not self._costs_config:
            self._costs = {}
            self._costs_config = config
        key = (len(self.users), n_wrs)
        cost = self._costs.get(key)
        if cost is None:
            sharers = min(max(key[0] - 1, 0), config.doorbell_bounce_cap)
            per_wqe = config.wqe_under_lock_ns * (1.0 + config.wqe_share_factor * sharers)
            cost = self._costs[key] = (
                config.doorbell_mmio_ns + config.doorbell_share_ns * sharers
                + per_wqe * n_wrs
            )
        return cost

    def __repr__(self) -> str:
        return f"Doorbell({self.index}, {self.kind}, qps={self.bound_qps})"


class DoorbellAllocator:
    """The driver's QP -> doorbell mapping for one device context.

    Default policy (``total_uuars`` = 16): the first ``low_latency_uars``
    QPs each get a dedicated low-latency doorbell; every later QP is
    assigned to a medium-latency doorbell round-robin.  The mapping is
    deterministic, which is precisely the property SMART exploits to bind
    each thread's QPs to its own doorbell (§4.1).
    """

    def __init__(self, sim: Simulator, config: RnicConfig, total_uuars: int):
        if total_uuars < config.low_latency_uars + 1:
            raise ValueError(
                f"total_uuars={total_uuars} below minimum "
                f"{config.low_latency_uars + 1}"
            )
        if total_uuars > config.max_uars:
            raise ValueError(
                f"total_uuars={total_uuars} exceeds device limit {config.max_uars}"
            )
        self.config = config
        self.doorbells: List[Doorbell] = []
        for i in range(total_uuars):
            kind = LOW_LATENCY if i < config.low_latency_uars else MEDIUM_LATENCY
            self.doorbells.append(Doorbell(sim, config, i, kind))
        self._next_medium = config.low_latency_uars
        self._created_qps = 0

    @property
    def medium_count(self) -> int:
        return len(self.doorbells) - self.config.low_latency_uars

    def peek_next(self) -> Doorbell:
        """The doorbell the *next* created QP will be bound to.

        SMART relies on this determinism: "before creating a QP, we can
        know which doorbell register it will be associated with" (§4.1).
        """
        if self._created_qps < self.config.low_latency_uars:
            return self.doorbells[self._created_qps]
        return self.doorbells[self._next_medium]

    def bind_next(self) -> Doorbell:
        """Assign a doorbell to a newly created QP (driver behaviour)."""
        doorbell = self.peek_next()
        if doorbell.kind == MEDIUM_LATENCY:
            self._advance_medium()
        self._created_qps += 1
        doorbell.bound_qps += 1
        return doorbell

    def _advance_medium(self) -> None:
        low = self.config.low_latency_uars
        self._next_medium += 1
        if self._next_medium >= len(self.doorbells):
            self._next_medium = low

    def skip_to_fresh_medium(self) -> Doorbell:
        """SMART's trick: advance the round-robin cursor until the upcoming
        medium-latency doorbell has no QPs bound, then return it.

        With ``total_uuars`` >= thread count + 4 this gives every thread an
        exclusive doorbell without any driver API for explicit binding.
        """
        for _ in range(self.medium_count):
            candidate = self.doorbells[self._next_medium]
            if candidate.bound_qps == 0:
                return candidate
            self._advance_medium()
        # All mediums occupied: fall back to plain round-robin sharing
        # (the paper's footnote 4: share when DBs are insufficient).
        return self.doorbells[self._next_medium]

    def bind_doorbell(self, doorbell: Doorbell) -> Doorbell:
        """Bind a QP to a specific doorbell (thread-aware allocation)."""
        self._created_qps += 1
        doorbell.bound_qps += 1
        return doorbell
