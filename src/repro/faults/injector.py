"""The fault injector: installs a :class:`FaultSchedule` on a cluster.

One injector owns all the chaos randomness of a run (a single
``random.Random(seed)``), schedules every fault event on the simulator
clock, and exposes restart hooks so applications can wire their crash
recovery (e.g. FORD's log-ring rollback) to blade restarts::

    injector = FaultInjector(cluster, schedule).install()
    injector.on_restart(lambda node: recovery.recover_all(log_rings))
    sim.run(...)
    print(injector.stats())

Determinism contract: the injector's RNG is consulted only by active
:class:`LinkFault` windows (per message) — never on the fault-free fast
path — so a run without faults is bit-identical to one where the faults
module does not exist, and a faulty run replays exactly under its seed.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List

from repro.faults.schedule import BladeCrash, FaultSchedule
from repro.rnic.qp import QueuePair


class FaultInjector:
    """Applies one schedule to one cluster, tracks what actually fired."""

    def __init__(self, cluster, schedule: FaultSchedule):
        self.cluster = cluster
        self.schedule = schedule
        self.rng = random.Random(schedule.seed)
        self.installed = False
        self.crashes_fired = 0
        self.restarts_fired = 0
        self._restart_hooks: List[Callable] = []

    # -- wiring ------------------------------------------------------------

    def install(self) -> "FaultInjector":
        """Arm the schedule: link-fault windows onto the fabric, crash and
        restart events onto the simulator clock.  A fault aimed at a node
        the cluster does not have is a ``ValueError`` before anything is
        armed."""
        if self.installed:
            raise RuntimeError("injector already installed")
        self.schedule.check_nodes([node.node_id for node in self.cluster.nodes])
        self.installed = True
        sim = self.cluster.sim
        fabric = self.cluster.fabric
        if self.schedule.link_faults:
            fabric.fault_rng = self.rng
            for fault in self.schedule.link_faults:
                fabric.add_fault(fault)
                # Drop the window from the fabric's scan list the moment
                # it expires, so post-fault traffic pays no overhead.
                sim.call_at(fault.end_ns, self._expire_link_faults, None)
        for crash in self.schedule.crashes:
            sim.call_at(crash.start_ns, self._crash, crash)
        return self

    def on_restart(self, hook: Callable) -> None:
        """Run ``hook(node)`` every time a crashed blade comes back (the
        place to wire FORD's recovery manager)."""
        self._restart_hooks.append(hook)

    def wire_ford_recovery(self, recovery_manager, log_rings) -> None:
        """Convenience: roll back in-doubt records from every client's
        NVM log ring whenever a blade restarts."""
        self.on_restart(lambda _node: recovery_manager.recover_all(log_rings))

    # -- event handlers ----------------------------------------------------

    def _expire_link_faults(self, _value) -> None:
        self.cluster.fabric.clear_expired_faults(self.cluster.sim.now)

    def _crash(self, crash: BladeCrash) -> None:
        node = self.cluster.node(crash.node_id)
        if not node.online:
            return  # overlapping schedules: already down
        self.crashes_fired += 1
        node.crash()
        recorder = self.cluster.sim.recorder
        if recorder is not None:
            recorder.instant(
                "faults", "blades", "blade_crash", self.cluster.sim.now,
                {"node": crash.node_id, "downtime_ns": crash.downtime_ns},
            )
        self.cluster.sim.call_after(crash.downtime_ns, self._restart, crash.node_id)

    def _restart(self, node_id: int) -> None:
        node = self.cluster.node(node_id)
        if node.online:
            return
        node.restart()
        self.restarts_fired += 1
        recorder = self.cluster.sim.recorder
        if recorder is not None:
            recorder.instant(
                "faults", "blades", "blade_restart", self.cluster.sim.now,
                {"node": node_id},
            )
        # Transport-level auto-reconnect of ERROR QPs targeting the blade
        # (apps with their own reconnect loop, like FORD's clients, are
        # unaffected — reset is idempotent).
        for peer in self.cluster.nodes:
            for context in peer.device.contexts:
                for qp in context.qps:
                    if (qp.remote_node.node_id == node_id
                            and qp.state == QueuePair.STATE_ERROR):
                        qp.reset()
        for hook in self._restart_hooks:
            hook(node)

    # -- observability -----------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """Fault/recovery accounting across the fabric and every RNIC."""
        fabric = self.cluster.fabric
        totals = dict(
            crashes=self.crashes_fired,
            restarts=self.restarts_fired,
            messages_dropped=fabric.messages_dropped,
            messages_duplicated=fabric.messages_duplicated,
            messages_delayed=fabric.messages_delayed,
            retransmissions=0,
            error_completions=0,
            flushed_wrs=0,
            wasted_wrs=0,
            wasted_wire_bytes=0.0,
            qp_errors=0,
        )
        for node in self.cluster.nodes:
            counters = node.device.counters
            totals["retransmissions"] += counters.retransmissions
            totals["error_completions"] += counters.error_completions
            totals["flushed_wrs"] += counters.flushed_wrs
            totals["wasted_wrs"] += counters.wasted_wrs
            totals["wasted_wire_bytes"] += counters.wasted_wire_bytes
            totals["qp_errors"] += counters.qp_errors
        return totals
