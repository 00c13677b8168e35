"""Cluster wiring: nodes, compute threads and the shared fabric.

A :class:`Node` models one machine of the paper's testbed; it always has
blade memory and an RNIC, so it can serve as a compute blade, a memory
blade, or both (Sherman's evaluation emulates each server as both).
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.memory.blade import MemoryBlade
from repro.network.fabric import Fabric
from repro.rnic.config import RnicConfig
from repro.rnic.device import RnicDevice
from repro.sim import Simulator, Timeout


class ComputeThread:
    """One worker thread pinned to a core of a compute blade.

    CPU time is serialized through a ``busy_until`` watermark: concurrent
    coroutines of the same thread interleave but never overlap their CPU
    sections, matching the paper's one-thread-many-coroutines model.
    """

    def __init__(self, node: "Node", thread_id: int):
        self.node = node
        self.thread_id = thread_id
        self.sim: Simulator = node.sim
        self.config: RnicConfig = node.config
        self.busy_until = 0.0
        #: QPs to each remote node, keyed by node_id (set up by an
        #: allocation policy or by SMART's thread-aware allocator)
        self.qps = {}

    def charge(self, ns: float) -> float:
        """Charge ``ns`` of serialized CPU time to this thread; returns how
        long from now the charge ends (the caller sleeps it when positive:
        ``d = thread.charge(ns)`` / ``if d > 0: yield Timeout(sim, d)``)."""
        if ns < 0:
            raise ValueError("negative CPU time")
        now = self.sim.now
        busy_until = self.busy_until
        end = (busy_until if busy_until > now else now) + ns
        self.busy_until = end
        return end - now

    def compute(self, ns: float) -> Generator:
        """:meth:`charge` and sleep, as one generator."""
        delay = self.charge(ns)
        if delay > 0:
            yield Timeout(self.sim, delay)

    def mark_busy_until_now(self) -> None:
        """Record that the CPU was spinning until the current instant."""
        now = self.sim.now
        if now > self.busy_until:
            self.busy_until = now

    def qp_for(self, node_id: int):
        qp = self.qps.get(node_id)
        if qp is None:
            raise KeyError(
                f"thread {self.thread_id} has no connection to node {node_id}; "
                "run a connection policy first"
            )
        return qp

    def __repr__(self) -> str:
        return f"ComputeThread(node={self.node.node_id}, id={self.thread_id})"


class Node:
    """One machine: blade memory + RNIC (+ any number of worker threads)."""

    def __init__(self, sim: Simulator, config: RnicConfig, fabric: Fabric, node_id: int):
        self.sim = sim
        self.config = config
        self.fabric = fabric
        self.node_id = node_id
        self.storage = MemoryBlade(node_id, config.blade_capacity_bytes)
        self.device = RnicDevice(
            sim, config, fabric, name=f"rnic{node_id}", storage=self.storage,
            node_id=node_id,
        )
        self.threads: List[ComputeThread] = []

    @property
    def online(self) -> bool:
        return self.device.online

    def crash(self, restart_after_ns: Optional[float] = None) -> None:
        """Power-fail this blade.

        The RNIC goes offline (in-flight and future one-sided ops to it
        complete with error at their requesters) and volatile memory
        regions lose their content; persistent (NVM) regions survive, so
        FORD-style undo logs remain recoverable.  With
        ``restart_after_ns`` the blade comes back automatically.
        """
        if not self.device.online:
            raise RuntimeError(f"node {self.node_id} is already down")
        self.device.fail()
        self.storage.power_fail()
        if restart_after_ns is not None:
            self.sim.call_after(restart_after_ns, self._restart_event, None)

    def _restart_event(self, _value) -> None:
        if not self.device.online:
            self.restart()

    def restart(self) -> None:
        """Bring a crashed blade back online (the fault injector's
        ``on_restart`` hooks, e.g. FORD's recovery manager, run after it)."""
        if self.device.online:
            raise RuntimeError(f"node {self.node_id} is already online")
        self.device.restore()

    def add_threads(self, count: int) -> List[ComputeThread]:
        """Create ``count`` worker threads on this (compute) blade."""
        created = []
        for _ in range(count):
            thread = ComputeThread(self, len(self.threads))
            self.threads.append(thread)
            created.append(thread)
        return created

    def __repr__(self) -> str:
        return f"Node({self.node_id}, threads={len(self.threads)})"


class Cluster:
    """The whole testbed: a simulator, a fabric and a set of nodes."""

    def __init__(self, config: Optional[RnicConfig] = None):
        self.config = config or RnicConfig()
        self.sim = Simulator()
        self.fabric = Fabric(self.sim, self.config.one_way_latency_ns)
        self.nodes: List[Node] = []

    def add_node(self) -> Node:
        node = Node(self.sim, self.config, self.fabric, len(self.nodes))
        self.nodes.append(node)
        return node

    def add_nodes(self, count: int) -> List[Node]:
        return [self.add_node() for _ in range(count)]

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]
