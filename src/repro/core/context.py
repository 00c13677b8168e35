"""§4.1 — Thread-aware RDMA resource allocation.

One *shared* device context (so memory is registered once and the MTT/MPT
stays warm), but per-thread QPs, CQs and doorbell registers.  The context
is opened with enough doorbells for every thread (the MLX5_TOTAL_UUARS
driver tweak), and each thread's QPs are steered onto its private
doorbell by exploiting the driver's deterministic round-robin mapping.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cluster import ComputeThread, Node
from repro.core.features import SmartFeatures
from repro.rnic.device import DeviceContext
from repro.rnic.doorbell import Doorbell
from repro.rnic.qp import CompletionQueue, QueuePair


class QpPool:
    """A per-thread pool of QPs sharing one CQ and one doorbell.

    All QPs a thread ever uses come from (and return to) its own pool, so
    no QP — and no doorbell — is ever touched by two threads.
    """

    def __init__(self, context: DeviceContext, doorbell: Doorbell, cq: CompletionQueue):
        self.context = context
        self.doorbell = doorbell
        self.cq = cq
        self._idle: Dict[int, List[QueuePair]] = {}
        self.created = 0

    def acquire(self, remote_node) -> QueuePair:
        """Take an idle QP to ``remote_node``, creating one if needed."""
        idle = self._idle.get(remote_node.node_id)
        if idle:
            return idle.pop()
        self.created += 1
        return self.context.create_qp(remote_node, cq=self.cq, doorbell=self.doorbell)

    def release(self, qp: QueuePair) -> None:
        if qp.doorbell is not self.doorbell:
            raise ValueError("QP released to a foreign pool")
        self._idle.setdefault(qp.remote_node.node_id, []).append(qp)


class SmartContext:
    """SMART's per-compute-node resource allocator.

    With ``thread_aware_alloc`` on, every thread gets a private doorbell
    (plus QP pool and CQ).  With it off, this degrades to the conventional
    per-thread-QP setup on a default 16-doorbell context — the baseline the
    paper's applications (RACE/FORD/Sherman) shipped with.
    """

    def __init__(
        self,
        compute_node: Node,
        memory_nodes: List[Node],
        features: Optional[SmartFeatures] = None,
    ):
        self.compute_node = compute_node
        self.memory_nodes = list(memory_nodes)
        self.features = features or SmartFeatures()
        config = compute_node.config
        threads = compute_node.threads
        if not threads:
            raise ValueError("add threads to the compute node before connecting")

        if self.features.thread_aware_alloc:
            wanted = len(threads) + config.low_latency_uars
            total_uuars = min(config.max_uars, max(wanted, config.low_latency_uars + 1))
            self.context = compute_node.device.open_context(total_uuars)
        else:
            self.context = compute_node.device.open_context()  # driver default: 16
        self.context.register_mr()

        self.pools: Dict[int, QpPool] = {}
        self.cqs: Dict[int, CompletionQueue] = {}
        for thread in threads:
            self._connect_thread(thread)
        # Let elasticity machinery (autoscaler, migrator) find the
        # allocator that owns this node's QPs.
        compute_node.smart_context = self

    def _connect_thread(self, thread: ComputeThread) -> None:
        cq = CompletionQueue(self.compute_node.sim, name=f"cq-t{thread.thread_id}")
        self.cqs[thread.thread_id] = cq
        if self.features.thread_aware_alloc:
            doorbell = self.context.uar.skip_to_fresh_medium()
            pool = QpPool(self.context, doorbell, cq)
            for remote in self.memory_nodes:
                thread.qps[remote.node_id] = pool.acquire(remote)
            self.pools[thread.thread_id] = pool
        else:
            # Conventional per-thread QP: the driver picks doorbells
            # round-robin, silently sharing them between threads.
            for remote in self.memory_nodes:
                thread.qps[remote.node_id] = self.context.create_qp(remote, cq=cq)

    def connect_node(self, remote: Node) -> None:
        """Wire every thread to a blade added after initial setup.

        Scale-out path: a new memory blade joins the fleet mid-run and
        each compute thread needs a QP to it before shards can land
        there.  Idempotent per remote."""
        if any(n.node_id == remote.node_id for n in self.memory_nodes):
            return
        self.memory_nodes.append(remote)
        for thread in self.compute_node.threads:
            if self.features.thread_aware_alloc:
                thread.qps[remote.node_id] = (
                    self.pools[thread.thread_id].acquire(remote)
                )
            else:
                thread.qps[remote.node_id] = self.context.create_qp(
                    remote, cq=self.cqs[thread.thread_id]
                )

    def pool_for(self, thread: ComputeThread) -> QpPool:
        return self.pools[thread.thread_id]

    def doorbells_in_use(self) -> int:
        return sum(1 for db in self.context.uar.doorbells if db.bound_qps > 0)
