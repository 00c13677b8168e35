"""§4.1 — Thread-aware RDMA resource allocation.

One *shared* device context (so memory is registered once and the MTT/MPT
stays warm), but a private doorbell register per thread: the
``per-thread-db`` row of :mod:`repro.rnic.policies`.  Completions need no
per-thread object — CQ polling is priced per CQE in
:func:`repro.rnic.verbs.wait_completion`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster import Node
from repro.core.features import SmartFeatures
from repro.rnic.policies import connect


class SmartContext:
    """SMART's per-compute-node resource allocator.

    With ``thread_aware_alloc`` on, every thread gets a private doorbell.
    With it off, this degrades to the conventional per-thread-QP setup on
    a default 16-doorbell context — the baseline the paper's applications
    (RACE/FORD/Sherman) shipped with.
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
        policy = "per-thread-db" if self.features.thread_aware_alloc else "per-thread-qp"
        (self.context,) = connect(compute_node, self.memory_nodes, policy)

    def doorbells_in_use(self) -> int:
        return sum(1 for db in self.context.uar.doorbells if db.bound_qps > 0)
