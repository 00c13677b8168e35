"""The QP allocation policies of §3.1 (Figure 3) and §4.1 (Figure 13).

They differ in three choices only: contexts per compute blade, threads
per QP, and where a QP's doorbell comes from.

* ``shared-qp`` [Infiniswap]: one context, every thread on one QP;
* ``multiplexed-qp`` [FaRM, LITE]: one context, 8 threads per QP;
* ``per-thread-qp`` [Sherman, FORD]: one context, a QP per thread on the
  driver's 16 round-robin doorbells (collapses past ~32 threads);
* ``per-thread-context`` [X-RDMA]: a context, so doorbells, per thread,
  whose duplicated MRs thrash the MTT/MPT cache;
* ``per-thread-db`` (SMART): one context opened with a doorbell per
  thread (MLX5_TOTAL_UUARS), each thread's QPs steered onto its own fresh
  doorbell through the driver's deterministic round-robin mapping.
"""

from __future__ import annotations

from typing import List

from repro.cluster import Node
from repro.rnic.device import DeviceContext
from repro.sim.resources import SpinLock

#: threads per QP under the multiplexed policy
MULTIPLEX_THREADS_PER_QP = 8

#: policy -> (a context per thread, threads per QP (0: all), own doorbell)
_TABLE = {
    "shared-qp": (False, 0, False),
    "multiplexed-qp": (False, MULTIPLEX_THREADS_PER_QP, False),
    "per-thread-qp": (False, 1, False),
    "per-thread-context": (True, 1, False),
    "per-thread-db": (False, 1, True),
}

POLICIES = tuple(_TABLE)


def connect(compute_node: Node, memory_nodes: List[Node], policy: str) -> List[DeviceContext]:
    """Give every thread of ``compute_node`` a QP to each of
    ``memory_nodes`` the way ``policy`` does; returns the opened contexts."""
    if policy not in _TABLE:
        raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")
    context_per_thread, threads_per_qp, own_doorbell = _TABLE[policy]
    threads = compute_node.threads
    if not threads:
        raise ValueError("add threads to the compute node before connecting")
    device = compute_node.device
    config = compute_node.config

    if threads_per_qp != 1:
        # Shared QPs: every sharer takes the driver's QP lock to post.
        context = device.open_context()
        per_qp = threads_per_qp or len(threads)
        for remote in memory_nodes:
            qps = []
            for g in range(-(-len(threads) // per_qp)):
                name = (f"qp-mux-{remote.node_id}-{g}" if threads_per_qp
                        else f"qp-shared-{remote.node_id}")
                lock = SpinLock(
                    compute_node.sim, name=name,
                    bounce_ns=config.doorbell_bounce_ns,
                    bounce_cap=config.doorbell_bounce_cap,
                )
                qps.append(context.create_qp(remote, share_lock=lock))
            for index, thread in enumerate(threads):
                thread.qps[remote.node_id] = qps[index // per_qp]
        return [context]

    total_uuars = None  # the driver default: 16
    if own_doorbell:
        total_uuars = min(config.max_uars, len(threads) + config.low_latency_uars)
    contexts: List[DeviceContext] = []
    for thread in threads:
        if context_per_thread or not contexts:
            contexts.append(device.open_context(total_uuars))
        context = contexts[-1]
        doorbell = context.uar.skip_to_fresh_medium() if own_doorbell else None
        for remote in memory_nodes:
            thread.qps[remote.node_id] = context.create_qp(remote, doorbell=doorbell)
    return contexts
