#!/usr/bin/env python3
"""Quickstart: a compute blade talking to two memory blades with SMART.

Builds the simulated testbed, allocates RDMA resources the thread-aware
way (§4.1), and issues one-sided READ/WRITE/CAS/FAA through the
coroutine API (§5.1).  Run:

    python examples/quickstart.py
"""

import sys

from repro.cluster import Cluster
from repro.core import SmartContext, SmartFeatures, SmartThread


def main():
    # 1. The testbed: one compute blade (4 worker threads), two memory
    #    blades, all on a 200 Gbps fabric with ConnectX-6-like RNICs.
    cluster = Cluster()
    compute = cluster.add_node()
    compute.add_threads(4)
    memory = cluster.add_nodes(2)

    # 2. Connect with SMART: one shared device context, but per-thread
    #    QPs *and doorbell registers* -- no implicit contention.
    features = SmartFeatures()
    context = SmartContext(compute, memory, features)
    print(f"doorbells in use: {context.doorbells_in_use()} "
          f"(one per thread, plus none shared)")

    smart = SmartThread(compute.threads[0], features)
    handle = smart.handle()

    # 3. A patch of remote memory to play with.
    region = memory[0].storage.alloc_region("demo", 4096)
    base = memory[0].storage.global_addr(region.base)

    log = []

    def app():
        # Verbs buffer into the handle; post_send / sync drive them.
        handle.write(base, b"hello, disaggregated world!\x00\x00\x00\x00\x00")
        yield from handle.post_send()
        yield from handle.sync()

        data = yield from handle.read_sync(base, 27)
        log.append(f"READ back: {bytes(data)!r}")

        # 8-byte atomics: FAA and CAS with conflict avoidance.
        counter = base + 64
        old = yield from handle.faa_sync(counter, 5)
        log.append(f"FAA: old={old}, now 5")
        old = yield from handle.backoff_cas_sync(counter, 5, 42)
        log.append(f"CAS 5 -> 42: {'won' if old == 5 else 'lost'}")

    proc = cluster.sim.spawn(app())
    cluster.sim.run(until=1e6)  # 1 ms of simulated time
    smart.stop()

    for line in log:
        print(line)
    if proc.error is not None:
        raise proc.error
    if proc.alive:
        sys.exit("the app had not finished after 1 ms of simulated time")
    counters = compute.device.counters
    print(f"work requests processed: {counters.wqe_processed}")
    print(f"doorbell rings:          {counters.doorbell_rings}")
    print(f"simulated time:          {cluster.sim.now / 1e3:.1f} us")


if __name__ == "__main__":
    main()
