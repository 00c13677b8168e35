#!/usr/bin/env python3
"""An ordered store: SMART-BT lookups, inserts and range scans.

Bulk-loads a B+Tree over two blades, exercises point lookups (watch the
speculative-lookup cache turn 1 KB leaf fetches into 16-byte reads),
inserts enough keys to force splits, and runs range scans over the leaf
chain.  Run:

    python examples/btree_range_queries.py
"""

import sys

from repro.apps.sherman.client import BTreeClient, LocalLockTable, SpeculativeCache
from repro.apps.sherman.server import BTreeServer
from repro.cluster import Cluster
from repro.core import SmartContext, SmartThread
from repro.core.features import full


def main():
    cluster = Cluster()
    node = cluster.add_node()  # both compute and memory blade, as in Sherman
    node.add_threads(2)
    second = cluster.add_node()
    blades = [node, second]

    server = BTreeServer(blades)
    server.bulk_load([(k * 10, k) for k in range(5_000)])
    meta = server.meta()
    print(f"tree height: {meta.height + 1} levels")

    features = full()
    SmartContext(node, blades, features)
    smart = SmartThread(node.threads[0], features)
    spec = SpeculativeCache()
    client = BTreeClient(
        smart.handle(), meta, index_cache={}, lock_table=LocalLockTable(cluster.sim),
        spec_cache=spec,
    )
    log = []

    def app():
        value = yield from client.lookup(1230)
        log.append(f"lookup(1230) -> {value}")
        value = yield from client.lookup(1230)  # now served by the fast path
        log.append(f"lookup(1230) again -> {value} "
                   f"(speculative hits: {spec.hits})")

        for k in range(101, 160, 2):  # odd keys: fresh inserts, with splits
            yield from client.insert(k, k * 100)
        log.append("inserted 30 new keys")

        run = yield from client.range_scan(100, 12)
        log.append(f"range_scan(100, 12) -> {run}")

        removed = yield from client.delete(103)
        log.append(f"delete(103) -> {removed}")

    proc = cluster.sim.spawn(app())
    cluster.sim.run(until=1e9)
    smart.stop()
    for line in log:
        print(line)
    if proc.error is not None:
        raise proc.error
    if proc.alive:
        sys.exit("the app had not finished after 1 s of simulated time")
    print(f"HOPL: {client.locks.remote_acquires} remote lock acquisitions, "
          f"{client.locks.local_handovers} local hand-overs")


if __name__ == "__main__":
    main()
