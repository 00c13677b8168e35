"""Ablation: how many doorbell registers does scale-up need?

§4.1 argues the driver default (16 UARs) starves a many-core machine and
the MLX5_TOTAL_UUARS fix must provide roughly one doorbell per thread.
This bench sweeps the context's UAR count at a fixed 96 threads and shows
throughput recovering as sharing disappears.
"""

from repro.bench.report import format_table
from repro.cluster import Cluster
from repro.rnic import verbs
from repro.rnic.qp import read_wr
import random


def run_point(total_uuars, threads=96, depth=8, measure_ns=0.8e6):
    cluster = Cluster()
    compute = cluster.add_node()
    compute.add_threads(threads)
    (remote,) = cluster.add_nodes(1)
    region = remote.storage.alloc_region("bench", 1 << 20)
    context = compute.device.open_context(total_uuars)
    for thread in compute.threads:
        thread.qps[remote.node_id] = context.create_qp(remote)

    def worker(thread, rng):
        qp = thread.qp_for(remote.node_id)
        while True:
            wrs = [
                read_wr(remote.storage.global_addr(
                    region.base + rng.randrange(region.size // 8) * 8), 8)
                for _ in range(depth)
            ]
            yield from verbs.post_and_wait(thread, qp, wrs)

    rng = random.Random(7)
    for thread in compute.threads:
        cluster.sim.spawn(worker(thread, random.Random(rng.random())))
    warmup = 0.3e6
    cluster.sim.run(until=warmup)
    snapshot = compute.device.counters.snapshot()
    cluster.sim.run(until=warmup + measure_ns)
    delta = compute.device.counters.delta(snapshot)
    return delta.cqe_delivered / measure_ns * 1e3


def test_uar_sweep(benchmark):
    counts = (16, 32, 64, 128)
    rows = [[n, run_point(n)] for n in counts[:-1]]
    last = benchmark.pedantic(lambda: run_point(counts[-1]), rounds=1, iterations=1)
    rows.append([counts[-1], last])
    print()
    print(format_table(["total_uuars", "MOPS"], rows,
                       title="UAR-count ablation (96 threads, depth 8)"))
    throughputs = [r[1] for r in rows]
    # More doorbells, (weakly) more throughput; 16 is far from enough.
    assert throughputs[-1] > throughputs[0] * 1.4
    assert all(b >= a * 0.9 for a, b in zip(throughputs, throughputs[1:]))
