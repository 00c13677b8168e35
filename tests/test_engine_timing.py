"""Timing-model tests for the RNIC pipelines and the thread CPU model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.rnic import verbs
from repro.rnic.config import RnicConfig
from repro.rnic.policies import connect
from repro.rnic.qp import read_wr, write_wr


def make_cluster(threads=1, config=None):
    cluster = Cluster(config)
    compute = cluster.add_node()
    compute.add_threads(threads)
    (remote,) = cluster.add_nodes(1)
    connect(compute, [remote], "per-thread-qp")
    return cluster, compute, remote


class TestRequesterThroughputCeilings:
    def _measure(self, payload, config=None, threads=8, depth=16, window=1.0e6):
        cluster, compute, remote = make_cluster(threads, config)
        region = remote.storage.alloc_region("r", 1 << 20)

        def worker(thread):
            qp = thread.qp_for(remote.node_id)
            addr = remote.storage.global_addr(region.base)
            while True:
                wrs = [read_wr(addr, payload) for _ in range(depth)]
                yield from verbs.post_and_wait(thread, qp, wrs)

        for thread in compute.threads:
            cluster.sim.spawn(worker(thread))
        cluster.sim.run(until=0.3e6)
        snap = compute.device.counters.snapshot()
        cluster.sim.run(until=0.3e6 + window)
        return compute.device.counters.delta(snap).cqe_delivered / window * 1e3

    def test_small_ops_iops_bound(self):
        config = RnicConfig(max_iops=25e6)
        mops = self._measure(8, config, threads=16, depth=32)
        assert 22 < mops <= 25.5

    def test_large_ops_bandwidth_bound(self):
        # 1 KB reads: PCIe 3.0 (16 B/ns) divided by ~1054 wire bytes
        # gives ~15.2 MOPS regardless of the IOPS ceiling.
        mops = self._measure(1024)
        assert 12 < mops < 16

    def test_iops_scale_with_config(self):
        slow = self._measure(8, RnicConfig(max_iops=10e6))
        fast = self._measure(8, RnicConfig(max_iops=20e6))
        assert fast == pytest.approx(2 * slow, rel=0.15)


class TestLatencyComposition:
    def test_read_latency_includes_both_directions(self):
        config = RnicConfig(one_way_latency_ns=5000.0)
        cluster, compute, remote = make_cluster(1, config)
        thread = compute.threads[0]
        out = []

        def proc():
            qp = thread.qp_for(remote.node_id)
            start = cluster.sim.now
            yield from verbs.post_and_wait(
                thread, qp, [read_wr(remote.storage.global_addr(0), 8)]
            )
            out.append(cluster.sim.now - start)

        cluster.sim.spawn(proc())
        cluster.sim.run()
        assert 10_000 <= out[0] < 12_000

    def test_pipelined_batches_overlap_rtt(self):
        """Two posted batches overlap their flight time (pipelining)."""
        cluster, compute, remote = make_cluster(1)
        thread = compute.threads[0]
        out = []

        def proc():
            qp = thread.qp_for(remote.node_id)
            addr = remote.storage.global_addr(0)
            start = cluster.sim.now
            batch1 = yield from verbs.post_send(thread, qp, [read_wr(addr, 8)])
            batch2 = yield from verbs.post_send(thread, qp, [read_wr(addr, 8)])
            yield from verbs.wait_completion(thread, batch1)
            yield from verbs.wait_completion(thread, batch2)
            out.append(cluster.sim.now - start)

        cluster.sim.spawn(proc())
        cluster.sim.run()
        rtt = 2 * cluster.config.one_way_latency_ns
        assert out[0] < 1.5 * rtt  # far less than two serial RTTs


class TestResponderModel:
    def test_responder_serializes_under_load(self):
        config = RnicConfig(responder_iops=5e6)  # 200 ns per op
        cluster, compute, remote = make_cluster(4, config)
        region = remote.storage.alloc_region("r", 1 << 16)

        def worker(thread):
            qp = thread.qp_for(remote.node_id)
            addr = remote.storage.global_addr(region.base)
            while True:
                yield from verbs.post_and_wait(
                    thread, qp, [read_wr(addr, 8) for _ in range(8)]
                )

        for thread in compute.threads:
            cluster.sim.spawn(worker(thread))
        cluster.sim.run(until=0.2e6)
        snap = remote.device.counters.snapshot()
        cluster.sim.run(until=1.2e6)
        served = remote.device.counters.delta(snap).responder_ops
        assert served / 1e6 * 1e3 <= 5.2  # responder ceiling respected

    def test_nvm_penalty_applied_per_write(self):
        config = RnicConfig(nvm_write_extra_ns=10_000.0)
        cluster, compute, remote = make_cluster(1, config)
        nvm = remote.storage.alloc_region("nvm", 4096, persistent=True)
        thread = compute.threads[0]
        out = []

        def proc():
            qp = thread.qp_for(remote.node_id)
            addr = remote.storage.global_addr(nvm.base)
            start = cluster.sim.now
            yield from verbs.post_and_wait(thread, qp, [write_wr(addr, b"x" * 8)])
            out.append(cluster.sim.now - start)

        cluster.sim.spawn(proc())
        cluster.sim.run()
        assert out[0] >= 10_000 + 2 * cluster.config.one_way_latency_ns


class TestFabricAccounting:
    def test_fabric_counts_messages_and_bytes(self):
        cluster, compute, remote = make_cluster(1)
        thread = compute.threads[0]

        def proc():
            qp = thread.qp_for(remote.node_id)
            addr = remote.storage.global_addr(0)
            yield from verbs.post_and_wait(thread, qp, [read_wr(addr, 128)])

        cluster.sim.spawn(proc())
        cluster.sim.run()
        assert cluster.fabric.messages == 2  # request + response
        assert cluster.fabric.bytes_carried == 2 * (128 + 30)


class TestThreadCpuModel:
    @given(st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_compute_serializes_exactly(self, durations):
        """N coroutines charging CPU on one thread finish at sum(durations)."""
        cluster, compute, _ = make_cluster(1)
        thread = compute.threads[0]
        finished = []

        def chunk(ns):
            yield from thread.compute(ns)
            finished.append(cluster.sim.now)

        for ns in durations:
            cluster.sim.spawn(chunk(ns))
        cluster.sim.run()
        assert max(finished) == sum(durations)

    def test_compute_rejects_negative(self):
        cluster, compute, _ = make_cluster(1)
        with pytest.raises(ValueError):
            list(compute.threads[0].compute(-1))

    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=400),
                  st.floats(min_value=0, max_value=300, allow_nan=False)),
        min_size=1, max_size=30,
    ))
    @settings(max_examples=100, deadline=None)
    def test_charge_is_the_arithmetic_compute_used_to_do(self, steps):
        """``charge`` against the four lines ``compute`` held before it:
        same watermark, same delay, after any mix of idle gaps and
        back-to-back charges."""
        cluster, compute, _ = make_cluster(1)
        thread, sim = compute.threads[0], cluster.sim
        busy_until = 0.0
        for advance, ns in steps:
            sim.run(until=sim.now + advance)
            start = max(sim.now, busy_until)
            end = start + ns
            busy_until = end
            assert thread.charge(ns) == end - sim.now
            assert thread.busy_until == busy_until

    def test_charge_rejects_negative(self):
        cluster, compute, _ = make_cluster(1)
        thread = compute.threads[0]
        with pytest.raises(ValueError, match="negative CPU time"):
            thread.charge(-1)
        assert thread.busy_until == 0.0


class TestUtilizationCounters:
    def test_saturated_requester_near_full_utilization(self):
        config = RnicConfig(max_iops=5e6)  # easy to saturate
        cluster, compute, remote = make_cluster(8, config)
        region = remote.storage.alloc_region("r", 1 << 16)

        def worker(thread):
            qp = thread.qp_for(remote.node_id)
            addr = remote.storage.global_addr(region.base)
            while True:
                yield from verbs.post_and_wait(
                    thread, qp, [read_wr(addr, 8) for _ in range(16)]
                )

        for thread in compute.threads:
            cluster.sim.spawn(worker(thread))
        cluster.sim.run(until=0.2e6)
        snap = compute.device.counters.snapshot()
        cluster.sim.run(until=1.2e6)
        delta = compute.device.counters.delta(snap)
        assert delta.requester_utilization(1.0e6) > 0.9

    def test_idle_device_zero_utilization(self):
        cluster, compute, remote = make_cluster(1)
        cluster.sim.run(until=1e6)
        assert compute.device.counters.requester_utilization(1e6) == 0.0
        assert compute.device.counters.responder_utilization(1e6) == 0.0
