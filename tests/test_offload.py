"""Unit tests for the near-memory offload runtime (active messages).

Covers the blade-side handler machinery in isolation — registration,
batch rules, the serialized-core cost model, bounded-queue backpressure,
and crash/restore semantics — complementing the end-to-end differential
and chaos suites.
"""

import pytest

from repro.cluster import Cluster
from repro.core import SmartContext, SmartThread
from repro.core.features import baseline
from repro.rnic.config import RnicConfig
from repro.rnic.offload import (
    declared_am_regions,
    get_handler,
    register_handler,
)
from repro.rnic.qp import WorkBatch, WorkRequest, am_wr, read_wr

register_handler(
    "offtest/echo", lambda storage, args: tuple(args), cost=100.0,
    regions=lambda storage, args: (),
)
register_handler(
    "offtest/slow", lambda storage, args: 1, cost=50_000.0,
)
register_handler(
    "offtest/faa",
    lambda storage, args: storage.fetch_and_add(args[0], args[1]),
    cost=lambda storage, args, config: 10.0 * args[1],
    regions=lambda storage, args: ((args[0], 8, "A"),),
)


def _deployment(config=None, coroutines=1):
    cluster = Cluster(config=config) if config is not None else Cluster()
    compute = cluster.add_node()
    compute.add_threads(1)
    remote = cluster.add_node()
    region = remote.storage.alloc_region("data", 256)
    SmartContext(compute, [remote], baseline())
    smart = SmartThread(compute.threads[0], baseline(), seed=1)
    handles = [smart.handle() for _ in range(coroutines)]
    return cluster, compute, remote, region, smart, handles


class TestHandlerRegistry:
    def test_register_and_lookup(self):
        spec = get_handler("offtest/echo")
        assert spec.name == "offtest/echo"
        assert spec.estimate_ns(None, (), None) == 100.0

    def test_unknown_handler_raises_with_known_names(self):
        with pytest.raises(KeyError, match="offtest/echo"):
            get_handler("offtest/no-such-handler")

    def test_callable_cost_is_data_dependent(self):
        spec = get_handler("offtest/faa")
        assert spec.estimate_ns(None, (0, 7), None) == 70.0

    def test_declared_regions_of_unknown_handler_are_empty(self):
        wr = am_wr(0, "offtest/no-such-handler", ())
        assert tuple(declared_am_regions(wr, object())) == ()

    def test_am_wr_requires_handler(self):
        with pytest.raises(ValueError, match="handler"):
            am_wr(0, None, size=8)


class TestBatchRules:
    def test_am_cannot_mix_with_one_sided(self):
        cluster, compute, remote, region, smart, handles = _deployment()
        qp = compute.threads[0].qp_for(remote.node_id)
        wrs = [read_wr(remote.storage.global_addr(region.base), 8),
               am_wr(remote.storage.global_addr(region.base), "offtest/echo")]
        with pytest.raises(ValueError, match="AM_SEND"):
            WorkBatch(cluster.sim, qp, wrs)

    def test_pure_am_batch_is_accepted(self):
        cluster, compute, remote, region, smart, handles = _deployment()
        qp = compute.threads[0].qp_for(remote.node_id)
        wrs = [am_wr(remote.storage.global_addr(region.base), "offtest/echo"),
               am_wr(remote.storage.global_addr(region.base), "offtest/echo")]
        assert len(WorkBatch(cluster.sim, qp, wrs)) == 2


class TestRuntimeExecution:
    def test_am_sync_returns_handler_result(self):
        cluster, compute, remote, region, smart, handles = _deployment()
        addr = remote.storage.global_addr(region.base)
        results = []

        def worker(handle):
            wr = yield from handle.am_sync(
                addr, "offtest/faa", (region.base, 5)
            )
            results.append((wr.status, wr.result))

        cluster.sim.spawn(worker(handles[0]))
        cluster.sim.run()
        assert results == [(WorkRequest.STATUS_OK, 0)]
        assert remote.storage.read_u64(region.base) == 5
        counters = remote.device.counters
        assert counters.am_handled == 1
        assert counters.am_rejected == 0
        assert counters.handler_busy_ns > 0
        assert remote.device.offload.pending == 0

    def test_serialized_core_and_queue_peak(self):
        cluster, compute, remote, region, smart, handles = _deployment(
            coroutines=3
        )
        addr = remote.storage.global_addr(region.base)
        done = []

        def worker(handle):
            wr = yield from handle.am_sync(addr, "offtest/slow", ())
            done.append(wr.status)

        for handle in handles:
            cluster.sim.spawn(worker(handle))
        cluster.sim.run()
        assert done == [WorkRequest.STATUS_OK] * 3
        counters = remote.device.counters
        assert counters.am_handled == 3
        # One core: the three slow handlers serialized, so total busy
        # time is at least 3x one execution's compute.
        config = remote.device.config
        per_message = (
            config.offload_dispatch_ns + 50_000.0 * config.offload_slowdown
        )
        assert counters.handler_busy_ns == pytest.approx(3 * per_message)
        assert counters.am_queue_peak >= 2

    def test_bounded_queue_bounces_with_handler_busy(self):
        config = RnicConfig(offload_queue_depth=1)
        cluster, compute, remote, region, smart, handles = _deployment(
            config=config, coroutines=3
        )
        addr = remote.storage.global_addr(region.base)
        done = []

        def worker(handle):
            wr = yield from handle.am_sync(addr, "offtest/slow", ())
            done.append(wr.status)

        for handle in handles:
            cluster.sim.spawn(worker(handle))
        cluster.sim.run()
        # am_sync absorbs the bounces: every message eventually lands.
        assert done == [WorkRequest.STATUS_OK] * 3
        counters = remote.device.counters
        assert counters.am_handled == 3
        assert counters.am_rejected > 0
        assert counters.am_queue_peak == 1

    def test_restore_resets_the_handler_core_watermark(self):
        cluster, compute, remote, region, smart, handles = _deployment()
        runtime = remote.device.ensure_offload()
        runtime.busy_until = 9.9e12
        remote.crash()
        remote.restart()
        assert runtime.busy_until == 0.0

    def test_am_against_memoryless_blade_is_rejected(self):
        cluster, compute, remote, region, smart, handles = _deployment()
        addr = remote.storage.global_addr(region.base)
        remote.device.storage = None  # a compute-only peer: no blade memory

        def worker():
            yield from handles[0].am_sync(addr, "offtest/echo", ())

        cluster.sim.spawn(worker())
        with pytest.raises(RuntimeError, match="without memory"):
            cluster.sim.run()
