"""Tests for SMART's context allocation and coroutine API."""

import pytest

from repro.cluster import Cluster
from repro.core import SmartContext, SmartFeatures, SmartThread
from repro.core.features import baseline, cumulative_ladder, full


def make_smart(threads=4, memory_nodes=2, features=None):
    cluster = Cluster()
    compute = cluster.add_node()
    compute.add_threads(threads)
    remotes = cluster.add_nodes(memory_nodes)
    context = SmartContext(compute, remotes, features or full())
    smart_threads = [
        SmartThread(t, features or full(), seed=i)
        for i, t in enumerate(compute.threads)
    ]
    return cluster, compute, remotes, context, smart_threads


class TestSmartContext:
    def test_thread_aware_gives_private_doorbells(self):
        _, compute, remotes, context, _ = make_smart(threads=24)
        db_by_thread = {}
        for thread in compute.threads:
            dbs = {thread.qp_for(r.node_id).doorbell.index for r in remotes}
            assert len(dbs) == 1  # all QPs of a thread share its doorbell
            db_by_thread[thread.thread_id] = dbs.pop()
        assert len(set(db_by_thread.values())) == 24  # no sharing across threads

    def test_single_shared_device_context(self):
        _, compute, _, _, _ = make_smart(threads=24)
        assert len(compute.device.contexts) == 1

    def test_uuar_count_scales_with_threads(self):
        _, compute, _, context, _ = make_smart(threads=96)
        assert len(context.context.uar.doorbells) >= 96

    def test_uuar_count_clamped_to_device_limit(self):
        cluster = Cluster()
        compute = cluster.add_node()
        compute.add_threads(600)
        remotes = cluster.add_nodes(1)
        context = SmartContext(compute, remotes, full())
        assert len(context.context.uar.doorbells) == compute.config.max_uars

    def test_disabled_alloc_mimics_per_thread_qp(self):
        _, compute, remotes, context, _ = make_smart(
            threads=40, features=baseline()
        )
        assert len(context.context.uar.doorbells) == 16
        dbs = {
            t.qp_for(r.node_id).doorbell.index
            for t in compute.threads
            for r in remotes
        }
        assert len(dbs) == 16  # all 16 DBs shared across 80 QPs (stock driver)

    def test_requires_threads(self):
        cluster = Cluster()
        compute = cluster.add_node()
        with pytest.raises(ValueError):
            SmartContext(compute, cluster.add_nodes(1))


class TestSmartHandleVerbs:
    def test_read_write_roundtrip(self):
        cluster, compute, remotes, _, smart_threads = make_smart(threads=1)
        handle = smart_threads[0].handle()
        remote = remotes[0]
        addr = remote.storage.global_addr(1024)
        out = []

        def proc():
            yield from handle.write_sync(addr, b"smartapi")
            data = yield from handle.read_sync(addr, 8)
            out.append(data)

        cluster.sim.spawn(proc())
        cluster.sim.run(until=1e6)
        assert out == [b"smartapi"]

    def test_batched_post_spans_memory_nodes(self):
        cluster, compute, remotes, _, smart_threads = make_smart(threads=1)
        handle = smart_threads[0].handle()
        a0 = remotes[0].storage.global_addr(64)
        a1 = remotes[1].storage.global_addr(64)

        def proc():
            handle.write(a0, b"A" * 8)
            handle.write(a1, b"B" * 8)
            yield from handle.post_send()
            yield from handle.sync()

        cluster.sim.spawn(proc())
        cluster.sim.run(until=1e6)
        assert remotes[0].storage.read(64, 8) == b"A" * 8
        assert remotes[1].storage.read(64, 8) == b"B" * 8

    def test_faa_sync_returns_old(self):
        cluster, _, remotes, _, smart_threads = make_smart(threads=1)
        handle = smart_threads[0].handle()
        remotes[0].storage.write_u64(2048, 41)
        addr = remotes[0].storage.global_addr(2048)
        out = []

        def proc():
            old = yield from handle.faa_sync(addr, 1)
            out.append(old)

        cluster.sim.spawn(proc())
        cluster.sim.run(until=1e6)
        assert out == [41]
        assert remotes[0].storage.read_u64(2048) == 42

    def test_backoff_cas_sync_success_no_delay(self):
        cluster, _, remotes, _, smart_threads = make_smart(threads=1)
        handle = smart_threads[0].handle()
        remotes[0].storage.write_u64(128, 1)
        addr = remotes[0].storage.global_addr(128)
        times = []

        def proc():
            start = cluster.sim.now
            old = yield from handle.backoff_cas_sync(addr, 1, 2)
            times.append((old, cluster.sim.now - start))

        cluster.sim.spawn(proc())
        cluster.sim.run(until=1e7)
        old, elapsed = times[0]
        assert old == 1
        assert elapsed < 10_000  # no backoff sleep on success

    def test_backoff_cas_sync_failure_sleeps(self):
        features = full().with_overrides(
            dynamic_backoff_limit=False, coroutine_throttling=False
        )
        cluster, _, remotes, _, smart_threads = make_smart(
            threads=1, features=features
        )
        smart = smart_threads[0]
        handle = smart.handle()
        remotes[0].storage.write_u64(128, 99)  # CAS expecting 1 will fail
        addr = remotes[0].storage.global_addr(128)
        times = []

        def proc():
            start = cluster.sim.now
            old = yield from handle.backoff_cas_sync(addr, 1, 2)
            times.append((old, cluster.sim.now - start))

        cluster.sim.spawn(proc())
        cluster.sim.run(until=1e8)
        old, elapsed = times[0]
        assert old == 99
        assert elapsed >= smart.avoider.t0_ns  # slept at least t0

    def test_op_stats_recorded(self):
        cluster, _, remotes, _, smart_threads = make_smart(threads=1)
        smart = smart_threads[0]
        handle = smart.handle()
        addr = remotes[0].storage.global_addr(4096)

        def proc():
            yield from handle.begin_op()
            yield from handle.write_sync(addr, b"x" * 8)
            handle.end_op()

        cluster.sim.spawn(proc())
        cluster.sim.run(until=1e7)
        assert smart.stats.ops == 1
        assert smart.stats.latencies_ns[0] > 0

    @pytest.mark.parametrize("features", [baseline(), full()],
                             ids=["all-off", "all-on"])
    def test_uncontended_op_allocates_no_tickets(self, features):
        """Regression: with throttling *off* every post and every op still
        built and fired an Event and took a same-tick round trip for it.
        A lone coroutine now allocates no Event at all, features on or
        off: the batch is its own completion event."""
        cluster, _, remotes, _, smart_threads = make_smart(
            threads=1, features=features
        )
        smart = smart_threads[0]
        handle = smart.handle()
        addr = remotes[0].storage.global_addr(4096)
        sim = cluster.sim
        made = []
        event = sim.event
        sim.event = lambda: made.append(sim.now) or event()

        def proc():
            for _ in range(3):
                yield from handle.begin_op()
                yield from handle.write_sync(addr, b"x" * 8)
                handle.end_op()

        sim.spawn(proc())
        sim.run(until=1e5)
        smart.stop()
        assert smart.stats.ops == 3
        assert len(made) == 0  # parent: 3 (the batch's ``done``)

    def test_end_op_without_begin_raises(self):
        _, _, _, _, smart_threads = make_smart(threads=1)
        handle = smart_threads[0].handle()
        with pytest.raises(RuntimeError):
            handle.end_op()

    def test_throttler_credits_flow_through_post(self):
        features = full().with_overrides(adaptive_credit=False, initial_cmax=2)
        cluster, _, remotes, _, smart_threads = make_smart(
            threads=1, features=features
        )
        smart = smart_threads[0]
        handle = smart.handle()
        addr = remotes[0].storage.global_addr(0)

        def proc():
            for _ in range(5):
                handle.read(addr, 8)
                handle.read(addr, 8)
                yield from handle.post_send()
                yield from handle.sync()

        cluster.sim.spawn(proc())
        cluster.sim.run(until=1e7)
        assert smart.throttler.completed == 10
        assert smart.throttler.credits.tokens == 2


class TestPostSendRouting:
    """``post_send`` routes a one-destination buffer by its blade tag and
    falls back to grouping on the first WR that differs."""

    @staticmethod
    def _posted(handle):
        return [list(batch.wrs) for batch in handle._pending]

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_null_address_raises_before_anything_is_posted(self, position):
        cluster, compute, remotes, _, smart_threads = make_smart(threads=1)
        handle = smart_threads[0].handle()
        addr = remotes[0].storage.global_addr(64)
        for i in range(3):
            handle.read(0 if i == position else addr, 8)

        def proc():
            yield from handle.post_send()

        cluster.sim.spawn(proc())
        with pytest.raises(ValueError, match="null address"):
            cluster.sim.run(until=1e6)
        assert compute.device.counters.doorbell_rings == 0
        assert handle._pending == []

    def test_two_destinations_post_one_batch_per_node_in_first_seen_order(self):
        cluster, compute, remotes, _, smart_threads = make_smart(threads=1)
        handle = smart_threads[0].handle()
        a0 = remotes[0].storage.global_addr(64)
        a1 = remotes[1].storage.global_addr(64)
        posted = []

        def proc():
            wrs = [handle.read(a, 8) for a in (a1, a0, a1, a0, a1)]
            yield from handle.post_send()
            posted.extend(self._posted(handle))
            yield from handle.sync()
            return wrs

        proc_obj = cluster.sim.spawn(proc())
        cluster.sim.run(until=1e6)
        wrs = proc_obj.value
        assert posted == [[wrs[0], wrs[2], wrs[4]], [wrs[1], wrs[3]]]
        assert [group[-1].wr_id for group in posted] == [("batch", 3), ("batch", 2)]
        assert all(wr.wr_id is None for group in posted for wr in group[:-1])

    def test_single_destination_longer_than_cmax_is_chunked(self):
        features = full().with_overrides(adaptive_credit=False, initial_cmax=4)
        cluster, _, remotes, _, smart_threads = make_smart(
            threads=1, features=features
        )
        handle = smart_threads[0].handle()
        addr = remotes[0].storage.global_addr(64)
        posted = []

        def proc():
            for _ in range(10):
                handle.read(addr, 8)
            yield from handle.post_send()
            posted.extend(self._posted(handle))
            yield from handle.sync()

        cluster.sim.spawn(proc())
        cluster.sim.run(until=1e7)
        assert [len(group) for group in posted] == [4, 4, 2]
        assert [group[-1].wr_id for group in posted] == [
            ("batch", 4), ("batch", 4), ("batch", 2)
        ]

    def test_a_later_verb_does_not_grow_a_posted_batch(self):
        # An unchunked post may hand WorkBatch the buffer list itself only
        # because post_send has already replaced self._buffer.
        cluster, _, remotes, _, smart_threads = make_smart(threads=1)
        handle = smart_threads[0].handle()
        addr = remotes[0].storage.global_addr(64)
        sizes = []

        def proc():
            handle.read(addr, 8)
            handle.read(addr, 8)
            yield from handle.post_send()
            (batch,) = handle._pending
            handle.read(addr, 8)
            sizes.append((batch.n, len(batch.wrs), len(handle._buffer)))
            yield from handle.post_send()
            yield from handle.sync()

        cluster.sim.spawn(proc())
        cluster.sim.run(until=1e6)
        assert sizes == [(2, 2, 1)]


class TestFeatureLadder:
    def test_cumulative_ladder_ordering(self):
        ladder = cumulative_ladder()
        names = [name for name, _ in ladder]
        assert names == ["baseline", "+ThdResAlloc", "+WorkReqThrot", "+ConflictAvoid"]
        base, thd, throt, conflict = [f for _, f in ladder]
        assert not base.thread_aware_alloc
        assert thd.thread_aware_alloc and not thd.work_req_throttling
        assert throt.work_req_throttling and not throt.backoff
        assert conflict.backoff and conflict.coroutine_throttling
