"""Tests for the RACE hash table (layout, server, client protocol)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.race import layout
from repro.apps.race.client import HashTableClient
from repro.apps.race.server import BucketsFull, HashTableServer
from repro.bench.runner import HashTableApp, build_deployment, run_app, run_hashtable
from repro.cluster import Cluster
from repro.core import SmartContext, SmartThread
from repro.core.features import baseline, full
from repro.memory.address import blade_of, offset_of
from repro.rnic.config import RnicConfig
from repro.workloads.ycsb import READ_ONLY, YcsbWorkload


class TestLayout:
    def test_slot_roundtrip(self):
        raw = layout.make_slot(12345, 0xABCDEF)
        slot = layout.decode_slot(raw)
        assert slot.fingerprint == layout.fingerprint(12345)
        assert slot.addr == 0xABCDEF
        assert slot.kv_bytes == layout.KV_BLOCK_BYTES

    @given(st.integers(0, 2**63), st.integers(0, 2**48 - 1))
    @settings(max_examples=100, deadline=None)
    def test_slot_roundtrip_property(self, key, addr):
        slot = layout.decode_slot(layout.make_slot(key, addr))
        assert slot.addr == addr
        assert slot.fingerprint == layout.fingerprint(key)

    def test_fingerprint_never_zero(self):
        assert all(layout.fingerprint(k) != 0 for k in range(2000))

    @given(st.integers(0, 2**64 - 1), st.integers(0, 12), st.integers(1, 4096))
    @settings(max_examples=200, deadline=None)
    def test_placement_is_the_three_lookups_in_one(self, key, depth, buckets):
        assert layout.placement(key, depth, buckets) == (
            layout.directory_index(key, depth),
            *layout.bucket_indices(key, buckets),
            layout.fingerprint(key),
        )

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=7, max_size=7),
           st.binary(min_size=8, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_unpack_slots_is_seven_u64_slices(self, raws, spare):
        bucket = b"".join(layout.pack_u64(raw) for raw in raws) + spare
        assert len(bucket) == layout.BUCKET_BYTES
        assert layout.unpack_slots(bucket) == tuple(
            layout.unpack_u64(bucket[i * 8 : i * 8 + 8])
            for i in range(layout.SLOTS_PER_BUCKET)
        )

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
    @settings(max_examples=200, deadline=None)
    def test_slot_fields_by_shift_and_mask_are_the_decoded_ones(self, raw, key):
        # What the client compares without building a Slot.
        slot = layout.decode_slot(raw)
        assert raw >> layout.FP_SHIFT == slot.fingerprint
        assert raw & layout.ADDR_MASK == slot.addr
        # fingerprint(key) is never 0, so an empty slot never matches it.
        assert layout.EMPTY_SLOT >> layout.FP_SHIFT != layout.fingerprint(key)

    def test_bucket_indices_distinct(self):
        for key in range(1000):
            b1, b2 = layout.bucket_indices(key, 64)
            assert b1 != b2
            assert 0 <= b1 < 64 and 0 <= b2 < 64

    def test_kv_roundtrip(self):
        data = layout.pack_kv(7, 9)
        assert layout.unpack_kv(data) == (7, 9)
        assert len(data) == layout.KV_BLOCK_BYTES

    def test_directory_index_uses_low_bits(self):
        key = 42
        assert layout.directory_index(key, 4) == layout.hash1(key) & 0xF

    def test_slot_encode_validation(self):
        with pytest.raises(ValueError):
            layout.Slot(256, 2, 0).encode()
        with pytest.raises(ValueError):
            layout.Slot(1, 2, 1 << 48).encode()


def deploy(threads=2, memory_nodes=2, segments=8, buckets=64, features=None):
    """A small table plus one client handle per thread."""
    cluster = Cluster()
    compute = cluster.add_node()
    compute.add_threads(threads)
    remotes = cluster.add_nodes(memory_nodes)
    server = HashTableServer(remotes, segments=segments, buckets_per_segment=buckets)
    features = features or full()
    SmartContext(compute, remotes, features)
    smarts = [SmartThread(t, features, seed=i) for i, t in enumerate(compute.threads)]
    meta = server.meta()
    clients = [HashTableClient(s.handle(), meta) for s in smarts]
    return cluster, server, clients, smarts


def drive(cluster, generators, until=5e8):
    results = []
    for gen in generators:
        results.append(cluster.sim.spawn(gen))
    cluster.sim.run(until=until)
    for proc in results:
        assert not proc.alive, "client operation did not finish"
    return [p.value for p in results]


class TestServer:
    def test_bulk_load_then_client_search(self):
        cluster, server, (client, _), _ = deploy()
        items = [(k, k * 10) for k in range(500)]
        assert server.bulk_load(items) == 500

        def lookups():
            for k in (0, 250, 499):
                value = yield from client.search(k)
                assert value == k * 10
            missing = yield from client.search(100_000)
            assert missing is None

        drive(cluster, [lookups()])

    def test_rejects_non_power_of_two_segments(self):
        cluster = Cluster()
        remotes = cluster.add_nodes(1)
        with pytest.raises(ValueError):
            HashTableServer(remotes, segments=6)

    def test_rejects_fewer_segments_than_blades(self):
        """Round-robin placement would leave a blade a zero-byte region."""
        cluster = Cluster()
        remotes = cluster.add_nodes(2)
        with pytest.raises(ValueError, match="segments must be >= the number"):
            HashTableServer(remotes, segments=1)

    def test_segments_spread_across_blades(self):
        cluster = Cluster()
        remotes = cluster.add_nodes(2)
        server = HashTableServer(remotes, segments=8)
        blades = {(addr >> 48) - 1 for addr in server.segment_addrs}
        assert blades == {remotes[0].node_id, remotes[1].node_id}

    def test_regions_carry_fixed_names_and_the_directory_one_blade(self):
        """One table per blade set: the directory on the first blade, a
        segment array, heap head and heap on each, under fixed names."""
        cluster = Cluster()
        remotes = cluster.add_nodes(2)
        HashTableServer(remotes, segments=8)
        assert [[r.name for r in node.storage.regions()] for node in remotes] == [
            ["race_dir", "race_segments", "race_heap_head", "race_heap"],
            ["race_segments", "race_heap_head", "race_heap"],
        ]

    def test_each_heap_head_points_at_the_start_of_its_heap(self):
        cluster = Cluster()
        remotes = cluster.add_nodes(2)
        server = HashTableServer(remotes, segments=8)
        for node in remotes:
            head = node.storage.region("race_heap_head")
            heap = node.storage.region("race_heap")
            assert node.storage.read_u64(head.base) == heap.base
            head_addr, start, end = server.heaps[node.node_id]
            assert (blade_of(head_addr), offset_of(head_addr)) == (node.node_id, head.base)
            assert (start, end) == (heap.base, heap.end)


class TestClientOps:
    def test_insert_search_roundtrip(self):
        cluster, _, (client, _), _ = deploy()

        def scenario():
            ok = yield from client.insert(11, 111)
            assert ok
            value = yield from client.search(11)
            assert value == 111

        drive(cluster, [scenario()])

    def test_insert_duplicate_rejected(self):
        cluster, _, (client, _), _ = deploy()

        def scenario():
            assert (yield from client.insert(5, 50))
            assert not (yield from client.insert(5, 51))
            assert (yield from client.search(5)) == 50

        drive(cluster, [scenario()])

    def test_update_changes_value(self):
        cluster, server, (client, _), _ = deploy()
        server.bulk_load([(1, 10)])

        def scenario():
            assert (yield from client.update(1, 20))
            assert (yield from client.search(1)) == 20
            assert not (yield from client.update(404, 1))

        drive(cluster, [scenario()])

    def test_delete(self):
        cluster, server, (client, _), _ = deploy()
        server.bulk_load([(1, 10), (2, 20)])

        def scenario():
            assert (yield from client.delete(1))
            assert (yield from client.search(1)) is None
            assert (yield from client.search(2)) == 20
            assert not (yield from client.delete(1))

        drive(cluster, [scenario()])

    def test_many_inserts_all_findable(self):
        cluster, _, (client, _), _ = deploy(segments=16, buckets=64)

        def scenario():
            for k in range(300):
                assert (yield from client.insert(k, k + 7))
            for k in range(300):
                assert (yield from client.search(k)) == k + 7

        drive(cluster, [scenario()], until=5e9)

    def test_concurrent_updates_hot_key_stay_consistent(self):
        cluster, server, clients, smarts = deploy(threads=4)
        server.bulk_load([(99, 0)])

        def updater(client, value):
            ok = yield from client.update(99, value)
            return ok

        results = drive(
            cluster, [updater(c, i + 1) for i, c in enumerate(clients)], until=5e9
        )
        assert all(results)

        final = []

        def reader():
            final.append((yield from clients[0].search(99)))

        drive(cluster, [reader()], until=cluster.sim.now + 5e8)
        assert final[0] in (1, 2, 3, 4)

    def test_contended_updates_record_retries_in_baseline(self):
        cluster, server, clients, smarts = deploy(threads=8, features=baseline())
        server.bulk_load([(7, 0)])

        def updater(client, value):
            for i in range(5):
                yield from client.update(7, value * 10 + i)

        drive(
            cluster,
            [updater(c, i) for i, c in enumerate(clients)],
            until=5e9,
        )
        total_retries = sum(s.stats.retries for s in smarts)
        total_ops = sum(s.stats.ops for s in smarts)
        assert total_ops == 40
        assert total_retries > 0  # hot-key CAS conflicts really happen

    def test_lookup_costs_three_reads(self):
        """The paper: each lookup requires 3 RDMA READs."""
        cluster, server, (client, _), _ = deploy(memory_nodes=1)
        server.bulk_load([(1, 10)])
        compute = cluster.nodes[0]

        def scenario():
            yield from client.search(1)

        before = compute.device.counters.wqe_processed
        drive(cluster, [scenario()])
        assert compute.device.counters.wqe_processed - before == 3


class TestSplits:
    def test_split_preserves_all_keys(self):
        # 2 segments x 8 buckets x 7 slots ~ 112 slots; inserting 160 keys
        # must force at least one split (and a directory double).
        cluster, _, (client, _), _ = deploy(
            threads=2, memory_nodes=1, segments=2, buckets=8
        )

        def scenario():
            for k in range(160):
                assert (yield from client.insert(k, k))
            for k in range(160):
                assert (yield from client.search(k)) == k, k

        drive(cluster, [scenario()], until=1e10)
        assert client.meta.global_depth >= 2  # table actually grew


    def test_a_run_cut_off_inside_a_split_closes_quietly(self, capsys,
                                                          monkeypatch):
        """Insert-only load splits segments until the window closes; the
        clients cut off holding a split's lock are closed when the run is
        collected, without a remote release (the run is over) and so
        without ``generator ignored GeneratorExit`` on stderr."""
        import gc
        import sys

        monkeypatch.setattr(sys, "unraisablehook", sys.__unraisablehook__)
        result = run_hashtable(
            system="race", workload=YcsbWorkload("insert-only", 0, 0, 1),
            threads=4, coroutines=8, item_count=2000, warmup_ns=0.2e6,
            measure_ns=2e6)
        assert result.ops > 0
        del result
        gc.collect()
        assert capsys.readouterr().err == ""


class TestRandomizedAgainstModel:
    def test_random_ops_match_dict(self):
        cluster, _, (client,), _ = deploy(threads=1, segments=16, buckets=64)
        rng = random.Random(7)
        model = {}

        def scenario():
            for _ in range(400):
                op = rng.random()
                key = rng.randrange(120)
                if op < 0.4:
                    ok = yield from client.insert(key, key * 2)
                    assert ok == (key not in model)
                    if ok:
                        model[key] = key * 2
                elif op < 0.6:
                    value = rng.randrange(1000)
                    ok = yield from client.update(key, value)
                    assert ok == (key in model)
                    if ok:
                        model[key] = value
                elif op < 0.8:
                    value = yield from client.search(key)
                    assert value == model.get(key)
                else:
                    ok = yield from client.delete(key)
                    assert ok == (key in model)
                    model.pop(key, None)
            for key, value in model.items():
                assert (yield from client.search(key)) == value

        drive(cluster, [scenario()], until=2e10)


def _stored_value(server, key):
    """What a client's search finds for ``key``, read off the blade bytes:
    the first slot of its two buckets whose fingerprint matches and whose
    KV block holds the key."""
    dir_index, b1, b2, fp = layout.placement(
        key, server.global_depth, server.buckets_per_segment)
    segment = server.segment_addrs[dir_index]
    storage = next(node.storage for node in server.memory_nodes
                   if node.node_id == blade_of(segment))
    for bucket in (b1, b2):
        raws = layout.unpack_slots(storage.read(
            offset_of(segment) + layout.bucket_offset(bucket), layout.BUCKET_BYTES))
        for raw in raws:
            if raw >> layout.FP_SHIFT == fp:
                stored_key, value = layout.unpack_kv(
                    storage.read(raw & layout.ADDR_MASK, layout.KV_BLOCK_BYTES))
                if stored_key == key:
                    return value
    return None


class TestTableScale:
    def test_a_table_that_does_not_fit_fails_at_once(self):
        """800 K items ask for a 51.2 MB heap a 64 MB blade cannot hold:
        the region error propagates, no resize-and-rebuild."""
        def rebuild():
            raise AssertionError("a capacity error rebuilt the deployment")

        app = HashTableApp(800_000)
        with pytest.raises(MemoryError) as error:
            app.load("smart-ht", build_deployment(full(), threads=1), 0, rebuild)
        assert not isinstance(error.value, BucketsFull)
        message = str(error.value)
        for part in ("blade 1", "'race_heap'", "51200000 bytes requested",
                     "RnicConfig.blade_capacity_bytes"):
            assert part in message
        with pytest.raises(MemoryError, match="out of memory allocating 'race_heap'"):
            run_hashtable(item_count=800_000)

    def test_a_million_items_load_run_and_are_found(self):
        items, seed = 1_000_000, 0
        app = HashTableApp(items, READ_ONLY)
        result = run_app(app, "smart-ht", threads=4, coroutines=4,
                         config=RnicConfig(blade_capacity_bytes=256 << 20),
                         warmup_ns=20e3, measure_ns=50e3, seed=seed)
        assert result.ops > 0
        sample = {key: value
                  for key, value in YcsbWorkload.load_items(items, seed)
                  if key % 9_973 == 0}
        assert len(sample) == 101
        for key, value in sample.items():
            assert _stored_value(app.server, key) == value, key
