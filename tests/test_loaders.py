"""Blade-image equivalence of the deployment loaders.

The loaders (`HashTableServer.bulk_load`, `DtxServer.create_table`) are
host-side setup code: how they write is free to change, *what* they leave
in blade memory is not — every client address, fingerprint and heap head
is derived from it.  Each case hashes the full ``[0, capacity)`` content
of every memory blade plus the heap heads, against digests recorded with
the parent commit's ``src`` on ``PYTHONPATH`` (``python
tests/test_loaders.py`` prints the table for whatever tree is imported).
"""

import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.ford.server import DtxServer
from repro.apps.race import layout
from repro.apps.race.server import BucketsFull, HashTableServer
from repro.cluster import Cluster
from repro.memory.address import blade_of, offset_of
from repro.rnic.config import RnicConfig
from repro.workloads import smallbank, tatp

BLADES = 3
CAPACITY = 16 << 20


def _blades(count=BLADES):
    cluster = Cluster(RnicConfig(blade_capacity_bytes=CAPACITY))
    return cluster.add_nodes(count)


def _image(nodes, heaps=None) -> str:
    digest = hashlib.sha256()
    for node in nodes:
        storage = node.storage
        digest.update(b"blade %d\n" % node.node_id)
        digest.update(storage.read(0, storage.capacity))
        if heaps is not None:
            head_addr, base, end = heaps[node.node_id]
            head = storage.read_u64(offset_of(head_addr))
            digest.update(b"head %d %d %d\n" % (head, base, end))
    return digest.hexdigest()


def _race_twice():
    """10 k keys, then 2 k more on the same server: the second call must
    resume from the head the first one stored."""
    nodes = _blades()
    server = HashTableServer(nodes)
    assert server.bulk_load((k, k * 7 + 1) for k in range(10_000)) == 10_000
    assert server.bulk_load([(k, k ^ 0xABCD) for k in range(10_000, 12_000)]) == 2_000
    return _image(nodes, server.heaps)


def _race_heap_exhausted():
    """The load that runs out of heap leaves the heads where the last
    block that fit put them."""
    nodes = _blades()
    server = HashTableServer(
        nodes, heap_bytes_per_blade=100 * layout.KV_BLOCK_BYTES
    )
    with pytest.raises(MemoryError, match="heap exhausted"):
        server.bulk_load((k, k) for k in range(1_000))
    return _image(nodes, server.heaps)


def _race_buckets_full():
    """A key with both buckets full has already taken its KV block."""
    nodes = _blades(2)
    server = HashTableServer(nodes, segments=2, buckets_per_segment=2)
    with pytest.raises(MemoryError, match="both buckets full"):
        server.bulk_load((k, k) for k in range(1_000))
    return _image(nodes, server.heaps)


def _ford(setup, replicas):
    # 1 001 rows over 3 blades: partition 0 and 1 hold 334, partition 2
    # holds 333 and keeps its last (allocated, never filled) row zero.
    nodes = _blades()
    server = DtxServer(nodes, replicas=replicas)
    setup(server, 1_001)
    server.alloc_log_ring()
    return _image(nodes)


CASES = {
    "race_bulk_load_twice": _race_twice,
    "race_heap_exhausted": _race_heap_exhausted,
    "race_buckets_full": _race_buckets_full,
    "smallbank_r1": lambda: _ford(smallbank.setup, 1),
    "smallbank_r2": lambda: _ford(smallbank.setup, 2),
    "tatp_r1": lambda: _ford(tatp.setup, 1),
    "tatp_r2": lambda: _ford(tatp.setup, 2),
}

#: recorded at the parent of PR 15 (per-row `fill_row`, per-key head store)
IMAGE_DIGESTS = {
    "race_buckets_full": "da9c0a039a34d15fd241fb1127cbd52ca271eeacd8f0d294e384601ce16a066e",
    "race_bulk_load_twice": "b3825ca13221618e091f12fa3092e573ab4717f1265dd91efe06e88e01f150ad",
    "race_heap_exhausted": "a39e60e67e42771073d8a9b8c55847e40ac2a212e82df2805b8ef10561f8cc1b",
    "smallbank_r1": "117176721ac758074c2f8cc361ef94b5f9560fa0eeae75e83347c42d60bbceb8",
    "smallbank_r2": "7355cd76731c0dbbca7a10e869183a465dde093450b43e592196f1460676c3f6",
    "tatp_r1": "b23ac4c54d11ace556dbdba9b92449ae96fe4059a0506702d4b8bb079e340a01",
    "tatp_r2": "bbc1e04ba92d67ad49c2a017824d3770ce7d539c213b3b4b87a340bbec1af7f2",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_blade_image_is_byte_identical_to_the_pinned_commit(case):
    assert CASES[case]() == IMAGE_DIGESTS[case]


# -- the one-pass RACE loader against the per-key loop it replaced ----------


def _per_key_bulk_load(server, items) -> int:
    """The RACE loader as a per-key loop through the blade accessors:
    build and check a ``Slot``, probe the two buckets slot by slot with
    ``read_u64``, write with ``bulk_write`` / ``write_u64``."""
    storages = {n.node_id: n.storage for n in server.memory_nodes}
    heads = {blade_id: storages[blade_id].read_u64(offset_of(head_addr))
             for blade_id, (head_addr, _, _) in server.heaps.items()}
    loaded = 0
    try:
        for key, value in items:
            dir_index, b1, b2, tag = layout.placement(
                key, server.global_depth, server.buckets_per_segment)
            seg_addr = server.segment_addrs[dir_index]
            blade_id = blade_of(seg_addr)
            storage = storages[blade_id]
            kv_offset = heads[blade_id]
            if kv_offset + layout.KV_BLOCK_BYTES > server.heaps[blade_id][2]:
                raise MemoryError(f"heap exhausted on blade {blade_id}:")
            heads[blade_id] = kv_offset + layout.KV_BLOCK_BYTES
            storage.bulk_write(kv_offset, layout.pack_kv(key, value))
            slot_value = layout.Slot(
                tag, layout.KV_BLOCK_BYTES // 8, kv_offset).encode()
            placed = False
            for bucket in (b1, b2):
                base = offset_of(seg_addr) + layout.bucket_offset(bucket)
                for slot in range(layout.SLOTS_PER_BUCKET):
                    if storage.read_u64(base + slot * 8) == layout.EMPTY_SLOT:
                        storage.write_u64(base + slot * 8, slot_value)
                        placed = True
                        break
                if placed:
                    break
            if not placed:
                raise BucketsFull(f"bulk load: both buckets full for key {key};")
            loaded += 1
    finally:
        for blade_id, (head_addr, _, _) in server.heaps.items():
            storages[blade_id].write_u64(offset_of(head_addr), heads[blade_id])
    return loaded


def _outcome(load, server, items):
    """``(return value, None)`` or ``(None, the raised error)``."""
    try:
        return load(server, items), None
    except MemoryError as error:
        return None, error


def _state(server):
    """Every blade's bytes and heap head."""
    return [(node.storage.read(0, node.storage.capacity),
             node.storage.read_u64(offset_of(server.heaps[node.node_id][0])))
            for node in server.memory_nodes]


_items = st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
                  max_size=120)


# A second load whose first key finds its buckets full: it takes a KV
# block and loads nothing, and the head it moved must still be stored.
@example(blades=1, extra_doublings=0, buckets=1, heap_blocks=160,
         first=[(k, k) for k in range(8)], second=[(100, 1)])
@given(blades=st.integers(1, 3), extra_doublings=st.integers(0, 2),
       buckets=st.integers(1, 16), heap_blocks=st.integers(1, 160),
       first=_items, second=_items)
@settings(max_examples=150, deadline=None)
def test_one_pass_load_matches_the_per_key_loop(blades, extra_doublings, buckets,
                                               heap_blocks, first, second):
    """Same bytes on every blade, same heap heads, same return value or
    error at the same key, for a load and a second load on top of it —
    with heaps that run out part-way and buckets that fill."""
    segments = 1
    while segments < blades:
        segments *= 2
    segments <<= extra_doublings
    servers = []
    for _ in range(2):
        cluster = Cluster(RnicConfig(blade_capacity_bytes=1 << 20))
        servers.append(HashTableServer(
            cluster.add_nodes(blades), segments=segments,
            buckets_per_segment=buckets,
            heap_bytes_per_blade=heap_blocks * layout.KV_BLOCK_BYTES))
    oracle, server = servers
    for items in (first, second):
        expected, expected_error = _outcome(_per_key_bulk_load, oracle, items)
        got, error = _outcome(HashTableServer.bulk_load, server, items)
        assert got == expected
        assert type(error) is type(expected_error)
        if error is not None:
            assert str(error).startswith(str(expected_error))
        assert _state(server) == _state(oracle)


def test_the_loader_releases_its_views():
    """A blade can power-fail (its mapping is replaced) right after a
    load that failed part-way, while the error and its frames live on."""
    nodes = _blades(1)
    server = HashTableServer(nodes, segments=1, buckets_per_segment=1)
    with pytest.raises(BucketsFull) as failed:
        server.bulk_load((k, k) for k in range(100))
    nodes[0].storage.power_fail()
    assert failed.value.__traceback__ is not None


def test_setup_view_is_bounded_to_a_live_region():
    storage, other = (node.storage for node in _blades(2))
    region = storage.alloc_region("r", 128)
    with storage.setup_view(region) as view:
        assert len(view) == 128 and not view.readonly
        view[0:8] = b"\x01" * 8
    assert storage.read_u64(region.base) == 0x0101010101010101
    # a same-named region of another blade is not this blade's
    with pytest.raises(KeyError, match="no live region 'r'"):
        storage.setup_view(other.alloc_region("r", 128))


if __name__ == "__main__":  # record mode: print the table for this src tree
    print("IMAGE_DIGESTS = {")
    for name in sorted(CASES):
        print(f'    "{name}": "{CASES[name]()}",')
    print("}")
