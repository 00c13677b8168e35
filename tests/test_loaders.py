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

from repro.apps.ford.server import DtxServer
from repro.apps.race import layout
from repro.apps.race.server import HashTableServer
from repro.cluster import Cluster
from repro.memory.address import offset_of
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


if __name__ == "__main__":  # record mode: print the table for this src tree
    print("IMAGE_DIGESTS = {")
    for name in sorted(CASES):
        print(f'    "{name}": "{CASES[name]()}",')
    print("}")
