"""Server-side setup of the RACE hash table.

Memory blades are passive: everything here happens during deployment
(region carving, directory initialization, bulk loading), before clients
start issuing one-sided verbs.
"""

from __future__ import annotations

import math
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.apps.race import layout
from repro.cluster import Node
from repro.memory.address import blade_of, make_addr, offset_of


class BucketsFull(MemoryError):
    """Both candidate buckets of a key are full: the one load failure a
    bigger directory (more segments or buckets) cures."""


@dataclass
class TableMeta:
    """Bootstrap information clients receive out of band (one TCP exchange
    in real deployments)."""

    dir_addr: int
    global_depth: int
    buckets_per_segment: int
    #: directory cache: directory index -> global segment address
    segment_addrs: List[int]
    #: per-segment local depths (client cache, refreshed with the directory)
    local_depths: List[int]
    #: blade id -> (heap head addr, heap base offset, heap end offset)
    heaps: Dict[int, Tuple[int, int, int]]


class HashTableServer:
    """Creates and bulk-loads a RACE table across memory blades."""

    def __init__(
        self,
        memory_nodes: Sequence[Node],
        segments: int = 64,
        buckets_per_segment: int = 512,
        heap_bytes_per_blade: int = 8 << 20,
    ):
        if segments & (segments - 1):
            raise ValueError("segments must be a power of two")
        if segments < len(memory_nodes):
            raise ValueError(
                f"segments must be >= the number of memory blades "
                f"({len(memory_nodes)}), got {segments}")
        self.memory_nodes = list(memory_nodes)
        self.segments = segments
        self.buckets_per_segment = buckets_per_segment
        self.global_depth = int(math.log2(segments))
        self._segment_bytes = layout.segment_bytes(buckets_per_segment)

        primary = self.memory_nodes[0].storage
        dir_capacity = segments * 16  # room for a few doublings
        self._dir_region = primary.alloc_region(
            "race_dir", layout.DIR_HEADER_BYTES + dir_capacity * 8
        )
        self.segment_addrs: List[int] = []
        self._segment_regions = {}
        for node in self.memory_nodes:
            count = self._segments_on(node)
            region = node.storage.alloc_region(
                "race_segments", count * self._segment_bytes
            )
            self._segment_regions[node.node_id] = region

        self.heaps: Dict[int, Tuple[int, int, int]] = {}
        for node in self.memory_nodes:
            head = node.storage.alloc_region("race_heap_head", 8)
            heap = node.storage.alloc_region("race_heap", heap_bytes_per_blade)
            node.storage.write_u64(head.base, heap.base)
            self.heaps[node.node_id] = (
                make_addr(node.node_id, head.base),
                heap.base,
                heap.end,
            )

        self._init_directory()

    def _segments_on(self, node: Node) -> int:
        """Segments hosted by ``node`` (round-robin placement)."""
        index = self.memory_nodes.index(node)
        base, extra = divmod(self.segments, len(self.memory_nodes))
        return base + (1 if index < extra else 0)

    def _init_directory(self) -> None:
        primary = self.memory_nodes[0].storage
        cursors = {
            node.node_id: self._segment_regions[node.node_id].base
            for node in self.memory_nodes
        }
        for i in range(self.segments):
            node = self.memory_nodes[i % len(self.memory_nodes)]
            offset = cursors[node.node_id]
            cursors[node.node_id] = offset + self._segment_bytes
            node.storage.write_u64(offset, self.global_depth)  # local depth
            node.storage.write_u64(offset + 8, 0)  # lock word
            self.segment_addrs.append(make_addr(node.node_id, offset))
        primary.write_u64(self._dir_region.base, self.global_depth)
        primary.write_u64(self._dir_region.base + 8, self.segments)
        for i, addr in enumerate(self.segment_addrs):
            primary.write_u64(
                self._dir_region.base + layout.DIR_HEADER_BYTES + i * 8, addr
            )

    # -- bootstrap --------------------------------------------------------------

    def meta(self) -> TableMeta:
        return TableMeta(
            dir_addr=make_addr(self.memory_nodes[0].node_id, self._dir_region.base),
            global_depth=self.global_depth,
            buckets_per_segment=self.buckets_per_segment,
            segment_addrs=list(self.segment_addrs),
            local_depths=[self.global_depth] * len(self.segment_addrs),
            heaps=dict(self.heaps),
        )

    def declare_sanitizer_regions(self, sanitizer) -> None:
        """Teach RDMASan this table's protocol: the directory and segment
        lock words.  Everything else keeps the default exclusive policy —
        RACE publishes fresh KV blocks with a slot CAS only after their
        writes complete, so no data bytes are ever concurrently written."""
        primary = self.memory_nodes[0]
        sanitizer.declare_lock_word(primary.node_id, self._dir_region.base + 16)
        for seg_addr in self.segment_addrs:
            sanitizer.declare_lock_word(blade_of(seg_addr), offset_of(seg_addr) + 8)

    # -- bulk loading -----------------------------------------------------------------

    def bulk_load(self, items) -> int:
        """Load (key, value) pairs directly into blade memory.

        Uses the same placement as client inserts, so clients can find
        every loaded key: each key takes the next KV block of its blade's
        heap and the first empty slot of bucket 1, else of bucket 2.  One
        pass over views of the segment and heap regions, bounds-checked
        once per load.  Returns the number of items loaded.

        A blade whose heap runs out raises :class:`MemoryError`, a key
        whose buckets are both full :class:`BucketsFull`; the keys before
        it stay loaded, and the heap heads are stored either way, so a
        later call (or a client's FAA) resumes behind every block handed
        out.
        """
        placement = layout.placement
        unpack_slots = layout.unpack_slots
        pack_kv_into = layout.pack_kv_into
        pack_u64_into = layout.pack_u64_into
        slot_word = layout.slot_word
        bucket_offset = layout.bucket_offset
        empty, kv_bytes = layout.EMPTY_SLOT, layout.KV_BLOCK_BYTES
        depth, buckets = self.global_depth, self.buckets_per_segment
        nodes = self.memory_nodes
        storages = [node.storage for node in nodes]
        position = {node.node_id: i for i, node in enumerate(nodes)}
        segment_regions = [self._segment_regions[node.node_id] for node in nodes]
        heap_regions = [storage.region("race_heap") for storage in storages]
        # A slot holds a 48-bit heap offset; every one is below a heap end.
        if max(region.end for region in heap_regions) > layout.ADDR_MASK + 1:
            raise ValueError("slot address needs more than 48 bits")
        # Per directory entry: the blade's position, and where the segment
        # starts in that blade's segment view.
        segments = []
        for addr in self.segment_addrs:
            blade = position[blade_of(addr)]
            segments.append((blade, offset_of(addr) - segment_regions[blade].base))
        head_offsets = [offset_of(self.heaps[node.node_id][0]) for node in nodes]
        heads = [storage.read_u64(offset)
                 for storage, offset in zip(storages, head_offsets)]
        loaded = 0
        with ExitStack() as views:
            segment_views = [views.enter_context(storage.setup_view(region))
                             for storage, region in zip(storages, segment_regions)]
            heap_views = [views.enter_context(storage.setup_view(region))
                          for storage, region in zip(storages, heap_regions)]
            try:
                for key, value in items:
                    dir_index, b1, b2, tag = placement(key, depth, buckets)
                    blade, segment_start = segments[dir_index]
                    # Allocate the KV block by bumping the blade's heap head.
                    heap, kv_offset = heap_regions[blade], heads[blade]
                    if kv_offset + kv_bytes > heap.end:
                        raise MemoryError(
                            f"heap exhausted on blade {nodes[blade].node_id}: "
                            f"region {heap.name!r} ({heap.size} bytes) has no "
                            f"room for another {kv_bytes}-byte KV block")
                    heads[blade] = kv_offset + kv_bytes
                    pack_kv_into(heap_views[blade], kv_offset - heap.base, key, value)
                    segment = segment_views[blade]
                    for bucket in (b1, b2):
                        at = segment_start + bucket_offset(bucket)
                        slots = unpack_slots(segment, at)
                        if empty in slots:
                            pack_u64_into(segment, at + 8 * slots.index(empty),
                                          slot_word(tag, kv_offset))
                            break
                    else:
                        raise BucketsFull(
                            f"bulk load: both buckets full for key {key}; "
                            "increase segments or buckets_per_segment")
                    loaded += 1
            finally:
                for storage, offset, head in zip(storages, head_offsets, heads):
                    storage.write_u64(offset, head)
        return loaded
