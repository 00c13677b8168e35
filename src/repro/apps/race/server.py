"""Server-side setup of the RACE hash table.

Memory blades are passive: everything here happens during deployment
(region carving, directory initialization, bulk loading), before clients
start issuing one-sided verbs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.apps.race import layout
from repro.cluster import Node
from repro.memory.address import blade_of, make_addr, offset_of


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
        region_prefix: str = "race_",
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
        # Region names are prefixed so many table instances (one per
        # shard in the sharded service) can coexist on the same blades.
        self.region_prefix = region_prefix

        primary = self.memory_nodes[0].storage
        dir_capacity = segments * 16  # room for a few doublings
        self._dir_region = primary.alloc_region(
            f"{region_prefix}dir", layout.DIR_HEADER_BYTES + dir_capacity * 8
        )
        self.segment_addrs: List[int] = []
        self._segment_regions = {}
        for node in self.memory_nodes:
            count = self._segments_on(node)
            region = node.storage.alloc_region(
                f"{region_prefix}segments", count * self._segment_bytes
            )
            self._segment_regions[node.node_id] = region

        self.heaps: Dict[int, Tuple[int, int, int]] = {}
        for node in self.memory_nodes:
            head = node.storage.alloc_region(f"{region_prefix}heap_head", 8)
            heap = node.storage.alloc_region(
                f"{region_prefix}heap", heap_bytes_per_blade
            )
            node.storage.write_u64(head.base, heap.base)
            self.heaps[node.node_id] = (
                make_addr(node.node_id, head.base),
                heap.base,
                heap.end,
            )

        self._init_directory()

    def free_regions(self) -> int:
        """Release every region this table carved — the teardown side of
        shard migration.  Returns the number of bytes returned to the
        blade allocators (which zero and make them reusable)."""
        freed = 0
        primary = self.memory_nodes[0].storage
        freed += self._dir_region.size
        primary.free_region(self._dir_region.name)
        for node in self.memory_nodes:
            region = self._segment_regions[node.node_id]
            freed += region.size
            node.storage.free_region(region.name)
            for suffix in ("heap_head", "heap"):
                name = f"{self.region_prefix}{suffix}"
                freed += node.storage.region(name).size
                node.storage.free_region(name)
        return freed

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
        every loaded key.  Returns the number of items loaded.
        """
        storages = {n.node_id: n.storage for n in self.memory_nodes}
        # Resolved once per directory entry, not once per key.
        segments = [
            (blade_of(addr), storages[blade_of(addr)], offset_of(addr))
            for addr in self.segment_addrs
        ]
        # The heap heads live in a local while loading and are stored once
        # — also when the load fails part-way, so a later call (or a
        # client's FAA) resumes behind every block already handed out.
        heads = {
            blade_id: storages[blade_id].read_u64(offset_of(head_addr))
            for blade_id, (head_addr, _, _) in self.heaps.items()
        }
        loaded = 0
        try:
            for key, value in items:
                dir_index, b1, b2, tag = layout.placement(
                    key, self.global_depth, self.buckets_per_segment
                )
                blade_id, storage, seg_offset = segments[dir_index]
                # Allocate the KV block by bumping the blade's heap head.
                kv_offset = heads[blade_id]
                _, _, heap_end = self.heaps[blade_id]
                if kv_offset + layout.KV_BLOCK_BYTES > heap_end:
                    raise MemoryError(f"heap exhausted on blade {blade_id}")
                heads[blade_id] = kv_offset + layout.KV_BLOCK_BYTES
                storage.bulk_write(kv_offset, layout.pack_kv(key, value))

                slot_value = layout.Slot(
                    tag, layout.KV_BLOCK_BYTES // 8, kv_offset
                ).encode()
                if not self._place(storage, seg_offset, (b1, b2), slot_value):
                    raise MemoryError(
                        f"bulk load: both buckets full for key {key}; "
                        "increase segments or buckets_per_segment"
                    )
                loaded += 1
        finally:
            for blade_id, (head_addr, _, _) in self.heaps.items():
                storages[blade_id].write_u64(offset_of(head_addr), heads[blade_id])
        return loaded

    def _place(self, storage, seg_offset: int, buckets, slot_value: int) -> bool:
        for bucket in buckets:
            base = seg_offset + layout.bucket_offset(bucket)
            for slot in range(layout.SLOTS_PER_BUCKET):
                if storage.read_u64(base + slot * 8) == layout.EMPTY_SLOT:
                    storage.write_u64(base + slot * 8, slot_value)
                    return True
        return False
