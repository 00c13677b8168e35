"""Server-side setup of the Sherman B+Tree: region carving and bulk load."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.apps.sherman import layout
from repro.cluster import Node
from repro.memory.address import blade_of, make_addr, offset_of


@dataclass
class TreeMeta:
    """Client bootstrap: where the root pointer and node heaps live."""

    meta_addr: int  # [root_addr u64][height u64][meta_lock u64]
    root_addr: int
    height: int
    #: blade id -> (heap head addr, heap base, heap end)
    heaps: Dict[int, Tuple[int, int, int]]


#: initial fill of bulk-loaded nodes (leaves room for inserts before splits)
BULK_FILL = 0.7


class BTreeServer:
    """Creates and bulk-loads the tree across memory blades."""

    def __init__(self, memory_nodes: Sequence[Node], heap_bytes_per_blade: int = 16 << 20):
        self.memory_nodes = list(memory_nodes)
        self.memory_nodes_by_id = {n.node_id: n for n in self.memory_nodes}
        primary = self.memory_nodes[0].storage
        self._meta_region = primary.alloc_region("bt_meta", 24)
        self.heaps: Dict[int, Tuple[int, int, int]] = {}
        for node in self.memory_nodes:
            head = node.storage.alloc_region("bt_heap_head", 8)
            heap = node.storage.alloc_region("bt_heap", heap_bytes_per_blade)
            node.storage.write_u64(head.base, heap.base)
            self.heaps[node.node_id] = (
                make_addr(node.node_id, head.base),
                heap.base,
                heap.end,
            )
        self.root_addr = 0
        self.height = 0
        self._next_blade = 0

    # -- node allocation (setup phase: direct, no RDMA) ------------------------

    def _alloc_node(self) -> int:
        """Place a node on a blade (round-robin); returns its global
        address."""
        node = self.memory_nodes[self._next_blade % len(self.memory_nodes)]
        self._next_blade += 1
        storage = node.storage
        head_addr, _, end = self.heaps[node.node_id]
        head_offset = offset_of(head_addr)
        offset = storage.read_u64(head_offset)
        if offset + layout.NODE_BYTES > end:
            raise MemoryError(f"node heap exhausted on blade {node.node_id}")
        storage.write_u64(head_offset, offset + layout.NODE_BYTES)
        return make_addr(node.node_id, offset)

    def _write_node(self, addr: int, node: layout.Node) -> None:
        storage = self.memory_nodes_by_id[blade_of(addr)].storage
        storage.bulk_write(offset_of(addr), node.encode())

    # -- bulk load ---------------------------------------------------------------

    def bulk_load(self, items: Sequence[Tuple[int, int]]) -> None:
        """Build a balanced tree bottom-up from sorted (key, value) pairs."""
        items = sorted(items)
        if not items:
            raise ValueError("bulk_load requires at least one item")
        per_node = max(2, int(layout.FANOUT * BULK_FILL))

        level_entries: List[Tuple[int, int]] = items
        level = layout.LEAF_LEVEL
        while True:
            chunks = [
                level_entries[i : i + per_node]
                for i in range(0, len(level_entries), per_node)
            ]
            addrs = [self._alloc_node() for _ in chunks]
            parent_entries = []
            for i, chunk in enumerate(chunks):
                node = layout.Node(
                    level=level,
                    fence_low=chunk[0][0] if i > 0 else layout.KEY_MIN,
                    fence_high=(
                        chunks[i + 1][0][0] if i + 1 < len(chunks) else layout.KEY_MAX
                    ),
                    sibling=addrs[i + 1] if i + 1 < len(chunks) else 0,
                    entries=list(chunk),
                )
                self._write_node(addrs[i], node)
                separator = layout.KEY_MIN if i == 0 else chunk[0][0]
                parent_entries.append((separator, addrs[i]))
            if len(chunks) == 1:
                self.root_addr = addrs[0]
                self.height = level
                break
            level_entries = parent_entries
            level += 1

        primary = self.memory_nodes[0].storage
        primary.write_u64(self._meta_region.base, self.root_addr)
        primary.write_u64(self._meta_region.base + 8, self.height)
        primary.write_u64(self._meta_region.base + 16, 0)

    def declare_sanitizer_regions(self, sanitizer) -> None:
        """Teach RDMASan Sherman's protocol.

        Node reads are lockless and version-validated (re-read on a torn
        level/fence), so the heaps and the meta block are
        ``optimistic-read``.  Node locks are NOT declared as a striped
        table: with HOPL the remote lock word's holder is whoever CASed
        it first, while handover passes the write right locally — a
        remote-holder discipline check would be wrong by design.  Writers
        are still serialized (write_sync completes before the release or
        the local handover), which the overlap detector verifies as-is."""
        primary = self.memory_nodes[0]
        sanitizer.set_region_policy(primary.node_id, "bt_meta", "optimistic-read")
        sanitizer.declare_lock_word(primary.node_id, self._meta_region.base + 16)
        for node in self.memory_nodes:
            sanitizer.set_region_policy(node.node_id, "bt_heap", "optimistic-read")

    # -- bootstrap -----------------------------------------------------------------

    def meta(self) -> TreeMeta:
        if not self.root_addr:
            raise RuntimeError("bulk_load the tree before taking meta()")
        return TreeMeta(
            meta_addr=make_addr(self.memory_nodes[0].node_id, self._meta_region.base),
            root_addr=self.root_addr,
            height=self.height,
            heaps=dict(self.heaps),
        )
