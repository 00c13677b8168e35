"""Server-side setup for FORD: tables, replicas and undo-log rings.

Record layout (primary and backup identical)::

    [lock u64][version u64][payload ...]

Records of a table are range-partitioned across memory blades; each
record also has one backup replica on the next blade (primary-backup,
as in FORD).  All table and log regions are NVM (persistent), which the
responder model charges with the Optane write penalty.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.cluster import Node
from repro.memory.address import make_addr

RECORD_HEADER_BYTES = 16
_U64 = struct.Struct("<Q")

#: per-client undo-log ring size
LOG_RING_BYTES = 64 << 10


@dataclass(frozen=True)
class TableInfo:
    """Client-side description of one table."""

    name: str
    payload_bytes: int
    item_count: int
    #: blade id -> region base offset, in blade order (primary parts)
    primary_bases: Tuple[Tuple[int, int], ...]
    #: blade id -> region base offset (backup parts, same partitioning,
    #: hosted on the *next* blade)
    backup_bases: Tuple[Tuple[int, int], ...]
    replicas: int = 2

    @property
    def record_bytes(self) -> int:
        return RECORD_HEADER_BYTES + self.payload_bytes

    def _partition(self, key: int) -> Tuple[int, int]:
        """(partition index, row within partition) for a key."""
        if not 0 <= key < self.item_count:
            raise KeyError(f"{self.name}: key {key} out of range")
        parts = len(self.primary_bases)
        return key % parts, key // parts

    def primary_addr(self, key: int) -> int:
        part, row = self._partition(key)
        blade_id, base = self.primary_bases[part]
        return make_addr(blade_id, base + row * self.record_bytes)

    def backup_addr(self, key: int) -> int:
        part, row = self._partition(key)
        blade_id, base = self.backup_bases[part]
        return make_addr(blade_id, base + row * self.record_bytes)

    def replica_addrs(self, key: int) -> List[int]:
        addrs = [self.primary_addr(key)]
        if self.replicas > 1:
            addrs.append(self.backup_addr(key))
        return addrs


class DtxServer:
    """Creates tables and log rings across the memory blades."""

    def __init__(self, memory_nodes: Sequence[Node], replicas: int = 2):
        if replicas not in (1, 2):
            raise ValueError("replicas must be 1 or 2")
        if replicas == 2 and len(memory_nodes) < 2:
            raise ValueError("backup replicas require at least 2 memory blades")
        self.memory_nodes = list(memory_nodes)
        self._nodes_by_id = {node.node_id: node for node in self.memory_nodes}
        self.replicas = replicas
        self.tables: Dict[str, TableInfo] = {}
        self._log_count = 0

    def create_table(
        self, name: str, item_count: int, payload_bytes: int,
        initial_payload: bytes = b"",
    ) -> TableInfo:
        """Create a partitioned, replicated table; rows zero-initialized
        (or filled with ``initial_payload``)."""
        if name in self.tables:
            raise ValueError(f"table {name!r} exists")
        if initial_payload and len(initial_payload) != payload_bytes:
            raise ValueError("initial_payload size mismatch")
        record_bytes = RECORD_HEADER_BYTES + payload_bytes
        parts = len(self.memory_nodes)
        rows_per_part = (item_count + parts - 1) // parts
        part_bytes = rows_per_part * record_bytes
        # A loaded row is version 0, unlocked; an absent or all-zero
        # payload is what a fresh region already holds, so nothing is written.
        record = (
            b"\x00" * RECORD_HEADER_BYTES + initial_payload
            if any(initial_payload) else b""
        )

        primary, backup = [], []
        for i in range(parts):
            # Partition i holds keys i, i + parts, ...: one image per
            # replica instead of a write per row.
            image = record * len(range(i, item_count, parts))
            node = self.memory_nodes[i]
            region = node.storage.alloc_region(
                f"tbl_{name}_p{i}", part_bytes, persistent=True
            )
            primary.append((node.node_id, region.base))
            if image:
                node.storage.bulk_write(region.base, image)
            if self.replicas > 1:
                # Backup on the next blade in fleet order — guaranteed to
                # differ from the primary host.
                bnode = self.memory_nodes[(i + 1) % parts]
                bregion = bnode.storage.alloc_region(
                    f"tbl_{name}_b{i}", part_bytes, persistent=True
                )
                backup.append((bnode.node_id, bregion.base))
                if image:
                    bnode.storage.bulk_write(bregion.base, image)
        info = TableInfo(
            name, payload_bytes, item_count, tuple(primary), tuple(backup),
            replicas=self.replicas,
        )
        self.tables[name] = info
        return info

    def declare_sanitizer_regions(self, sanitizer) -> None:
        """Teach RDMASan FORD's protocol.

        Every record is ``[lock u64][version u64][payload]``; reads are
        version-validated (optimistic), so all table partitions are
        ``optimistic-read``.  Primaries carry a striped lock table — a
        record write must hold that record's lock word — while backups
        have no covering lock: the primary lock serializes their writers,
        which the overlap detector verifies directly.  Log rings keep the
        default exclusive policy (one writer per ring)."""
        for info in self.tables.values():
            for i, (blade_id, base) in enumerate(info.primary_bases):
                sanitizer.set_region_policy(blade_id, f"tbl_{info.name}_p{i}",
                                            "optimistic-read")
                region = self._nodes_by_id[blade_id].storage.region(
                    f"tbl_{info.name}_p{i}"
                )
                sanitizer.declare_striped_locks(
                    blade_id, region.base, region.end, info.record_bytes,
                    lock_offset=0, span=info.record_bytes,
                )
            for i, (blade_id, base) in enumerate(info.backup_bases):
                sanitizer.set_region_policy(blade_id, f"tbl_{info.name}_b{i}",
                                            "optimistic-read")

    def alloc_log_ring(self) -> Tuple[int, int]:
        """A per-client undo-log ring in NVM; returns (global addr, size)."""
        node = self.memory_nodes[self._log_count % len(self.memory_nodes)]
        region = node.storage.alloc_region(
            f"dtx_log_{self._log_count}", LOG_RING_BYTES, persistent=True
        )
        self._log_count += 1
        return make_addr(node.node_id, region.base), LOG_RING_BYTES
