"""The memory blade: a big byte array plus region bookkeeping.

Memory blades in the paper have "near-zero compute" (1-2 weak cores): they
never post RDMA requests, so their RNIC only runs the responder pipeline.
The blade therefore exposes only *data* operations here; the timing of
remote access lives in :mod:`repro.rnic.engine`.

Capacity is *reserved*, not touched: the bytes live in an anonymous
demand-zero mapping, so a deployment pays (page faults, resident memory)
for the pages it writes, not for the blade size it declares.
"""

from __future__ import annotations

import mmap
import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.memory.address import make_addr
from repro.memory.allocator import ArenaAllocator

_U64 = struct.Struct("<Q")
U64_MAX = (1 << 64) - 1


def _demand_zero(capacity: int) -> mmap.mmap:
    """``capacity`` zero bytes the OS materializes page by page on first
    touch.  Private where the platform has the flag, so a forked sweep
    worker keeps the copy-on-write isolation a heap buffer would have."""
    if hasattr(mmap, "MAP_PRIVATE"):
        return mmap.mmap(-1, capacity, flags=mmap.MAP_PRIVATE)
    return mmap.mmap(-1, capacity)


@dataclass
class Region:
    """A named range of blade memory."""

    name: str
    base: int
    size: int
    persistent: bool = False
    #: registered for one-sided remote access (an MR in the blade's MPT);
    #: only checked when the RNIC enforces protection
    remote_access: bool = True

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, offset: int, size: int = 1) -> bool:
        # size >= 1 keeps zero-byte "accesses" at offset == end from
        # passing protection (a region never contains its one-past-end).
        return size >= 1 and self.base <= offset and offset + size <= self.end


class MemoryBlade:
    """Byte-addressable memory of one blade.

    All accessors take *offsets* local to this blade; global addresses are
    translated by callers via :mod:`repro.memory.address`.
    """

    def __init__(self, blade_id: int, capacity: int = 64 << 20):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.blade_id = blade_id
        self.capacity = capacity
        self._memory = _demand_zero(capacity)
        self._regions: Dict[str, Region] = {}
        # The same regions ordered by base (they never overlap), for the
        # responder's per-WR offset lookups.
        self._bases: List[int] = []
        self._by_base: List[Region] = []
        # Offset 0 is reserved so no object lives at NULL; regions are
        # carved from a bump arena and live as long as the blade.
        self.allocator = ArenaAllocator(8, capacity)
        # Statistics
        self.reads = 0
        self.writes = 0
        self.atomics = 0
        self.failed_cas = 0
        self.power_failures = 0

    # -- region management --------------------------------------------------

    def alloc_region(self, name: str, size: int, persistent: bool = False,
                     remote_access: bool = True) -> Region:
        """Carve a fresh, cacheline-aligned region."""
        if name in self._regions:
            raise ValueError(f"region {name!r} already exists")
        if size <= 0:
            raise ValueError(f"region size must be positive, got {size}")
        try:
            base = self.allocator.alloc(size, align=64)
        except MemoryError:
            raise MemoryError(
                f"blade {self.blade_id}: out of memory allocating {name!r} "
                f"({size} bytes requested, {self.allocator.free_bytes} free; "
                f"the blade holds {self.capacity} bytes, "
                f"RnicConfig.blade_capacity_bytes)"
            ) from None
        region = Region(name, base, size, persistent, remote_access)
        self._regions[name] = region
        # the bump head only moves up: appending keeps both lists sorted
        self._bases.append(base)
        self._by_base.append(region)
        return region

    def find_region(self, offset: int, size: int = 1) -> Optional[Region]:
        """The region fully containing [offset, offset+size), if any."""
        index = bisect_right(self._bases, offset) - 1
        if index >= 0 and self._by_base[index].contains(offset, size):
            return self._by_base[index]
        return None

    def region(self, name: str) -> Region:
        return self._regions[name]

    def regions(self) -> List[Region]:
        return list(self._regions.values())

    def is_persistent(self, offset: int, size: int = 1) -> bool:
        """True when [offset, offset+size) *overlaps* any persistent
        region — a write only partially landing in NVM still pays the
        media penalty for the NVM part (overlap, not containment)."""
        bases = self._bases
        # Candidates: from the last region starting at or before offset
        # to the last one starting before the span's end.
        first = max(bisect_right(bases, offset) - 1, 0)
        for region in self._by_base[first : bisect_left(bases, offset + size)]:
            if region.persistent and offset < region.end:
                return True
        return False

    def global_addr(self, offset: int) -> int:
        return make_addr(self.blade_id, offset)

    def power_fail(self) -> None:
        """Model a blade crash: DRAM content is lost, NVM survives.

        Every byte outside a ``persistent`` region is zeroed; persistent
        regions (FORD's undo-log rings, durable data) keep their content,
        which is what makes crash recovery possible at all.  Region
        bookkeeping (the blade-side allocator state) is kept — it stands
        in for the durable metadata a real blade would re-derive.
        """
        self.power_failures += 1
        # A fresh mapping *is* the zeroed DRAM; only the surviving bytes
        # are copied, so a crash costs what outlives it, not the capacity.
        crashed = self._memory
        self._memory = _demand_zero(self.capacity)
        for region in self._regions.values():
            if region.persistent:
                self._memory[region.base : region.end] = (
                    crashed[region.base : region.end]
                )
        crashed.close()

    # -- data operations -----------------------------------------------------

    def _check(self, offset: int, size: int) -> None:
        if size <= 0:
            raise IndexError(
                f"blade {self.blade_id}: access size must be positive, got {size}"
            )
        if offset < 0 or offset + size > self.capacity:
            raise IndexError(
                f"blade {self.blade_id}: access [{offset}, {offset + size}) "
                f"outside capacity {self.capacity}"
            )

    def read(self, offset: int, size: int) -> bytes:
        # _check's test, inline: a READ per posted WR takes this path
        end = offset + size
        if size <= 0 or offset < 0 or end > self.capacity:
            self._check(offset, size)
        self.reads += 1
        return self._memory[offset:end]

    def write(self, offset: int, data: bytes) -> None:
        self._check(offset, len(data))
        self.writes += 1
        self._memory[offset : offset + len(data)] = data

    def read_u64(self, offset: int) -> int:
        self._check(offset, 8)
        return _U64.unpack_from(self._memory, offset)[0]

    def write_u64(self, offset: int, value: int) -> None:
        self._check(offset, 8)
        _U64.pack_into(self._memory, offset, value & U64_MAX)

    def compare_and_swap(self, offset: int, expected: int, desired: int) -> int:
        """Atomic 8-byte CAS; returns the *old* value (RDMA semantics)."""
        self._check(offset, 8)
        self.atomics += 1
        old = _U64.unpack_from(self._memory, offset)[0]
        if old == expected:
            _U64.pack_into(self._memory, offset, desired & U64_MAX)
        else:
            self.failed_cas += 1
        return old

    def fetch_and_add(self, offset: int, delta: int) -> int:
        """Atomic 8-byte FAA; returns the *old* value."""
        self._check(offset, 8)
        self.atomics += 1
        old = _U64.unpack_from(self._memory, offset)[0]
        _U64.pack_into(self._memory, offset, (old + delta) & U64_MAX)
        return old

    # -- bulk loading ---------------------------------------------------------

    def bulk_write(self, offset: int, data: bytes) -> None:
        """Setup-phase write that bypasses statistics (dataset loading)."""
        self._check(offset, len(data))
        self._memory[offset : offset + len(data)] = data

    def setup_view(self, region: Region) -> memoryview:
        """A writable view of one live region's bytes for a setup-phase
        loader: bounds-checked here once, and, like :meth:`bulk_write`,
        outside the statistics.  Index 0 is ``region.base``.  Release it
        (``with`` or ``release()``) before the blade can power-fail: the
        crash replaces the mapping the view points into."""
        if self._regions.get(region.name) is not region:
            raise KeyError(f"blade {self.blade_id}: no live region {region.name!r}")
        self._check(region.base, region.size)
        return memoryview(self._memory)[region.base : region.end]
