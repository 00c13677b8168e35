"""Bump allocation for blade memory.

Regions are carved once, at setup, and live as long as their blade:
nothing in the model frees blade memory, so a bump head that only moves
forward is the whole allocator.  Alignment padding between regions is
never handed out again.

Everything here is plain bookkeeping over integers: no simulator events,
no RNG, no wall clock — identical call sequences produce identical
placements, which is what lets fixed-seed cluster runs replay
bit-identically.
"""

from __future__ import annotations

from typing import Dict


class ArenaAllocator:
    """Bump allocator over ``[base, end)``; :meth:`stats` reports its
    occupancy counters."""

    def __init__(self, base: int, end: int):
        if not 0 <= base < end:
            raise ValueError(f"bad arena bounds [{base}, {end})")
        self.end = end
        self.capacity = end - base
        #: first address past the last allocation
        self.head = base
        #: sum of the live allocations' sizes (padding excluded)
        self.bytes_in_use = 0
        # Statistics
        self.allocs = 0
        self.failed_allocs = 0

    @property
    def free_bytes(self) -> int:
        """Arena bytes holding no allocation, alignment padding included."""
        return self.capacity - self.bytes_in_use

    def alloc(self, size: int, align: int = 8) -> int:
        """Place ``size`` bytes at the head, rounded up to ``align``."""
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        if align <= 0 or align & (align - 1):
            raise ValueError(f"alignment must be a positive power of two, got {align}")
        aligned = (self.head + align - 1) & ~(align - 1)
        if aligned + size > self.end:
            self.failed_allocs += 1
            raise MemoryError(
                f"arena exhausted: {size} bytes requested, "
                f"{self.free_bytes} free ({max(self.end - aligned, 0)} past the head)"
            )
        self.head = aligned + size
        self.bytes_in_use += size
        self.allocs += 1
        return aligned

    def stats(self) -> Dict[str, float]:
        return {
            "capacity": float(self.capacity),
            "bytes_in_use": float(self.bytes_in_use),
            "free_bytes": float(self.free_bytes),
            "allocs": float(self.allocs),
            "failed_allocs": float(self.failed_allocs),
        }
