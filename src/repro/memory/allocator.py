"""Arena allocation for blade memory.

Replaces the original bump-pointer arena ("regions are never freed") with
an address-ordered first-fit free list that supports free/reuse:
split-on-alloc, coalesce-on-free.
First-fit over an address-ordered list is deterministic and, while
nothing has been freed, produces the *exact same* placement as the old
bump pointer — which keeps every bulk-loaded table layout (and therefore
every simulated number) bit-identical to the pre-allocator code.

Everything here is plain bookkeeping over integers: no simulator events,
no RNG, no wall clock — identical call sequences produce identical
placements, which is what lets fixed-seed cluster runs replay
bit-identically.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from typing import Dict, List, Tuple


class ArenaAllocator:
    """Address-ordered first-fit free-list allocator over ``[base, end)``.

    The caller remembers each allocation's size and hands it back to
    :meth:`free` (a :class:`~repro.memory.blade.MemoryBlade` keeps it in
    its :class:`~repro.memory.blade.Region`); the allocator keeps only
    the free extents and the occupancy counters, which
    ``Observability.collect_memory`` reads through :meth:`stats` —
    pull-based, so metric collection never perturbs simulated behaviour.
    """

    def __init__(self, base: int, end: int):
        if not 0 <= base < end:
            raise ValueError(f"bad arena bounds [{base}, {end})")
        self.base = base
        self.end = end
        self.capacity = end - base
        #: sorted, non-adjacent, non-overlapping (base, size) free extents
        self._free: List[Tuple[int, int]] = [(base, end - base)]
        # Statistics
        self.allocs = 0
        self.frees = 0
        self.failed_allocs = 0

    # -- queries -----------------------------------------------------------

    @property
    def free_bytes(self) -> int:
        return sum(size for _, size in self._free)

    @property
    def bytes_in_use(self) -> int:
        # Alignment gaps stay on the free list, so this is exactly the
        # sum of the live allocations' sizes.
        return self.capacity - self.free_bytes

    @property
    def largest_free_block(self) -> int:
        return max((size for _, size in self._free), default=0)

    @property
    def free_blocks(self) -> int:
        return len(self._free)

    @property
    def fragmentation(self) -> float:
        """1 − largest_free/free: 0 when all free space is one extent."""
        free = self.free_bytes
        if free == 0:
            return 0.0
        return 1.0 - self.largest_free_block / free

    # -- allocation --------------------------------------------------------

    def alloc(self, size: int, align: int = 8) -> int:
        """First extent (lowest address) that fits ``size`` at ``align``."""
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        if align <= 0 or align & (align - 1):
            raise ValueError(f"alignment must be a positive power of two, got {align}")
        for index, (block_base, block_size) in enumerate(self._free):
            aligned = (block_base + align - 1) & ~(align - 1)
            head_gap = aligned - block_base
            if head_gap + size > block_size:
                continue
            tail_base = aligned + size
            tail_size = block_base + block_size - tail_base
            replacement = []
            if head_gap:
                replacement.append((block_base, head_gap))
            if tail_size:
                replacement.append((tail_base, tail_size))
            self._free[index : index + 1] = replacement
            self.allocs += 1
            return aligned
        self.failed_allocs += 1
        raise MemoryError(
            f"arena exhausted: {size} bytes requested, "
            f"{self.free_bytes} free (largest block {self.largest_free_block})"
        )

    def free(self, base: int, size: int) -> None:
        """Return ``[base, base+size)``, coalescing with both neighbours."""
        if size <= 0:
            raise ValueError(f"free size must be positive, got {size}")
        if base < self.base or base + size > self.end:
            raise ValueError(
                f"free [{base}, {base + size}) outside arena "
                f"[{self.base}, {self.end})"
            )
        index = bisect_right(self._free, (base, size))
        if index > 0:
            prev_base, prev_size = self._free[index - 1]
            if prev_base + prev_size > base:
                raise ValueError(f"double free overlapping [{prev_base}, +{prev_size})")
        if index < len(self._free) and base + size > self._free[index][0]:
            nxt = self._free[index]
            raise ValueError(f"double free overlapping [{nxt[0]}, +{nxt[1]})")
        # Coalesce with predecessor and/or successor.
        if index > 0 and self._free[index - 1][0] + self._free[index - 1][1] == base:
            prev_base, prev_size = self._free[index - 1]
            base, size = prev_base, prev_size + size
            index -= 1
            del self._free[index]
        if index < len(self._free) and base + size == self._free[index][0]:
            size += self._free[index][1]
            del self._free[index]
        insort(self._free, (base, size))
        self.frees += 1

    # -- statistics --------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        return {
            "capacity": float(self.capacity),
            "bytes_in_use": float(self.bytes_in_use),
            "free_bytes": float(self.free_bytes),
            "largest_free_block": float(self.largest_free_block),
            "fragmentation": self.fragmentation,
            "free_blocks": float(self.free_blocks),
            "live_allocations": float(self.allocs - self.frees),
            "allocs": float(self.allocs),
            "frees": float(self.frees),
            "failed_allocs": float(self.failed_allocs),
        }
