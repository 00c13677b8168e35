"""Memory-blade substrate: byte-addressable remote memory.

A memory blade owns a flat byte space carved into regions (DRAM or NVM).
One-sided operations (READ/WRITE/CAS/FAA) execute atomically at a single
simulated instant, which is exactly the atomicity an RNIC provides for
8-byte atomics and cacheline-sized accesses.  Regions are carved by
a bump arena and never freed (:mod:`.allocator`).
"""

from repro.memory.address import (
    BLADE_SHIFT,
    MAX_BLADE_ID,
    NULL_ADDR,
    OFFSET_MASK,
    blade_of,
    make_addr,
    offset_of,
)
from repro.memory.allocator import ArenaAllocator
from repro.memory.blade import MemoryBlade, Region

__all__ = [
    "ArenaAllocator",
    "BLADE_SHIFT",
    "MAX_BLADE_ID",
    "MemoryBlade",
    "NULL_ADDR",
    "OFFSET_MASK",
    "Region",
    "blade_of",
    "make_addr",
    "offset_of",
]
