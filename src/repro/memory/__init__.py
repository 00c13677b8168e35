"""Memory-blade substrate: byte-addressable remote memory.

A memory blade owns a flat byte space carved into regions (DRAM or NVM).
One-sided operations (READ/WRITE/CAS/FAA) execute atomically at a single
simulated instant, which is exactly the atomicity an RNIC provides for
8-byte atomics and cacheline-sized accesses.

On top of the flat byte space sit the two pieces the resharding
experiment runs on: a first-fit arena with free/reuse
(:mod:`.allocator`) and consistent-hash sharding with scale-out plans
(:mod:`.shard`); :mod:`.elastic` is its shed-pressure autoscaler.
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
from repro.memory.elastic import Autoscaler, ScaleEvent
from repro.memory.shard import HashRing, ShardMap, ShardMove, shard_of

__all__ = [
    "ArenaAllocator",
    "Autoscaler",
    "BLADE_SHIFT",
    "ScaleEvent",
    "HashRing",
    "MAX_BLADE_ID",
    "MemoryBlade",
    "NULL_ADDR",
    "OFFSET_MASK",
    "Region",
    "ShardMap",
    "ShardMove",
    "blade_of",
    "make_addr",
    "offset_of",
    "shard_of",
]
