"""Consistent-hash sharding of application key spaces across blades.

Two layers:

* :class:`HashRing` — a classic consistent-hash ring with virtual nodes.
  Each blade contributes ``vnodes`` points; a key (or shard id) maps to
  the first ring point clockwise from its hash.  Adding a blade only
  remaps the arcs adjacent to its points onto it — the property that
  makes elastic scale-out cheap.
* :class:`ShardMap` — a level of indirection the apps actually use: the
  key space is pre-partitioned into a fixed number of *shards*, each
  shard placed on a blade by the ring.  Migration moves whole shards, so
  the unit of rebalance is bounded and enumerable; :meth:`ShardMap.plan_add`
  diffs the current placement against the grown ring and returns the
  exact :class:`ShardMove` list (deterministic order).

Pure integer arithmetic (splitmix64 finalizer, same family as the RACE
layout hashes) — no RNG, no simulator state — so placement and move
plans replay bit-identically under fixed seeds.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Sequence

_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MASK_64 = (1 << 64) - 1

#: default virtual nodes per blade; 64 keeps placement spread within a
#: few percent of even for small fleets while keeping the ring tiny
DEFAULT_VNODES = 64
#: default shard count — a power of two well above any fleet size we run
DEFAULT_SHARDS = 64


def mix64(value: int) -> int:
    """splitmix64 finalizer (independent of the app-level hashes)."""
    value = (value + _GOLDEN_GAMMA) & _MASK_64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK_64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK_64
    return value ^ (value >> 31)


def shard_of(key: int, num_shards: int) -> int:
    """Shard id of a key — an *independent* hash from the ring's, so a
    shard's keys do not cluster on the ring."""
    return mix64(key ^ 0x3C6EF372FE94F82A) % num_shards


class HashRing:
    """Consistent-hash ring over blade ids with virtual nodes."""

    def __init__(self, vnodes: int = DEFAULT_VNODES):
        if vnodes <= 0:
            raise ValueError(f"vnodes must be positive, got {vnodes}")
        self.vnodes = vnodes
        self._points: List[int] = []          # sorted ring positions
        self._owner: Dict[int, int] = {}      # position -> blade_id
        self._members: List[int] = []         # blade ids, insertion order

    def _positions(self, blade_id: int):
        for replica in range(self.vnodes):
            yield mix64(((blade_id + 1) << 20) | replica)

    def add_node(self, blade_id: int) -> None:
        if blade_id in self._members:
            raise ValueError(f"blade {blade_id} already on the ring")
        for pos in self._positions(blade_id):
            # Ties are astronomically unlikely but must still be
            # deterministic: lowest blade id keeps the point.
            if pos in self._owner:
                if self._owner[pos] < blade_id:
                    continue
            else:
                self._points.insert(bisect_right(self._points, pos), pos)
            self._owner[pos] = blade_id
        self._members.append(blade_id)

    @property
    def members(self) -> List[int]:
        return list(self._members)

    def lookup(self, hashed: int) -> int:
        """Blade owning ``hashed`` — first ring point clockwise."""
        if not self._points:
            raise ValueError("hash ring is empty")
        index = bisect_right(self._points, hashed)
        if index == len(self._points):
            index = 0
        return self._owner[self._points[index]]


@dataclass(frozen=True)
class ShardMove:
    """One step of a rebalance plan: move ``shard`` from ``src`` to ``dst``."""

    shard: int
    src: int
    dst: int


class ShardMap:
    """Fixed shard space placed on blades by a consistent-hash ring."""

    def __init__(self, blade_ids: Sequence[int], num_shards: int = DEFAULT_SHARDS,
                 vnodes: int = DEFAULT_VNODES):
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        self.num_shards = num_shards
        self.ring = HashRing(vnodes)
        for blade_id in blade_ids:
            self.ring.add_node(blade_id)
        #: shard -> blade currently *serving* it (moves only at flip time)
        self.placement: Dict[int, int] = {
            shard: self.ring.lookup(mix64(shard)) for shard in range(num_shards)
        }

    # -- key routing -------------------------------------------------------

    def shard_of(self, key: int) -> int:
        return shard_of(key, self.num_shards)

    def blade_for_shard(self, shard: int) -> int:
        return self.placement[shard]

    # -- elasticity --------------------------------------------------------

    def plan_add(self, blade_id: int) -> List[ShardMove]:
        """Add a blade to the ring; the plan moves only stolen shards."""
        self.ring.add_node(blade_id)
        moves = []
        for shard in range(self.num_shards):
            target = self.ring.lookup(mix64(shard))
            current = self.placement[shard]
            if target != current:
                moves.append(ShardMove(shard, current, target))
        return moves

    def commit(self, move: ShardMove) -> None:
        """Flip a shard's serving blade (called once its copy is done)."""
        if self.placement[move.shard] != move.src:
            raise ValueError(
                f"shard {move.shard} is on blade {self.placement[move.shard]}, "
                f"not {move.src}"
            )
        self.placement[move.shard] = move.dst
