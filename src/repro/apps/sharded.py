"""Sharded RACE hash table with online shard migration.

The single-table deployments place one RACE instance across a fixed
blade set at setup time.  This module lifts that into an *elastic*
service:

* the key space is split into shards by an independent hash
  (:func:`repro.memory.shard.shard_of`);
* each shard is its own small RACE table instance living on exactly one
  blade, placed by a consistent-hash ring (:class:`ShardMap`);
* shards move between blades **online** — under live traffic — with a
  dual-write protocol (below), and the source instance's regions are
  freed back to the blade allocator afterwards.

Migration protocol (one shard, src → dst):

1. control plane builds a fresh table instance on dst (region carving is
   charged a deterministic control-plane latency, recorded as the
   allocation-latency metric);
2. the shard enters *migrating* state: every client write now applies to
   src (authoritative) **and** mirrors to dst; deletes additionally
   record a tombstone;
3. the migrator scans src over one-sided verbs (directory → segments →
   KV blocks) and inserts each live pair into dst; ``insert`` refuses
   duplicates, so pairs freshly mirrored by concurrent writers win over
   the scan's possibly-stale copy;
4. a reconciliation pass deletes every tombstoned key from dst (covers
   the scan-races-delete window);
5. flip: the router serves the shard from dst, mirrors stop;
6. after a grace period (lets straggler reads drain) the src instance's
   regions are freed — and zeroed — on the source blade.

Everything is driven by simulated time and seeded state only, so a
migration run replays bit-identically.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.apps.race import layout
from repro.apps.race.client import HashTableClient
from repro.apps.race.server import HashTableServer, TableMeta
from repro.cluster import Node
from repro.memory.address import blade_of, make_addr
from repro.memory.shard import ShardMap, ShardMove
from repro.obs.metrics import LogHistogram

#: modeled control-plane cost of carving one region (RPC + bookkeeping)
CONTROL_ALLOC_BASE_NS = 3000.0
#: per-KiB cost of region setup (zeroing/registration at the blade)
CONTROL_ALLOC_PER_KIB_NS = 2.0
#: how long the router keeps a flipped-away source instance alive so
#: straggler reads drain before its regions are freed
DEFAULT_GRACE_NS = 100_000.0
#: ring points per blade of the shard placement
SHARD_VNODES = 16

_MIRROR_ATTEMPTS = 8


class ShardedHashTableService:
    """Control plane of the sharded table: placement, state, metadata."""

    def __init__(self, memory_nodes: List[Node], num_shards: int = 8):
        if not memory_nodes:
            raise ValueError("need at least one memory blade")
        self.memory_nodes: Dict[int, Node] = {n.node_id: n for n in memory_nodes}
        self.shard_map = ShardMap(
            [n.node_id for n in memory_nodes], num_shards, SHARD_VNODES
        )
        self.num_shards = num_shards

        #: per-shard incarnation — bumped at every (re)placement, part of
        #: the region prefix so old and new instances never collide
        self.incarnation: Dict[int, int] = {s: 0 for s in range(num_shards)}
        #: during migration: shard -> (dst table meta, dst server); a shard
        #: is migrating exactly while it has an entry here
        self._mirror: Dict[int, Tuple[TableMeta, HashTableServer]] = {}
        #: during migration: keys deleted on src and not re-inserted
        self._tombstones: Dict[int, Set[int]] = {}
        # Statistics
        self.bytes_freed = 0
        self.mirror_writes = 0

        self._servers = {
            shard: self.build_shard(shard, self.shard_map.blade_for_shard(shard), 0)
            for shard in range(num_shards)
        }
        self._metas: Dict[int, TableMeta] = {
            shard: server.meta() for shard, server in self._servers.items()
        }

    # -- shard instances ---------------------------------------------------

    def build_shard(self, shard: int, blade_id: int,
                    incarnation: int) -> HashTableServer:
        """A fresh instance of ``shard`` on ``blade_id`` (16 segments of
        64 buckets, a 1 MiB KV heap); its regions are named by
        ``incarnation``."""
        return HashTableServer(
            [self.memory_nodes[blade_id]],
            segments=16,
            buckets_per_segment=64,
            heap_bytes_per_blade=1 << 20,
            region_prefix=f"ht_s{shard}_i{incarnation}_",
        )

    def meta_for_shard(self, shard: int) -> TableMeta:
        return self._metas[shard]

    def shard_of(self, key: int) -> int:
        return self.shard_map.shard_of(key)

    def add_blade(self, node: Node) -> List[ShardMove]:
        """Join a blade to the ring; returns the moves that rebalance onto
        it (the caller runs them through a :class:`ShardMigrator`)."""
        self.memory_nodes[node.node_id] = node
        return self.shard_map.plan_add(node.node_id)

    # -- bulk loading ------------------------------------------------------

    def bulk_load(self, items: Iterable[Tuple[int, int]]) -> int:
        per_shard: Dict[int, List[Tuple[int, int]]] = {}
        for key, value in items:
            per_shard.setdefault(self.shard_of(key), []).append((key, value))
        loaded = 0
        for shard in sorted(per_shard):
            loaded += self._servers[shard].bulk_load(per_shard[shard])
        return loaded

    # -- migration state transitions (called by the migrator) --------------

    def migrating(self, shard: int) -> bool:
        return shard in self._mirror

    def begin_migration(self, move: ShardMove, dst_server: HashTableServer) -> None:
        shard = move.shard
        if shard in self._mirror:
            raise RuntimeError(f"shard {shard} is already migrating")
        self._mirror[shard] = (dst_server.meta(), dst_server)
        self._tombstones[shard] = set()

    def commit_migration(self, move: ShardMove) -> HashTableServer:
        """Flip the shard to dst; returns the old (src) server so the
        caller can free its regions after the grace period."""
        shard = move.shard
        if shard not in self._mirror:
            raise RuntimeError(f"shard {shard} is not migrating")
        old_server = self._servers[shard]
        dst_meta, dst_server = self._mirror.pop(shard)
        self._tombstones.pop(shard)
        self.shard_map.commit(move)
        self._servers[shard] = dst_server
        self._metas[shard] = dst_meta
        self.incarnation[shard] += 1
        return old_server

    def free_source(self, old_server: HashTableServer) -> int:
        freed = old_server.free_regions()
        self.bytes_freed += freed
        return freed

    # -- mirror bookkeeping (called by client wrappers) --------------------

    def mirror_meta(self, shard: int) -> Optional[TableMeta]:
        entry = self._mirror.get(shard)
        return entry[0] if entry else None

    def note_insert(self, shard: int, key: int) -> None:
        tombs = self._tombstones.get(shard)
        if tombs is not None:
            tombs.discard(key)

    def note_delete(self, shard: int, key: int) -> None:
        tombs = self._tombstones.get(shard)
        if tombs is not None:
            tombs.add(key)

    def tombstones(self, shard: int) -> Set[int]:
        return self._tombstones.get(shard, set())


class ShardedHashTableClient:
    """One worker coroutine's routed view of the sharded table.

    Wraps per-shard :class:`HashTableClient` instances, rebuilt lazily
    whenever the shard's incarnation changes (i.e. after a flip).  While
    a shard is migrating, writes dual-apply: src first (authoritative
    result), then the dst mirror.
    """

    def __init__(self, service: ShardedHashTableService, handle):
        self.service = service
        self.handle = handle
        #: shard -> (incarnation, client)
        self._clients: Dict[int, Tuple[int, HashTableClient]] = {}
        #: shard -> (incarnation, mirror client)
        self._mirrors: Dict[int, Tuple[int, HashTableClient]] = {}

    def _client(self, shard: int) -> HashTableClient:
        inc = self.service.incarnation[shard]
        cached = self._clients.get(shard)
        if cached is None or cached[0] != inc:
            client = HashTableClient(self.handle, self.service.meta_for_shard(shard))
            self._clients[shard] = (inc, client)
            return client
        return cached[1]

    def _mirror_client(self, shard: int) -> Optional[HashTableClient]:
        meta = self.service.mirror_meta(shard)
        if meta is None:
            return None
        inc = self.service.incarnation[shard]
        cached = self._mirrors.get(shard)
        if cached is None or cached[0] != inc or cached[1].meta is not meta:
            client = HashTableClient(self.handle, meta)
            self._mirrors[shard] = (inc, client)
            return client
        return cached[1]

    # -- dual-write helpers ------------------------------------------------

    def _mirror_put(self, shard: int, key: int, value: int):
        mirror = self._mirror_client(shard)
        if mirror is None:
            return
        self.service.mirror_writes += 1
        # update→insert loop: whichever of (concurrent copy insert,
        # concurrent mirror) got there first, the *newer* value lands.
        for _ in range(_MIRROR_ATTEMPTS):
            ok = yield from mirror.update(key, value)
            if ok:
                return
            ok = yield from mirror.insert(key, value)
            if ok:
                return
        raise RuntimeError(f"mirror put({key}) did not converge")

    def _mirror_delete(self, shard: int, key: int):
        mirror = self._mirror_client(shard)
        if mirror is None:
            return
        self.service.mirror_writes += 1
        yield from mirror.delete(key)

    # -- public operations -------------------------------------------------

    def search(self, key: int):
        shard = self.service.shard_of(key)
        return (yield from self._client(shard).search(key))

    def insert(self, key: int, value: int):
        shard = self.service.shard_of(key)
        ok = yield from self._client(shard).insert(key, value)
        if ok and self.service.migrating(shard):
            self.service.note_insert(shard, key)
            yield from self._mirror_put(shard, key, value)
        return ok

    def update(self, key: int, value: int):
        shard = self.service.shard_of(key)
        ok = yield from self._client(shard).update(key, value)
        if ok and self.service.migrating(shard):
            yield from self._mirror_put(shard, key, value)
        return ok

    def delete(self, key: int):
        shard = self.service.shard_of(key)
        ok = yield from self._client(shard).delete(key)
        if ok and self.service.migrating(shard):
            self.service.note_delete(shard, key)
            yield from self._mirror_delete(shard, key)
        return ok


class ShardMigrator:
    """Executes shard moves online, over one-sided verbs.

    ``handle`` is a normal :class:`SmartHandle` — the migrator contends
    for the same RNIC/fabric resources as the tenants, which is exactly
    the interference the resharding experiment measures.
    """

    def __init__(self, service: ShardedHashTableService, handle, sim,
                 grace_ns: float = DEFAULT_GRACE_NS):
        self.service = service
        self.handle = handle
        self.sim = sim
        self.grace_ns = grace_ns
        #: modeled control-plane allocation latencies (the obs
        #: "allocation latency" metric)
        self.alloc_latency = LogHistogram()
        # Statistics
        self.keys_copied = 0
        self.keys_skipped = 0

    # -- control-plane cost model ------------------------------------------

    def _charge_region_allocs(self, server: HashTableServer):
        """Charge the modeled control-plane latency for every region the
        new instance carved, recording each into the latency metric."""
        for node in server.memory_nodes:
            for region in node.storage.regions():
                if not region.name.startswith(server.region_prefix):
                    continue
                cost = CONTROL_ALLOC_BASE_NS + (
                    region.size / 1024.0
                ) * CONTROL_ALLOC_PER_KIB_NS
                self.alloc_latency.record(cost)
                yield self.sim.timeout(cost)

    # -- the migration ------------------------------------------------------

    def migrate(self, move: ShardMove):
        """Generator: move one shard; returns keys copied."""
        service = self.service
        shard = move.shard
        if service.shard_map.blade_for_shard(shard) != move.src:
            raise RuntimeError(f"shard {shard} is not on blade {move.src}")

        # 1. build the destination instance (charged control-plane time)
        dst_server = service.build_shard(
            shard, move.dst, service.incarnation[shard] + 1
        )
        yield from self._charge_region_allocs(dst_server)

        # 2. dual-write begins
        service.begin_migration(move, dst_server)
        dst_client = HashTableClient(self.handle, dst_server.meta())

        # 3. copy scan over one-sided verbs
        copied = 0
        for key, value in (yield from self._scan_src(shard)):
            if key in service.tombstones(shard):
                self.keys_skipped += 1
                continue
            ok = yield from dst_client.insert(key, value)
            if ok:
                copied += 1
            else:
                self.keys_skipped += 1  # a fresher mirror write won
        self.keys_copied += copied

        # 4. reconcile tombstones (scan may have raced a delete)
        for key in sorted(service.tombstones(shard)):
            yield from dst_client.delete(key)

        # 5. flip
        old_server = service.commit_migration(move)

        # 6. grace period, then free + scrub the source regions
        yield self.sim.timeout(self.grace_ns)
        service.free_source(old_server)
        return copied

    def migrate_all(self, moves: List[ShardMove]):
        """Generator: run a whole rebalance plan sequentially."""
        total = 0
        for move in moves:
            total += yield from self.migrate(move)
        return total

    # -- source scan -------------------------------------------------------

    def _scan_src(self, shard: int):
        """READ the source shard's directory, segments and KV blocks;
        returns the live (key, value) pairs."""
        handle = self.handle
        meta = self.service.meta_for_shard(shard)
        header = yield from handle.read_sync(meta.dir_addr, layout.DIR_HEADER_BYTES)
        count = layout.unpack_u64(header[8:16])
        entries = yield from handle.read_sync(
            meta.dir_addr + layout.DIR_HEADER_BYTES, count * 8
        )
        seg_addrs = []
        for i in range(count):
            addr = layout.unpack_u64(entries[i * 8 : i * 8 + 8])
            if addr not in seg_addrs:
                seg_addrs.append(addr)

        seg_bytes = layout.segment_bytes(meta.buckets_per_segment)
        pairs: List[Tuple[int, int]] = []
        seen: Set[int] = set()
        for seg_addr in seg_addrs:
            blade_id = blade_of(seg_addr)
            data = yield from handle.read_sync(seg_addr, seg_bytes)
            for b in range(meta.buckets_per_segment):
                base = layout.bucket_offset(b)
                for s in range(layout.SLOTS_PER_BUCKET):
                    raw = layout.unpack_u64(data[base + s * 8 : base + s * 8 + 8])
                    if raw == layout.EMPTY_SLOT:
                        continue
                    slot = layout.decode_slot(raw)
                    kv = yield from handle.read_sync(
                        make_addr(blade_id, slot.addr), layout.KV_BLOCK_BYTES
                    )
                    key, value = layout.unpack_kv(kv)
                    if key not in seen:
                        seen.add(key)
                        pairs.append((key, value))
        return pairs
