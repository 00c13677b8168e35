"""Client-side RACE hash table operations over one-sided verbs.

One implementation serves both systems under study:

* **RACE** (baseline) — construct with ``SmartFeatures`` all off: per-thread
  QPs on a stock 16-doorbell context, no throttling, and failed CAS
  retried immediately (§3.3's wasted-IOPS behaviour).
* **SMART-HT** — the same code with the full feature set: thread-aware
  allocation, adaptive throttling and ``backoff_cas_sync``.

This mirrors the paper's 44-changed-lines refactor: the protocol is
identical, only the framework underneath changes.

Operation op-counts (what drives the scalability story):

* lookup  = 1 doorbell (2 bucket READs) + 1 KV READ  → 3 READs
* update  = 1 doorbell (KV WRITE + 2 bucket READs) + 1 KV READ + 1 CAS;
  every failed CAS costs 3 more ops (re-read, re-write, CAS)
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.apps.common import RemoteAllocator
from repro.apps.race import layout
from repro.apps.race.server import TableMeta
from repro.core.api import SmartHandle
from repro.memory.address import blade_of, make_addr


class HashTableClient:
    """One client coroutine's view of the table."""

    MAX_ATTEMPTS = 512

    def __init__(self, handle: SmartHandle, meta: TableMeta):
        self.handle = handle
        #: shared, mutable directory cache (all coroutines of a process
        #: share one directory in the real system too)
        self.meta = meta
        self._allocators: Dict[int, RemoteAllocator] = {}

    # -- public operations ----------------------------------------------------

    def search(self, key: int):
        """Generator; returns the value or None."""
        handle = self.handle
        yield from handle.begin_op()
        found = yield from self._search_inner(key, may_refresh=True)
        handle.end_op(failed=found is None)
        return found[1] if found else None

    def insert(self, key: int, value: int):
        """Generator; returns True unless the key already exists."""
        handle = self.handle
        yield from handle.begin_op()
        ok = yield from self._insert_inner(key, value)
        handle.end_op(failed=not ok)
        return ok

    def update(self, key: int, value: int):
        """Generator; returns True unless the key is absent."""
        handle = self.handle
        yield from handle.begin_op()
        ok = yield from self._update_inner(key, value)
        handle.end_op(failed=not ok)
        return ok

    def delete(self, key: int):
        """Generator; returns True unless the key is absent."""
        handle = self.handle
        yield from handle.begin_op()
        ok = yield from self._delete_inner(key)
        handle.end_op(failed=not ok)
        return ok

    # -- placement ---------------------------------------------------------------

    def _locate(self, key: int) -> Tuple[int, int, int, Tuple[int, int], int]:
        """(dir_index, segment global addr, blade id, the two candidate
        bucket addrs, fingerprint) for a key — each hash evaluated once."""
        meta = self.meta
        dir_index, b1, b2, fp = layout.placement(
            key, meta.global_depth, meta.buckets_per_segment
        )
        seg_addr = meta.segment_addrs[dir_index]
        buckets = (
            seg_addr + layout.bucket_offset(b1),
            seg_addr + layout.bucket_offset(b2),
        )
        return dir_index, seg_addr, blade_of(seg_addr), buckets, fp

    def _allocator(self, blade_id: int) -> RemoteAllocator:
        allocator = self._allocators.get(blade_id)
        if allocator is None:
            head_addr, base, end = self.meta.heaps[blade_id]
            allocator = RemoteAllocator(self.handle, blade_id, head_addr, base, end)
            self._allocators[blade_id] = allocator
        return allocator

    # -- lookups ---------------------------------------------------------------------

    def _read_buckets(self, buckets: Tuple[int, int], extra_write=None):
        """One doorbell: optional KV write + both candidate bucket READs.

        Returns [(slot global addr, raw slot value), ...] across both
        buckets.
        """
        handle = self.handle
        addr1, addr2 = buckets
        if extra_write is not None:
            handle.write(*extra_write)
        wr1 = handle.read(addr1, layout.BUCKET_BYTES)
        wr2 = handle.read(addr2, layout.BUCKET_BYTES)
        yield from handle.post_send()
        yield from handle.sync()
        slots = []
        for base_addr, wr in ((addr1, wr1), (addr2, wr2)):
            for raw in layout.unpack_slots(wr.result):
                slots.append((base_addr, raw))
                base_addr += 8
        return slots

    @staticmethod
    def _match_candidates(fp: int, slots):
        """Slots carrying fingerprint ``fp`` (never 0, so never an empty
        slot)."""
        shift = layout.FP_SHIFT
        return [pair for pair in slots if pair[1] >> shift == fp]

    def _verify(self, key: int, raw: int, blade_id: int):
        """READ the KV block behind a slot; returns value or None."""
        kv = yield from self.handle.read_sync(
            make_addr(blade_id, raw & layout.ADDR_MASK), layout.KV_BLOCK_BYTES
        )
        stored_key, value = layout.unpack_kv(kv)
        return value if stored_key == key else None

    def _search_inner(self, key: int, may_refresh: bool):
        _, _, blade_id, buckets, fp = self._locate(key)
        slots = yield from self._read_buckets(buckets)
        for slot_addr, raw in self._match_candidates(fp, slots):
            value = yield from self._verify(key, raw, blade_id)
            if value is not None:
                return (slot_addr, value, raw)
        if may_refresh:
            # Possibly a stale directory after a concurrent split.
            yield from self.refresh_directory()
            return (yield from self._search_inner(key, may_refresh=False))
        return None

    # -- modifications -----------------------------------------------------------------------

    def _insert_inner(self, key: int, value: int):
        handle = self.handle
        for _attempt in range(self.MAX_ATTEMPTS):
            _, _, blade_id, buckets, fp = self._locate(key)
            kv_offset = yield from self._allocator(blade_id).alloc(
                layout.KV_BLOCK_BYTES
            )
            kv_payload = (make_addr(blade_id, kv_offset), layout.pack_kv(key, value))
            slots = yield from self._read_buckets(buckets, extra_write=kv_payload)
            for _slot_addr, raw in self._match_candidates(fp, slots):
                existing = yield from self._verify(key, raw, blade_id)
                if existing is not None:
                    return False  # duplicate key
            target = self._pick_empty_slot(slots)
            if target is None:
                yield from self._split(key)
                continue
            new_slot = layout.make_slot(key, kv_offset)
            old = yield from handle.backoff_cas_sync(target, layout.EMPTY_SLOT, new_slot)
            if old == layout.EMPTY_SLOT:
                return True
            # Slot stolen under us: loop — the next iteration re-reads the
            # buckets and re-writes the KV block (the paper's 3-op retry).
        raise RuntimeError(f"insert({key}): too many retries")

    @staticmethod
    def _pick_empty_slot(slots) -> Optional[int]:
        """First empty slot, preferring the bucket with more free space."""
        per_bucket = [slots[: layout.SLOTS_PER_BUCKET], slots[layout.SLOTS_PER_BUCKET :]]
        per_bucket.sort(
            key=lambda b: sum(1 for _, raw in b if raw == layout.EMPTY_SLOT),
            reverse=True,
        )
        for bucket in per_bucket:
            for slot_addr, raw in bucket:
                if raw == layout.EMPTY_SLOT:
                    return slot_addr
        return None

    def _update_inner(self, key: int, value: int):
        handle = self.handle
        refreshed = False
        known = None  # (bucket_addr, slot_index) after the first full pass
        for _attempt in range(self.MAX_ATTEMPTS):
            _, _, blade_id, buckets, fp = self._locate(key)
            kv_offset = yield from self._allocator(blade_id).alloc(
                layout.KV_BLOCK_BYTES
            )
            kv_addr = make_addr(blade_id, kv_offset)
            kv_data = layout.pack_kv(key, value)
            if known is not None:
                # The paper's 3-op retry: re-read *this* bucket, re-write
                # the KV entry, CAS the same slot again (no KV re-verify:
                # the fingerprint filters out the rare slot reuse).
                bucket_addr, index = known
                handle.write(kv_addr, kv_data)
                bucket_wr = handle.read(bucket_addr, layout.BUCKET_BYTES)
                yield from handle.post_send()
                yield from handle.sync()
                raw = layout.unpack_slots(bucket_wr.result)[index]
                if raw >> layout.FP_SHIFT != fp:
                    known = None  # slot reused; fall back to full path
                    continue
                slot_addr = bucket_addr + index * 8
            else:
                slots = yield from self._read_buckets(
                    buckets, extra_write=(kv_addr, kv_data)
                )
                located = None
                for slot_addr, raw in self._match_candidates(fp, slots):
                    existing = yield from self._verify(key, raw, blade_id)
                    if existing is not None:
                        located = (slot_addr, raw)
                        break
                if located is None:
                    if not refreshed:
                        refreshed = True
                        yield from self.refresh_directory()
                        continue
                    return False
                slot_addr, raw = located
            new_slot = layout.make_slot(key, kv_offset)
            old = yield from handle.backoff_cas_sync(slot_addr, raw, new_slot)
            if old == raw:
                return True
            addr1, addr2 = buckets
            bucket_addr = addr1 if addr1 <= slot_addr < addr1 + layout.BUCKET_BYTES else addr2
            known = (bucket_addr, (slot_addr - bucket_addr) // 8)
        raise RuntimeError(f"update({key}): too many retries")

    def _delete_inner(self, key: int):
        handle = self.handle
        for _attempt in range(self.MAX_ATTEMPTS):
            found = yield from self._search_inner(key, may_refresh=True)
            if found is None:
                return False
            slot_addr, _value, raw = found
            old = yield from handle.backoff_cas_sync(slot_addr, raw, layout.EMPTY_SLOT)
            if old == raw:
                return True
        raise RuntimeError(f"delete({key}): too many retries")

    # -- directory maintenance ------------------------------------------------------------

    def refresh_directory(self):
        """Re-READ the remote directory into the shared client cache."""
        handle = self.handle
        header = yield from handle.read_sync(self.meta.dir_addr, layout.DIR_HEADER_BYTES)
        global_depth = layout.unpack_u64(header[0:8])
        count = layout.unpack_u64(header[8:16])
        entries = yield from handle.read_sync(
            self.meta.dir_addr + layout.DIR_HEADER_BYTES, count * 8
        )
        self.meta.global_depth = global_depth
        self.meta.segment_addrs = [
            layout.unpack_u64(entries[i * 8 : i * 8 + 8]) for i in range(count)
        ]

    def _split(self, key: int):
        """Split the key's segment (and double the directory if needed).

        Simplified from RACE's lock-free protocol: the splitter holds the
        segment's lock word; concurrent writers to *other* segments are
        unaffected, and readers of this segment retry via the directory
        refresh path.  Benches pre-size tables so splits stay out of the
        measured window.
        """
        handle = self.handle
        dir_index, seg_addr, blade_id = self._locate(key)[:3]
        old = yield from handle.cas_sync(seg_addr + 8, 0, 1)  # segment lock
        if old != 0:
            # Someone else is splitting: wait and refresh.
            yield from handle.backoff_delay()
            yield from self.refresh_directory()
            return

        failure = None
        try:
            header = yield from handle.read_sync(seg_addr, 8)
            local_depth = layout.unpack_u64(header)
            if local_depth >= self.meta.global_depth:
                yield from self._double_directory()
            new_depth = local_depth + 1

            # Allocate and populate the sibling segment on the same blade.
            seg_bytes = layout.segment_bytes(self.meta.buckets_per_segment)
            new_offset = yield from self._allocator(blade_id).alloc_large(seg_bytes)
            new_seg_addr = make_addr(blade_id, new_offset)
            yield from self._redistribute(
                seg_addr, new_seg_addr, blade_id, local_depth, new_depth
            )

            # Point the moved directory entries at the sibling.
            yield from self._update_directory_entries(
                dir_index, seg_addr, new_seg_addr, local_depth, new_depth
            )
        except GeneratorExit:
            raise  # the run is over: no remote release can happen
        except BaseException as error:  # lint: disable=SIM003 (re-raised after the release)
            failure = error
        yield from handle.write_sync(seg_addr + 8, layout.pack_u64(0))
        if failure is not None:
            raise failure
        yield from self.refresh_directory()

    def _redistribute(self, seg_addr, new_seg_addr, blade_id, local_depth, new_depth):
        """Move entries whose next hash bit is 1 into the sibling segment."""
        handle = self.handle
        buckets = self.meta.buckets_per_segment
        seg_bytes = layout.segment_bytes(buckets)
        data = yield from handle.read_sync(seg_addr, seg_bytes)

        moved_bit = 1 << local_depth
        stay = bytearray(seg_bytes)
        move = bytearray(seg_bytes)
        stay[0:8] = layout.pack_u64(new_depth)
        move[0:8] = layout.pack_u64(new_depth)
        stay[8:16] = layout.pack_u64(1)  # still locked until written back
        move[8:16] = layout.pack_u64(0)

        for b in range(buckets):
            base = layout.bucket_offset(b)
            for s in range(layout.SLOTS_PER_BUCKET):
                off = base + s * 8
                raw = layout.unpack_u64(data[off : off + 8])
                if raw == layout.EMPTY_SLOT:
                    continue
                slot = layout.decode_slot(raw)
                kv = yield from handle.read_sync(
                    make_addr(blade_id, slot.addr), layout.KV_BLOCK_BYTES
                )
                stored_key, _ = layout.unpack_kv(kv)
                target = move if layout.hash1(stored_key) & moved_bit else stay
                self._place_local(target, stored_key, raw)

        yield from handle.write_sync(new_seg_addr, bytes(move))
        yield from handle.write_sync(seg_addr, bytes(stay))

    def _place_local(self, buffer: bytearray, key: int, raw: int) -> None:
        b1, b2 = layout.bucket_indices(key, self.meta.buckets_per_segment)
        for bucket in (b1, b2):
            base = layout.bucket_offset(bucket)
            for s in range(layout.SLOTS_PER_BUCKET):
                off = base + s * 8
                if layout.unpack_u64(buffer[off : off + 8]) == layout.EMPTY_SLOT:
                    buffer[off : off + 8] = layout.pack_u64(raw)
                    return
        raise MemoryError("split produced an over-full bucket")

    def _double_directory(self):
        """Double the directory (mirrors entries into the new half)."""
        handle = self.handle
        dir_addr = self.meta.dir_addr
        old = yield from handle.cas_sync(dir_addr + 16, 0, 1)  # directory lock
        if old != 0:
            yield from handle.backoff_delay()
            yield from self.refresh_directory()
            return
        failure = None
        try:
            header = yield from handle.read_sync(dir_addr, 16)
            depth = layout.unpack_u64(header[0:8])
            count = layout.unpack_u64(header[8:16])
            entries = yield from handle.read_sync(
                dir_addr + layout.DIR_HEADER_BYTES, count * 8
            )
            yield from handle.write_sync(
                dir_addr + layout.DIR_HEADER_BYTES + count * 8, entries
            )
            yield from handle.write_sync(dir_addr, layout.pack_u64(depth + 1))
            yield from handle.write_sync(dir_addr + 8, layout.pack_u64(count * 2))
        except GeneratorExit:
            raise  # the run is over: no remote release can happen
        except BaseException as error:  # lint: disable=SIM003 (re-raised after the release)
            failure = error
        yield from handle.write_sync(dir_addr + 16, layout.pack_u64(0))
        if failure is not None:
            raise failure

    def _update_directory_entries(
        self, dir_index, seg_addr, new_seg_addr, local_depth, new_depth
    ):
        handle = self.handle
        header = yield from handle.read_sync(self.meta.dir_addr, 16)
        global_depth = layout.unpack_u64(header[0:8])
        count = layout.unpack_u64(header[8:16])
        suffix = dir_index & ((1 << local_depth) - 1)
        for i in range(count):
            if (i & ((1 << local_depth) - 1)) == suffix and i & (1 << local_depth):
                entry_addr = self.meta.dir_addr + layout.DIR_HEADER_BYTES + i * 8
                yield from handle.cas_sync(entry_addr, seg_addr, new_seg_addr)
