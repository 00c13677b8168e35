"""Client-side B+Tree operations over one-sided verbs.

One implementation serves the whole Fig-12 matrix:

* **Sherman+**      — baseline features, no speculative cache;
* **Sherman+ w/SL** — baseline features + speculative lookup;
* **SMART-BT**      — full SMART features + speculative lookup.

Writers synchronize with HOPL (hierarchical on-chip locks): the first
thread of a compute blade acquires the remote lock word with CAS; local
threads queue in blade DRAM and receive the lock by hand-over without any
network traffic (Sherman's key write optimization).  Readers never lock:
B-link sibling pointers plus fence keys make traversals safe against
concurrent splits and stale caches.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Dict, List, Optional, Tuple

from repro.apps.common import RemoteAllocator
from repro.apps.sherman import layout
from repro.apps.sherman.server import TreeMeta
from repro.core.api import SmartHandle
from repro.memory.address import blade_of
from repro.sim import Timeout


class _LockState:
    __slots__ = ("waiters", "handovers")

    def __init__(self):
        self.waiters = deque()
        self.handovers = 0


class LocalLockTable:
    """HOPL: per-compute-blade local queues in front of remote lock words."""

    def __init__(self, sim, max_handover: int = 64, use_local_queues: bool = True):
        self._sim = sim
        self.max_handover = max_handover
        #: disable to get the naive remote spinlock of §3.3 (ablation)
        self.use_local_queues = use_local_queues
        self._locks: Dict[int, _LockState] = {}
        self.local_handovers = 0
        self.remote_acquires = 0

    def acquire(self, handle: SmartHandle, lock_addr: int):
        """Generator; returns once this coroutine holds the node lock."""
        while True:
            if self.use_local_queues:
                state = self._locks.get(lock_addr)
                if state is not None:
                    # A local thread holds it: queue in DRAM, no network.
                    ticket = self._sim.event()
                    state.waiters.append(ticket)
                    outcome = yield ticket
                    if outcome == "reacquire":
                        continue  # holder released remotely; start over
                    return  # local hand-over: we own the lock now
                self._locks[lock_addr] = _LockState()
            self.remote_acquires += 1
            while True:
                old = yield from handle.backoff_cas_sync(lock_addr, 0, 1)
                if old == 0:
                    return

    def release(self, handle: SmartHandle, lock_addr: int):
        """Generator; hands over locally when possible, else unlocks remote."""
        if self.use_local_queues:
            state = self._locks.get(lock_addr)
            if state is None:
                raise RuntimeError(f"release of unheld lock {lock_addr:#x}")
            if state.waiters and state.handovers < self.max_handover:
                state.handovers += 1
                self.local_handovers += 1
                state.waiters.popleft().fire()
                return
            # Pass any remaining waiters back through the remote path so
            # other compute blades are not starved.
            pending = state.waiters
            del self._locks[lock_addr]
            yield from handle.write_sync(lock_addr, layout.pack_entry(0, 0)[:8])
            for ticket in pending:
                # Losers must re-acquire from scratch.
                ticket.fire("reacquire")
        else:
            yield from handle.write_sync(lock_addr, layout.pack_entry(0, 0)[:8])


class SpeculativeCache:
    """Key -> (leaf address, entry index) cache backing speculative lookup."""

    def __init__(self, capacity: int = 1 << 20):
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def get(self, key: int) -> Optional[Tuple[int, int]]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
        return entry

    def put(self, key: int, leaf_addr: int, index: int) -> None:
        self._entries[key] = (leaf_addr, index)
        self._entries.move_to_end(key)
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def drop(self, key: int) -> None:
        if self._entries.pop(key, None) is not None:
            self.invalidations += 1


class BTreeClient:
    """One client coroutine's view of the tree."""

    MAX_ATTEMPTS = 256

    def __init__(
        self,
        handle: SmartHandle,
        meta: TreeMeta,
        index_cache: Dict[int, layout.Node],
        lock_table: LocalLockTable,
        spec_cache: Optional[SpeculativeCache] = None,
        client_cpu_ns: float = 2000.0,
    ):
        self.handle = handle
        self.meta = meta
        #: compute-blade-shared cache of *internal* nodes
        self.index_cache = index_cache
        self.locks = lock_table
        self.spec_cache = spec_cache
        self.client_cpu_ns = client_cpu_ns
        self._allocators: Dict[int, RemoteAllocator] = {}

    # -- public API -------------------------------------------------------------

    def lookup(self, key: int):
        handle = self.handle
        yield from handle.begin_op()
        delay = handle.thread.charge(self.client_cpu_ns)
        if delay > 0:
            yield Timeout(handle.sim, delay)
        value = yield from self._lookup_inner(key)
        handle.end_op(failed=value is None)
        return value

    def insert(self, key: int, value: int):
        """Upsert (Sherman's insert overwrites an existing key)."""
        handle = self.handle
        yield from handle.begin_op()
        delay = handle.thread.charge(self.client_cpu_ns)
        if delay > 0:
            yield Timeout(handle.sim, delay)
        yield from self._upsert_inner(key, value)
        handle.end_op()
        return True

    update = insert

    def delete(self, key: int):
        handle = self.handle
        yield from handle.begin_op()
        delay = handle.thread.charge(self.client_cpu_ns)
        if delay > 0:
            yield Timeout(handle.sim, delay)
        removed = yield from self._delete_inner(key)
        handle.end_op(failed=not removed)
        return removed

    def range_scan(self, first_key: int, count: int):
        """Read up to ``count`` items with keys >= first_key (leaf chain)."""
        handle = self.handle
        yield from handle.begin_op()
        results: List[Tuple[int, int]] = []
        leaf_addr, leaf = yield from self._find_leaf(first_key)
        while leaf is not None and len(results) < count:
            for k, v in leaf.entries:
                if k >= first_key and len(results) < count:
                    results.append((k, v))
            if not leaf.sibling:
                break
            leaf_addr = leaf.sibling
            leaf = yield from self._fetch_node(leaf_addr)
        handle.end_op()
        return results

    # -- traversal -----------------------------------------------------------------

    def _fetch_node(self, addr: int):
        data = yield from self.handle.read_sync(addr, layout.NODE_BYTES)
        return layout.decode(data)

    def _load_internal(self, addr: int):
        node = self.index_cache.get(addr)
        if node is None:
            node = yield from self._fetch_node(addr)
            if not node.is_leaf:
                self.index_cache[addr] = node
        return node

    def _find_leaf(self, key: int):
        """Descend to the leaf covering ``key``; returns (addr, fresh node).

        Cached internals may be stale after splits; the B-link invariant
        (splits only move keys right) means a rightward sibling walk at
        each level always converges.
        """
        for _attempt in range(self.MAX_ATTEMPTS):
            addr = self.meta.root_addr
            node = yield from self._load_internal(addr)
            while True:
                hops = 0
                while not node.covers(key):
                    self.index_cache.pop(addr, None)  # stale: refetch later
                    if key >= node.fence_high and node.sibling:
                        addr = node.sibling
                        node = (
                            (yield from self._load_internal(addr))
                            if not node.is_leaf
                            else (yield from self._fetch_node(addr))
                        )
                        hops += 1
                        if hops > self.MAX_ATTEMPTS:
                            raise RuntimeError("sibling chain does not converge")
                    else:
                        # key below this subtree: root moved; refresh it.
                        yield from self._refresh_root()
                        node = None
                        break
                if node is None:
                    break  # restart from the (new) root
                if node.is_leaf:
                    return addr, node
                child = node.child_for(key)
                addr = child
                node = yield from self._load_internal(addr)
                if node.is_leaf:
                    # Leaves must be read fresh (the cache never stores
                    # them, _load_internal already fetched remotely).
                    pass
        raise RuntimeError(f"traverse({key}) did not converge")

    def _refresh_root(self):
        data = yield from self.handle.read_sync(self.meta.meta_addr, 16)
        self.meta.root_addr = layout.unpack_entry(data)[0]
        self.meta.height = layout.unpack_entry(data)[1]
        self.index_cache.clear()

    # -- lookup ---------------------------------------------------------------------

    def _lookup_inner(self, key: int):
        if self.spec_cache is not None:
            cached = self.spec_cache.get(key)
            if cached is not None:
                leaf_addr, index = cached
                # Fast path: one small READ instead of the whole leaf.
                data = yield from self.handle.read_sync(
                    leaf_addr + layout.entry_offset(index), layout.ENTRY_BYTES
                )
                stored_key, value = layout.unpack_entry(data)
                if stored_key == key:
                    self.spec_cache.hits += 1
                    return value
                self.spec_cache.drop(key)  # moved by an insert/split
        leaf_addr, leaf = yield from self._find_leaf(key)
        index = leaf.find_leaf_entry(key)
        if index is None:
            return None
        if self.spec_cache is not None:
            self.spec_cache.put(key, leaf_addr, index)
        return leaf.entries[index][1]

    # -- writes --------------------------------------------------------------------------

    def _allocator(self, blade_id: int) -> RemoteAllocator:
        allocator = self._allocators.get(blade_id)
        if allocator is None:
            head_addr, base, end = self.meta.heaps[blade_id]
            allocator = RemoteAllocator(
                self.handle, blade_id, head_addr, base, end,
                chunk_bytes=4 * layout.NODE_BYTES,
            )
            self._allocators[blade_id] = allocator
        return allocator

    def _upsert_inner(self, key: int, value: int):
        handle = self.handle
        for _attempt in range(self.MAX_ATTEMPTS):
            leaf_addr, _ = yield from self._find_leaf(key)
            yield from self.locks.acquire(handle, leaf_addr)
            leaf = yield from self._fetch_node(leaf_addr)  # fresh, under lock
            if not leaf.covers(key):
                yield from self.locks.release(handle, leaf_addr)
                continue  # split raced us; re-traverse
            index = leaf.find_leaf_entry(key)
            if index is not None:
                # In-place update: write just the entry's 16 bytes.
                yield from handle.write_sync(
                    leaf_addr + layout.entry_offset(index),
                    layout.pack_entry(key, value),
                )
                yield from self.locks.release(handle, leaf_addr)
                if self.spec_cache is not None:
                    self.spec_cache.put(key, leaf_addr, index)
                return
            if not leaf.full:
                index = leaf.insert_sorted(key, value)
                leaf.bump_lines(index, leaf.nkeys - 1)
                yield from handle.write_sync(leaf_addr, leaf.encode())
                yield from self.locks.release(handle, leaf_addr)
                if self.spec_cache is not None:
                    self.spec_cache.put(key, leaf_addr, index)
                return
            yield from self._split_and_insert(leaf_addr, leaf, key, value)
            return
        raise RuntimeError(f"upsert({key}): too many retries")

    def _delete_inner(self, key: int):
        handle = self.handle
        for _attempt in range(self.MAX_ATTEMPTS):
            leaf_addr, _ = yield from self._find_leaf(key)
            yield from self.locks.acquire(handle, leaf_addr)
            leaf = yield from self._fetch_node(leaf_addr)
            if not leaf.covers(key):
                yield from self.locks.release(handle, leaf_addr)
                continue
            index = leaf.find_leaf_entry(key)
            if index is None:
                yield from self.locks.release(handle, leaf_addr)
                return False
            del leaf.entries[index]
            leaf.bump_lines(index, max(leaf.nkeys - 1, index))
            yield from handle.write_sync(leaf_addr, leaf.encode())
            yield from self.locks.release(handle, leaf_addr)
            if self.spec_cache is not None:
                self.spec_cache.drop(key)
            return True
        raise RuntimeError(f"delete({key}): too many retries")

    # -- splits -----------------------------------------------------------------------------

    def _split_and_insert(self, node_addr: int, node: layout.Node, key: int, value: int):
        """Split a locked, full node, then insert (key, value) into the
        correct half; propagates a separator into the parent."""
        handle = self.handle
        mid = node.nkeys // 2
        split_key = node.entries[mid][0]
        right = layout.Node(
            level=node.level,
            fence_low=split_key,
            fence_high=node.fence_high,
            sibling=node.sibling,
            entries=node.entries[mid:],
        )
        right.version = node.version + 1
        right_addr = yield from self._allocator(blade_of(node_addr)).alloc_addr(
            layout.NODE_BYTES
        )
        node.entries = node.entries[:mid]
        node.fence_high = split_key
        node.sibling = right_addr
        node.version += 1
        node.bump_lines(0, layout.FANOUT - 1)

        target, target_addr = (right, right_addr) if key >= split_key else (node, node_addr)
        index = target.insert_sorted(key, value)

        # Write right first: a reader chasing the old sibling pointer must
        # always find a consistent node (B-link publication order).
        yield from handle.write_sync(right_addr, right.encode())
        yield from handle.write_sync(node_addr, node.encode())
        yield from self.locks.release(handle, node_addr)
        if self.spec_cache is not None and target.is_leaf:
            self.spec_cache.put(key, target_addr, index)
        if not node.is_leaf:
            self.index_cache[node_addr] = node
            self.index_cache[right_addr] = right

        yield from self._insert_separator(node.level + 1, split_key, right_addr, node_addr)

    def _insert_separator(self, level: int, sep_key: int, child_addr: int, left_addr: int):
        """Insert (sep_key -> child_addr) into the parent level."""
        handle = self.handle
        if level > self.meta.height:
            yield from self._grow_root(level, sep_key, child_addr, left_addr)
            return
        for _attempt in range(self.MAX_ATTEMPTS):
            parent_addr = yield from self._find_parent(level, sep_key)
            if parent_addr is None:
                yield from self._grow_root(level, sep_key, child_addr, left_addr)
                return
            yield from self.locks.acquire(handle, parent_addr)
            parent = yield from self._fetch_node(parent_addr)
            if not parent.covers(sep_key):
                yield from self.locks.release(handle, parent_addr)
                self.index_cache.pop(parent_addr, None)
                continue
            if parent.find_leaf_entry(sep_key) is not None or any(
                v == child_addr for _, v in parent.entries
            ):
                # Another coroutine (same blade, handover chain) already
                # inserted this separator.
                yield from self.locks.release(handle, parent_addr)
                return
            if not parent.full:
                parent.insert_sorted(sep_key, child_addr)
                parent.version += 1
                yield from handle.write_sync(parent_addr, parent.encode())
                yield from self.locks.release(handle, parent_addr)
                self.index_cache[parent_addr] = parent
                return
            yield from self._split_and_insert(parent_addr, parent, sep_key, child_addr)
            return
        raise RuntimeError("separator insert did not converge")

    def _find_parent(self, level: int, key: int):
        """Address of the level-``level`` node covering ``key`` (fresh walk)."""
        if level > self.meta.height:
            return None
        addr = self.meta.root_addr
        node = yield from self._load_internal(addr)
        if node.level < level:
            yield from self._refresh_root()
            addr = self.meta.root_addr
            node = yield from self._load_internal(addr)
            if node.level < level:
                return None
        while node.level > level:
            addr = node.child_for(key)
            node = yield from self._load_internal(addr)
        while not node.covers(key):
            if key >= node.fence_high and node.sibling:
                self.index_cache.pop(addr, None)
                addr = node.sibling
                node = yield from self._load_internal(addr)
            else:
                return None
        return addr

    def _grow_root(self, level: int, sep_key: int, child_addr: int, left_addr: int):
        """Install a new root above ``left_addr``/``child_addr``."""
        handle = self.handle
        meta_lock = self.meta.meta_addr + 16
        yield from self.locks.acquire(handle, meta_lock)
        raced = False
        failure = None
        try:
            data = yield from handle.read_sync(self.meta.meta_addr, 16)
            root_addr, height = layout.unpack_entry(data)
            if height >= level:
                # Someone grew the tree first; insert normally instead
                # (after the lock is released below).
                self.meta.root_addr, self.meta.height = root_addr, height
                raced = True
            else:
                new_root = layout.Node(
                    level=level,
                    entries=[(layout.KEY_MIN, left_addr), (sep_key, child_addr)],
                )
                new_addr = yield from self._allocator(
                    blade_of(root_addr)
                ).alloc_addr(layout.NODE_BYTES)
                yield from handle.write_sync(new_addr, new_root.encode())
                self.handle.write(
                    self.meta.meta_addr, layout.pack_entry(new_addr, level)
                )
                yield from handle.post_send()
                yield from handle.sync()
                self.meta.root_addr, self.meta.height = new_addr, level
                self.index_cache[new_addr] = new_root
        except GeneratorExit:
            raise  # the run is over: no remote release can happen
        except BaseException as error:  # lint: disable=SIM003 (re-raised after the release)
            failure = error
        yield from self.locks.release(handle, meta_lock)
        if failure is not None:
            raise failure
        if raced:
            yield from self._insert_separator(level, sep_key, child_addr, left_addr)
