"""Tests for the blade arena allocator (repro.memory.allocator)."""

import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.memory.allocator import ArenaAllocator


class TestArena:
    def test_first_fit_is_sequential_like_a_bump_pointer(self):
        # With nothing freed, placements must match the historical bump
        # pointer exactly — the golden-layout compatibility guarantee.
        arena = ArenaAllocator(8, 1 << 20)
        offsets = [arena.alloc(100, align=64) for _ in range(4)]
        expected = []
        cursor = 8
        for _ in range(4):
            aligned = (cursor + 63) & ~63
            expected.append(aligned)
            cursor = aligned + 100
        assert offsets == expected

    def test_alloc_reuses_freed_block_first_fit(self):
        arena = ArenaAllocator(0, 4096)
        a = arena.alloc(256)
        b = arena.alloc(256)
        arena.alloc(256)
        arena.free(a, 256)
        arena.free(b, 256)
        # Coalesced hole [a, a+512) is first; a 512-byte request fits it.
        assert arena.alloc(512) == a
        assert arena.free_blocks == 1  # only the tail remains free

    def test_free_coalesces_both_neighbours(self):
        arena = ArenaAllocator(0, 4096)
        blocks = [arena.alloc(512) for _ in range(4)]
        arena.free(blocks[0], 512)
        arena.free(blocks[2], 512)
        assert arena.free_blocks == 3  # two holes + tail
        arena.free(blocks[1], 512)  # bridges the two holes
        assert arena.free_blocks == 2
        arena.free(blocks[3], 512)  # merges everything with the tail
        assert arena.free_blocks == 1
        assert arena.free_bytes == 4096
        assert arena.fragmentation == 0.0

    def test_double_free_detected(self):
        arena = ArenaAllocator(0, 4096)
        a = arena.alloc(256)
        arena.free(a, 256)
        with pytest.raises(ValueError, match="double free"):
            arena.free(a, 256)

    def test_partial_overlap_free_detected(self):
        arena = ArenaAllocator(0, 4096)
        a = arena.alloc(256)
        arena.free(a, 256)
        with pytest.raises(ValueError, match="double free"):
            arena.free(a + 64, 64)

    def test_free_outside_bounds_rejected(self):
        arena = ArenaAllocator(64, 4096)
        with pytest.raises(ValueError, match="outside arena"):
            arena.free(0, 32)
        with pytest.raises(ValueError, match="outside arena"):
            arena.free(4090, 32)

    def test_oom_reports_true_free_space(self):
        arena = ArenaAllocator(0, 1024)
        arena.alloc(1000)
        with pytest.raises(MemoryError) as exc:
            arena.alloc(512)
        assert "24 free" in str(exc.value)

    def test_fragmentation_metric(self):
        arena = ArenaAllocator(0, 4096)
        blocks = [arena.alloc(1024) for _ in range(4)]
        arena.free(blocks[0], 1024)
        arena.free(blocks[2], 1024)
        # Two equal holes: largest/free = 1/2.
        assert arena.fragmentation == pytest.approx(0.5)

    def test_rejects_bad_arguments(self):
        arena = ArenaAllocator(0, 4096)
        with pytest.raises(ValueError):
            arena.alloc(0)
        with pytest.raises(ValueError):
            arena.alloc(8, align=3)
        with pytest.raises(ValueError):
            arena.free(0, 0)


class TestBladeAllocator:
    """The statistics side of the arena a MemoryBlade owns."""

    def test_stats_track_allocs_and_frees(self):
        blade = ArenaAllocator(0, 1 << 20)
        a = blade.alloc(64)
        blade.alloc(8192, align=64)  # an alignment gap stays free
        stats = blade.stats()
        assert stats["allocs"] == 2
        assert stats["bytes_in_use"] == 64 + 8192
        blade.free(a, 64)
        stats = blade.stats()
        assert stats["frees"] == 1
        assert stats["bytes_in_use"] == 8192
        assert stats["live_allocations"] == 1
        assert stats["free_bytes"] == (1 << 20) - 8192

    def test_failed_alloc_counted_and_raises(self):
        blade = ArenaAllocator(0, 1024)
        with pytest.raises(MemoryError):
            blade.alloc(4096)
        assert blade.stats()["failed_allocs"] == 1

    def test_free_unknown_offset_rejected(self):
        blade = ArenaAllocator(0, 1 << 20)
        with pytest.raises(ValueError, match="double free"):
            blade.free(12345, 64)
        assert blade.stats()["frees"] == 0

    def test_publish_metrics(self):
        from repro.cluster import Cluster
        from repro.obs import Observability

        cluster = Cluster()
        node = cluster.add_node()
        node.storage.alloc_region("r", 64)
        obs = Observability()
        obs.collect_memory(cluster)
        snap = obs.metrics()
        prefix = f"memory.blade{node.node_id}"
        assert snap["counters"][f"{prefix}.allocs"] == {"value": 1.0, "unit": ""}
        assert snap["gauges"][f"{prefix}.capacity"] == {
            "value": float(node.storage.allocator.capacity), "unit": "B"}
        assert snap["gauges"][f"{prefix}.fragmentation"]["unit"] == ""
        assert snap["gauges"][f"{prefix}.live_allocations"]["unit"] == ""

    def test_free_reuse_is_deterministic_under_fixed_seed(self):
        # Identical seeded alloc/free sequences must produce identical
        # placements — the property that lets migration runs (which free
        # and re-carve whole regions) replay bit-identically.
        def trace(seed):
            rng = random.Random(seed)
            blade = ArenaAllocator(8, 1 << 20)
            live = {}
            events = []
            for step in range(400):
                if live and rng.random() < 0.4:
                    offset = rng.choice(sorted(live))
                    blade.free(offset, live.pop(offset))
                    events.append(("free", offset))
                else:
                    size = rng.choice((64, 100, 256, 4096, 8192))
                    offset = blade.alloc(size)
                    live[offset] = size
                    events.append(("alloc", size, offset))
            return events, blade.stats()

        assert trace(7) == trace(7)
        assert trace(7) != trace(8)


class ArenaMachine(RuleBasedStateMachine):
    """The arena against the obviously correct model: free space is the
    complement of the live allocations, and first fit is the lowest
    aligned address of the first gap that holds the request.  Checks
    placement, full coalescing and the occupancy counters after every
    step of random alloc / free / bad-free sequences."""

    BASE, END = 8, 8 + 4096

    def __init__(self):
        super().__init__()
        self.arena = ArenaAllocator(self.BASE, self.END)
        self.live = {}  # base -> size

    def gaps(self):
        gaps, cursor = [], self.BASE
        for base in sorted(self.live):
            if base > cursor:
                gaps.append((cursor, base))
            cursor = base + self.live[base]
        if cursor < self.END:
            gaps.append((cursor, self.END))
        return gaps

    @rule(size=st.integers(1, 1500), align=st.sampled_from((1, 8, 64, 256)))
    def alloc(self, size, align):
        fits = [aligned for start, end in self.gaps()
                for aligned in [(start + align - 1) & -align]
                if aligned + size <= end]
        if not fits:
            with pytest.raises(MemoryError):
                self.arena.alloc(size, align)
            return
        assert self.arena.alloc(size, align) == fits[0]
        self.live[fits[0]] = size

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def free(self, data):
        base = data.draw(st.sampled_from(sorted(self.live)))
        self.arena.free(base, self.live.pop(base))

    @precondition(lambda self: self.gaps())
    @rule(data=st.data())
    def free_of_free_space_raises(self, data):
        start, end = data.draw(st.sampled_from(self.gaps()))
        offset = data.draw(st.integers(start, end - 1))
        size = data.draw(st.integers(1, self.END - offset))
        with pytest.raises(ValueError, match="double free"):
            self.arena.free(offset, size)

    @invariant()
    def matches_the_model(self):
        gaps = self.gaps()
        assert self.arena.free_blocks == len(gaps)  # fully coalesced
        assert self.arena.free_bytes == sum(end - start for start, end in gaps)
        assert self.arena.largest_free_block == max(
            (end - start for start, end in gaps), default=0)
        assert self.arena.bytes_in_use == sum(self.live.values())
        assert self.arena.stats()["live_allocations"] == len(self.live)


TestArenaMachine = ArenaMachine.TestCase
TestArenaMachine.settings = settings(max_examples=60, stateful_step_count=40,
                                     deadline=None)
