"""Tests for the blade arena allocator (repro.memory.allocator)."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.memory.allocator import ArenaAllocator


class TestArena:
    def test_first_fit_is_sequential_like_a_bump_pointer(self):
        # Placements must match the historical bump pointer exactly —
        # the golden-layout compatibility guarantee.
        arena = ArenaAllocator(8, 1 << 20)
        offsets = [arena.alloc(100, align=64) for _ in range(4)]
        expected = []
        cursor = 8
        for _ in range(4):
            aligned = (cursor + 63) & ~63
            expected.append(aligned)
            cursor = aligned + 100
        assert offsets == expected

    def test_oom_reports_true_free_space(self):
        arena = ArenaAllocator(0, 1024)
        arena.alloc(1000)
        with pytest.raises(MemoryError) as exc:
            arena.alloc(512)
        assert "24 free" in str(exc.value)

    def test_rejects_bad_arguments(self):
        arena = ArenaAllocator(0, 4096)
        with pytest.raises(ValueError):
            arena.alloc(0)
        with pytest.raises(ValueError):
            arena.alloc(8, align=3)


class TestBladeAllocator:
    """The statistics side of the arena a MemoryBlade owns."""

    def test_stats_track_allocs_and_live_bytes(self):
        blade = ArenaAllocator(0, 1 << 20)
        blade.alloc(100)
        assert blade.alloc(8192, align=64) == 128  # a 28-byte gap before it
        stats = blade.stats()
        assert stats["allocs"] == 2
        assert stats["bytes_in_use"] == 100 + 8192
        assert stats["free_bytes"] == (1 << 20) - stats["bytes_in_use"]
        assert set(stats) == {"capacity", "bytes_in_use", "free_bytes",
                              "allocs", "failed_allocs"}

    def test_failed_alloc_counted_and_raises(self):
        blade = ArenaAllocator(0, 1024)
        with pytest.raises(MemoryError):
            blade.alloc(4096)
        assert blade.stats()["failed_allocs"] == 1


class ArenaMachine(RuleBasedStateMachine):
    """The arena against the obviously correct model: each allocation
    lands at the lowest aligned address past every earlier one, and
    fails exactly when that address leaves no room.  Checks placement,
    no overlap and the occupancy counters after every step of random
    alloc sequences."""

    BASE, END = 8, 8 + 4096

    def __init__(self):
        super().__init__()
        self.arena = ArenaAllocator(self.BASE, self.END)
        self.live = {}  # base -> size
        self.head = self.BASE

    @rule(size=st.integers(1, 1500), align=st.sampled_from((1, 8, 64, 256)))
    def alloc(self, size, align):
        aligned = (self.head + align - 1) & -align
        if aligned + size > self.END:
            with pytest.raises(MemoryError):
                self.arena.alloc(size, align)
            return
        assert self.arena.alloc(size, align) == aligned
        self.live[aligned] = size
        self.head = aligned + size

    @invariant()
    def matches_the_model(self):
        bases = sorted(self.live)
        for first, second in zip(bases, bases[1:]):
            assert first + self.live[first] <= second
        assert self.arena.bytes_in_use == sum(self.live.values())
        assert self.arena.free_bytes == self.arena.capacity - self.arena.bytes_in_use
        assert self.arena.stats()["allocs"] == len(self.live)


TestArenaMachine = ArenaMachine.TestCase
TestArenaMachine.settings = settings(max_examples=60, stateful_step_count=40,
                                     deadline=None)
