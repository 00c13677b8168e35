"""Tests for the memory-blade substrate."""

import mmap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.memory import MemoryBlade, blade_of, make_addr, offset_of
from repro.memory.address import MAX_BLADE_ID, NULL_ADDR, OFFSET_MASK
from repro.rnic.config import RnicConfig


class TestAddress:
    def test_roundtrip(self):
        addr = make_addr(3, 0x1234)
        assert blade_of(addr) == 3
        assert offset_of(addr) == 0x1234

    def test_never_null(self):
        assert make_addr(0, 0) != NULL_ADDR

    def test_roundtrip_at_both_bounds(self):
        # The docstring promises 16 bits of blade id; the +1 null bias
        # costs one value, so the extremes are 0 and 2**16 - 2.
        assert MAX_BLADE_ID == (1 << 16) - 2
        for blade in (0, MAX_BLADE_ID):
            for offset in (0, OFFSET_MASK):
                addr = make_addr(blade, offset)
                assert blade_of(addr) == blade
                assert offset_of(addr) == offset
                assert addr != NULL_ADDR
        # The top encoding still fits 64 bits.
        assert make_addr(MAX_BLADE_ID, OFFSET_MASK) < (1 << 64)

    @given(st.integers(0, 2**16 - 2), st.integers(0, 2**48 - 1))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, blade, offset):
        addr = make_addr(blade, offset)
        assert blade_of(addr) == blade
        assert offset_of(addr) == offset
        assert addr != NULL_ADDR

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            make_addr(-1, 0)
        with pytest.raises(ValueError):
            make_addr(MAX_BLADE_ID + 1, 0)
        with pytest.raises(ValueError):
            make_addr(0, 1 << 48)
        with pytest.raises(ValueError):
            blade_of(NULL_ADDR)
        with pytest.raises(ValueError):
            offset_of(NULL_ADDR)


class TestRegions:
    def test_alloc_region_cacheline_aligned(self):
        blade = MemoryBlade(0, capacity=1 << 20)
        region = blade.alloc_region("a", 100)
        assert region.base % 64 == 0
        assert region.size == 100

    def test_regions_do_not_overlap(self):
        blade = MemoryBlade(0, capacity=1 << 20)
        a = blade.alloc_region("a", 1000)
        b = blade.alloc_region("b", 1000)
        assert a.end <= b.base

    def test_duplicate_name_rejected(self):
        blade = MemoryBlade(0, capacity=1 << 20)
        blade.alloc_region("a", 10)
        with pytest.raises(ValueError):
            blade.alloc_region("a", 10)

    def test_out_of_memory(self):
        blade = MemoryBlade(0, capacity=1024)
        with pytest.raises(MemoryError):
            blade.alloc_region("big", 4096)

    def test_oom_message_reports_true_free_space(self):
        # Regression: the bump-pointer arena reported capacity - aligned,
        # which went negative once the aligned base passed capacity.
        blade = MemoryBlade(0, capacity=1024)
        blade.alloc_region("fill", 1024 - 64)  # ends exactly at capacity
        with pytest.raises(MemoryError) as exc:
            blade.alloc_region("more", 128)
        message = str(exc.value)
        assert "-" not in message.split("blade 0:")[1]
        assert f"{blade.allocator.free_bytes} free" in message

    def test_allocation_landing_exactly_at_capacity(self):
        blade = MemoryBlade(0, capacity=1024)
        region = blade.alloc_region("exact", 1024 - 64)
        assert region.base == 64
        assert region.end == 1024
        blade.write(region.end - 8, b"12345678")  # last byte usable
        with pytest.raises(MemoryError):
            blade.alloc_region("one_more", 1)

    def test_persistence_flag(self):
        blade = MemoryBlade(0, capacity=1 << 20)
        dram = blade.alloc_region("dram", 128)
        nvm = blade.alloc_region("nvm", 128, persistent=True)
        assert not blade.is_persistent(dram.base)
        assert blade.is_persistent(nvm.base)
        assert blade.is_persistent(nvm.end - 1)

    def test_region_contains(self):
        blade = MemoryBlade(0, capacity=1 << 20)
        region = blade.alloc_region("r", 64)
        assert region.contains(region.base, 64)
        assert not region.contains(region.base, 65)
        assert not region.contains(region.base - 1)

    def test_zero_size_not_contained_at_region_end(self):
        # Regression: contains(end, 0) used to pass (base <= end and
        # end + 0 <= end), letting zero-byte "accesses" through at the
        # one-past-end address.
        blade = MemoryBlade(0, capacity=1 << 20)
        region = blade.alloc_region("r", 64)
        assert not region.contains(region.end, 0)
        assert not region.contains(region.base, 0)
        assert not region.contains(region.base, -8)
        assert blade.find_region(region.end, 0) is None
        assert blade.find_region(region.base, 64) is region

    @given(st.lists(
        st.one_of(
            st.tuples(st.just("alloc"), st.integers(1, 700), st.booleans()),
            st.tuples(st.just("power_fail"), st.just(0), st.just(False)),
        ),
        min_size=1, max_size=40,
    ), st.data())
    @settings(max_examples=60, deadline=None)
    def test_sorted_lookup_matches_the_linear_scan(self, steps, data):
        """``find_region`` / ``is_persistent`` (sorted bases + bisect)
        against the scan over every region they replace, after any mix of
        allocations and a power failure; queries sit on and around
        every region boundary, with zero, partial-overlap and
        span-two-regions sizes."""
        blade = MemoryBlade(0, capacity=8192)
        for step, (op, arg, persistent) in enumerate(steps):
            if op == "alloc":
                try:
                    blade.alloc_region(f"r{step}", arg, persistent=persistent)
                except MemoryError:
                    pass
            elif op == "power_fail":
                blade.power_fail()
            regions = blade.regions()
            edges = sorted(
                {0, blade.capacity} | {e for r in regions for e in (r.base, r.end)}
            )
            offset = data.draw(st.sampled_from(edges)) + data.draw(st.integers(-2, 2))
            for size in (0, 1, 8, 64, 65, 900):
                found = next((r for r in regions if r.contains(offset, size)), None)
                assert blade.find_region(offset, size) is found
                assert blade.is_persistent(offset, size) == any(
                    r.persistent and r.base < offset + size and offset < r.end
                    for r in regions
                )

    def test_data_ops_reject_non_positive_size(self):
        blade = MemoryBlade(0, capacity=1024)
        with pytest.raises(IndexError):
            blade.read(0, 0)
        with pytest.raises(IndexError):
            blade.read(64, -8)
        with pytest.raises(IndexError):
            blade.write(64, b"")


class TestDataOps:
    def test_read_write_roundtrip(self):
        blade = MemoryBlade(0)
        blade.write(100, b"hello")
        assert blade.read(100, 5) == b"hello"

    def test_u64_roundtrip(self):
        blade = MemoryBlade(0)
        blade.write_u64(64, 0xDEADBEEF)
        assert blade.read_u64(64) == 0xDEADBEEF

    def test_cas_success_and_failure(self):
        blade = MemoryBlade(0)
        blade.write_u64(8, 5)
        assert blade.compare_and_swap(8, 5, 9) == 5
        assert blade.read_u64(8) == 9
        assert blade.compare_and_swap(8, 5, 11) == 9  # fails, returns old
        assert blade.read_u64(8) == 9
        assert blade.failed_cas == 1

    def test_faa(self):
        blade = MemoryBlade(0)
        blade.write_u64(8, 10)
        assert blade.fetch_and_add(8, 7) == 10
        assert blade.read_u64(8) == 17

    def test_faa_wraps_at_64_bits(self):
        blade = MemoryBlade(0)
        blade.write_u64(8, (1 << 64) - 1)
        assert blade.fetch_and_add(8, 2) == (1 << 64) - 1
        assert blade.read_u64(8) == 1

    def test_faa_negative_delta_wraps(self):
        blade = MemoryBlade(0)
        blade.write_u64(8, 1)
        assert blade.fetch_and_add(8, -3) == 1
        assert blade.read_u64(8) == (1 << 64) - 2

    def test_cas_masks_desired_to_64_bits(self):
        blade = MemoryBlade(0)
        blade.write_u64(8, 5)
        # A desired value past 2**64 must be stored masked, not raise.
        assert blade.compare_and_swap(8, 5, (1 << 64) + 7) == 5
        assert blade.read_u64(8) == 7

    def test_power_fail_with_adjacent_persistent_regions(self):
        # Two NVM regions that sit back-to-back (after 64 B alignment
        # they are contiguous): the zeroing sweep must not wipe the
        # second region or the gap logic between them.
        blade = MemoryBlade(0, capacity=4096)
        first = blade.alloc_region("nvm1", 64, persistent=True)
        second = blade.alloc_region("nvm2", 64, persistent=True)
        assert first.end == second.base  # genuinely adjacent
        tail = blade.alloc_region("dram", 64)
        blade.write(first.base, b"\x11" * 64)
        blade.write(second.base, b"\x22" * 64)
        blade.write(tail.base, b"\x33" * 64)
        blade.power_fail()
        assert blade.read(first.base, 64) == b"\x11" * 64
        assert blade.read(second.base, 64) == b"\x22" * 64
        assert blade.read(tail.base, 64) == bytes(64)
        assert blade.power_failures == 1

    def test_read_is_an_immutable_snapshot(self):
        blade = MemoryBlade(0)
        blade.write(100, b"hello")
        data = blade.read(100, 5)
        assert type(data) is bytes
        blade.write(100, b"HELLO")
        assert data == b"hello"

    def test_bounds_checked(self):
        blade = MemoryBlade(0, capacity=128)
        with pytest.raises(IndexError):
            blade.read(120, 16)
        with pytest.raises(IndexError):
            blade.write(-1, b"x")

    def test_bulk_write_skips_stats(self):
        blade = MemoryBlade(0)
        blade.bulk_write(0, b"setup")
        assert blade.writes == 0
        assert blade.read(0, 5) == b"setup"

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
    @settings(max_examples=100, deadline=None)
    def test_cas_atomicity_property(self, initial, expected, desired):
        blade = MemoryBlade(0)
        blade.write_u64(0, initial)
        old = blade.compare_and_swap(0, expected, desired)
        assert old == initial
        if initial == expected:
            assert blade.read_u64(0) == desired % (1 << 64)
        else:
            assert blade.read_u64(0) == initial


def _minor_faults():
    resource = pytest.importorskip("resource")
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class TestCapacityIsReservedNotTouched:
    """A blade costs what is written to it, not what it declares: the
    default 64 MiB must not be zeroed (or re-zeroed) page by page."""

    BLADE_PAGES = RnicConfig().blade_capacity_bytes // mmap.PAGESIZE

    def test_building_a_cluster_does_not_fault_in_the_blades(self):
        before = _minor_faults()
        nodes = Cluster().add_nodes(3)
        faults = _minor_faults() - before
        assert len(nodes) == 3
        assert faults < 3 * self.BLADE_PAGES // 8

    def test_power_fail_costs_what_survives(self):
        blade = MemoryBlade(0)
        nvm = blade.alloc_region("nvm", 4096, persistent=True)
        dram = blade.alloc_region("dram", 4096)
        blade.write(nvm.base, b"\x11" * 4096)
        blade.write(dram.base, b"\x22" * 4096)
        before = _minor_faults()
        blade.power_fail()
        faults = _minor_faults() - before
        assert blade.read(nvm.base, 4096) == b"\x11" * 4096
        assert blade.read(dram.base, 4096) == bytes(4096)
        assert faults < self.BLADE_PAGES // 8
