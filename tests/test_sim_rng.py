"""Tests for distribution generators (repro.sim.rng)."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import (
    ScrambledZipfianGenerator,
    UniformGenerator,
    ZipfianGenerator,
    fnv1a_64,
    percentile,
    truncated_exponential_backoff_ns,
)


def test_uniform_bounds_and_coverage():
    gen = UniformGenerator(10, seed=1)
    samples = [gen.next() for _ in range(2000)]
    assert min(samples) == 0
    assert max(samples) == 9
    counts = Counter(samples)
    assert all(100 < counts[k] < 320 for k in range(10))


def test_zipfian_theta_zero_is_uniform():
    gen = ZipfianGenerator(100, theta=0.0, seed=2)
    samples = [gen.next() for _ in range(5000)]
    counts = Counter(samples)
    assert counts[0] < 120  # ~50 expected, far from zipfian's dominance


def test_zipfian_head_dominates_at_high_theta():
    gen = ZipfianGenerator(100_000, theta=0.99, seed=3)
    samples = [gen.next() for _ in range(20_000)]
    counts = Counter(samples)
    head = sum(counts[k] for k in range(10))
    # With theta=0.99 over 1e5 items the top-10 ranks carry ~24% of draws
    # (zeta(10)/zeta(1e5) ~= 0.23); far above the uniform 1e-4.
    assert head / len(samples) > 0.15
    assert counts.most_common(1)[0][0] == 0


def test_zipfian_more_theta_more_skew():
    def top1_share(theta):
        gen = ZipfianGenerator(10_000, theta=theta, seed=4)
        samples = [gen.next() for _ in range(10_000)]
        return Counter(samples)[0] / len(samples)

    assert top1_share(0.5) < top1_share(0.9) < top1_share(0.99)


@given(st.integers(min_value=1, max_value=5000), st.floats(min_value=0.0, max_value=0.99))
@settings(max_examples=50, deadline=None)
def test_zipfian_always_in_range(item_count, theta):
    gen = ZipfianGenerator(item_count, theta=theta, seed=5)
    for _ in range(50):
        value = gen.next()
        assert 0 <= value < item_count


def test_zipfian_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ZipfianGenerator(0)
    with pytest.raises(ValueError):
        ZipfianGenerator(10, theta=1.0)
    with pytest.raises(ValueError):
        UniformGenerator(0)


def test_zipfian_determinism():
    a = ZipfianGenerator(1000, theta=0.99, seed=42)
    b = ZipfianGenerator(1000, theta=0.99, seed=42)
    assert [a.next() for _ in range(100)] == [b.next() for _ in range(100)]


def test_zipfian_zeta_is_summed_once_per_item_count_and_theta():
    # Every client coroutine of a point builds a generator over the same
    # key space: the O(n) zeta sum must not be repeated per client.
    ZipfianGenerator(12_345, theta=0.5, seed=1)
    misses = ZipfianGenerator._zeta.cache_info().misses
    again = ZipfianGenerator(12_345, theta=0.5, seed=2)
    assert ZipfianGenerator._zeta.cache_info().misses == misses
    assert again._zeta_n == sum(1.0 / (i ** 0.5) for i in range(1, 12_346))


def test_scrambled_zipfian_spreads_hot_keys():
    gen = ScrambledZipfianGenerator(100_000, theta=0.99, seed=6)
    samples = [gen.next() for _ in range(20_000)]
    assert all(0 <= s < 100_000 for s in samples)
    counts = Counter(samples)
    hottest, hits = counts.most_common(1)[0]
    # Still skewed (one key dominates) but not key 0.
    assert hits > 1000
    assert hottest == fnv1a_64(0) % 100_000


def test_fnv1a_known_properties():
    assert fnv1a_64(0) != fnv1a_64(1)
    assert 0 <= fnv1a_64(123456789) < (1 << 64)
    assert fnv1a_64(7) == fnv1a_64(7)


def _fnv1a_64_by_shifts(value):
    """The original loop: shift out and mask eight octets."""
    hashed = 0xCBF29CE484222325
    for _ in range(8):
        octet = value & 0xFF
        value >>= 8
        hashed ^= octet
        hashed = (hashed * 0x100000001B3) & ((1 << 64) - 1)
    return hashed


@given(st.integers(min_value=-(1 << 70), max_value=(1 << 70) - 1))
@settings(max_examples=500, deadline=None)
def test_fnv1a_matches_the_shift_and_mask_loop(value):
    # negatives and values past 64 bits included: both hash the low
    # 64 bits of the two's-complement value
    assert fnv1a_64(value) == _fnv1a_64_by_shifts(value)


@given(st.integers(min_value=0, max_value=40))
@settings(max_examples=50, deadline=None)
def test_backoff_within_bounds(attempt):
    rng = random.Random(7)
    unit, cap = 4096.0, 4096.0 * 1024
    value = truncated_exponential_backoff_ns(attempt, unit, cap, rng)
    assert unit * min(2.0 ** attempt, 1024) <= value <= cap + unit


def test_backoff_doubles_then_truncates():
    rng = random.Random(0)
    values = [
        truncated_exponential_backoff_ns(i, 100.0, 1600.0, rng) for i in range(8)
    ]
    # Deterministic part doubles 100,200,400,800,1600,1600,...
    base = [min(100.0 * 2 ** i, 1600.0) for i in range(8)]
    for value, expected in zip(values, base):
        assert expected <= value <= expected + 100.0


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.50) == 50
    assert percentile(values, 0.99) == 99
    assert percentile(values, 1.0) == 100
    assert percentile(values, 0.0) == 1
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1], 1.5)
