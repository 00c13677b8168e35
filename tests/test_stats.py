"""Tests for OperationStats (latency sampling, retries, merging)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stats import OperationStats


class TestRecording:
    def test_basic_counts(self):
        stats = OperationStats()
        stats.record_op(1000, retries=2)
        stats.record_op(2000, retries=0, failed=True)
        assert stats.ops == 2
        assert stats.retries == 2
        assert stats.failed_ops == 1
        assert stats.avg_retries == 1.0

    def test_retry_histogram_caps_at_32(self):
        stats = OperationStats()
        stats.record_op(1, retries=100)
        assert stats.retry_histogram[32] == 1

    def test_retry_distribution_fractions(self):
        stats = OperationStats()
        for _ in range(3):
            stats.record_op(1, retries=0)
        stats.record_op(1, retries=2)
        dist = stats.retry_distribution()
        assert dist[0] == pytest.approx(0.75)
        assert dist[2] == pytest.approx(0.25)
        assert OperationStats().retry_distribution() == {}

    def test_reset(self):
        stats = OperationStats()
        stats.record_op(1, retries=1)
        stats.reset()
        assert stats.ops == 0 and stats.retries == 0
        assert stats.latencies_ns == []


class TestLatencySampling:
    def test_percentiles(self):
        stats = OperationStats()
        for latency in range(1, 101):
            stats.record_op(float(latency))
        assert stats.latency_percentile_ns(0.5) == 50.0
        assert stats.latency_percentile_ns(0.99) == 99.0
        assert OperationStats().latency_percentile_ns(0.5) is None

    def test_stride_doubles_when_full(self):
        stats = OperationStats()
        stats.MAX_LATENCY_SAMPLES = 100
        for latency in range(500):
            stats.record_op(float(latency))
        assert stats._sample_stride > 1
        assert len(stats.latencies_ns) < 200
        # Percentiles still roughly correct under downsampling.
        p50 = stats.latency_percentile_ns(0.5)
        assert 150 < p50 < 350

    @given(st.lists(st.floats(min_value=0, max_value=1e9), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_percentile_within_range(self, latencies):
        stats = OperationStats()
        for latency in latencies:
            stats.record_op(latency)
        p99 = stats.latency_percentile_ns(0.99)
        assert min(latencies) <= p99 <= max(latencies)


class TestSortCaching:
    def test_cache_invalidated_on_append(self):
        stats = OperationStats()
        for latency in (50.0, 10.0, 90.0):
            stats.record_op(latency)
        assert stats.latency_percentile_ns(0.5) == 50.0
        assert stats._sorted == [10.0, 50.0, 90.0]
        # A new minimum must show up in the next query.
        stats.record_op(1.0)
        assert stats._sorted is None
        assert stats.latency_percentile_ns(0.0) == 1.0

    def test_repeated_queries_reuse_cache(self):
        stats = OperationStats()
        for latency in range(100, 0, -1):
            stats.record_op(float(latency))
        first = stats.latency_percentile_ns(0.5)
        cached = stats._sorted
        assert stats.latency_percentile_ns(0.5) == first
        assert stats._sorted is cached

    def test_merge_result_is_presorted(self):
        a, b = OperationStats(), OperationStats()
        for latency in (30.0, 10.0):
            a.record_op(latency)
        b.record_op(20.0)
        merged = OperationStats.merge([a, b])
        assert merged.latencies_ns == [10.0, 20.0, 30.0]
        assert merged._sorted == [10.0, 20.0, 30.0]
        assert merged.latency_percentile_ns(0.5) == 20.0


class TestLatencyHistogram:
    def test_tracks_every_op_despite_sampling(self):
        stats = OperationStats()
        stats.MAX_LATENCY_SAMPLES = 100
        for latency in range(1, 501):
            stats.record_op(float(latency))
        # The reservoir downsampled, the histogram did not.
        assert len(stats.latencies_ns) < 500
        assert stats.latency_hist.count == 500
        assert stats.latency_hist.percentile(0.5) == pytest.approx(250, rel=0.05)

    def test_merge_combines_histograms(self):
        a, b = OperationStats(), OperationStats()
        a.record_op(100.0)
        b.record_op(200.0)
        b.record_op(300.0)
        merged = OperationStats.merge([a, b])
        assert merged.latency_hist.count == 3
        assert merged.latency_hist.min == 100.0
        assert merged.latency_hist.max == 300.0


class TestMerge:
    def test_merge_sums_everything(self):
        a, b = OperationStats(), OperationStats()
        a.record_op(10, retries=1)
        b.record_op(20, retries=2, failed=True)
        b.record_op(30)
        merged = OperationStats.merge([a, b])
        assert merged.ops == 3
        assert merged.retries == 3
        assert merged.failed_ops == 1
        assert merged.latencies_ns == [10, 20, 30]
        assert merged.retry_histogram[0] == 1

    def test_merge_empty_list(self):
        merged = OperationStats.merge([])
        assert merged.ops == 0

    def test_merge_weights_samples_by_stride(self):
        """Regression: merging threads with different sample strides.

        Thread A keeps every sample (stride 1); thread B downsampled
        (stride > 1), so each of B's retained samples stands for several
        ops.  The old merge concatenated the reservoirs unweighted, so
        A's ops were over-represented: here A contributes 300 of 800
        ops but ~80% of the raw samples, dragging the unweighted median
        to A's value (10) even though most ops took B's value (1000).
        """
        a = OperationStats()
        for _ in range(300):
            a.record_op(10.0)
        b = OperationStats()
        b.MAX_LATENCY_SAMPLES = 100
        for _ in range(500):
            b.record_op(1000.0)
        assert a._sample_stride == 1
        assert b._sample_stride > 1
        # The biased estimate the old code produced:
        raw = sorted(a.latencies_ns + b.latencies_ns)
        assert raw[int(0.5 * len(raw))] == 10.0
        merged = OperationStats.merge([a, b])
        # 500 of 800 ops took 1000 ns; the stride-weighted median says so.
        assert merged.latency_percentile_ns(0.5) == 1000.0
        assert merged._sample_stride == b._sample_stride
        assert len(merged._sample_weights) == len(merged.latencies_ns)

    def test_merged_stats_keep_sampling_correctly(self):
        """Appending to a merged result keeps weights aligned."""
        a, b = OperationStats(), OperationStats()
        a.record_op(10.0)
        b.record_op(20.0)
        merged = OperationStats.merge([a, b])
        merged.record_op(30.0)
        assert len(merged._sample_weights) == len(merged.latencies_ns)
        assert merged.latency_percentile_ns(1.0) == 30.0
