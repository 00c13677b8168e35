"""Tests for OperationStats (latency list, retries, merging)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stats import OperationStats
from repro.obs import LogHistogram, Observability
from repro.sim.rng import percentile


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

    def test_negative_latency_rejected(self):
        stats = OperationStats()
        with pytest.raises(ValueError, match="negative latency"):
            stats.record_op(-1)
        assert stats.ops == 0 and stats.latencies_ns == []


class TestLatencySampling:
    def test_percentiles(self):
        stats = OperationStats()
        for latency in range(1, 101):
            stats.record_op(float(latency))
        assert stats.latency_percentile_ns(0.5) == 50.0
        assert stats.latency_percentile_ns(0.99) == 99.0
        assert OperationStats().latency_percentile_ns(0.5) is None

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
        # A new minimum must show up in the next query.
        stats.record_op(1.0)
        assert stats.latency_percentile_ns(0.0) == 1.0

    def test_merge_result_is_presorted(self):
        a, b = OperationStats(), OperationStats()
        for latency in (30.0, 10.0):
            a.record_op(latency)
        b.record_op(20.0)
        merged = OperationStats.merge([a, b])
        assert merged.latencies_ns == [10.0, 20.0, 30.0]
        assert merged.latency_percentile_ns(0.5) == 20.0


class TestLatencyHistogram:
    def test_merge_combines_histograms(self):
        a, b = OperationStats(), OperationStats()
        a.record_op(100.0)
        b.record_op(200.0)
        b.record_op(300.0)
        obs = Observability()
        obs.collect_stats(OperationStats.merge([a, b]))
        hist = obs.histograms["ops.latency_ns"]
        assert hist.count == 3
        assert hist.min == 100.0
        assert hist.max == 300.0

    def test_empty_stats_build_no_histogram(self):
        obs = Observability()
        obs.collect_stats(OperationStats())
        assert obs.histograms == {}
        assert obs.counters["ops.completed"] == (0.0, "")


@given(
    parts=st.lists(
        st.lists(st.floats(min_value=0, max_value=1e9), max_size=40),
        min_size=1, max_size=6,
    ),
    fraction=st.floats(min_value=0, max_value=1),
)
@settings(max_examples=60, deadline=None)
def test_merge_and_histogram_see_every_latency(parts, fraction):
    """However the latencies are split between threads, the merged
    percentile is the exact one over all of them, and the metrics
    histogram is a LogHistogram fed every latency."""
    stats = []
    for latencies in parts:
        part = OperationStats()
        for latency in latencies:
            part.record_op(latency)
        stats.append(part)
    merged = OperationStats.merge(stats)
    everything = sorted(latency for latencies in parts for latency in latencies)
    assert merged.latencies_ns == everything
    if not everything:
        assert merged.latency_percentile_ns(fraction) is None
        return
    assert merged.latency_percentile_ns(fraction) == percentile(everything, fraction)

    obs = Observability()
    obs.collect_stats(merged)
    fed = LogHistogram()
    for latency in everything:
        fed.record(latency)
    assert obs.histograms["ops.latency_ns"].to_dict() == fed.to_dict()


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

    def test_merged_stats_keep_sampling_correctly(self):
        """Recording into a merged result keeps every latency."""
        a, b = OperationStats(), OperationStats()
        a.record_op(10.0)
        b.record_op(20.0)
        merged = OperationStats.merge([a, b])
        merged.record_op(5.0)
        assert merged.latencies_ns == [10.0, 20.0, 5.0]
        assert merged.latency_percentile_ns(0.0) == 5.0
        assert merged.latency_percentile_ns(1.0) == 20.0
