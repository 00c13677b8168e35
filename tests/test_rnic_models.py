"""Tests for the RNIC cache/doorbell models and config."""

import dataclasses

import pytest

from repro.rnic.caches import MttCacheModel, WqeCacheModel
from repro.rnic.config import RnicConfig, connectx6
from repro.rnic.counters import PerfCounters
from repro.rnic.doorbell import LOW_LATENCY, MEDIUM_LATENCY, DoorbellAllocator
from repro.sim import Simulator


class TestConfig:
    def test_cx6_defaults_match_paper(self):
        config = connectx6()
        assert config.max_iops == 110e6
        assert config.low_latency_uars + config.medium_latency_uars == 16
        assert config.max_uars == 512
        assert config.pcie_bandwidth_gbps == 128.0

    def test_derived_rates(self):
        config = RnicConfig(max_iops=100e6)
        assert config.iops_service_ns == pytest.approx(10.0)
        assert config.network_bytes_per_ns == pytest.approx(25.0)

    def test_with_overrides_copies(self):
        config = connectx6()
        faster = config.with_overrides(max_iops=200e6)
        assert faster.max_iops == 200e6
        assert config.max_iops == 110e6

    def test_cycles_to_ns(self):
        config = RnicConfig(cpu_ghz=2.0)
        assert config.cycles_to_ns(4096) == pytest.approx(2048.0)

    def test_shared_config_cannot_be_mutated(self):
        # One instance is handed to every device, thread, doorbell and
        # cache model of a deployment.
        config = connectx6()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.max_iops = 1e6

    @pytest.mark.parametrize("field, value, rule", [
        # rates, bandwidths, the clock and capacities: > 0
        ("network_bandwidth_gbps", 0, "> 0"),
        ("max_iops", 0, "> 0"),
        ("responder_iops", -1.0, "> 0"),
        ("pcie_bandwidth_gbps", float("nan"), "> 0"),
        ("cpu_ghz", 0, "> 0"),
        ("wqe_cache_capacity", 0, "> 0"),
        ("blade_capacity_bytes", 0, "> 0"),
        ("wqe_miss_shape", 0.0, "> 0"),
        # every *_ns: >= 0
        ("cqe_poll_ns", -5, ">= 0"),
        ("doorbell_mmio_ns", -1.0, ">= 0"),
        ("retransmit_timeout_ns", -1.0, ">= 0"),
        # hit ratios: in [0, 1]
        ("mtt_shared_hit", 1.01, r"in \[0, 1\]"),
        ("mtt_hit_floor", -0.5, r"in \[0, 1\]"),
        # coefficients and retry budgets: >= 0
        ("wqe_share_factor", -1.0, ">= 0"),
        ("mtt_miss_penalty", -0.1, ">= 0"),
        ("transport_retry_limit", -1, ">= 0"),
        ("doorbell_bounce_cap", -1, ">= 0"),
        ("low_latency_uars", -1, ">= 0"),
        # counts the model needs one of
        ("medium_latency_uars", 0, ">= 1"),
        # the default context's doorbells must fit the device
        ("max_uars", 15, r">= low_latency_uars \+ medium_latency_uars \(16\)"),
    ])
    def test_a_value_the_model_cannot_price_is_rejected_by_name(self, field, value, rule):
        with pytest.raises(ValueError, match=rf"^RnicConfig\.{field} must be {rule}, got"):
            RnicConfig(**{field: value})
        with pytest.raises(ValueError, match=rf"RnicConfig\.{field} "):
            connectx6().with_overrides(**{field: value})

    def test_boundary_values_stay_legal(self):
        # a free doorbell, zero retries
        RnicConfig(doorbell_mmio_ns=0.0, doorbell_share_ns=0.0, wqe_under_lock_ns=0.0,
                   transport_retry_limit=0, reconnect_retry_limit=0,
                   low_latency_uars=0, max_uars=12)

    def test_overrides_never_see_a_stale_cached_rate(self):
        config = connectx6()
        before = config.iops_service_ns  # cached on `config` from here on
        faster = config.with_overrides(max_iops=2 * config.max_iops)
        assert faster.iops_service_ns == pytest.approx(before / 2)
        assert config.iops_service_ns == before

    def test_cached_rates_are_not_fields(self):
        config = connectx6()
        fields = set(dataclasses.asdict(config))
        for rate in ("iops_service_ns", "responder_service_ns",
                     "network_bytes_per_ns", "pcie_bytes_per_ns"):
            getattr(config, rate)
        assert set(dataclasses.asdict(config)) == fields
        assert "iops_service_ns" not in fields
        assert config == connectx6()  # equality is by field, cache or not


class TestWqeCache:
    def test_no_misses_below_capacity(self):
        model = WqeCacheModel(connectx6())
        assert model.miss_rate(0) == 0.0
        assert model.miss_rate(768) == 0.0
        assert model.service_multiplier(768) == 1.0
        assert model.dma_bytes_per_wr(768) == pytest.approx(93.0)

    def test_calibration_1152_owrs_small_loss(self):
        """36 threads x 32 OWRs should lose only ~5% throughput (§3.2)."""
        model = WqeCacheModel(connectx6())
        relative = 1.0 / model.service_multiplier(1152)
        assert 0.90 < relative < 0.98

    def test_calibration_3072_owrs_half_throughput(self):
        """96 threads x 32 OWRs run at ~49.5% of peak (§3.2)."""
        model = WqeCacheModel(connectx6())
        relative = 1.0 / model.service_multiplier(3072)
        assert 0.44 < relative < 0.56

    def test_calibration_dram_traffic(self):
        """93 -> ~180 bytes per WR from depth 8 to 32 at 96 threads (Fig 4b)."""
        model = WqeCacheModel(connectx6())
        assert model.dma_bytes_per_wr(768) == pytest.approx(93.0)
        assert 165.0 < model.dma_bytes_per_wr(3072) < 195.0

    def test_miss_rate_monotonic(self):
        model = WqeCacheModel(connectx6())
        rates = [model.miss_rate(n) for n in range(0, 10000, 500)]
        assert rates == sorted(rates)
        assert all(0.0 <= r <= 1.0 for r in rates)


class TestMttCache:
    def test_shared_context_at_baseline(self):
        model = MttCacheModel(connectx6())
        assert model.hit_ratio(1) == pytest.approx(0.95)
        assert model.service_multiplier(1) == pytest.approx(1.0)

    def test_many_contexts_hit_floor(self):
        model = MttCacheModel(connectx6())
        assert model.hit_ratio(96) == pytest.approx(0.70)
        assert model.service_multiplier(96) > 1.5

    def test_monotonic_in_contexts(self):
        model = MttCacheModel(connectx6())
        hits = [model.hit_ratio(n) for n in range(1, 40)]
        assert hits == sorted(hits, reverse=True)

    def test_rejects_zero_contexts(self):
        with pytest.raises(ValueError):
            MttCacheModel(connectx6()).hit_ratio(0)


class TestCacheModelMemoization:
    """The engine-facing ``lookup`` memo must be invisible in the values."""

    def test_wqe_lookup_matches_fresh_model(self):
        memoized = WqeCacheModel(connectx6())
        for outstanding in (0, 1, 768, 896, 897, 1152, 3072, 50_000):
            memoized.lookup(outstanding)  # populate
            fresh = WqeCacheModel(connectx6())
            assert memoized.lookup(outstanding) == (
                fresh.miss_rate(outstanding),
                fresh.service_multiplier(outstanding),
                fresh.dma_bytes_per_wr(outstanding),
            )

    def test_mtt_lookup_matches_fresh_model(self):
        memoized = MttCacheModel(connectx6())
        for contexts in (1, 2, 16, 96, 400):
            memoized.lookup(contexts)
            fresh = MttCacheModel(connectx6())
            assert memoized.lookup(contexts) == (
                fresh.hit_ratio(contexts),
                fresh.service_multiplier(contexts),
            )

    def test_lookup_is_cached(self):
        model = WqeCacheModel(connectx6())
        first = model.lookup(1152)
        assert model.lookup(1152) is first
        assert 1152 in model._memo

    def test_error_not_cached(self):
        model = MttCacheModel(connectx6())
        with pytest.raises(ValueError):
            model.lookup(0)
        assert 0 not in model._memo


class TestDoorbellAllocator:
    def _alloc(self, total=16):
        return DoorbellAllocator(Simulator(), connectx6(), total)

    def test_first_four_get_low_latency(self):
        alloc = self._alloc()
        for i in range(4):
            db = alloc.bind_next()
            assert db.kind == LOW_LATENCY
            assert db.index == i

    def test_later_qps_round_robin_over_medium(self):
        alloc = self._alloc()
        for _ in range(4):
            alloc.bind_next()
        indices = [alloc.bind_next().index for _ in range(24)]
        assert indices == [4 + (i % 12) for i in range(24)]

    def test_peek_matches_bind(self):
        alloc = self._alloc()
        for _ in range(20):
            peeked = alloc.peek_next()
            bound = alloc.bind_next()
            assert peeked is bound

    def test_96_threads_share_12_mediums(self):
        """The Fig-3 setup: 96 QPs on a default context -> ~8 threads/DB."""
        alloc = self._alloc()
        for _ in range(96):
            alloc.bind_next()
        mediums = [db for db in alloc.doorbells if db.kind == MEDIUM_LATENCY]
        assert all(db.bound_qps in (7, 8) for db in mediums)

    def test_skip_to_fresh_medium_gives_exclusive_dbs(self):
        alloc = DoorbellAllocator(Simulator(), connectx6(), 100)
        seen = set()
        for _ in range(90):
            db = alloc.skip_to_fresh_medium()
            alloc.bind_doorbell(db)
            assert db.index not in seen
            seen.add(db.index)

    def test_skip_falls_back_to_sharing_when_exhausted(self):
        alloc = self._alloc(16)
        for _ in range(12):
            alloc.bind_doorbell(alloc.skip_to_fresh_medium())
        db = alloc.skip_to_fresh_medium()
        assert db.bound_qps > 0  # reuse, per footnote 4

    def test_total_uuars_validation(self):
        with pytest.raises(ValueError):
            self._alloc(2)
        with pytest.raises(ValueError):
            self._alloc(1000)


class TestCounters:
    def test_snapshot_delta(self):
        counters = PerfCounters()
        counters.wqe_processed = 10
        counters.dram_bytes = 930.0
        snap = counters.snapshot()
        counters.wqe_processed = 25
        counters.dram_bytes = 2000.0
        delta = counters.delta(snap)
        assert delta.wqe_processed == 15
        assert delta.dram_bytes == pytest.approx(1070.0)

    def test_dram_bytes_per_wr(self):
        counters = PerfCounters(wqe_processed=10, dram_bytes=930.0)
        assert counters.dram_bytes_per_wr == pytest.approx(93.0)
        assert PerfCounters().dram_bytes_per_wr == 0.0

    def test_miss_rate(self):
        counters = PerfCounters(wqe_processed=100, wqe_cache_miss_wrs=25.0)
        assert counters.wqe_miss_rate == pytest.approx(0.25)
