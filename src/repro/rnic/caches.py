"""On-chip cache models: WQE cache and MTT/MPT translation cache.

Vendors keep the actual sizes and replacement policies confidential
(§3.2), so both models are behavioural fits to the paper's measurements
rather than structural SRAM simulations:

* WQE cache — per-WR miss probability is a convex function of the number
  of outstanding work requests (OWRs) on the device.  Below capacity the
  working set fits and misses are negligible; above it, misses climb
  toward 1 with shape exponent ``wqe_miss_shape``.
* MTT/MPT cache — hit ratio depends on the number of device contexts
  (each context registers its own MRs); one shared context hits >95%,
  many contexts decay toward 70% (§2.2).

Both models are pure functions of an integer operating point (the
outstanding-WR count / the context count), which the requester engine
re-evaluates on every submitted batch.  The evaluations are therefore
memoized per operating point: the memo can never change a result, it
only skips recomputing the same ``pow()``-based curve millions of times
per run (see docs/MODEL.md, "Performance of the simulator itself").
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.rnic.config import RnicConfig


class WqeCacheModel:
    """Miss-rate and cost model for the WQE cache."""

    def __init__(self, config: RnicConfig):
        self._config = config
        self._memo: Dict[int, Tuple[float, float, float]] = {}

    def lookup(self, outstanding: int) -> Tuple[float, float, float]:
        """Memoized ``(miss_rate, service_multiplier, dma_bytes_per_wr)``.

        The three curves share the same overflow fraction, so the hot
        path computes it once per distinct OWR count and derives all
        three values from it.
        """
        cached = self._memo.get(outstanding)
        if cached is None:
            cached = self._evaluate(outstanding)
            self._memo[outstanding] = cached
        return cached

    def _evaluate(self, outstanding: int) -> Tuple[float, float, float]:
        config = self._config
        capacity = config.wqe_cache_capacity
        base = config.wr_base_dma_bytes
        if outstanding <= capacity or outstanding <= 0:
            return (0.0, 1.0, base)
        overflow = 1.0 - capacity / outstanding
        miss = overflow ** config.wqe_miss_shape
        multiplier = 1.0 + config.wqe_miss_penalty * miss
        dma = base + config.wqe_miss_dma_bytes * overflow
        return (miss, multiplier, dma)

    def miss_rate(self, outstanding: int) -> float:
        """Per-WR probability of a WQE fetch missing to host DRAM."""
        return self.lookup(outstanding)[0]

    def service_multiplier(self, outstanding: int) -> float:
        """Inflation of per-WQE processing time due to PCIe DMA re-reads."""
        return self.lookup(outstanding)[1]

    def dma_bytes_per_wr(self, outstanding: int) -> float:
        """Host DRAM traffic per WR (the Fig-4b metric).

        Traffic grows with the *linear* overflow fraction: every WR whose
        WQE was evicted is re-fetched over PCIe exactly once.
        """
        return self.lookup(outstanding)[2]


class MttCacheModel:
    """Hit-ratio model for the MTT/MPT translation cache."""

    def __init__(self, config: RnicConfig):
        self._config = config
        self._memo: Dict[int, Tuple[float, float]] = {}

    def lookup(self, context_count: int) -> Tuple[float, float]:
        """Memoized ``(hit_ratio, service_multiplier)`` for one context count."""
        cached = self._memo.get(context_count)
        if cached is None:
            cached = self._evaluate(context_count)
            self._memo[context_count] = cached
        return cached

    def _evaluate(self, context_count: int) -> Tuple[float, float]:
        if context_count <= 0:
            raise ValueError("context_count must be >= 1")
        config = self._config
        decayed = config.mtt_shared_hit - config.mtt_hit_decay_per_context * (
            context_count - 1
        )
        hit = max(config.mtt_hit_floor, decayed)
        # The baseline (one context, 95% hit) is folded into ``max_iops``,
        # so only the *excess* miss rate costs extra.
        baseline_miss = 1.0 - config.mtt_shared_hit
        excess = max(0.0, (1.0 - hit) - baseline_miss)
        multiplier = 1.0 + config.mtt_miss_penalty * excess
        return (hit, multiplier)

    def hit_ratio(self, context_count: int) -> float:
        return self.lookup(context_count)[0]

    def service_multiplier(self, context_count: int) -> float:
        """Inflation relative to the shared-context baseline."""
        return self.lookup(context_count)[1]
