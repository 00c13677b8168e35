"""On-demand paging (ODP): the responder-side page-fault model.

The paper's testbed pins every MR, so a responder never stalls on the
host MMU.  NP-RDMA ("Using Commodity RDMA without Pinning Memory",
PAPERS.md) shows the pinning requirement can be dropped if the fault
path is modeled honestly: a one-sided access touching a non-resident
page of an ODP MR triggers an MMU-notifier round trip through the host
(tens of microseconds) before the data moves, and host-side events —
page reclaim, link resets, memory-pressure invalidations — shoot the
NIC's cached translations down again.

The model here is deliberately small:

* A page (4 KiB) of an ODP-capable region is either *resident* (its
  translation is in the NIC, access is free) or not (first touch and
  every touch after an invalidation pay ``odp_fault_ns`` + seeded
  jitter).
* Residency is an LRU set capped at ``odp_resident_pages``; capacity
  evictions make cold pages fault again, which is what makes
  ``pinned_ratio`` sweeps degrade smoothly instead of paying a one-time
  warmup cost.
* Which pages are ODP-capable is decided *statically*: an explicit
  ``Region.pinned=False`` makes every page faultable; ``pinned=None``
  regions defer to ``RnicConfig.pinned_ratio`` via a pure hash of
  (page, seed) — stable across runs and independent of access order, so
  fixed-seed runs replay bit-identically.
* Faulted translations are MTT misses by definition (the NIC had no
  valid translation), so each fault also bumps the device's MTT
  counters.

``RnicDevice.odp`` stays ``None`` until the first access that could
fault (``pinned_ratio < 1.0`` or an unpinned region exists), which keeps
the default pinned configuration byte-identical: the fault-free fast
path performs one ``is None`` check and never consults the ODP RNG.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.memory.address import offset_of

#: host page size; ODP faults and invalidations are per-page
ODP_PAGE_BYTES = 4096

_MASK64 = (1 << 64) - 1


def page_pinned_draw(page: int, seed: int) -> float:
    """Deterministic per-page uniform in [0, 1) — splitmix64 finalizer.

    Pure function of (page, seed): the pinned/ODP decision for a
    ``pinned=None`` region must not depend on the order pages are first
    touched, or replay under a different access schedule would flip it.
    """
    x = (page * 0x9E3779B97F4A7C15 + seed * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x / 2.0 ** 64


class OdpState:
    """Per-device resident-set tracker for on-demand-paged MRs."""

    def __init__(self, device):
        self.device = device
        config = device.config
        self.page_bytes = ODP_PAGE_BYTES
        self.capacity = max(1, int(config.odp_resident_pages))
        self.rng = random.Random(config.odp_seed)
        #: LRU of resident (faultable) pages: dict insertion order, page
        #: index -> True; re-touch moves the page to the MRU end
        self.resident: Dict[int, bool] = {}
        #: memo of the static per-page pinned decision (hash evaluations
        #: are pure, this only skips recomputing them per touch)
        self._pinned_memo: Dict[int, bool] = {}

    # -- classification ------------------------------------------------------

    def _page_is_odp(self, page: int, region) -> bool:
        """Whether this page can fault (i.e. is not pinned)."""
        if region is not None and region.pinned is not None:
            return not region.pinned
        ratio = self.device.config.pinned_ratio
        if ratio >= 1.0:
            return False
        if ratio <= 0.0:
            return True
        cached = self._pinned_memo.get(page)
        if cached is None:
            cached = page_pinned_draw(page, self.device.config.odp_seed) >= ratio
            self._pinned_memo[page] = cached
        return cached

    # -- the fault path ------------------------------------------------------

    def charge(self, batch, now: float) -> float:
        """Total fault latency for one batch's accesses (0.0 if all pages
        are resident or pinned); called by the responder before it
        schedules execution."""
        device = self.device
        storage = device.storage
        config = device.config
        resident = self.resident
        page_bytes = self.page_bytes
        penalty = 0.0
        for wr in batch.wrs:
            offset = offset_of(wr.remote_addr)
            first = offset // page_bytes
            last = (offset + wr.size - 1) // page_bytes
            region = storage.find_region(offset, wr.size)
            for page in range(first, last + 1):
                if not self._page_is_odp(page, region):
                    continue
                if page in resident:
                    # LRU touch: re-insert at the MRU end
                    del resident[page]
                    resident[page] = True
                    continue
                fault_ns = config.odp_fault_ns
                if config.odp_fault_jitter_ns > 0.0:
                    fault_ns += self.rng.random() * config.odp_fault_jitter_ns
                penalty += fault_ns
                counters = device.counters
                counters.odp_faults += 1
                counters.odp_fault_ns += fault_ns
                # a faulted translation is an MTT miss by definition
                counters.mtt_lookups += 1
                counters.mtt_miss_wrs += 1
                resident[page] = True
                while len(resident) > self.capacity:
                    del resident[next(iter(resident))]
                if device.sim.recorder is not None:
                    device.sim.recorder.instant(
                        device.name, "odp", "odp_fault", now,
                        {"page": page, "fault_ns": fault_ns},
                    )
        return penalty

    # -- invalidation --------------------------------------------------------

    def invalidate_all(self, now: float) -> int:
        """Shoot down every resident translation (MMU-notifier storm:
        link reset, reclaim, registration churn).  Every page faults
        again on next touch.  Returns the number of pages invalidated."""
        device = self.device
        pages = list(self.resident)
        if not pages:
            return 0
        self.resident.clear()
        device.counters.odp_invalidations += len(pages)
        if device.sim.recorder is not None:
            device.sim.recorder.instant(
                device.name, "odp", "odp_invalidation", now,
                {"pages": len(pages)},
            )
        if device.observers:
            ranges = self._coalesce(pages)
            for observer in device.observers:
                observer.on_odp_invalidate(device.storage.blade_id, ranges, now)
        return len(pages)

    def _coalesce(self, pages: List[int]) -> List[Tuple[int, int]]:
        """Sorted page list -> byte ranges, merging adjacent pages."""
        pages = sorted(pages)
        ranges: List[Tuple[int, int]] = []
        span_first = span_last = pages[0]
        for page in pages[1:]:
            if page == span_last + 1:
                span_last = page
                continue
            ranges.append((span_first * self.page_bytes,
                           (span_last + 1) * self.page_bytes))
            span_first = span_last = page
        ranges.append((span_first * self.page_bytes,
                       (span_last + 1) * self.page_bytes))
        return ranges
