"""Log-bucketed histograms for the metrics JSON and queueing delays.

A :class:`LogHistogram` keeps HDR-style logarithmic buckets (bounded
relative error, ~2% at its fixed resolution) in O(log(max value))
memory regardless of how many values are recorded, and two histograms
merge exactly by adding bucket counts.

Everything here is simulation-passive: recording a value never touches
the event loop or any RNG, so instrumented runs produce bit-identical
simulated results.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

#: buckets per power of two, the same for every histogram (so any two merge)
SUB_BUCKETS = 16


class LogHistogram:
    """Log-bucketed histogram with fixed memory and exact merging.

    Values (nanoseconds, but any non-negative quantity works) map to
    bucket ``round(log2(value) * SUB_BUCKETS)``; the representative value
    of a bucket is the inverse ``2 ** (index / SUB_BUCKETS)``, so any
    reported percentile is within a factor ``2 ** (1 / (2*SUB_BUCKETS))``
    (~2.2%) of the true sample.  ``count``/``sum``/``min``/``max`` are
    tracked exactly.
    """

    __slots__ = ("buckets", "count", "total", "min", "max")

    def __init__(self):
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def _index(self, value: float) -> int:
        if value <= 1.0:
            return 0
        return int(round(math.log2(value) * SUB_BUCKETS))

    @staticmethod
    def bucket_value(index: int) -> float:
        """Representative (geometric center) value of a bucket."""
        return 2.0 ** (index / SUB_BUCKETS)

    def record(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"negative value: {value}")
        index = self._index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def merge(self, other: "LogHistogram") -> "LogHistogram":
        """Fold ``other`` into this histogram (exact; returns self)."""
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n
        self.count += other.count
        self.total += other.total
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)
        return self

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> Optional[float]:
        """Nearest-rank percentile (bucket-representative value)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        if self.count == 0:
            return None
        target = max(1, math.ceil(fraction * self.count))
        cumulative = 0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= target:
                # Clamp to the exact extrema so p0/p100 are not distorted
                # by bucket quantization.
                value = self.bucket_value(index)
                return min(max(value, self.min), self.max)
        return self.max  # pragma: no cover - cumulative always reaches count

    def to_dict(self) -> Dict:
        return {
            "sub_buckets": SUB_BUCKETS,
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p99": self.percentile(0.99),
            "p999": self.percentile(0.999),
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }

    def __repr__(self) -> str:
        return f"LogHistogram(count={self.count}, mean={self.mean:.1f})"

