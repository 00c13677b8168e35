"""Deterministic random number generation and key-distribution generators.

The Zipfian generator follows Gray et al., "Quickly Generating
Billion-Record Synthetic Databases" (SIGMOD'94) — the same algorithm YCSB
uses and the one the paper cites [19].  The scrambled variant hashes the
rank so that popular keys are spread over the key space, matching YCSB's
``ScrambledZipfianGenerator``.
"""

from __future__ import annotations

import functools
import math
import random
from typing import Optional

_FNV_OFFSET_BASIS_64 = 0xCBF29CE484222325
_FNV_PRIME_64 = 0x100000001B3
_MASK_64 = (1 << 64) - 1


def fnv1a_64(value: int) -> int:
    """FNV-1a hash of an integer's 8 little-endian bytes."""
    hashed = _FNV_OFFSET_BASIS_64
    # The low 64 bits in two's complement, so negatives hash as before.
    for octet in (value & _MASK_64).to_bytes(8, "little"):
        hashed = ((hashed ^ octet) * _FNV_PRIME_64) & _MASK_64
    return hashed


class UniformGenerator:
    """Uniform keys in ``[0, item_count)``."""

    def __init__(self, item_count: int, seed: Optional[int] = None):
        if item_count <= 0:
            raise ValueError("item_count must be positive")
        self.item_count = item_count
        self._rng = random.Random(seed)

    def next(self) -> int:
        return self._rng.randrange(self.item_count)


class ZipfianGenerator:
    """Zipfian-distributed ranks in ``[0, item_count)`` with skew ``theta``.

    ``theta = 0`` degenerates to uniform; the paper (and YCSB) use
    ``theta = 0.99`` for skewed workloads.
    """

    def __init__(self, item_count: int, theta: float = 0.99, seed: Optional[int] = None):
        if item_count <= 0:
            raise ValueError("item_count must be positive")
        if not 0.0 <= theta < 1.0:
            raise ValueError("theta must be in [0, 1)")
        self.item_count = item_count
        self.theta = theta
        self._rng = random.Random(seed)
        self._zeta_n = self._zeta(item_count, theta)
        self._zeta_2 = self._zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta) if theta > 0 else 0.0
        denominator = 1.0 - self._zeta_2 / self._zeta_n
        if theta > 0 and denominator > 0:
            self._eta = (1.0 - (2.0 / item_count) ** (1.0 - theta)) / denominator
        else:
            # item_count <= 2: the closed-form eta is undefined but the two
            # head-probability branches in next() already cover both ranks.
            self._eta = 0.0

    @staticmethod
    @functools.lru_cache
    def _zeta(n: int, theta: float) -> float:
        # O(n), and every client coroutine of a point builds its own
        # generator over the same (n, theta): summed once per process,
        # not once per client (128 x 100k terms inside each warm-up).
        return sum(1.0 / (i ** theta) for i in range(1, n + 1))

    def next(self) -> int:
        if self.theta == 0.0:
            return self._rng.randrange(self.item_count)
        u = self._rng.random()
        uz = u * self._zeta_n
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        rank = int(self.item_count * (self._eta * u - self._eta + 1.0) ** self._alpha)
        return min(rank, self.item_count - 1)


class ScrambledZipfianGenerator:
    """Zipfian ranks scattered over the key space by an FNV hash (as in YCSB)."""

    def __init__(self, item_count: int, theta: float = 0.99, seed: Optional[int] = None):
        self.item_count = item_count
        self._zipf = ZipfianGenerator(item_count, theta, seed)

    @property
    def theta(self) -> float:
        return self._zipf.theta

    def next(self) -> int:
        return fnv1a_64(self._zipf.next()) % self.item_count


def exponential_interval_ns(mean_ns: float, rng: random.Random) -> float:
    """One exponentially distributed inter-arrival gap with the given mean.

    The building block of the open-loop Poisson/MMPP arrival processes in
    :mod:`repro.traffic.arrivals` — kept here so every source of
    randomness in a run flows through seeded ``random.Random`` instances
    and stays bit-replayable.
    """
    if mean_ns <= 0:
        raise ValueError(f"mean_ns must be positive, got {mean_ns}")
    # rng.random() is in [0, 1), so the argument of log stays in (0, 1].
    return -mean_ns * math.log(1.0 - rng.random())


def truncated_exponential_backoff_ns(
    attempt: int,
    unit_ns: float,
    max_ns: float,
    rng: random.Random,
) -> float:
    """Eq. (1) of the paper: ``min(t0 * 2^i, t_max) + Rand(t0)``."""
    if attempt < 0:
        raise ValueError("attempt must be >= 0")
    exp = unit_ns * (2.0 ** min(attempt, 62))
    return min(exp, max_ns) + rng.random() * unit_ns


def percentile(sorted_values, fraction: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sequence."""
    if not sorted_values:
        raise ValueError("empty sequence")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    index = min(len(sorted_values) - 1, max(0, math.ceil(fraction * len(sorted_values)) - 1))
    return sorted_values[index]
