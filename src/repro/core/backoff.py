"""§4.3 — Conflict avoidance.

Failed RDMA CAS retries burn the NIC's limited IOPS.  SMART responds on
two axes, both driven by the *retry rate* γ sampled every millisecond:

* truncated exponential backoff (Eq. 1) with a dynamic ceiling t_max, and
* coroutine-depth throttling: at most c_max application operations may be
  in flight per thread.

Per the paper, c_max reacts first; t_max only moves once c_max has hit a
bound (e.g. γ > γ_H while c_max is already 1 doubles t_max).
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.core.features import SmartFeatures
from repro.sim import Simulator, TokenBucket
from repro.sim.core import Waitable
from repro.sim.rng import truncated_exponential_backoff_ns


class ConflictAvoider:
    """Per-thread retry-rate tracking, backoff delays and c_max credits."""

    def __init__(
        self,
        sim: Simulator,
        features: SmartFeatures,
        rng: random.Random,
        cpu_ghz: float,
        name: str = "avoider",
    ):
        self.sim = sim
        self.features = features
        self.rng = rng
        self.name = name
        self.t0_ns = features.backoff_unit_cycles / cpu_ghz
        self.t_big_ns = self.t0_ns * (2 ** features.backoff_max_exponent)
        # With the dynamic limit, t_max starts at t0 and adapts to the
        # retry rate; the static variant (+Backoff alone) is a plain
        # truncated exponential up to the t_M ceiling.
        self.t_max_ns = (
            self.t0_ns if features.dynamic_backoff_limit else self.t_big_ns
        )
        self.cmax = (
            features.initial_cmax
            if features.coroutine_throttling
            else features.max_coroutine_credits
        )
        self._op_credits = TokenBucket(sim, self.cmax, name=f"{name}.ops")
        # window counters for γ
        self._window_ops = 0
        self._window_retries = 0
        #: [(time, t_max, c_max, gamma)] for observability
        self.history: List[Tuple[int, float, int, float]] = []
        self._stopped = False
        self._window_process = None
        if features.dynamic_backoff_limit or features.coroutine_throttling:
            self._window_process = sim.spawn(
                self._window_loop(), name=f"{name}.window"
            )

    # -- operation concurrency (c_max) ----------------------------------------

    def begin_op(self) -> Waitable:
        """Take one operation credit (blocks beyond c_max concurrent ops)."""
        if not self.features.coroutine_throttling:
            ticket = self.sim.event()
            ticket.fire(1)
            return ticket
        return self._op_credits.take(1)

    def try_begin_op(self) -> bool:
        """Take the operation credit on the spot when :meth:`begin_op`
        would not have made the caller wait (see ``TokenBucket.try_take``).
        """
        if not self.features.coroutine_throttling:
            return self.sim.rest_of_tick_empty()
        return self._op_credits.try_take(1)

    def end_op(self) -> None:
        self._window_ops += 1
        if self.features.coroutine_throttling:
            self._op_credits.put(1)

    # -- backoff ------------------------------------------------------------------

    def record_retry(self) -> None:
        self._window_retries += 1

    def backoff_ns(self, attempt: int) -> float:
        """Eq. (1): min(t0 * 2^attempt, t_max) + Rand(t0)."""
        if not self.features.backoff:
            return 0.0
        return truncated_exponential_backoff_ns(
            attempt, self.t0_ns, self.t_max_ns, self.rng
        )

    def reconnect_backoff_ns(self, attempt: int) -> float:
        """Jittered truncated-exponential delay for QP reconnect probes.

        Unlike :meth:`backoff_ns` this ignores the ``backoff`` feature
        gate: reconnect pacing after a blade crash is part of the
        transport's recovery path, not an optional SMART optimization, so
        baseline (feature-off) configurations must still spread their
        probes instead of hammering the crashed blade in lockstep.
        """
        return truncated_exponential_backoff_ns(
            attempt, self.t0_ns, self.t_big_ns, self.rng
        )

    # -- the γ controller -----------------------------------------------------------

    def stop(self) -> None:
        """Stop the γ controller immediately.

        The window loop sleeps a full ``retry_window_ns`` between samples;
        merely setting the flag would leave the process alive (holding a
        pending window event) until the next boundary, so the sleeping
        process is interrupted as well.
        """
        self._stopped = True
        if self._window_process is not None and self._window_process.alive:
            self._window_process.interrupt("stopped")

    def _window_loop(self):
        features = self.features
        while not self._stopped:
            yield self.sim.timeout(features.retry_window_ns)
            ops = self._window_ops
            retries = self._window_retries
            self._window_ops = 0
            self._window_retries = 0
            if ops + retries == 0:
                continue
            gamma = retries / (ops + retries)
            if gamma > features.retry_rate_high:
                self._tighten()
            elif gamma < features.retry_rate_low:
                self._relax()
            self.history.append((self.sim.now, self.t_max_ns, self.cmax, gamma))

    def _tighten(self) -> None:
        """High retry rate: fewer concurrent ops first, longer backoff after."""
        features = self.features
        if features.coroutine_throttling and self.cmax > 1:
            self._set_cmax(max(1, self.cmax // 2))
        elif features.dynamic_backoff_limit:
            self.t_max_ns = min(self.t_max_ns * 2, self.t_big_ns)

    def _relax(self) -> None:
        """Low retry rate: shorter backoff first, more concurrency after."""
        features = self.features
        if features.dynamic_backoff_limit and self.t_max_ns > self.t0_ns:
            self.t_max_ns = max(self.t_max_ns / 2, self.t0_ns)
        elif features.coroutine_throttling and self.cmax < features.max_coroutine_credits:
            self._set_cmax(min(features.max_coroutine_credits, self.cmax * 2))

    def _set_cmax(self, target: int) -> None:
        self._op_credits.adjust(target - self.cmax)
        self.cmax = target
