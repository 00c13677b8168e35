"""§4.2 — Adaptive work-request throttling (Algorithm 1).

Each thread holds a credit pool of size C_max.  Posting ``n`` WRs debits
``n`` credits (blocking while depleted — "defer posting unless credit is
enough"); every completed WR replenishes one.  An epoch process probes the
candidate C_max values for Δ each, keeps the one that completed the most
WRs, and then holds it for the stable phase (60 x Δ).
"""

from __future__ import annotations

from repro.core.features import SmartFeatures
from repro.sim import Simulator, TokenBucket
from repro.sim.core import Waitable


class WorkRequestThrottler:
    """Per-thread credit accounting plus the epoch-based C_max search."""

    def __init__(self, sim: Simulator, features: SmartFeatures, name: str = "throttler"):
        self.sim = sim
        self.features = features
        self.name = name
        self.enabled = features.work_req_throttling
        self.cmax = features.initial_cmax
        self.credits = TokenBucket(sim, self.cmax, name=f"{name}.credits")
        #: completed WRs, monotonic (the UPDATE procedure reads deltas)
        self.completed = 0
        #: chosen C_max history [(time, value)] for observability
        self.cmax_history = [(sim.now, self.cmax)]
        self._stopped = False
        self._epoch_process = None
        if self.enabled and features.adaptive_credit:
            self._epoch_process = sim.spawn(
                self._epoch_loop(), name=f"{name}.epochs"
            )

    # -- Algorithm 1, lines 1-13 -------------------------------------------

    def take(self, amount: int) -> Waitable:
        """SmartPostSend's credit debit; fires when posting may proceed."""
        if not self.enabled:
            ticket = self.sim.event()
            ticket.fire(amount)
            return ticket
        return self.credits.take(amount)

    def try_take(self, amount: int) -> bool:
        """"Unless credit is enough": debit on the spot when :meth:`take`
        would not have made the caller wait (see ``TokenBucket.try_take``);
        with throttling off only the tick's other events can be in the way.
        """
        if not self.enabled:
            return self.sim.rest_of_tick_empty()
        return self.credits.try_take(amount)

    def on_complete(self, amount: int) -> None:
        """SmartPollCq's replenish path (wired to batch completion)."""
        self.completed += amount
        if self.enabled:
            self.credits.put(amount)

    # -- Algorithm 1, lines 14-24 --------------------------------------------

    def update_cmax(self, target: int) -> None:
        """UpdateCMax: shift the pool by (target - C_max)."""
        if target < 1:
            raise ValueError("C_max must be >= 1")
        self.credits.adjust(target - self.cmax)
        self.cmax = target
        self.cmax_history.append((self.sim.now, target))

    def stop(self) -> None:
        """Stop the epoch search immediately.

        The epoch loop sleeps up to ``stable_epochs * Δ`` at a time; the
        flag alone would keep the process (and its pending timeout event)
        alive until that window fires, so interrupt the sleeper too.
        """
        self._stopped = True
        if self._epoch_process is not None and self._epoch_process.alive:
            self._epoch_process.interrupt("stopped")

    def _epoch_loop(self):
        features = self.features
        delta = features.update_delta_ns
        while not self._stopped:
            best_target, best_completed = self.cmax, -1
            for target in features.cmax_candidates:
                self.update_cmax(target)
                before = self.completed
                yield self.sim.timeout(delta)
                if self._stopped:
                    return
                progress = self.completed - before
                if progress > best_completed:
                    best_completed, best_target = progress, target
            self.update_cmax(best_target)
            yield self.sim.timeout(features.stable_epochs * delta)
