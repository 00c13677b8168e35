"""Autoscaling policy: grow the blade fleet from SLO pressure.

The admission controller already computes the honest overload signal —
operations it had to SHED or DEFER to protect each tenant's p99.  The
autoscaler consumes exactly that: each period it samples the cumulative
shed/defer counters of every :class:`repro.traffic.engine.TenantState`
and scales out when the per-period delta crosses a threshold (the fleet
is too small for the offered load).

The mechanism (adding a blade, rewiring QPs, migrating shards) is
injected as a generator callback, so this module stays free of app- and
traffic-layer imports; the policy itself is a plain seeded-state
coroutine and replays bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence


@dataclass
class ScaleEvent:
    """One scale-out decision, for reports and assertions."""

    at_ns: float
    shed_delta: int
    defer_delta: int
    blades_before: int
    blades_after: int


class Autoscaler:
    """Periodic scale-out loop over admission-control pressure signals.

    Parameters
    ----------
    sim : the simulator whose clock paces sampling.
    tenant_states : objects exposing ``.shed`` / ``.deferred`` cumulative
        counters (:class:`repro.traffic.engine.TenantState`, which owns
        the open-loop bookkeeping).
    blade_count_fn : current number of active blades.
    scale_out_fn : generator; adds one blade and rebalances onto it.
    """

    def __init__(
        self,
        sim,
        tenant_states: Sequence,
        blade_count_fn: Callable[[], int],
        scale_out_fn: Callable[[], object],
        period_ns: float = 200_000.0,
        shed_threshold: int = 1,
        defer_threshold: int = 64,
        max_blades: int = 16,
        cooldown_periods: int = 2,
    ):
        if period_ns <= 0:
            raise ValueError("period_ns must be positive")
        if max_blades < 1:
            raise ValueError("need max_blades >= 1")
        self.sim = sim
        self.tenant_states = list(tenant_states)
        self.blade_count_fn = blade_count_fn
        self.scale_out_fn = scale_out_fn
        self.period_ns = period_ns
        self.shed_threshold = shed_threshold
        self.defer_threshold = defer_threshold
        self.max_blades = max_blades
        self.cooldown_periods = cooldown_periods
        self.events: List[ScaleEvent] = []
        self._stopped = False

    def stop(self) -> None:
        self._stopped = True

    def _pressure(self):
        shed = sum(s.shed for s in self.tenant_states)
        deferred = sum(s.deferred for s in self.tenant_states)
        return shed, deferred

    def run(self):
        """The scaling loop — spawn with ``sim.spawn(autoscaler.run())``."""
        last_shed, last_deferred = self._pressure()
        cooldown = 0
        while not self._stopped:
            yield self.sim.timeout(self.period_ns)
            if self._stopped:
                return
            shed, deferred = self._pressure()
            shed_delta = shed - last_shed
            defer_delta = deferred - last_deferred
            last_shed, last_deferred = shed, deferred
            if cooldown > 0:
                cooldown -= 1
                continue
            overloaded = (
                shed_delta >= self.shed_threshold
                or defer_delta >= self.defer_threshold
            )
            blades = self.blade_count_fn()
            if overloaded and blades < self.max_blades:
                cooldown = self.cooldown_periods
                yield from self.scale_out_fn()
                self.events.append(ScaleEvent(
                    self.sim.now, shed_delta, defer_delta,
                    blades, self.blade_count_fn(),
                ))
                # Reset the baseline: migration itself sheds/defers.
                last_shed, last_deferred = self._pressure()
