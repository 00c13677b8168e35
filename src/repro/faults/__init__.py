"""Deterministic fault injection for the simulated cluster.

Three layers (built bottom-up elsewhere, orchestrated here):

* fault *sources* — :class:`repro.network.fabric.LinkFault` windows
  (loss / duplication / delay spikes) and blade crash/restart
  (:meth:`repro.cluster.Node.crash`);
* *recovery* — QP reconnect (:meth:`repro.core.api.SmartHandle.reconnect`),
  typed error completions, FORD log-ring rollback at blade restart;
* the *chaos harness* — :class:`FaultSchedule` (scripted or seeded) and
  :class:`FaultInjector`, which installs a schedule on a cluster.

Determinism: all randomness flows from one seeded RNG that is only
consulted while a fault window is active, so (a) the same seed replays a
faulty run bit-identically and (b) with no faults installed the
simulation is byte-for-byte the pre-fault-injection model.
"""

from repro.faults.schedule import (
    BladeCrash,
    FaultSchedule,
    parse_duration_ns,
)
from repro.faults.injector import FaultInjector
from repro.network.fabric import LinkFault

__all__ = [
    "BladeCrash",
    "FaultInjector",
    "FaultSchedule",
    "LinkFault",
    "parse_duration_ns",
]
