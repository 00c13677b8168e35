"""Simulated RNIC: the hardware substrate the paper's analysis targets.

The model reproduces the three structural contention points of §2.2/§3:

* :mod:`repro.rnic.doorbell` — UAR doorbell registers with per-register
  spinlocks and the mlx5 driver's round-robin QP→doorbell mapping;
  :func:`repro.rnic.policies.connect` is the one QP allocator over it.
* :mod:`repro.rnic.caches` — the WQE cache (miss rate grows with total
  outstanding work requests) and the MTT/MPT cache (miss rate grows with
  the number of device contexts).
* :mod:`repro.rnic.engine` — requester/responder pipelines with the CX-6
  IOPS ceiling and NIC/PCIe bandwidth ceilings.

There is no CQ object: CQ polling is priced per CQE in
:func:`repro.rnic.verbs.wait_completion`.
"""

from repro.rnic.config import RnicConfig
from repro.rnic.counters import PerfCounters
from repro.rnic.device import DeviceContext, RnicDevice
from repro.rnic.doorbell import Doorbell
from repro.rnic.qp import QueuePair, WorkBatch, WorkRequest

__all__ = [
    "DeviceContext",
    "Doorbell",
    "PerfCounters",
    "QueuePair",
    "RnicConfig",
    "RnicDevice",
    "WorkBatch",
    "WorkRequest",
]
