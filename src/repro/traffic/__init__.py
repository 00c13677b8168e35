"""Open-loop, multi-tenant traffic generation over the simulator.

The closed-loop runners in :mod:`repro.bench.runner` issue each op only
after the previous one completes, which under-reports latency past
saturation (coordinated omission).  This package generates arrivals
independently of service progress:

* :mod:`repro.traffic.arrivals` — seeded deterministic / Poisson /
  bursty on-off / ramp-diurnal arrival processes;
* :mod:`repro.traffic.tenant` — :class:`TenantSpec` binding an arrival
  process, a workload mix and an :class:`Slo` to dedicated workers;
* :mod:`repro.traffic.admission` — SLO-driven shedding/deferral;
* :mod:`repro.traffic.engine` — the arrival→admission→queue→worker
  machinery on one simulator;
* :mod:`repro.traffic.runner` — ``run_open_loop`` for the hash-table,
  DTX and B+Tree apps.
"""

from repro.traffic.arrivals import (
    ArrivalProcess,
    DeterministicArrivals,
    OnOffArrivals,
    PoissonArrivals,
    RampArrivals,
)
from repro.traffic.engine import OpenLoopEngine, TenantState
from repro.traffic.runner import OpenLoopResult, TenantResult, run_open_loop
from repro.traffic.tenant import (
    ADMIT_DEFER,
    ADMIT_NONE,
    ADMIT_SHED,
    NO_SLO,
    Slo,
    TenantSpec,
)

__all__ = [
    "ArrivalProcess",
    "DeterministicArrivals",
    "PoissonArrivals",
    "OnOffArrivals",
    "RampArrivals",
    "TenantSpec",
    "Slo",
    "NO_SLO",
    "ADMIT_NONE",
    "ADMIT_SHED",
    "ADMIT_DEFER",
    "OpenLoopEngine",
    "TenantState",
    "OpenLoopResult",
    "TenantResult",
    "run_open_loop",
]
