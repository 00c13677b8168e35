"""SMART: the paper's contribution.

Three techniques behind a verbs-like coroutine API:

* :mod:`repro.core.context`  — §4.1 thread-aware resource allocation
  (per-thread QPs and doorbell registers on one shared device context);
* :mod:`repro.core.throttle` — §4.2 adaptive work-request throttling
  (Algorithm 1: credit accounting plus an epoch-based search for the best
  per-thread credit ceiling);
* :mod:`repro.core.backoff`  — §4.3 conflict avoidance (truncated
  exponential backoff with a dynamic limit, plus coroutine-depth
  throttling driven by the observed retry rate).

Applications talk to :class:`repro.core.api.SmartHandle`, whose methods
mirror the paper's API: ``read``/``write``/``cas``/``faa`` buffer work
requests, ``post_send`` posts them, ``sync`` awaits completions and
``backoff_cas_sync`` is the conflict-avoiding CAS.
"""

from repro.core.api import SmartHandle, SmartThread
from repro.core.context import SmartContext
from repro.core.features import SmartFeatures
from repro.core.stats import OperationStats

__all__ = [
    "OperationStats",
    "SmartContext",
    "SmartFeatures",
    "SmartHandle",
    "SmartThread",
]
