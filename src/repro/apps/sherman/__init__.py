"""Sherman: a write-optimized disaggregated B+Tree [Wang et al., SIGMOD'22].

The reproduction follows the paper's *modified* baseline, Sherman+: the
two-level version mechanism is replaced by FaRM-style per-cacheline
versions (§5.2 — the authors found their RNIC does not guarantee
increasing-address-order writes, and the open-source tree crashes with
many threads).  Structure:

* 1 KB tree nodes in remote memory; internal nodes cached on each compute
  blade; leaves fetched with one big READ (the read-amplification that
  makes stock Sherman bandwidth-bound);
* hierarchical on-chip locks (HOPL): one remote CAS acquires a node lock
  per compute blade, local threads queue in DRAM and hand the lock over
  without extra network traffic;
* B-link sibling pointers + fence keys so readers survive concurrent
  splits and stale caches.

SMART-BT adds speculative lookup (:class:`SpeculativeCache`) and runs the
same client on the full SMART feature set
(``repro.bench.runner.BTreeApp.systems["smart-bt"]``).
"""

from repro.apps.sherman.client import BTreeClient, LocalLockTable, SpeculativeCache
from repro.apps.sherman.server import BTreeServer

__all__ = ["BTreeClient", "BTreeServer", "LocalLockTable", "SpeculativeCache"]
